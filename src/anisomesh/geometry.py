"""Exact polygon primitives: moments, covariance spectra, reference mapping, line splitting.

All moment integrals are evaluated in closed form from the boundary loop
(Green's theorem applied to polynomial integrands), so there is no quadrature
error even for extremely stretched elements.  Polygons come in batches
(``Loops``): flat arrays of many loops' vertices, moments, covariance
spectra and reference scales, built by one array pass (``loop_moments``).
Level-wide kernels read a batch, or a ``take`` of its rows; a ``Polygon``
is one row of a batch, and ``Polygon(vertices)`` a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CutMissesPolygon, DegenerateElement, NonSimpleResult

__all__ = [
    "Polygon",
    "Loops",
    "CovarianceSpectrum",
    "ReferenceMap",
    "reference_map",
    "map_polygon",
    "split_polygon_detailed",
    "split_polygons",
    "CutEnds",
    "loop_moments",
    "loops_simple",
    "polygons_of",
    "symmetric_eig_2x2",
    "point_set_diameter",
]

_ZERO_COMPONENT_TOL = 1e-14

# Cut tolerance relative to the element diameter: chord intervals this short
# are dropped, and a cut endpoint this close to a vertex (in refine, also to
# an earlier cut node on the same edge) snaps to it.
SNAP_TOL = 1e-9

# Vertex pairs per block of rows in ``loop_moments``.
_PAIR_BLOCK = 1 << 14


def symmetric_eig_2x2(a, b, c):
    """Closed-form spectra of the matrices [[a, b], [b, c]], entry by entry of
    the equal-shaped arrays a, b and c.

    Returns (l1, l2, u1) with l1 >= l2 and u1 (..., 2) the unit eigenvectors
    of l1, sign-normalized so that the first component larger than 1e-14 in
    modulus is positive.  Each entry takes the operations of a scalar
    closed-form solve (``math.hypot``, Python's ``max``), so its bits do not
    depend on the other entries.
    """
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    with np.errstate(all="ignore"):
        half_tr = 0.5 * (a + c)
        half_diff = 0.5 * (a - c)
        r = _hypot(half_diff, b)
        l1 = half_tr + r
        # The subtraction half_tr - r cancels badly for extreme anisotropy;
        # the determinant route keeps l2 accurate to machine precision.
        l2 = np.where(l1 > 0.0, (a * c - b * b) / l1, half_tr - r)
        top = np.where(np.abs(l2) > np.abs(l1), np.abs(l2), np.abs(l1))
        tie = r <= _ZERO_COMPONENT_TOL * np.where(1e-300 > top, 1e-300, top)
        # Two algebraically parallel candidates; pick the better-conditioned one.
        x = np.where(half_diff >= 0.0, r + half_diff, b)
        y = np.where(half_diff >= 0.0, b, r - half_diff)
        # Subnormal candidates lose bits in the norm and the division; a
        # power-of-two scaling into the normal range is exact.
        lift = np.where(np.maximum(np.abs(x), np.abs(y)) < 2.0 ** -900, 2.0 ** 600, 1.0)
        x, y = x * lift, y * lift
        norm = _hypot(x, y)
        axis = tie | (norm == 0.0)
        x, y = np.where(axis, 1.0, x / norm), np.where(axis, 0.0, y / norm)
    ax, ay = np.abs(x), np.abs(y)
    flip = np.where(ax > _ZERO_COMPONENT_TOL * np.where(ay > ax, ay, ax), x < 0.0, y < 0.0)
    return l1, l2, np.stack((np.where(flip, -x, x), np.where(flip, -y, y)), axis=-1)


@dataclass(frozen=True)
class CovarianceSpectrum:
    """Eigen data of an element's covariance matrix, canonically oriented."""

    lambda1: float
    lambda2: float
    u1: np.ndarray
    u2: np.ndarray
    covariance: np.ndarray

    @property
    def ratio(self):
        """Anisotropy ratio lambda1/lambda2 (>= 1)."""
        return self.lambda1 / self.lambda2

    @property
    def basis(self):
        """Column matrix U = [u1 u2] with det +1."""
        return np.column_stack([self.u1, self.u2])


@dataclass(frozen=True)
class ReferenceMap:
    """Linear map x -> A x normalizing an element to unit area and isotropic covariance."""

    matrix: np.ndarray
    alpha: float
    inverse: np.ndarray

    def apply(self, points):
        return np.asarray(points, dtype=float) @ self.matrix.T

    @property
    def inverse_transpose(self):
        """A^{-T}; scales gradients into the reference configuration."""
        return self.inverse.T


class Polygon:
    """Simple CCW polygon with exact moments and spectral data: row ``row`` of
    the ``Loops`` batch ``loops``.

    ``Polygon(vertices)`` is the batch of one of ``polygons_of``: it takes an
    (n, 2) array without repeated consecutive points, copies it (the
    caller's array stays writable), and raises the ``loop_error`` of its
    loop, such as a non-positive signed area.  ``Loops.polygon`` views a
    row of a larger batch.  The vertices, centroid and covariance
    (``second_moment``) are read-only arrays.  ``spectrum`` raises
    DegenerateElement for a numerically rank-deficient covariance,
    construction never does.  Simplicity is checked on demand
    (``validate_simple``) because the O(n^2) test is not needed on the hot
    refinement path.
    """

    __slots__ = ("loops", "row", "vertices", "area", "centroid", "second_moment", "diameter")

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if len(v) >= 2 and abs(v[0, 0] - v[-1, 0]) < 1e-300 and abs(v[0, 1] - v[-1, 1]) < 1e-300:
            v = v[:-1]
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        self._view(polygons_of([v]), 0)

    def _view(self, loops, row):
        start = loops.starts[row]
        self.loops, self.row = loops, row
        self.vertices = loops.vertices[start:start + loops.sizes[row]]
        self.area, self.diameter = float(loops.area[row]), float(loops.diameter[row])
        self.centroid, self.second_moment = loops.centroid[row], loops.second_moment[row]

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.6g})"

    def batch(self):
        """This polygon as a ``Loops`` batch of one."""
        return self.loops if len(self.loops.sizes) == 1 else self.loops.take([self.row])

    @property
    def spectrum(self):
        """Eigen decomposition of the covariance matrix with canonical orientation.

        u1 belongs to the larger eigenvalue; its first nonzero component is
        positive and u2 is u1 rotated by +90 degrees, so all elements share
        one orientation convention.
        """
        s, k = self.loops.full_rank([self.row]), self.row
        return CovarianceSpectrum(lambda1=s.lambda1[k], lambda2=s.lambda2[k], u1=s.u[k, 0],
                                  u2=s.u[k, 1], covariance=s.second_moment[k])

    @property
    def refmap(self):
        return reference_map(self)

    def validate_simple(self):
        """Raise NonSimpleResult if any two non-adjacent edges intersect."""
        if not loops_simple(self.batch())[0]:
            raise NonSimpleResult("polygon boundary self-intersects")


class Loops(NamedTuple):
    """Many polygons' loops with their checks, moments and spectra, as flat arrays.

    Loop k is the ``sizes[k]`` vertices from ``starts[k]``; ``owner`` names
    each vertex's loop and ``succ`` indexes its successor in it.  ``error``
    is 0 for a valid loop, else a key of ``_LOOP_ERRORS``.  ``u[k]`` holds
    the rows u1, u2 of ``Polygon.spectrum``, and ``alpha[k]`` the scale of
    ``reference_map``.  Rank-deficient loops get spectra too: ``full_rank``
    rejects them where a spectrum is used.  Every array is read-only.
    """

    vertices: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    succ: np.ndarray
    # One entry per loop from here on: ``take`` selects them.
    area: np.ndarray
    centroid: np.ndarray
    second_moment: np.ndarray
    diameter: np.ndarray
    error: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    u: np.ndarray
    alpha: np.ndarray

    def take(self, ids):
        """The loops ``ids``, in that order, as a batch of their own."""
        ids = np.asarray(ids, dtype=int)
        _, at = block_pairs(ids, self.starts, self.sizes)
        return _batch(self.vertices[at], self.sizes[ids], *(a[ids] for a in self[5:]))

    def polygon(self, k):
        """Loop k as a ``Polygon``: a view on this batch."""
        poly = object.__new__(Polygon)
        poly._view(self, k)
        return poly

    def full_rank(self, rows=slice(None)):
        """This batch, once no loop of ``rows`` has a numerically rank-deficient
        covariance (lambda2 <= 1e-14 lambda1); else DegenerateElement for the first."""
        l1, l2 = self.lambda1[rows], self.lambda2[rows]
        for k in np.flatnonzero(l2 <= 1e-14 * l1)[:1].tolist():
            raise DegenerateElement("covariance numerically rank deficient "
                                    f"(lambda1={l1[k]:.3e}, lambda2={l2[k]:.3e})")
        return self


def _batch(vertices, sizes, *rows):
    """``Loops`` of concatenated loops of these sizes and their per-loop arrays."""
    starts = np.cumsum(sizes) - sizes
    loops = Loops(vertices, sizes, starts, np.repeat(np.arange(len(sizes)), sizes),
                  loop_successors(starts, sizes), *rows)
    for a in loops:
        a.setflags(write=False)
    return loops


_LOOP_ERRORS = {
    1: "repeated consecutive vertices",
    2: "vertex loop must be counter-clockwise with positive area",
    3: "polygon area {:.3e} below tolerance",
}


def loop_moments(vertices, sizes):
    """Checks, exact moments and covariance spectra of many loops; returns ``Loops``.

    ``vertices`` (N, 2) concatenates the loops, loop k being ``sizes[k]``
    vertices.  The moments go in blocks of at most ``_PAIR_BLOCK`` vertex
    pairs.  A block row holds a loop's last vertex, its vertices in order,
    then its last vertex again up to the block's width, so column pairs
    (c, c + 1) are its edges from the closing one on and the padding edges
    have zero length.  Each sum runs column by column from 0.0 over
    coordinates shifted to the loop's vertex mean, the order of a scalar
    loop over the vertices; the diameter is the largest pairwise distance.
    The spectra come from ``symmetric_eig_2x2`` of the covariances, and
    alpha = (sqrt(lambda1 lambda2) / |K|)^(1/2) from Python's ``** 0.5``
    (C ``pow``, not ``sqrt``), loop by loop.  So a row's bits do not depend
    on the other rows.  The batch holds copies of ``vertices`` and ``sizes``.
    """
    vertices, sizes = np.array(vertices, dtype=float), np.array(sizes)
    count = len(sizes)
    starts = np.cumsum(sizes) - sizes
    q = np.arange(-1, int(sizes.max(initial=0)))  # column c holds entry c - 1
    area, diameter, error = np.empty(count), np.empty(count), np.empty(count, dtype=int)
    centroid, second = np.empty((count, 2)), np.empty((count, 2, 2))
    step = max(1, _PAIR_BLOCK // len(q) ** 2)
    for a in range(0, count, step):
        rows = slice(a, a + step)
        n, s = sizes[rows, None], starts[rows, None]
        padded = vertices[np.where((q >= 0) & (q < n), s + q, s + n - 1)]
        (area[rows], centroid[rows], second[rows], diameter[rows],
         error[rows]) = _moments_block(padded, sizes[rows])
    l1, l2, u1 = symmetric_eig_2x2(second[:, 0, 0], second[:, 0, 1], second[:, 1, 1])
    u = np.stack((u1, np.column_stack((-u1[:, 1], u1[:, 0]))), axis=1)
    with np.errstate(all="ignore"):
        scale = np.sqrt(l1 * l2) / area
    alpha = np.array([x ** 0.5 for x in np.where(scale >= 0.0, scale, np.nan).tolist()])
    return _batch(vertices, sizes, area, centroid, second, diameter, error, l1, l2, u, alpha)


def _moments_block(vertices, sizes):
    column = np.arange(vertices.shape[1])
    real = (column > 0) & (column <= sizes[:, None])  # a loop's own vertices
    span = (vertices.max(axis=1) - vertices.min(axis=1)).max(axis=1)
    tol = 1e-15 * np.where(span > 0.0, span, 1.0)
    # Shift to the vertex mean first: the quadratic boundary formulas
    # cancel catastrophically when evaluated far from the origin.  Column 0
    # is masked to 0.0, so the cumulative sums start from 0.0.
    mean = np.where(real[:, :, None], vertices, 0.0).cumsum(axis=1)[:, -1] / sizes[:, None]
    shifted = vertices - mean[:, None, :]
    p0, p1 = shifted[:, :-1], shifted[:, 1:]
    x0, y0, x1, y1 = p0[..., 0], p0[..., 1], p1[..., 0], p1[..., 1]
    repeated = ((np.abs(p1 - p0) <= tol[:, None, None]).all(axis=2) & real[:, 1:]).any(axis=1)
    x0y1, x1y0 = x0 * y1, x1 * y0
    cross = x0y1 - x1y0
    terms = np.empty(x0.shape + (6,))
    terms[..., 0] = cross
    np.multiply(p0 + p1, cross[..., None], out=terms[..., 1:3])
    np.multiply(p0 * p0 + p0 * p1 + p1 * p1, cross[..., None], out=terms[..., 3:5])
    np.multiply(x0y1 + 2.0 * x0 * y0 + 2.0 * x1 * y1 + x1y0, cross, out=terms[..., 5])
    terms[:, 0] += 0.0  # 0.0 + t: a -0.0 first term sums to 0.0
    sums = terms.cumsum(axis=1)[:, -1]
    area = 0.5 * sums[:, 0]
    diameter = np.sqrt(_max_square_distance(vertices[:, 1:]))
    error = np.where(repeated, 1, np.where(sums[:, 0] <= 0.0, 2,
                                           np.where(area <= 1e-14 * diameter * diameter, 3, 0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = sums[:, 1:3] / (6.0 * area)[:, None]
        # Covariance (1/|K|) int (x - c)(x - c)^T dx about the true centroid
        # (parallel-axis correction); sums[3:5] / 12 and sums[5] / 24 are the
        # second moments about the vertex mean.
        second = np.empty((len(sizes), 4))
        second[:, [0, 3]] = sums[:, 3:5] / 12.0 / area[:, None] - c * c
        second[:, 1] = second[:, 2] = sums[:, 5] / 24.0 / area - c[:, 0] * c[:, 1]
    return area, c + mean, second.reshape(-1, 2, 2), diameter, error


def loop_error(loops, k):
    """The exception ``Polygon`` raises for row k of ``loops``, or None."""
    code = int(loops.error[k])
    if code == 0:
        return None
    message = _LOOP_ERRORS[code]
    if code == 3:
        return DegenerateElement(message.format(loops.area[k]))
    return ValueError(message)


def _max_square_distance(points):
    """Per row of (E, n, 2) ``points``: the largest squared pairwise distance."""
    d = points[:, :, None, :] - points[:, None, :, :]
    return (d * d).sum(axis=3).max(axis=(1, 2))


def point_set_diameter(points):
    """Largest distance between two of the points: the exact pairwise maximum."""
    return float(np.sqrt(_max_square_distance(points[None])[0]))


def _ray_crossings(x, y, x0, y0, x1, y1):
    """Whether the ray from (x, y) to +x crosses edge (x0, y0) -> (x1, y1): the
    terms of the even-odd rule."""
    cond = (y0 > y) != (y1 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x0 + (y - y0) / (y1 - y0) * (x1 - x0)
    return cond & (x < xs)


def block_pairs(owner, starts, sizes):
    """(item, index) pairs that meet item i with every index of its owner's block
    ``starts[owner[i]]`` ... ``starts[owner[i]] + sizes[owner[i]] - 1``, item by item."""
    count = sizes[owner]
    shift = starts[owner] - (np.cumsum(count) - count)
    return np.repeat(np.arange(len(owner)), count), np.arange(count.sum()) + np.repeat(shift, count)


def loop_successors(starts, sizes):
    """Index of each vertex's successor in a concatenation of loops."""
    succ = np.arange(1, int(np.sum(sizes)) + 1)
    loops = sizes > 0
    succ[(starts + sizes - 1)[loops]] = starts[loops]
    return succ


def points_in_loops(points, owner, vertices, starts, sizes):
    """Even-odd rule for many query points, each against the loop of its owner.

    ``vertices`` concatenates the loops, loop k being ``sizes[k]`` vertices
    from ``starts[k]``.  A point is inside when a ray to +x crosses its loop
    an odd number of times; every (point, edge) pair is one array entry.
    """
    pts = np.asarray(points, dtype=float)
    item, edge = block_pairs(owner, starts, sizes)
    succ = loop_successors(starts, sizes)[edge]
    # Only pairs whose edge spans the point's y can cross.
    y = pts[item, 1]
    spans = (vertices[edge, 1] > y) != (vertices[succ, 1] > y)
    item, edge, succ = item[spans], edge[spans], succ[spans]
    (x0, y0), (x1, y1) = vertices[edge].T, vertices[succ].T
    crossed = item[_ray_crossings(pts[item, 0], pts[item, 1], x0, y0, x1, y1)]
    return np.bincount(crossed, minlength=len(pts)) % 2 == 1


def points_in_polygon(points, vertices, boundary_tol=0.0):
    """``points_in_loops`` for many query points against one loop.

    With ``boundary_tol`` > 0, points within that distance of an edge count
    as inside too.
    """
    pts = np.asarray(points, dtype=float)
    v = np.asarray(vertices, dtype=float)
    inside = points_in_loops(pts, np.zeros(len(pts), dtype=int), v, np.array([0]),
                             np.array([len(v)]))
    if boundary_tol > 0.0:
        x, y = pts[:, 0], pts[:, 1]
        # (E, P) arrays: edge (x0, y0) -> (x1, y1) against every point.
        x0, y0 = v[:, 0, None], v[:, 1, None]
        ex = np.concatenate((x0[1:], x0[:1])) - x0
        ey = np.concatenate((y0[1:], y0[:1])) - y0
        t = np.clip(((x - x0) * ex + (y - y0) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        dx = x - (x0 + t * ex)
        dy = y - (y0 + t * ey)
        inside |= (dx * dx + dy * dy <= boundary_tol * boundary_tol).any(axis=0)
    return inside


def _hypot(x, y):
    """``math.hypot`` over arrays.  Its last bit can differ from ``np.hypot``'s,
    and the cut tolerances and direction norms are defined with it."""
    x = np.asarray(x)
    out = np.fromiter(map(math.hypot, x.ravel().tolist(), np.ravel(y).tolist()),
                      dtype=float, count=x.size)
    return out.reshape(x.shape)


def _sign(value, eps):
    return (value > eps).astype(np.int8) - (value < -eps)


@lru_cache(maxsize=None)
def _edge_pairs(m):
    """Layout edge numbers (i, j) of the non-adjacent edge pairs of an m-gon."""
    i, j = np.triu_indices(m, 2)
    keep = ~((i == 0) & (j == m - 1))
    # Edge i runs from vertex i to i + 1, which is column pair (i + 1, i + 2)
    # of the layout, or (0, 1) for the closing edge.
    return (i[keep] + 1) % m, (j[keep] + 1) % m


def loops_simple(loops):
    """Per loop of a ``Loops`` batch: True unless two non-adjacent edges cross.

    Orientation signs within 1e-12 |e| |f| of zero count as collinear, so
    nearly collinear chains (hanging nodes on a former cut line) do not read
    as crossings.  Loops of one size are tested together, every pair at once.
    """
    sizes = loops.sizes
    simple = np.ones(len(sizes), dtype=bool)
    for m in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == m)
        # Column 0 holds a loop's last vertex, column c its vertex c - 1.
        v = loops.vertices[loops.starts[rows, None] + np.arange(-1, m) % m]
        start, end = v[:, :-1], v[:, 1:]  # edge k: column k -> k + 1
        ex, ey = (end - start).transpose(2, 0, 1)
        length = _hypot(ex, ey)
        i, j = _edge_pairs(m)
        # Edge i is (p1, p2), edge j is (q1, q2).
        p1, q1 = start[:, i], start[:, j]
        fx, fy, gx, gy = ex[:, i], ey[:, i], ex[:, j], ey[:, j]
        eps = 1e-12 * length[:, j] * length[:, i]
        d1 = _sign(gx * (p1[..., 1] - q1[..., 1]) - gy * (p1[..., 0] - q1[..., 0]), eps)
        p2 = end[:, i]
        d2 = _sign(gx * (p2[..., 1] - q1[..., 1]) - gy * (p2[..., 0] - q1[..., 0]), eps)
        d3 = _sign(fx * (q1[..., 1] - p1[..., 1]) - fy * (q1[..., 0] - p1[..., 0]), eps)
        q2 = end[:, j]
        d4 = _sign(fx * (q2[..., 1] - p1[..., 1]) - fy * (q2[..., 0] - p1[..., 0]), eps)
        simple[rows] = ~((d1 * d2 < 0) & (d3 * d4 < 0)).any(axis=1)
    return simple


def reference_map(poly):
    """Map A = alpha Lambda^{-1/2} U^T sending the element to unit area and covariance alpha^2 I."""
    s = poly.spectrum
    alpha = poly.loops.alpha[poly.row]
    u = s.basis
    lam_inv_sqrt = np.diag([s.lambda1 ** -0.5, s.lambda2 ** -0.5])
    lam_sqrt = np.diag([s.lambda1 ** 0.5, s.lambda2 ** 0.5])
    a = alpha * lam_inv_sqrt @ u.T
    a_inv = (1.0 / alpha) * u @ lam_sqrt
    return ReferenceMap(matrix=a, alpha=alpha, inverse=a_inv)


def map_polygon(poly, refmap):
    """Apply x -> A x to every vertex; orientation is preserved (det A > 0)."""
    return Polygon(refmap.apply(poly.vertices))


def polygons_of(vertex_arrays):
    """The ``Loops`` batch of (n, 2) vertex arrays; raises the first invalid one's error."""
    sizes = np.array([len(v) for v in vertex_arrays], dtype=int)
    loops = loop_moments(np.concatenate(vertex_arrays) if len(sizes) else np.empty((0, 2)), sizes)
    for k in np.flatnonzero(loops.error)[:1].tolist():
        raise loop_error(loops, k)
    return loops


class CutEnds(NamedTuple):
    """The two ends of each polygon's cut in a ``split_polygons`` pass, as
    (n, 2) arrays of the lo end and the hi end."""

    at: np.ndarray  # ring position: 2j is vertex j, 2j + 1 a point on edge j; -1 without a cut
    s: np.ndarray  # parameter in (0, 1) along edge j of an end on it
    points: np.ndarray  # (n, 2, 2) coordinates: the cut segment


def split_polygons(loops, points, directions):
    """Split every polygon of a ``Loops`` batch by the line through its point
    along its direction.

    One array pass over all polygons' edges, with an owner index.  Returns
    (outcomes, pieces, ends).  ``outcomes[k]`` is the exception polygon k's
    split raises (``CutMissesPolygon``, ``NonSimpleResult``, or the
    ``DegenerateElement`` of a piece), or None when it splits; then row k of
    the ``CutEnds`` ``ends`` holds its cut, and rows 2k and 2k + 1 of the
    ``Loops`` ``pieces`` (None for no polygons) are its two pieces.
    """
    count = len(loops.sizes)
    if not count:
        return [], None, CutEnds(np.zeros((0, 2), dtype=int), np.zeros((0, 2)),
                                 np.zeros((0, 2, 2)))
    v, sizes, starts, owner = loops.vertices, loops.sizes, loops.starts, loops.owner
    h = loops.diameter
    w = v[loops.succ]  # edge g runs from v[g] to w[g]
    anchor = np.asarray(points, dtype=float).reshape(count, 2)
    d = np.asarray(directions, dtype=float).reshape(count, 2)
    norm = _hypot(d[:, 0], d[:, 1])
    d = d / np.where(norm == 0.0, 1.0, norm)[:, None]
    outcomes = [None] * count

    def miss(ks, message):
        """A CutMissesPolygon for those of polygons ``ks`` without an outcome yet."""
        for k in ks.tolist():
            outcomes[k] = outcomes[k] or CutMissesPolygon(message)

    miss(np.flatnonzero(norm == 0.0), "zero cut direction")

    # Transversal crossings of each line with its polygon's edges, sorted by
    # the line parameter t (ties in edge order).  Edges parallel to the line
    # are skipped; their endpoint hits come from the adjacent edges.
    e = w - v
    r = v - anchor[owner]
    do = d[owner]
    det = do[:, 0] * e[:, 1] - do[:, 1] * e[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (r[:, 0] * e[:, 1] - r[:, 1] * e[:, 0]) / det
        s = (do[:, 1] * r[:, 0] - do[:, 0] * r[:, 1]) / det
    hit = np.flatnonzero((np.abs(det) > 1e-14 * _hypot(e[:, 0], e[:, 1]))
                         & (-1e-12 <= s) & (s < 1.0) & (norm != 0.0)[owner])
    hit = hit[np.lexsort((t[hit], owner[hit]))]
    # Crossings within 1e-12 h in t of the last one kept are dropped.
    ho, ht = owner[hit], t[hit]
    close = np.zeros(len(hit), dtype=bool)
    close[1:] = (ho[1:] == ho[:-1]) & (ht[1:] - ht[:-1] <= 1e-12 * h[ho[1:]])
    keep = ~close
    for k in np.flatnonzero(close[1:] & close[:-1]).tolist():
        # A run of three or more close crossings: compare with the last kept.
        last = k
        while not keep[last]:
            last -= 1
        keep[k + 1] = ht[k + 1] - ht[last] > 1e-12 * h[ho[k + 1]]
    hit, ho, ht = hit[keep], ho[keep], ht[keep]
    miss(np.flatnonzero(np.bincount(ho, minlength=count) < 2),
         "cut line crosses the boundary fewer than twice")

    # Interior intervals between consecutive crossings are those whose
    # midpoints lie inside; this is robust against tangential vertex touches.
    lo = np.flatnonzero(ho[1:] == ho[:-1])
    io, t_lo, t_hi = ho[lo], ht[lo], ht[lo + 1]
    tm = 0.5 * (t_lo + t_hi)
    mx, my = (anchor[io] + tm[:, None] * d[io]).T
    odd = points_in_loops(np.column_stack((mx, my)), io, v, starts, sizes)
    inside = np.flatnonzero((t_hi - t_lo > SNAP_TOL * h[io]) & odd)
    miss(np.setdiff1d(np.arange(count), io[inside]), "no interior chord on the cut line")

    # The interval containing the anchor, else the longest (the first of
    # equals): sort each polygon's intervals by that preference.
    contains = (t_lo[inside] <= 0.0) & (0.0 <= t_hi[inside])
    length = np.where(contains, 0.0, t_lo[inside] - t_hi[inside])
    ranked = inside[np.lexsort((inside, length, ~contains, io[inside]))]
    chosen = ranked[np.r_[True, io[ranked[1:]] != io[ranked[:-1]]]] if len(ranked) else ranked
    co = io[chosen]

    # Cut ends: snapped to an edge end within SNAP_TOL h.  Ring position 2j
    # is vertex j, 2j + 1 a cut point on edge j.
    resolved = []
    for crossing in (lo[chosen], lo[chosen] + 1):
        g = hit[crossing]
        x = anchor[co] + ht[crossing][:, None] * d[co]
        tol = SNAP_TOL * h[co]
        snap_a = np.hypot(*(x - v[g]).T) <= tol
        snap_b = ~snap_a & (np.hypot(*(x - w[g]).T) <= tol)
        j = g - starts[co]
        at = np.where(snap_a, 2 * j, np.where(snap_b, 2 * ((j + 1) % sizes[co]), 2 * j + 1))
        x[snap_a], x[snap_b] = v[g[snap_a]], w[g[snap_b]]
        resolved.append((at, x, np.maximum(s[g], 0.0)))
    (lo_at, lo_pt, lo_s), (hi_at, hi_pt, hi_s) = resolved
    miss(co[lo_at == hi_at], "both cut endpoints snapped to the same vertex")

    # Pieces: piece a runs from the low end forward through the vertices
    # strictly between the ends to the high end, piece b from the high end
    # on to the low end.  Rows 2k and 2k + 1 hold (start point, first ring
    # vertex, inner vertex count, end point); a polygon without a cut keeps
    # two copies of its own loop there.
    n = sizes[co]
    span = (hi_at - lo_at) % (2 * n)
    inner = np.stack([(span + lo_at % 2 - 1) // 2, (2 * n - span + hi_at % 2 - 1) // 2], axis=1)
    start, last = np.repeat(starts, 2), np.repeat(starts + sizes - 1, 2)
    ring_from, count_of = np.ones(2 * count, dtype=int), np.repeat(sizes - 2, 2)
    lo_id = len(v) + np.arange(len(co))
    hi_id = lo_id + len(co)
    for row, (a, b, from_at) in enumerate(((lo_id, hi_id, lo_at), (hi_id, lo_id, hi_at))):
        rows = 2 * co + row
        start[rows], last[rows], ring_from[rows] = a, b, from_at // 2 + 1
        count_of[rows] = np.maximum(inner[:, row], 1)
    piece = np.repeat(np.arange(2 * count), count_of + 2)
    q = np.arange(len(piece)) - np.repeat(np.cumsum(count_of + 2) - count_of - 2, count_of + 2)
    own = piece // 2
    ring = starts[own] + (ring_from[piece] + q - 1) % sizes[own]
    index = np.where(q == 0, start[piece], np.where(q <= count_of[piece], ring, last[piece]))
    pieces = loop_moments(np.concatenate([v, lo_pt, hi_pt])[index], count_of + 2)
    simple = loops_simple(pieces)

    # Piece checks in order: a's arc length, moments and simplicity, then
    # b's, then the area sum.  Check 4 is the arc length, 5 simplicity, and
    # 1 to 3 are the ``loop_moments`` errors.
    rows = 2 * co[:, None] + np.arange(2)
    check = np.where(inner < 1, 4, np.where(pieces.error[rows] > 0, pieces.error[rows],
                                            np.where(simple[rows], 0, 5)))
    failed = check.any(axis=1)
    row = rows[np.arange(len(co)), (check[:, 0] == 0).astype(int)]
    total = pieces.area[rows[:, 0]] + pieces.area[rows[:, 1]]
    parent = loops.area[co]
    short = np.abs(total - parent) > 1e-9 * parent
    for i in np.flatnonzero(failed | short).tolist():
        k = co[i]
        if outcomes[k] is not None:
            continue
        if failed[i]:
            code = check[i][check[i] > 0][0]
            if code == 4:
                outcomes[k] = CutMissesPolygon("degenerate piece from cut")
            elif code == 5:
                outcomes[k] = NonSimpleResult("cut produced a self-intersecting piece")
            else:
                error = loop_error(pieces, row[i])
                outcomes[k] = (NonSimpleResult(f"cut produced an invalid piece: {error}")
                               if isinstance(error, ValueError) else error)
        else:
            outcomes[k] = NonSimpleResult(
                f"piece areas {total[i]:.17g} do not sum to parent area {parent[i]:.17g}")
    ends = CutEnds(np.full((count, 2), -1), np.zeros((count, 2)), np.zeros((count, 2, 2)))
    ends.at[co] = np.stack([lo_at, hi_at], axis=1)
    ends.s[co] = np.stack([lo_s, hi_s], axis=1)
    ends.points[co] = np.stack([lo_pt, hi_pt], axis=1)
    ends.at[[k for k, out in enumerate(outcomes) if out is not None]] = -1
    return outcomes, pieces, ends


def split_polygon_detailed(poly, point, direction):
    """Split a polygon by the line through ``point`` along ``direction``:
    the one-polygon call of ``split_polygons``.

    Returns (piece_a, piece_b, cut_segment, (lo_end, hi_end)).  Each end is
    ("v", vertex_index) when it snapped to a vertex, or ("cut", edge_index, s)
    at parameter s in (0, 1) along that edge.  The pieces are the two arcs of
    the vertex ring with both ends inserted: piece_a runs forward from lo_end
    to hi_end, piece_b from hi_end on to lo_end, and each closes along the
    cut chord.  For non-convex polygons crossed several times, the interior
    interval containing the anchor point is used (longest interval if the
    anchor is outside).
    """
    (outcome,), pieces, ends = split_polygons(poly.batch(), [point], [direction])
    if isinstance(outcome, Exception):
        raise outcome
    cut = [("v", at >> 1) if at % 2 == 0 else ("cut", at >> 1, s)
           for at, s in zip(ends.at[0].tolist(), ends.s[0].tolist())]
    return pieces.polygon(0), pieces.polygon(1), tuple(ends.points[0]), tuple(cut)
