"""Exact polygon primitives: moments, covariance spectra, reference mapping, line splitting.

All moment integrals are evaluated in closed form from the boundary loop
(Green's theorem applied to polynomial integrands), so there is no quadrature
error even for extremely stretched elements.  Operations are pure functions on
immutable inputs.
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
    "CovarianceSpectrum",
    "ReferenceMap",
    "covariance_spectrum",
    "reference_map",
    "map_polygon",
    "split_polygon_detailed",
    "split_polygons",
    "loop_moments",
    "loops_simple",
    "polygons",
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
    """Closed-form spectrum of [[a, b], [b, c]].

    Returns (l1, l2, u1) with l1 >= l2 and u1 the unit eigenvector of l1,
    sign-normalized so its first component larger than 1e-14 in modulus is
    positive.
    """
    half_tr = 0.5 * (a + c)
    half_diff = 0.5 * (a - c)
    r = math.hypot(half_diff, b)
    l1 = half_tr + r
    # The subtraction half_tr - r cancels badly for extreme anisotropy;
    # the determinant route keeps l2 accurate to machine precision.
    det = a * c - b * b
    l2 = det / l1 if l1 > 0.0 else half_tr - r
    if r <= _ZERO_COMPONENT_TOL * max(abs(l1), abs(l2), 1e-300):
        u1 = np.array([1.0, 0.0])
    else:
        # Two algebraically parallel candidates; pick the better-conditioned one.
        if half_diff >= 0.0:
            u1 = np.array([r + half_diff, b])
        else:
            u1 = np.array([b, r - half_diff])
        norm = math.hypot(u1[0], u1[1])
        if norm == 0.0:
            u1 = np.array([1.0, 0.0])
        else:
            u1 = u1 / norm
    scale = max(abs(u1[0]), abs(u1[1]))
    if abs(u1[0]) > _ZERO_COMPONENT_TOL * scale:
        if u1[0] < 0.0:
            u1 = -u1
    elif u1[1] < 0.0:
        u1 = -u1
    return l1, l2, u1


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
    """Simple CCW polygon with exact moments and cached spectral data.

    Vertices are an (n, 2) read-only float array without repeated
    consecutive points, a copy of the input: the caller's array stays
    writable.  Construction enforces positive signed area and takes
    the area, centroid, covariance (``second_moment``) and diameter from
    ``loop_moments`` (a batch of one); ``polygons`` builds many at once as
    views on one batch.  The spectrum and reference map are computed on
    first use.  Simplicity is checked on demand (``validate_simple``)
    because the O(n^2) test is not needed on the hot refinement path.
    """

    __slots__ = ("vertices", "area", "centroid", "second_moment", "diameter",
                 "_spectrum", "_refmap")

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if len(v) >= 2 and abs(v[0, 0] - v[-1, 0]) < 1e-300 and abs(v[0, 1] - v[-1, 1]) < 1e-300:
            v = v[:-1]
        n = len(v)
        if n < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        loops = loop_moments(np.concatenate((v[-1:], v))[None], np.array([n]))
        error = loop_error(loops, 0)
        if error is not None:
            raise error
        self._set(*next(_rows(loops)))

    def _set(self, vertices, area, centroid, second_moment, diameter):
        self.vertices = vertices
        self.area = area
        self.centroid = centroid
        self.second_moment = second_moment
        self.diameter = diameter
        self._spectrum = None
        self._refmap = None

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.6g})"

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = covariance_spectrum(self)
        return self._spectrum

    @property
    def refmap(self):
        if self._refmap is None:
            self._refmap = reference_map(self)
        return self._refmap

    def validate_simple(self):
        """Raise NonSimpleResult if any two non-adjacent edges intersect."""
        if not loops_simple(*stack_loops([self.vertices]))[0]:
            raise NonSimpleResult("polygon boundary self-intersects")


class Loops(NamedTuple):
    """Many loops in ``loop_moments``' layout, with their checks and moments.

    ``vertices`` is (E, m + 1, 2): row k holds loop k's last vertex, its
    ``sizes[k]`` vertices in order, then its last vertex again up to column
    m.  ``error`` is 0 for a valid loop, else a key of ``_LOOP_ERRORS``.
    """

    vertices: np.ndarray
    sizes: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    second_moment: np.ndarray
    diameter: np.ndarray
    error: np.ndarray


_LOOP_ERRORS = {
    1: "repeated consecutive vertices",
    2: "vertex loop must be counter-clockwise with positive area",
    3: "polygon area {:.3e} below tolerance",
}


def closed_index(sizes):
    """(E, m + 1) indices into a concatenation of loops of these sizes (each
    >= 1) that gather them in ``loop_moments``' layout."""
    sizes = np.asarray(sizes)
    last = np.cumsum(sizes) - 1
    q = np.arange(-1, int(sizes.max(initial=0)))  # column c holds entry c - 1
    return np.where((q >= 0) & (q < sizes[:, None]), last[:, None] - sizes[:, None] + 1 + q,
                    last[:, None])


def stack_loops(vertex_arrays):
    """(vertices, sizes) of (n_k, 2) vertex arrays in ``loop_moments``' layout."""
    sizes = np.array([len(v) for v in vertex_arrays], dtype=int)
    flat = np.concatenate(vertex_arrays) if len(sizes) else np.empty((0, 2))
    return flat[closed_index(sizes)], sizes


def loop_moments(vertices, sizes):
    """Checks and exact moments of many loops at once; returns ``Loops``.

    ``vertices`` is in the layout ``Loops`` describes, so column pairs
    (c, c + 1) are a loop's edges from the closing one on, and the padding
    edges have zero length.  Each sum runs column by column from 0.0 over
    coordinates shifted to the loop's vertex mean, the order of a scalar
    loop over the vertices: a row's bits do not depend on the other rows.
    The rows go in blocks of at most ``_PAIR_BLOCK`` vertex pairs, so the
    temporaries stay small; the diameter is the largest pairwise distance.
    """
    sizes = np.asarray(sizes)
    count = len(sizes)
    area, diameter, error = np.empty(count), np.empty(count), np.empty(count, dtype=int)
    centroid, second = np.empty((count, 2)), np.empty((count, 2, 2))
    step = max(1, _PAIR_BLOCK // vertices.shape[1] ** 2)
    for a in range(0, count, step):
        rows = slice(a, a + step)
        (area[rows], centroid[rows], second[rows], diameter[rows],
         error[rows]) = _moments_block(vertices[rows], sizes[rows])
    return Loops(vertices, sizes, area, centroid, second, diameter, error)


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


def _rows(loops):
    """Per row: (vertices, area, centroid, second moment, diameter), arrays
    read-only.  The vertices are views on one unpadded copy of all loops."""
    column = np.arange(loops.vertices.shape[1])
    flat = loops.vertices[(column > 0) & (column <= loops.sizes[:, None])]
    for a in (flat, loops.centroid, loops.second_moment):
        a.setflags(write=False)
    ends = np.cumsum(loops.sizes).tolist()
    return zip([flat[b - n:b] for b, n in zip(ends, loops.sizes.tolist())],
               loops.area.tolist(), loops.centroid, loops.second_moment,
               loops.diameter.tolist())


def polygons(loops):
    """Yield ``Polygon`` views on the rows of ``loops``, which must all be valid."""
    for row in _rows(loops):
        poly = object.__new__(Polygon)
        poly._set(*row)
        yield poly


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


def loops_simple(vertices, sizes):
    """Per loop in ``loop_moments``' layout: True unless two non-adjacent edges cross.

    Orientation signs within 1e-12 |e| |f| of zero count as collinear, so
    nearly collinear chains (hanging nodes on a former cut line) do not read
    as crossings.  Loops of one size are tested together, every pair at once.
    """
    sizes = np.asarray(sizes)
    simple = np.ones(len(sizes), dtype=bool)
    for m in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == m)
        v = vertices[rows, :m + 1]
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


def covariance_spectrum(poly):
    """Eigen decomposition of the covariance matrix with canonical orientation.

    u1 belongs to the larger eigenvalue; its first nonzero component is
    positive and u2 is u1 rotated by +90 degrees, so all elements share one
    orientation convention.
    """
    m = poly.second_moment
    l1, l2, u1 = symmetric_eig_2x2(m[0, 0], m[0, 1], m[1, 1])
    if l2 <= 1e-14 * l1:
        raise DegenerateElement(
            f"covariance numerically rank deficient (lambda1={l1:.3e}, lambda2={l2:.3e})"
        )
    u2 = np.array([-u1[1], u1[0]])
    return CovarianceSpectrum(lambda1=l1, lambda2=l2, u1=u1, u2=u2, covariance=m)


def reference_alpha(poly):
    """The alpha of ``reference_map``: (sqrt(lambda1 lambda2) / |K|)^(1/2)."""
    s = poly.spectrum
    return (math.sqrt(s.lambda1 * s.lambda2) / poly.area) ** 0.5


def reference_map(poly):
    """Map A = alpha Lambda^{-1/2} U^T sending the element to unit area and covariance alpha^2 I."""
    s = poly.spectrum
    alpha = reference_alpha(poly)
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
    """Yield a ``Polygon`` of each (n, 2) vertex array.  The moments of all of
    them come from one ``loop_moments`` batch, and the first invalid one's
    error is raised before any polygon is yielded."""
    loops = loop_moments(*stack_loops(vertex_arrays))
    for k in np.flatnonzero(loops.error)[:1].tolist():
        raise loop_error(loops, k)
    return polygons(loops)


def split_polygons(polys, points, directions):
    """Split every polygon by the line through its point along its direction.

    One array pass over all polygons' edges, with an owner index.  Returns
    (outcomes, pieces).  ``outcomes[k]`` is the exception polygon k's split
    raises (``CutMissesPolygon``, ``NonSimpleResult``, or the
    ``DegenerateElement`` of a piece), or its (cut_segment, (lo_end,
    hi_end)) as ``split_polygon_detailed`` returns them.  Rows 2k and 2k + 1
    of the ``Loops`` ``pieces`` (None for no polygons) are its two pieces
    when it splits.
    """
    count = len(polys)
    if not count:
        return [], None
    sizes = np.array([len(p.vertices) for p in polys])
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(count), sizes)
    v = np.concatenate([p.vertices for p in polys])
    w = v[loop_successors(starts, sizes)]  # edge g runs from v[g] to w[g]
    h = np.array([p.diameter for p in polys])
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
    own = np.repeat(np.arange(count), 2)
    q = np.arange(-1, int(count_of.max(initial=1)) + 2)  # column c holds entry c - 1
    ring = starts[own, None] + (ring_from[:, None] + q - 1) % sizes[own, None]
    index = np.where(q == 0, start[:, None],
                     np.where((q >= 1) & (q <= count_of[:, None]), ring, last[:, None]))
    pieces = loop_moments(np.concatenate([v, lo_pt, hi_pt])[index], count_of + 2)
    simple = loops_simple(pieces.vertices, pieces.sizes)

    # Piece checks in order: a's arc length, moments and simplicity, then
    # b's, then the area sum.  Check 4 is the arc length, 5 simplicity, and
    # 1 to 3 are the ``loop_moments`` errors.
    rows = 2 * co[:, None] + np.arange(2)
    check = np.where(inner < 1, 4, np.where(pieces.error[rows] > 0, pieces.error[rows],
                                            np.where(simple[rows], 0, 5)))
    failed = check.any(axis=1)
    row = rows[np.arange(len(co)), (check[:, 0] == 0).astype(int)]
    total = pieces.area[rows[:, 0]] + pieces.area[rows[:, 1]]
    parent = np.array([p.area for p in polys])[co]
    short = np.abs(total - parent) > 1e-9 * parent
    ends = [("v", at >> 1) if at % 2 == 0 else ("cut", at >> 1, s_)
            for at, s_ in zip(np.stack([lo_at, hi_at], 1).ravel().tolist(),
                              np.stack([lo_s, hi_s], 1).ravel().tolist())]
    for i, k in enumerate(co.tolist()):
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
        elif short[i]:
            outcomes[k] = NonSimpleResult(
                f"piece areas {total[i]:.17g} do not sum to parent area {parent[i]:.17g}")
        else:
            outcomes[k] = ((lo_pt[i], hi_pt[i]), (ends[2 * i], ends[2 * i + 1]))
    return outcomes, pieces


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
    (outcome,), pieces = split_polygons([poly], [point], [direction])
    if isinstance(outcome, Exception):
        raise outcome
    return (*polygons(pieces), *outcome)
