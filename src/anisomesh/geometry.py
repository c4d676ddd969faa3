"""Exact polygon primitives: moments, covariance spectra, reference mapping, line splitting.

All moment integrals are evaluated in closed form from the boundary loop
(Green's theorem applied to polynomial integrands), so there is no quadrature
error even for extremely stretched elements.  Operations are pure functions on
immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "symmetric_eig_2x2",
    "point_set_diameter",
]

_ZERO_COMPONENT_TOL = 1e-14

# Cut tolerance relative to the element diameter: chord intervals this short
# are dropped, and a cut endpoint this close to a vertex (in refine, also to
# an earlier cut node on the same edge) snaps to it.
SNAP_TOL = 1e-9


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

    Vertices are an (n, 2) float array without repeated consecutive points.
    Construction enforces positive signed area and computes the area,
    centroid, covariance (``second_moment``) and diameter; the spectrum and
    reference map are computed on first use.  Simplicity is checked on
    demand (``validate_simple``) because the O(n^2) test is not needed on
    the hot refinement path.
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
        # Scalar loops beat numpy by an order of magnitude at these sizes.
        coords = v.tolist()
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        tol = 1e-15 * (max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0)
        # Shift to the vertex mean first: the quadratic boundary formulas
        # cancel catastrophically when evaluated far from the origin.
        px = sum(xs) / n
        py = sum(ys) / n
        twice_area = 0.0
        sx = sy = 0.0
        sxx = syy = sxy = 0.0
        x1 = xs[-1] - px
        y1 = ys[-1] - py
        for x, y in coords:
            x0, y0 = x1, y1
            x1 = x - px
            y1 = y - py
            if abs(x1 - x0) <= tol and abs(y1 - y0) <= tol:
                raise ValueError("repeated consecutive vertices")
            cross = x0 * y1 - x1 * y0
            twice_area += cross
            sx += (x0 + x1) * cross
            sy += (y0 + y1) * cross
            sxx += (x0 * x0 + x0 * x1 + x1 * x1) * cross
            syy += (y0 * y0 + y0 * y1 + y1 * y1) * cross
            sxy += (x0 * y1 + 2.0 * x0 * y0 + 2.0 * x1 * y1 + x1 * y0) * cross
        if twice_area <= 0.0:
            raise ValueError("vertex loop must be counter-clockwise with positive area")
        area = 0.5 * twice_area
        h = point_set_diameter(v)
        if area <= 1e-14 * h * h:
            raise DegenerateElement(f"polygon area {area:.3e} below tolerance")
        cx = sx / (6.0 * area)
        cy = sy / (6.0 * area)
        ixx = sxx / 12.0
        iyy = syy / 12.0
        ixy = sxy / 24.0
        v.setflags(write=False)
        self.vertices = v
        self.area = area
        self.centroid = np.array([cx + px, cy + py])
        # Covariance (1/|K|) int (x - c)(x - c)^T dx about the true centroid
        # (parallel-axis correction).
        self.second_moment = np.array(
            [
                [ixx / area - cx * cx, ixy / area - cx * cy],
                [ixy / area - cx * cy, iyy / area - cy * cy],
            ]
        )
        self.diameter = h
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
        if not polygon_is_simple(self.vertices):
            raise NonSimpleResult("polygon boundary self-intersects")


def point_set_diameter(points):
    """Largest distance between two of the points: the exact pairwise maximum."""
    d = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((d * d).sum(axis=2).max()))


def points_in_polygon(points, vertices, boundary_tol=0.0):
    """Even-odd rule for many query points against one loop, all edges at once.

    A point is inside when a ray to +x crosses the loop an odd number of
    times.  With ``boundary_tol`` > 0, points within that distance of an
    edge count as inside too.
    """
    pts = np.asarray(points, dtype=float)
    v = np.asarray(vertices, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    # (E, P) arrays: edge (x0, y0) -> (x1, y1) against every point.
    x0, y0 = v[:, 0, None], v[:, 1, None]
    x1, y1 = np.concatenate((x0[1:], x0[:1])), np.concatenate((y0[1:], y0[:1]))
    cond = (y0 > y) != (y1 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x0 + (y - y0) / (y1 - y0) * (x1 - x0)
    inside = np.logical_xor.reduce(cond & (x < xs), axis=0)
    if boundary_tol > 0.0:
        ex, ey = x1 - x0, y1 - y0
        t = np.clip(((x - x0) * ex + (y - y0) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        dx = x - (x0 + t * ex)
        dy = y - (y0 + t * ey)
        inside |= (dx * dx + dy * dy <= boundary_tol * boundary_tol).any(axis=0)
    return inside


def _sign(value, eps):
    if value > eps:
        return 1
    if value < -eps:
        return -1
    return 0


def _segments_intersect(p1, p2, q1, q2):
    # Orientation signs below fp noise count as collinear, so nearly
    # collinear chains (hanging nodes on a former cut line) do not read as
    # crossings.
    ex, ey = q2[0] - q1[0], q2[1] - q1[1]
    fx, fy = p2[0] - p1[0], p2[1] - p1[1]
    eps = 1e-12 * math.hypot(ex, ey) * math.hypot(fx, fy)
    d1 = _sign(ex * (p1[1] - q1[1]) - ey * (p1[0] - q1[0]), eps)
    d2 = _sign(ex * (p2[1] - q1[1]) - ey * (p2[0] - q1[0]), eps)
    if d1 * d2 >= 0:
        return False
    d3 = _sign(fx * (q1[1] - p1[1]) - fy * (q1[0] - p1[0]), eps)
    d4 = _sign(fx * (q2[1] - p1[1]) - fy * (q2[0] - p1[0]), eps)
    return d3 * d4 < 0


def polygon_is_simple(vertices):
    v = np.asarray(vertices, dtype=float).tolist()
    n = len(v)
    for i in range(n):
        p1, p2 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(p1, p2, v[j], v[(j + 1) % n]):
                return False
    return True


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


def _line_crossings(vertices, point, direction, t_tol):
    """All transversal boundary crossings of the line point + t*direction.

    Returns a list of (t, edge_index, s) sorted by t, deduplicated within
    ``t_tol`` in t; s is the parameter along edge_index in [0, 1).  Edges
    parallel to the line are skipped; their endpoint hits are picked up by
    the adjacent edges.
    """
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    d = np.asarray(direction, dtype=float)
    p = np.asarray(point, dtype=float)
    hits = []
    for i in range(n):
        a = v[i]
        e = v[(i + 1) % n] - a
        det = d[0] * e[1] - d[1] * e[0]
        elen = math.hypot(e[0], e[1])
        if abs(det) <= 1e-14 * elen:
            continue
        r = a - p
        t = (r[0] * e[1] - r[1] * e[0]) / det
        s = (d[1] * r[0] - d[0] * r[1]) / det
        if -1e-12 <= s < 1.0:
            hits.append((t, i, max(s, 0.0)))
    hits.sort(key=lambda h: h[0])
    merged = []
    for h in hits:
        if merged and abs(h[0] - merged[-1][0]) <= t_tol:
            continue
        merged.append(h)
    return merged


def split_polygon_detailed(poly, point, direction):
    """Split a polygon by the line through ``point`` along ``direction``.

    Returns (piece_a, piece_b, cut_segment, (lo_end, hi_end)).  Each end is
    ("v", vertex_index) when it snapped to a vertex, or ("cut", edge_index, s)
    at parameter s in (0, 1) along that edge.  The pieces are the two arcs of
    the vertex ring with both ends inserted: piece_a runs forward from lo_end
    to hi_end, piece_b from hi_end on to lo_end, and each closes along the
    cut chord.  For non-convex polygons crossed several times, the interior
    interval containing the anchor point is used (longest interval if the
    anchor is outside).
    """
    v = poly.vertices
    n = len(v)
    h = poly.diameter
    d = np.asarray(direction, dtype=float)
    norm = math.hypot(d[0], d[1])
    if norm == 0.0:
        raise CutMissesPolygon("zero cut direction")
    d = d / norm
    p = np.asarray(point, dtype=float)

    crossings = _line_crossings(v, p, d, t_tol=1e-12 * h)
    if len(crossings) < 2:
        raise CutMissesPolygon("cut line crosses the boundary fewer than twice")

    # Interior intervals between consecutive crossings are those whose
    # midpoints lie inside; this is robust against tangential vertex touches.
    t = np.array([c[0] for c in crossings])
    tm = 0.5 * (t[:-1] + t[1:])
    inside = (t[1:] - t[:-1] > SNAP_TOL * h) & points_in_polygon(p + tm[:, None] * d, v)
    intervals = [(crossings[k], crossings[k + 1]) for k in np.flatnonzero(inside)]
    if not intervals:
        raise CutMissesPolygon("no interior chord on the cut line")

    chosen = None
    for iv in intervals:
        if iv[0][0] <= 0.0 <= iv[1][0]:
            chosen = iv
            break
    if chosen is None:
        chosen = max(intervals, key=lambda iv: iv[1][0] - iv[0][0])
    (t_lo, e_lo, s_lo), (t_hi, e_hi, s_hi) = chosen
    if t_hi - t_lo <= 1e-9 * h:
        raise CutMissesPolygon("chord shorter than tolerance")

    def resolve(edge, s, t):
        """Snap near-vertex hits; return (coords, end)."""
        a_pt, b_pt = v[edge], v[(edge + 1) % n]
        x = p + t * d
        if np.hypot(*(x - a_pt)) <= SNAP_TOL * h:
            return a_pt.copy(), ("v", edge)
        if np.hypot(*(x - b_pt)) <= SNAP_TOL * h:
            return b_pt.copy(), ("v", (edge + 1) % n)
        return x, ("cut", edge, s)

    lo_pt, lo_end = resolve(e_lo, s_lo, t_lo)
    hi_pt, hi_end = resolve(e_hi, s_hi, t_hi)
    if lo_end == hi_end:
        raise CutMissesPolygon("both cut endpoints snapped to the same vertex")

    # Ring positions: vertex j at (j, 0), a cut end at (edge, s).
    lo_at, hi_at = ((e[1], 0.0 if e[0] == "v" else e[2]) for e in (lo_end, hi_end))
    ends = {lo_at: lo_pt, hi_at: hi_pt}
    ring = sorted(ends.keys() | {(j, 0.0) for j in range(n)})
    i = ring.index(lo_at)
    ring = ring[i:] + ring[:i]
    k = ring.index(hi_at)

    pieces = []
    for arc in (ring[:k + 1], ring[k:] + ring[:1]):
        if len(arc) < 3:
            raise CutMissesPolygon("degenerate piece from cut")
        try:
            piece = Polygon([ends[q] if q in ends else v[q[0]] for q in arc])
        except ValueError as exc:
            raise NonSimpleResult(f"cut produced an invalid piece: {exc}") from exc
        if not polygon_is_simple(piece.vertices):
            raise NonSimpleResult("cut produced a self-intersecting piece")
        pieces.append(piece)

    total = pieces[0].area + pieces[1].area
    if abs(total - poly.area) > 1e-9 * poly.area:
        raise NonSimpleResult(
            f"piece areas {total:.17g} do not sum to parent area {poly.area:.17g}"
        )
    return pieces[0], pieces[1], (lo_pt, hi_pt), (lo_end, hi_end)
