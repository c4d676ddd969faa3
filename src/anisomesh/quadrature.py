"""Triangle quadrature and polygon integration.

Rules are conical products of Gauss-Jacobi and Gauss-Legendre lines, so the
weights are positive at every exactness degree.  Every element integral uses
the one order-7 rule ``RULE``, and every edge integral the order-7 Gauss line.
Polygons are integrated by fanning into triangles around an interior star
point and subdividing each fan triangle uniformly; all sample points for an
element are generated in one vectorized batch so the integrand is called
once per element.  The batch is mapped one coordinate at a time, as (fan
triangle, reference point) planes whose inner loops run over the reference
points, and the results are bit-identical to a per-triangle affine map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import TriangulationFailed

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "integrate_on_polygon",
    "polygon_sample_points",
    "fan_triangles",
    "edge_rule",
    "integrate_on_edge",
    "default_depth",
    "RULE",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule on the reference triangle (0,0), (1,0), (0,1).

    ``points`` is (Q, 2), ``weights`` sums to 1/2 (the reference area) and
    polynomials of total degree <= ``order`` are integrated exactly.
    """

    order: int
    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=32)
def triangle_rule(order):
    """Conical-product rule of the given polynomial exactness degree."""
    if order < 1:
        raise ValueError("order must be >= 1")
    n = (order + 2) // 2
    # Gauss-Jacobi for int_0^1 g(x) (1 - x) dx.
    tj, wj = roots_jacobi(n, 1.0, 0.0)
    xj = 0.5 * (tj + 1.0)
    wj = wj / 4.0
    # Gauss-Legendre for int_0^1 h(u) du.
    tl, wl = np.polynomial.legendre.leggauss(n)
    ul = 0.5 * (tl + 1.0)
    wl = 0.5 * wl
    x = np.repeat(xj, n)
    u = np.tile(ul, n)
    pts = np.column_stack([x, (1.0 - x) * u])
    w = np.repeat(wj, n) * np.tile(wl, n)
    pts.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(order=order, points=pts, weights=w)


RULE = triangle_rule(7)  # the rule every element integral uses


@lru_cache(maxsize=64)
def _subdivided_reference(depth):
    """``RULE`` replicated over the 4^depth uniform sub-triangles.

    Returns (xi, eta, weights): point coordinates in the reference triangle,
    one contiguous array each, and weights that still sum to 1/2.
    """
    m = 2 ** depth
    corners = []
    for i in range(m):
        for j in range(m - i):
            a = np.array([i, j], dtype=float) / m
            b = np.array([i + 1, j], dtype=float) / m
            c = np.array([i, j + 1], dtype=float) / m
            corners.append((a, b, c))
            if i + j < m - 1:
                d = np.array([i + 1, j + 1], dtype=float) / m
                corners.append((b, d, c))
    corners = np.asarray(corners)  # (T, 3, 2)
    origin = corners[:, 0, :]
    e1 = corners[:, 1, :] - origin
    e2 = corners[:, 2, :] - origin
    xi, eta = (
        (origin[:, k, None] + RULE.points[:, 0] * e1[:, k, None]
         + RULE.points[:, 1] * e2[:, k, None]).ravel()
        for k in (0, 1)
    )
    w = np.tile(RULE.weights, len(corners)) / (m * m)
    for a in (xi, eta, w):
        a.setflags(write=False)
    return xi, eta, w


def default_depth(h):
    """Subdivision depth, from 2 to 6, resolving features of width 1/60 on diameter h."""
    if h <= 0.0:
        return 2
    return int(min(6, max(2, math.ceil(math.log2(max(60.0 * h, 1.0 + 1e-12))))))


def fan_triangles(poly):
    """Triangulate by fanning around an interior star point.

    Uses the centroid when it sees the whole boundary (always true for convex
    elements); otherwise the star-kernel center; ear clipping as a last
    resort.
    """
    v = poly.vertices
    n = len(v)
    center = poly.centroid
    if _sees_all_edges(v, center):
        return _fan_from(v, center)
    from .regularity import star_kernel  # deferred: regularity depends on geometry

    rho, z = star_kernel(poly)
    if rho > 0.0:
        return _fan_from(v, z)
    return _ear_clip(v)


def _sees_all_edges(v, c):
    coords = v.tolist()
    cx, cy = float(c[0]), float(c[1])
    lo = min(min(q) for q in coords)
    hi = max(max(q) for q in coords)
    tol = 1e-12 * max(hi - lo, 1e-300)
    x1, y1 = coords[-1]
    for q in coords:
        x0, y0 = x1, y1
        x1, y1 = q
        ex, ey = x1 - x0, y1 - y0
        if ex * (cy - y0) - ey * (cx - x0) <= tol * math.hypot(ex, ey):
            return False
    return True


def _fan_from(v, c):
    n = len(v)
    tris = np.empty((n, 3, 2))
    tris[:, 0, :] = c
    tris[:, 1, :] = v
    tris[:-1, 2, :] = v[1:]
    tris[-1, 2, :] = v[0]
    areas = 0.5 * (
        (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1])
        - (tris[:, 1, 1] - tris[:, 0, 1]) * (tris[:, 2, 0] - tris[:, 0, 0])
    )
    keep = areas > 0.0
    if keep.all():
        return tris
    return tris[keep]


def _ear_clip(vertices):
    v = list(map(np.asarray, vertices))
    idx = list(range(len(v)))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise TriangulationFailed("ear clipping did not terminate")
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = v[i0], v[i1], v[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0.0:
                continue
            others = [v[j] for j in idx if j not in (i0, i1, i2)]
            if others and _any_point_in_triangle(np.asarray(others), a, b, c):
                continue
            tris.append((a, b, c))
            idx.pop(k)
            clipped = True
            break
        if not clipped:
            raise TriangulationFailed("no ear found; polygon may be non-simple")
    tris.append((v[idx[0]], v[idx[1]], v[idx[2]]))
    return np.asarray(tris)


def _any_point_in_triangle(pts, a, b, c):
    def side(p, q):
        return (q[0] - p[0]) * (pts[:, 1] - p[1]) - (q[1] - p[1]) * (pts[:, 0] - p[0])

    s1, s2, s3 = side(a, b), side(b, c), side(c, a)
    return bool(np.any((s1 >= 0) & (s2 >= 0) & (s3 >= 0)))


def polygon_sample_points(poly, depth=2):
    """Quadrature points and physical weights covering the polygon.

    Returns (points (M, 2), weights (M,)); sum(weights) equals the polygon
    area up to roundoff.  Each coordinate is mapped as one (T, R) plane,
    fan triangles by reference points, so the inner loops run over R.
    """
    tris = fan_triangles(poly)
    xi, eta, ref_w = _subdivided_reference(depth)
    origin = tris[:, 0, :]
    e1 = tris[:, 1, :] - origin
    e2 = tris[:, 2, :] - origin
    pts = np.empty((len(tris), len(xi), 2))
    for k in (0, 1):
        np.add(origin[:, k, None] + xi * e1[:, k, None], eta * e2[:, k, None], out=pts[:, :, k])
    jac = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])  # 2 * triangle area
    w = (jac[:, None] * ref_w[None, :]).reshape(-1)
    return pts.reshape(-1, 2), w


def integrate_on_polygon(poly, f, depth=2):
    """Integrate a scalar function over the polygon.

    ``f`` maps an (M, 2) array of points to an (M,) array of values.
    Deterministic for a fixed depth.
    """
    pts, w = polygon_sample_points(poly, depth=depth)
    vals = np.asarray(f(pts), dtype=float)
    return float(w @ vals)


@lru_cache(maxsize=16)
def edge_rule(order):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    n = (order + 2) // 2
    t, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (t + 1.0)
    w = 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def integrate_on_edge(a, b, f, n_seg=8):
    """Composite order-7 Gauss integration of f along the segment a-b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x, w = edge_rule(7)
    breaks = np.linspace(0.0, 1.0, n_seg + 1)
    t = (breaks[:-1, None] + np.diff(breaks)[:, None] * x[None, :]).reshape(-1)
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    weights = (np.diff(breaks)[:, None] * w[None, :]).reshape(-1)
    length = float(np.hypot(*(b - a)))
    vals = np.asarray(f(pts), dtype=float)
    return length * float(weights @ vals)
