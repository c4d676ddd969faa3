"""Triangle quadrature and polygon integration.

Rules are conical products of Gauss-Jacobi and Gauss-Legendre lines, so the
weights are positive at every exactness degree.  Every element integral uses
the one order-7 rule ``RULE``, and every edge integral the order-7 Gauss line.
Polygons are integrated by fanning into triangles around an interior star
point and subdividing each fan triangle uniformly.  Level-wide integrals call
the integrand once per chunk of at most ``CHUNK`` points of many elements.
Points are mapped as (fan triangle, reference point) planes, one coordinate
at a time, bit-identical to a per-triangle affine map.
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
    "integrate_on_fan",
    "polygon_sample_points",
    "fan_triangles",
    "polygon_fans",
    "fan_chunks",
    "integrate_on_edge",
    "default_depth",
    "RULE",
    "EDGE_RULE",
    "CHUNK",
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

_t, _w = np.polynomial.legendre.leggauss(4)
EDGE_RULE = (0.5 * (_t + 1.0), 0.5 * _w)  # order-7 Gauss line on [0, 1]: (nodes, weights)
EDGE_RULE[0].setflags(write=False)
EDGE_RULE[1].setflags(write=False)

CHUNK = 8192  # quadrature points per array pass of a level-wide integral


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
    """Fan triangles of one polygon, (T, 3, 2): ``polygon_fans`` of its batch of one."""
    return polygon_fans(poly.batch())[0]


def polygon_fans(loops):
    """Fan triangles (T, 3, 2) of a ``Loops`` batch, and their counts (n,), without zero-area
    ones: around the centroid when it sees every edge (always for convex elements), else
    around the star-kernel center; ear clipping is the last resort."""
    from .regularity import star_kernel  # deferred: regularity depends on geometry

    v, starts, owner = loops.vertices, loops.starts, loops.owner
    w = v[loops.succ]  # edge v -> w
    # The center must lie left of every edge, by a margin scaled to the polygon.
    span = np.maximum.reduceat(v.max(axis=1), starts) - np.minimum.reduceat(v.min(axis=1), starts)
    tol = (1e-12 * np.maximum(span, 1e-300))[owner]
    centers = loops.centroid.copy()
    c = centers[owner]
    ex, ey = (w - v).T
    left = ex * (c[:, 1] - v[:, 1]) - ey * (c[:, 0] - v[:, 0]) > tol * np.hypot(ex, ey)
    clipped = []
    for k in np.flatnonzero(~np.logical_and.reduceat(left, starts)).tolist():
        rho, centers[k] = star_kernel(loops.polygon(k))
        if not rho > 0.0:
            clipped.append(k)
    c = centers[owner]
    a, b = v - c, w - c
    area = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    keep = (area > 0.0) & ~np.isin(owner, clipped)
    tris, owner = np.concatenate((c, v, w), axis=1).reshape(-1, 3, 2)[keep], owner[keep]
    if clipped:
        ears = [_ear_clip(loops.polygon(k).vertices) for k in clipped]
        owner = np.concatenate([owner] + [np.full(len(e), k) for k, e in zip(clipped, ears)])
        order = np.argsort(owner, kind="stable")
        tris, owner = np.concatenate([tris] + ears)[order], owner[order]
    return tris, np.bincount(owner, minlength=len(loops.sizes))


def chunks(sizes):
    """(start, stop) runs of consecutive items of at most ``CHUNK`` points in all,
    given the items' point counts; a larger item is a run of its own."""
    ends, start = np.cumsum(sizes), 0
    while start < len(ends):
        limit = ends[start] - sizes[start] + CHUNK
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        yield start, stop
        start = stop


def fan_chunks(loops, depth=None):
    """Chunks of whole polygons of a ``Loops`` batch for level-wide integrals over their fans.

    Per quadrature depth (``depth``, else each polygon's ``default_depth``),
    yields (ids, first, size, slices): the chunk's polygon indices, the
    offset of each one's first point among the chunk's ``size`` points, and
    ``fan_slices`` of their fan triangles, all from one ``polygon_fans`` call
    per depth.
    """
    depths = (np.array([default_depth(h) for h in loops.diameter.tolist()]) if depth is None
              else np.full(len(loops.sizes), depth))
    for d in np.unique(depths).tolist():
        members = np.flatnonzero(depths == d)
        tris, counts = polygon_fans(loops.take(members))
        first = np.cumsum(counts) - counts  # first fan triangle of each polygon
        r = len(_subdivided_reference(d)[0])  # points per fan triangle
        for a, b in chunks(counts * r):
            t0, t1 = first[a], first[b - 1] + counts[b - 1]
            yield members[a:b], (first[a:b] - t0) * r, (t1 - t0) * r, fan_slices(tris[t0:t1], d)


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


def fan_slices(tris, depth):
    """(offset, points (m, 2), weights (m,)) of fan triangles, in order, in slices
    of at most ``CHUNK`` points: whole triangles, or parts of one that has more.
    Coordinates are mapped as (triangle, reference point) planes."""
    xi, eta, ref_w = _subdivided_reference(depth)
    r = len(xi)
    step = max(1, CHUNK // r)
    for s in range(0, len(tris), step):
        t = tris[s:s + step]
        origin = t[:, 0, :]
        e1 = t[:, 1, :] - origin
        e2 = t[:, 2, :] - origin
        jac = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])  # 2 * triangle area
        for j in range(0, r, CHUNK):
            ref = slice(j, j + CHUNK)
            pts = np.empty((len(t), len(xi[ref]), 2))
            for k in (0, 1):
                np.add(origin[:, k, None] + xi[ref] * e1[:, k, None], eta[ref] * e2[:, k, None],
                       out=pts[:, :, k])
            yield s * r + j, pts.reshape(-1, 2), (jac[:, None] * ref_w[None, ref]).reshape(-1)


def polygon_sample_points(poly, depth=2):
    """Quadrature points (M, 2) and physical weights (M,) covering the polygon;
    sum(weights) equals the polygon area up to roundoff."""
    _, pts, w = zip(*fan_slices(fan_triangles(poly), depth))
    return np.concatenate(pts), np.concatenate(w)


def integrate_on_polygon(poly, f, depth=2):
    """Integrate a scalar function over the polygon: ``integrate_on_fan`` of its fan."""
    return integrate_on_fan(fan_triangles(poly), f, depth)


def integrate_on_fan(tris, f, depth):
    """Integrate ``f``, which maps (m, 2) points to (m,) values, over fan triangles:
    ``f`` sees slices of at most ``CHUNK`` points, the weighted sum is one dot."""
    w = np.empty(len(tris) * len(_subdivided_reference(depth)[0]))
    vals = np.empty_like(w)
    for at, pts, ws in fan_slices(tris, depth):
        w[at:at + len(ws)] = ws
        vals[at:at + len(ws)] = f(pts)
    return float(w @ vals)


def integrate_on_edge(a, b, f, n_seg=8):
    """Composite order-7 Gauss integration of f along the segment a-b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x, w = EDGE_RULE
    breaks = np.linspace(0.0, 1.0, n_seg + 1)
    t = (breaks[:-1, None] + np.diff(breaks)[:, None] * x[None, :]).reshape(-1)
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    weights = (np.diff(breaks)[:, None] * w[None, :]).reshape(-1)
    length = float(np.hypot(*(b - a)))
    vals = np.asarray(f(pts), dtype=float)
    return length * float(weights @ vals)
