"""Triangle quadrature and polygon integration.

Rules are conical products of Gauss-Jacobi and Gauss-Legendre lines, so the
weights are positive at every exactness degree.  Every polygon integral uses
the one order-7 rule ``RULE``, and every edge integral the order-7 Gauss line
(the L2 pass in ``interp`` takes its own order-5 rule from ``triangle_rule``).
Polygons are integrated by fanning into triangles around an interior star
point and subdividing each fan triangle uniformly into 4^depth copies of
``RULE``.  ``integrals`` is the one function that integrates over polygons:
it fans a batch once, integrates it in chunks of at most ``CHUNK`` points of
whole polygons (a larger polygon is a chunk of its own, passed in slices),
its integrand writes k weighted rows in place, and one ``reduceat`` segment
per polygon and slice sums each row, the slices of a polygon adding in order;
so an integral depends only on its polygon and its depth, not on what else
shares its chunk.  Points are mapped as (fan triangle, reference point)
planes, one coordinate at a time, bit-identical to a per-triangle affine map.

Depths are error-controlled unless the caller fixes them.  Each polygon is
integrated at depths d and d + 1, from d = 0; the depth-(d + 1) integral is
kept once every compared quantity m satisfies

    |m_d - m_{d+1}| <= TOL (|m_{d+1}| + mean |m|),   TOL = 1e-6,

and depth ``MAX_DEPTH`` = 6 is kept in any case.  By default m is each
integral and the mean runs over the batch; a caller may compare another
quantity (the indicator compares eta_K, with its mean over the whole mesh).
The rules at depths d and d + 1 are not nested, so both are evaluated.
Reference rules are kept up to depth 5; depth 6's (1.5 MB) is made slice
by slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi

from .errors import TriangulationFailed
from .geometry import block_pairs

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "integrals",
    "Integrals",
    "integrate_on_polygon",
    "polygon_sample_points",
    "polygon_fans",
    "integrate_on_edge",
    "RULE",
    "EDGE_RULE",
    "CHUNK",
    "TOL",
    "MAX_DEPTH",
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
TOL = 1e-6  # relative tolerance of the error-controlled depth rule
MAX_DEPTH = 6  # the depth the rule keeps when no coarser one converged


@lru_cache(maxsize=64)
def _sub_triangles(depth):
    """Origins and edge vectors, (T, 2) each, of the 4^depth uniform
    sub-triangles of the reference triangle, in order."""
    m = 2 ** depth
    corners = np.empty((4 ** depth, 3, 2))
    t = 0
    for i in range(m):
        for j in range(m - i):
            corners[t] = (i, j), (i + 1, j), (i, j + 1)
            t += 1
            if i + j < m - 1:
                corners[t] = (i + 1, j), (i + 1, j + 1), (i, j + 1)
                t += 1
    corners /= m
    origin = corners[:, 0, :]
    e1 = corners[:, 1, :] - origin
    e2 = corners[:, 2, :] - origin
    for a in (origin, e1, e2):
        a.setflags(write=False)
    return origin, e1, e2


def _reference_part(depth, first, stop):
    """``RULE`` on sub-triangles ``first`` to ``stop`` of depth ``depth``:
    (xi, eta, weights), point coordinates in the reference triangle, one
    contiguous array each, and weights that sum to 1/2 over all 4^depth."""
    origin, e1, e2 = (a[first:stop] for a in _sub_triangles(depth))
    xi, eta = (
        (origin[:, k, None] + RULE.points[:, 0] * e1[:, k, None]
         + RULE.points[:, 1] * e2[:, k, None]).ravel()
        for k in (0, 1)
    )
    return xi, eta, np.tile(RULE.weights, len(origin)) / 4 ** depth


@lru_cache(maxsize=64)
def _subdivided_reference(depth):
    """``RULE`` replicated over all 4^depth uniform sub-triangles, read-only."""
    ref = _reference_part(depth, 0, 4 ** depth)
    for a in ref:
        a.setflags(write=False)
    return ref


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
    """(points (m, 2), weights (m,)) of fan triangles, in order, in slices of at
    most ``CHUNK`` points: whole triangles, or parts of one that has more.
    Coordinates are mapped as (triangle, reference point) planes."""
    subs = 4 ** depth
    per = CHUNK // len(RULE.weights)  # sub-triangles in a slice
    if subs <= per:
        ref = _subdivided_reference(depth)
        for s in range(0, len(tris), per // subs):
            yield _mapped(tris[s:s + per // subs], *ref)
    else:
        for s in range(len(tris)):
            for a in range(0, subs, per):
                yield _mapped(tris[s:s + 1], *_reference_slice(depth, a, a + per))


def _reference_slice(depth, first, stop):
    """``_reference_part(depth, first, stop)``, as a view of the kept rule of
    at most two chunks of points, or made anew for a larger one."""
    q = len(RULE.weights)
    if 4 ** depth * q > 2 * CHUNK:
        return _reference_part(depth, first, stop)
    return tuple(a[first * q:stop * q] for a in _subdivided_reference(depth))


def _mapped(t, xi, eta, ref_w):
    """Points and weights of reference points (xi, eta) with weights ``ref_w``
    on each of the triangles ``t`` (T, 3, 2)."""
    origin = t[:, 0, :]
    e1 = t[:, 1, :] - origin
    e2 = t[:, 2, :] - origin
    jac = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])  # 2 * triangle area
    pts = np.empty((len(t), len(xi), 2))
    for k in (0, 1):
        np.add(origin[:, k, None] + xi * e1[:, k, None], eta * e2[:, k, None], out=pts[:, :, k])
    return pts.reshape(-1, 2), (jac[:, None] * ref_w[None, :]).reshape(-1)


def polygon_sample_points(poly, depth=2):
    """Quadrature points (M, 2) and physical weights (M,) covering the polygon;
    sum(weights) equals the polygon area up to roundoff."""
    pts, w = zip(*fan_slices(polygon_fans(poly.batch())[0], depth))
    return np.concatenate(pts), np.concatenate(w)


class Integrals(NamedTuple):
    """What ``integrals`` returns for a batch of n polygons."""

    values: np.ndarray  # (n, k) integrals
    depths: np.ndarray  # (n,) depth each was taken at
    steps: np.ndarray  # (n, r) |m_{d-1} - m_d| at chosen depths d; None at fixed depths


def _each_row(values):
    """The default compared quantity: every integral, against its row's mean magnitude.
    A copy, since ``integrals`` overwrites ``values`` at the next depth."""
    return values.copy(), np.abs(values).mean(axis=0)


def integrals(loops, f, k, depth=None, measure=_each_row):
    """``Integrals`` of k quantities over each polygon of a ``Loops`` batch.

    ``f(points, weights, out)`` gets m points (m, 2) and their weights (m,)
    and writes the k weighted values at them into the rows of ``out`` (k, m).
    ``depth`` is one depth for every polygon, or one per polygon; None
    chooses them by the module's rule, where ``measure(values)`` maps the
    integrals (n, k) known so far to new arrays of the compared quantities
    m (n, r) and their mean magnitude (r,).  One ``polygon_fans`` call fans
    the batch.
    """
    n = len(loops.sizes)
    if not n:
        return Integrals(np.empty((0, k)), np.zeros(0, dtype=int), None)
    tris, counts = polygon_fans(loops)
    first = np.cumsum(counts) - counts  # first fan triangle of each polygon
    out = np.empty((n, k))
    if depth is not None:
        depths = np.broadcast_to(np.asarray(depth, dtype=int), (n,))
        for d in np.unique(depths).tolist():
            members = np.flatnonzero(depths == d)
            out[members] = _fixed_depth(tris, first, counts, members, f, k, d)
        return Integrals(out, depths, None)
    active, depths = np.arange(n), np.zeros(n, dtype=int)
    out[:] = _fixed_depth(tris, first, counts, active, f, k, 0)
    m, _ = measure(out)
    steps = np.empty_like(m)
    for d in range(1, MAX_DEPTH + 1):
        out[active] = _fixed_depth(tris, first, counts, active, f, k, d)
        depths[active] = d
        finer, mean = measure(out)
        steps[active] = np.abs(m[active] - finer[active])
        active = active[~np.all(steps[active] <= TOL * (np.abs(finer[active]) + mean), axis=1)]
        m = finer
        if not len(active):
            break
    return Integrals(out, depths, steps)


def _fixed_depth(tris, first, counts, members, f, k, depth):
    """``integrals`` (len(members), k) of polygons ``members`` at one depth, given the
    fan triangles of the whole batch and each polygon's first one and count."""
    counts = counts[members]
    tris = tris[block_pairs(np.arange(len(members)), first[members], counts)[1]]
    start = np.cumsum(counts) - counts
    r = len(RULE.weights) * 4 ** depth  # points per fan triangle
    out = np.empty((len(members), k))
    for a, b in chunks(counts * r):
        t0, t1 = start[a], start[b - 1] + counts[b - 1]
        sums = None
        for pts, w in fan_slices(tris[t0:t1], depth):
            rows = np.empty((k, len(w)))
            f(pts, w, rows)
            # One segment per polygon fixes each sum's order whatever shares
            # the chunk (w @ x or x.sum() would round differently); a polygon
            # of more than a chunk adds its slices' sums in order.
            part = np.add.reduceat(rows, (start[a:b] - t0) * r, axis=1)
            sums = part if sums is None else sums + part
        out[a:b] = sums.T
    return out


def integrate_on_polygon(poly, f, depth=2):
    """Integrate ``f``, which maps (m, 2) points to (m,) values, over the polygon:
    ``integrals`` of its batch of one."""
    return float(integrals(poly.batch(), lambda p, w, out: np.multiply(w, f(p), out=out[0]), 1,
                           depth).values[0, 0])


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
