"""Triangle quadrature and polygon integration.

Rules are conical products of Gauss-Jacobi and Gauss-Legendre lines, so the
weights are positive at every exactness degree.  Every polygon integral uses
the one order-7 rule ``RULE``, and every edge integral the order-7 Gauss line
(the L2 pass in ``interp`` takes its own order-5 rule from ``triangle_rule``).
Polygons are integrated by fanning into triangles around an interior star
point.  ``integrals`` is the one function that integrates over polygons: it
fans a batch once, and its integrand writes k weighted rows in place.

Every integral is summed one way: ``RULE`` on a sub-triangle is one 16-point
sum, four children's sums are added in order, ((k0 + k1) + k2) + k3, and a
polygon's integral is one ``reduceat`` segment over its sub-triangles.  A
fixed depth d sums the 4^d level-d sub-triangles of each fan triangle (level
0 is the fan triangle itself): the rule below with nothing accepted before
level d, in chunks of whole polygons of at most ``CHUNK`` points (a larger
polygon is a chunk of its own).  Points are mapped as (triangle, reference
point) planes, one coordinate at a time, bit-identical to a per-triangle
affine map.

Unless the caller fixes a depth, each fan triangle is refined where its
integral still changes, level by level.  Every fan triangle starts as one
active sub-triangle tau; at each level, each active tau's ``RULE`` integral
I is compared with S, the sum of ``RULE`` over its four uniform children.
The compared quantities m are per-row linear maps of the integrals, each a
sum of terms (by default each integral is one term), and the change of tau
is the sum over terms of |term(S) - term(I)|, so terms that cancel do not
hide a change.  tau is accepted, and S kept, when every change satisfies

    change <= TOL (|m_K| + mean) |tau| / |K|,   TOL = 1e-6,

with m_K the element's current total and |tau| / |K| tau's share of the
element's area; otherwise its children are active at the next level, with
their integrals known.  Everything is accepted at level ``MAX_DEPTH`` = 6
(children of depth 6).  ``mean`` is frozen after level 1: by default the
mean |m| of the batch's level-1 totals, or a scalar the caller gives or
computes from them.  So an element's integral depends only on itself and
that scalar, not on its batch.  A level runs in passes of at most ``PASS``
sub-triangles of whole elements, with the field called on at most ``CHUNK``
points at once, and keeps the children of only the sub-triangles that may
fail.  An element's depth is its deepest level, and its step the sum of its
accepted changes.
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
TOL = 1e-6  # relative tolerance of the sub-triangle refinement rule
MAX_DEPTH = 6  # the level at which the rule accepts every sub-triangle
PASS = 2048  # sub-triangles per bookkeeping pass of the rule, of whole polygons


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


def chunks(sizes, limit=CHUNK):
    """(start, stop) runs of consecutive items whose sizes add up to at most
    ``limit`` (by default ``CHUNK`` points); a larger item is a run of its own."""
    ends, start = np.cumsum(sizes), 0
    while start < len(ends):
        end = ends[start] - sizes[start] + limit
        stop = max(start + 1, int(np.searchsorted(ends, end, side="right")))
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


def _mapped(t, xi, eta, ref_w):
    """Points and weights of reference points (xi, eta) with weights ``ref_w``
    on each of the triangles ``t`` (T, 3, 2); the points are an (m, 2) view
    of two contiguous coordinate planes."""
    origin = t[:, 0, :]
    e1 = t[:, 1, :] - origin
    e2 = t[:, 2, :] - origin
    jac = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])  # 2 * triangle area
    pts = np.empty((2, len(t), len(xi)))
    for k in (0, 1):
        np.add(origin[:, k, None] + xi * e1[:, k, None], eta * e2[:, k, None], out=pts[k])
    return pts.reshape(2, -1).T, (jac[:, None] * ref_w[None, :]).reshape(-1)


# The reference triangle, and its four uniform children with the middle one
# second: corners (1, 3, 2) and (4, 3, 2).
_TRIANGLE = np.array([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]])
_CHILDREN = np.array([[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)],
                      [(0, 1), (1, 1), (0, 2)], [(1, 0), (2, 0), (1, 1)]]) / 2
# ``RULE`` on the reference triangle, on its children, and on both, the triangle
# first: (xi, eta, weights), read-only, the weights on each summing to its area.
_ONE, _KIDS, _BOTH = ((*pts.T, w) for pts, w in (
    _mapped(c, *RULE.points.T, RULE.weights)
    for c in (_TRIANGLE, _CHILDREN, np.concatenate((_TRIANGLE, _CHILDREN)))))
for _a in (*_ONE, *_KIDS, *_BOTH):
    _a.setflags(write=False)


def polygon_sample_points(poly, depth=2):
    """Quadrature points (M, 2) and physical weights (M,) of the polygon at a
    fixed ``depth``, in the order ``integrals`` sums them: 16 per sub-triangle
    of level ``depth``, four children after four; sum(weights) equals the
    polygon area up to roundoff."""
    tris, ref = _leaves(polygon_fans(poly.batch())[0], depth)
    return _mapped(tris, *ref)


def _leaves(tris, depth):
    """The triangles and the reference rule that together place ``RULE`` on
    the level-``depth`` sub-triangles of ``tris``: ``_ONE`` on ``tris`` at
    depth 0, else ``_KIDS`` on their level-(depth - 1) sub-triangles."""
    if not depth:
        return tris, _ONE
    for _ in range(depth - 1):
        tris = _children(tris)
    return tris, _KIDS


class Integrals(NamedTuple):
    """What ``integrals`` returns for a batch of n polygons."""

    values: np.ndarray  # (n, k) integrals
    depths: np.ndarray  # (n,) deepest subdivision level each was taken at
    steps: np.ndarray  # (n, r) sum of the accepted local changes of m; None at fixed depths
    mean: np.ndarray  # (r,) mean |m| the tolerance was scaled by; None at fixed depths
    points: int  # points at which the integrand was called


def _same(values, rows):
    """The default compared quantities: every integral itself, as one term."""
    return values[:, :, None]


def _mean_magnitude(m):
    """The default mean of the tolerance: the batch's mean of |m| (n, r)."""
    return m.mean(axis=0)


def integrals(loops, f, k, depth=None, measure=_same, mean=_mean_magnitude):
    """``Integrals`` of k quantities over each polygon of a ``Loops`` batch.

    ``f(points, weights, out)`` gets m points (m, 2), a view of two coordinate
    planes, and their weights (m,), and writes the k weighted values at them
    into the rows of ``out`` (k, m).
    ``depth`` is one depth for every polygon, or one per polygon; None
    refines each fan triangle by the module's rule, where
    ``measure(values, rows)`` maps values (m, k) of polygons ``rows`` (m,)
    to the terms (m, r, j) of r compared quantities, linearly per row, and
    ``mean`` is the mean magnitude (r,) of the tolerance, or a function
    that gives it from the magnitudes |m| (n, r) of the level-1 totals.
    One ``polygon_fans`` call fans the batch.
    """
    n = len(loops.sizes)
    if not n:
        return Integrals(np.empty((0, k)), np.zeros(0, dtype=int), None, None, 0)
    tris, counts = polygon_fans(loops)
    if depth is None:
        return _refined(tris, counts, f, k, measure, mean)
    first = np.cumsum(counts) - counts  # first fan triangle of each polygon
    out = np.empty((n, k))
    depths = np.broadcast_to(np.asarray(depth, dtype=int), (n,))
    points = 0
    for d in np.unique(depths).tolist():
        members = np.flatnonzero(depths == d)
        out[members] = _uniform(tris, first, counts, members, f, k, d)
        points += int(counts[members].sum()) * len(RULE.weights) * 4 ** d
    return Integrals(out, depths, None, None, points)


def _refined(tris, counts, f, k, measure, mean):
    """``integrals`` of a fanned batch by the module's rule, given the fan
    triangles of the batch and each polygon's count of them."""
    n, q = len(counts), len(RULE.weights)
    if not callable(mean):
        mean = np.asarray(mean, dtype=float)
    owner = np.repeat(np.arange(n), counts)
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    area = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    share = area / np.bincount(owner, area, minlength=n)[owner]  # |tau| / |K|
    out, depths, steps = np.zeros((n, k)), np.zeros(n, dtype=int), None
    values, points = None, 0  # values: each sub-triangle's integral, after level 1
    for level in range(1, MAX_DEPTH + 1):
        seg = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])  # polygons with
        rows, sizes = owner[seg], np.diff(np.r_[seg, len(owner)])  # active sub-triangles
        at = np.repeat(np.arange(len(seg)), sizes)
        # Before the mean is frozen, 0 bounds it from below.
        bound = 0.0 if callable(mean) else mean
        fine, change, m, kept = np.empty((len(owner), k)), None, None, []
        per = 5 * q if values is None else 4 * q  # points per sub-triangle
        for a, b in chunks(sizes, PASS):
            t0, t1 = seg[a], seg[b - 1] + sizes[b - 1]
            sums = _rule_sums(tris[t0:t1], f, k, _BOTH if values is None else _KIDS)
            coarse, kids = (sums[:, 0], sums[:, 1:]) if values is None else (values[t0:t1], sums)
            points += int(t1 - t0) * per
            fine[t0:t1] = ((kids[:, 0] + kids[:, 1]) + kids[:, 2]) + kids[:, 3]
            d = np.abs(measure(fine[t0:t1] - coarse, owner[t0:t1])).sum(axis=2)
            total = out[rows[a:b]] + np.add.reduceat(fine[t0:t1], seg[a:b] - t0)
            if change is None:
                change, m = np.empty((len(owner), d.shape[1])), np.empty((len(seg), d.shape[1]))
            change[t0:t1], m[a:b] = d, np.abs(measure(total, rows[a:b]).sum(axis=2))
            if level < MAX_DEPTH:  # keep the children of all that may not pass
                maybe = ~np.all(d <= TOL * (m[at[t0:t1]] + bound) * share[t0:t1, None], axis=1)
                kept.append((np.flatnonzero(maybe) + t0, kids[maybe]))
        if callable(mean):
            mean = np.asarray(mean(m))
        ok = np.all(change <= TOL * (m[at] + mean) * share[:, None], axis=1) | (level == MAX_DEPTH)
        fine[~ok] = 0.0
        change[~ok] = 0.0
        out[rows] += np.add.reduceat(fine, seg)
        if steps is None:
            steps = np.zeros((n, change.shape[1]))
        steps[rows] += np.add.reduceat(change, seg)
        depths[rows] = level
        if ok.all():
            break
        ids = np.concatenate([i for i, _ in kept])
        go = ~ok[ids]
        parents = ids[go]
        values = np.concatenate([c for _, c in kept])[go].reshape(-1, k)
        tris = _children(tris[parents])
        owner = np.repeat(owner[parents], 4)
        share = np.repeat(share[parents] / 4, 4)
    return Integrals(out, depths, steps, mean, points)


def _rule_sums(tris, f, k, ref):
    """Integrals (T, S, k) of the integrand over the S reference sub-triangles
    of ``ref`` (``_ONE``, ``_KIDS`` or ``_BOTH``) on each triangle of ``tris``,
    one ``RULE`` each; in slices of at most ``CHUNK`` points.  Each integral
    is one 16-point sum, whatever else shares its slice."""
    subs = len(ref[0]) // len(RULE.weights)
    out = np.empty((len(tris), subs, k))
    per = CHUNK // len(ref[0])
    for s in range(0, len(tris), per):
        pts, w = _mapped(tris[s:s + per], *ref)
        rows = np.empty((k, len(w)))
        f(pts, w, rows)
        sums = np.add.reduceat(rows, np.arange(0, len(w), len(RULE.weights)), axis=1)
        out[s:s + per] = sums.reshape(k, -1, subs).transpose(1, 2, 0)
    return out


def _children(tris):
    """The four uniform children (4T, 3, 2) of triangles ``tris`` (T, 3, 2),
    each in the order of ``_CHILDREN``."""
    a, b, c = (tris[:, None, None, i] for i in range(3))  # (T, 1, 1, 2) each
    return (a + _CHILDREN[..., :1] * (b - a) + _CHILDREN[..., 1:] * (c - a)).reshape(-1, 3, 2)


def _uniform(tris, first, counts, members, f, k, depth):
    """``integrals`` (len(members), k) of polygons ``members`` at one depth, given the
    fan triangles of the whole batch and each polygon's first one and count."""
    counts = counts[members]
    tris = tris[block_pairs(np.arange(len(members)), first[members], counts)[1]]
    start = np.cumsum(counts) - counts
    subs = 4 ** max(depth - 1, 0)  # sub-triangles of a fan triangle that ``_leaves`` gives
    out = np.empty((len(members), k))
    for a, b in chunks(counts * len(RULE.weights) * 4 ** depth):
        leaves, ref = _leaves(tris[start[a]:start[b - 1] + counts[b - 1]], depth)
        sums = _rule_sums(leaves, f, k, ref)
        fine = sums[:, 0] if not depth else ((sums[:, 0] + sums[:, 1]) + sums[:, 2]) + sums[:, 3]
        out[a:b] = np.add.reduceat(fine, (start[a:b] - start[a]) * subs)
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
