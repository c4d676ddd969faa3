"""Harmonic nodal basis and interpolation operators on polygonal elements.

Each basis function is harmonic inside its element, piecewise linear on the
boundary, and Kronecker at the element nodes.  It is realized by a linear
finite element solve on a per-element Delaunay sub-triangulation: Delaunay
meshes give an M-matrix Laplacian, so the discrete maximum principle holds
exactly, and linear boundary data is reproduced exactly.  Lattice points are
laid out in the element's eigenframe, so at one depth (``BASIS_DEPTH``)
stretched elements get stretched, aligned sub-cells.  Only the interior block
of the P1 stiffness becomes a matrix, in band storage: interior nodes keep
the lattice order, so its band is about one lattice row wide.  The boundary
columns go into the right-hand sides (one per basis function), and one
banded Cholesky solve handles them all.  Every step works on whole arrays:
chain, lattice, inside tests and assembly make no per-point Python loop.
``l2_error`` integrates a level in chunks of elements sharing a cached basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpbsv
from scipy.spatial import Delaunay, QhullError

from .errors import NoAdmissibleEdge, SolveFailed, TriangulationFailed
from .geometry import Polygon, points_in_polygon, polygons_of
from .mesh import DIRICHLET
from .parallel import pmap
from .quadrature import (CHUNK, RULE, default_depth, integrate_on_edge, integrate_on_fan,
                         polygon_fans)

__all__ = [
    "POINTWISE",
    "CLEMENT",
    "SCOTT_ZHANG",
    "LocalHarmonicBasis",
    "InterpolantCoefficients",
    "build_basis",
    "BASIS_DEPTH",
    "coefficients",
    "l2_error",
    "l2_parts",
    "BasisCache",
]

POINTWISE = "POINTWISE"
CLEMENT = "CLEMENT"
SCOTT_ZHANG = "SCOTT_ZHANG"

BASIS_DEPTH = 3  # lattice depth of every basis: at most 7 x 7 interior sub-nodes


@dataclass
class LocalHarmonicBasis:
    """Discrete harmonic nodal basis of one element.

    ``points`` are the sub-triangulation nodes in physical coordinates,
    ``triangles`` their (T, 3) connectivity, and ``psi`` an (n_loop, M)
    array: psi[i] is the basis function of the element's i-th loop vertex
    evaluated at all sub-nodes.
    """

    polygon: object
    points: np.ndarray
    triangles: np.ndarray
    psi: np.ndarray
    boundary_mask: np.ndarray
    loop_vertex_index: np.ndarray  # sub-node index of each loop vertex

    def partition_residual(self):
        return float(np.abs(self.psi.sum(axis=0) - 1.0).max())

    def range_violation(self):
        """How far any basis value escapes [0, 1] (0 when the DMP holds)."""
        return max(0.0, float(-self.psi.min()), float(self.psi.max() - 1.0))

    def evaluate(self, coeff_loop, pts):
        """Evaluate the interpolant at points inside the element."""
        w = np.asarray(coeff_loop, dtype=float) @ self.psi
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        tri_pts = self.points[self.triangles]  # (T, 3, 2)
        out = np.empty(len(pts))
        for k, p in enumerate(pts):
            bary = _barycentric(tri_pts, p)
            inside = np.all(bary >= -1e-9, axis=1)
            if not inside.any():
                idx = int(np.argmax(bary.min(axis=1)))
            else:
                idx = int(np.nonzero(inside)[0][0])
            out[k] = float(bary[idx] @ w[self.triangles[idx]])
        return out


def _barycentric(tri_pts, p):
    a = tri_pts[:, 0, :]
    e1 = tri_pts[:, 1, :] - a
    e2 = tri_pts[:, 2, :] - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    r = p[None, :] - a
    x1 = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
    x2 = (e1[:, 0] * r[:, 1] - e1[:, 1] * r[:, 0]) / det
    return np.column_stack([1.0 - x1 - x2, x1, x2])


def _eigenframe(poly, depth):
    """Frame of the element's lattice: (U, vertices in U, their low corner, spacing)."""
    u = poly.spectrum.basis
    local = (poly.vertices - poly.centroid) @ u
    lo = local.min(axis=0)
    delta = np.maximum((local.max(axis=0) - lo) / 2 ** depth, 1e-300)
    return u, local, lo, delta


def _boundary_chain(poly, frame, depth):
    """Boundary sample points with their polygon edge and edge parameter.

    Returns (points, edge, t): point k lies on polygon edge ``edge[k]`` at
    parameter ``t[k]`` in [0, 1).  Edge subdivision counts follow the
    eigenframe lattice spacing so chain density matches the interior lattice.
    """
    u, _, _, delta = frame
    v = poly.vertices
    d = np.concatenate((v[1:], v[:1])) - v
    cap = 4 * 2 ** depth
    n_seg = np.array([max(1, min(cap, math.ceil(math.hypot(a, b))))
                      for a, b in ((d @ u) / delta).tolist()])
    edge = np.repeat(np.arange(len(v)), n_seg)
    t = (np.arange(len(edge)) - (np.cumsum(n_seg) - n_seg)[edge]) / n_seg[edge]
    return v[edge] + t[:, None] * d[edge], edge, t


@lru_cache(maxsize=8)
def _lattice_steps(depth):
    """(i, j) of the interior lattice nodes, 1 <= i, j < 2^depth, j fastest."""
    steps = np.arange(1, 2 ** depth, dtype=float)
    ij = np.column_stack([np.repeat(steps, len(steps)), np.tile(steps, len(steps))])
    ij.setflags(write=False)
    return ij


def _interior_lattice(poly, frame, depth):
    """Eigenframe lattice points inside the polygon, in lattice order.

    Points closer than 0.45 lattice spacings to the boundary are dropped.
    """
    u, local, lo, delta = frame
    cand_local = lo + delta * _lattice_steps(depth)
    cand = cand_local @ u.T + poly.centroid
    keep = points_in_polygon(cand, poly.vertices)
    # Distance to every polygon edge at once, (E, P), in the scaled frame
    # where the lattice spacing is 1.
    sx, sy = (cand_local[keep] / delta).T
    a = local / delta
    e = np.concatenate((a[1:], a[:1])) - a
    ax, ay, ex, ey = a[:, :1], a[:, 1:], e[:, :1], e[:, 1:]
    t = np.clip(((sx - ax) * ex + (sy - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    dx = sx - (ax + t * ex)
    dy = sy - (ay + t * ey)
    return cand[keep][(dx * dx + dy * dy).min(axis=0, initial=np.inf) >= 0.45 ** 2]


def _delaunay_conforming(poly, depth):
    """Delaunay sub-triangulation whose edges contain the boundary chain.

    Returns (points, triangles, edge, t): the first ``len(edge)`` points are
    the boundary chain as from ``_boundary_chain``, the rest the interior
    lattice in lattice order.  Missing chain segments (possible on non-convex
    elements) are fixed by inserting their midpoints into the chain and
    retriangulating.
    """
    frame = _eigenframe(poly, depth)
    chain_pts, edge, t = _boundary_chain(poly, frame, depth)
    interior = _interior_lattice(poly, frame, depth)
    # Work in translation/scale-normalized coordinates: similarity maps keep
    # both the Delaunay property and harmonicity.
    c = poly.centroid
    scale = math.sqrt(poly.area)
    for _ in range(6):
        pts = np.concatenate((chain_pts, interior))
        norm = (pts - c) / scale
        try:
            tri = Delaunay(norm)
        except QhullError:
            try:
                tri = Delaunay(norm, qhull_options="QJ Pp")
            except QhullError as exc:
                raise TriangulationFailed(f"Delaunay failed: {exc}") from exc
        simplices = tri.simplices
        # Orient CCW and drop degenerate or exterior triangles; areas are
        # judged in physical coordinates because the stiffness uses them.
        p0, p1, p2 = pts[simplices.T]
        cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
            p1[:, 1] - p0[:, 1]
        ) * (p2[:, 0] - p0[:, 0])
        flip = cross < 0
        simplices[flip, 1:] = simplices[flip, :0:-1]
        keep = np.abs(cross) > 1e-12 * np.abs(cross).max()
        keep &= points_in_polygon((p0 + p1 + p2) / 3, poly.vertices)
        simplices = simplices[keep]
        # Conformity: every consecutive chain pair must be a triangle edge.
        adjacent = np.zeros((len(pts), len(pts)), dtype=bool)
        adjacent[simplices, simplices[:, [1, 2, 0]]] = True
        ii = np.arange(len(chain_pts))
        jj = np.concatenate((ii[1:], ii[:1]))
        missing = np.flatnonzero(~(adjacent[ii, jj] | adjacent[jj, ii]))
        if not len(missing):
            return pts, simplices, edge, t
        chain_pts, edge, t = _rebuild_chain(poly, chain_pts, edge, t, missing)
    raise TriangulationFailed("boundary chain not recovered by Delaunay refinement")


def _rebuild_chain(poly, chain_pts, edge, t, missing):
    """Insert the midpoint of every chain segment (i, i + 1), i in ``missing``."""
    nxt = (missing + 1) % len(chain_pts)
    mid = 0.5 * (chain_pts[missing] + chain_pts[nxt])
    # Chains never skip a polygon vertex, so segment i lies on edge[i].
    j = edge[missing]
    v = poly.vertices
    a = v[j]
    d = v[(j + 1) % len(v)] - a
    k = np.arange(len(j))
    axis = np.argmax(np.abs(d), axis=1)
    t_mid = (mid[k, axis] - a[k, axis]) / d[k, axis]
    at = missing + 1
    return np.insert(chain_pts, at, mid, axis=0), np.insert(edge, at, j), np.insert(t, at, t_mid)


def _p1_stiffness(points, triangles):
    """Rows, columns and values of the P1 Laplacian, nine entries per triangle.

    Entries are ordered (i, j, k): vertex i with vertex j of triangle k, so
    every array operation loops over the triangles.
    """
    tri = triangles.T  # (3, T)
    x, y = points[tri, 0], points[tri, 1]
    # Hat function gradients times twice the triangle area.
    b = y[[1, 2, 0]] - y[[2, 0, 1]]
    c = x[[2, 0, 1]] - x[[1, 2, 0]]
    det = c[2] * b[1] - b[2] * c[1]
    vals = (b[:, None] * b + c[:, None] * c) / (2.0 * np.abs(det))
    rows = np.repeat(tri, 3, axis=0)
    cols = tri[[0, 1, 2, 0, 1, 2, 0, 1, 2]]
    return rows.ravel(), cols.ravel(), vals.ravel()


def _harmonic_interior(points, triangles, boundary_values):
    """Interior values of the discrete harmonic extensions of boundary data.

    ``boundary_values`` is (k, n_chain): k data sets at the chain nodes
    [0, n_chain); the result is (k, n_interior).  One bincount assembles the
    interior rows of the P1 stiffness: the interior block into LAPACK lower
    band storage, the boundary columns into a dense block that moves to the
    right-hand side.  Interior nodes keep their lattice order, so the band is
    about one lattice row wide, and one banded Cholesky solve (LAPACK
    ``pbsv``, called without the ``solveh_banded`` wrapper, whose checks cost
    more than the solve at these sizes) handles all k data sets.
    """
    n_chain = boundary_values.shape[1]
    rows, cols, vals = _p1_stiffness(points, triangles)
    # Interior rows, and of their interior columns only the lower triangle.
    keep = (rows >= n_chain) & (cols <= rows)
    rows, cols, vals = rows[keep] - n_chain, cols[keep], vals[keep]
    n_int = len(points) - n_chain
    interior = cols >= n_chain
    cols = cols - n_chain
    band = rows - cols
    width = int(band.max(where=interior, initial=0)) + 1
    n_band = width * n_int
    # Both blocks column-major, as LAPACK takes them: band entry (r - c, c)
    # at c * width + r - c, boundary entry (r, c) at n_band + c * n_int + r.
    flat = np.where(interior, cols * width + band, n_band + (cols + n_chain) * n_int + rows)
    a = np.bincount(flat, vals, minlength=n_band + n_chain * n_int)
    rhs = -(boundary_values @ a[n_band:].reshape(n_chain, n_int))
    _, x, info = dpbsv(a[:n_band].reshape(n_int, width).T, rhs.T, lower=1,
                       overwrite_ab=1, overwrite_b=1)
    if info:
        raise SolveFailed(f"sub-triangulation Laplacian not positive definite (pbsv info {info})")
    return x.T


class BasisCache:
    """Similarity-keyed cache: harmonic bases survive translation/scaling.

    The store is emptied once it holds ``MAXSIZE`` entries, when an
    ``l2_error`` call starts, never halfway through one.  A ``get`` that
    misses keeps its key in ``_missed_key``, so a miss computes its key once.
    """

    MAXSIZE = 20000

    def __init__(self):
        self.store = {}
        self._missed_key = None

    def trim(self):
        if len(self.store) >= self.MAXSIZE:
            self.store.clear()

    def get(self, poly, depth):
        key = (_full_similarity_key(poly), depth)
        hit = self.store.get(key)
        if hit is None:
            self._missed_key = key
            return None
        return _placed(hit, poly)

    def put(self, key, basis):
        """Store ``basis``, built for the polygon of ``key``, at unit area about the origin."""
        poly = basis.polygon
        self.store[key] = LocalHarmonicBasis(
            polygon=None,
            points=(basis.points - poly.centroid) / math.sqrt(poly.area),
            triangles=basis.triangles,
            psi=basis.psi,
            boundary_mask=basis.boundary_mask,
            loop_vertex_index=basis.loop_vertex_index,
        )


def _full_similarity_key(poly):
    v = (poly.vertices - poly.centroid) / math.sqrt(poly.area)
    return tuple(np.round(v, 12).ravel().tolist())


def _placed(unit, poly):
    """A stored basis of unit area about the origin, moved onto ``poly``."""
    return LocalHarmonicBasis(
        polygon=poly,
        points=unit.points * math.sqrt(poly.area) + poly.centroid,
        triangles=unit.triangles,
        psi=unit.psi,
        boundary_mask=unit.boundary_mask,
        loop_vertex_index=unit.loop_vertex_index,
    )


def build_basis(poly, depth=None, cache=None):
    """Solve the local Laplace problems defining every nodal basis function.

    Boundary data of basis i is the hat: 1 at loop vertex i, 0 at the other
    loop vertices, linear along each boundary edge between consecutive loop
    vertices (hanging nodes included).  With a ``cache``, every polygon of
    one similarity key gets the basis of the key's own polygon (the rounded
    normalized vertices), so no result depends on which of them came first.
    """
    if depth is None:
        depth = BASIS_DEPTH
    if cache is None:
        return _solve_basis(poly, depth)
    hit = cache.get(poly, depth)
    if hit is None:
        key = cache._missed_key
        cache.put(key, _solve_basis(Polygon(np.reshape(key[0], (-1, 2))), depth))
        hit = _placed(cache.store[key], poly)
    return hit


def _solve_basis(poly, depth):
    """The basis of ``poly`` at lattice ``depth``."""
    # Sub-nodes [0, n_chain) are the boundary chain, the rest are interior.
    pts, tris, edge, t = _delaunay_conforming(poly, depth)
    n_loop = len(poly.vertices)
    n_chain = len(edge)
    chain = np.arange(n_chain)
    # Hat boundary data: chain point on edge j at parameter t gets
    # (1 - t) from loop vertex j and t from loop vertex j + 1.
    psi = np.zeros((n_loop, len(pts)))
    psi[edge, chain] = 1.0 - t
    psi[(edge + 1) % n_loop, chain] = t
    if len(pts) > n_chain:
        psi[:, n_chain:] = _harmonic_interior(pts, tris, psi[:, :n_chain])

    return LocalHarmonicBasis(
        polygon=poly,
        points=pts,
        triangles=tris,
        psi=psi,
        boundary_mask=np.arange(len(pts)) < n_chain,
        # Each edge's first chain point, at t == 0, is its loop vertex.
        loop_vertex_index=np.flatnonzero(t == 0.0),
    )


# ---------------------------------------------------------------------------
# Interpolation coefficients
# ---------------------------------------------------------------------------

@dataclass
class InterpolantCoefficients:
    values: np.ndarray  # (N,) per mesh node
    scheme: str


def _element_integrals(mesh, fld, depth):
    """``integrate_on_polygon`` of each element, from one ``polygon_fans`` call."""
    tris, counts = polygon_fans([el.polygon for el in mesh.elements])
    first = np.cumsum(counts) - counts

    def one(el):
        d = depth if depth is not None else default_depth(el.polygon.diameter)
        return integrate_on_fan(tris[first[el.id]:first[el.id] + counts[el.id]], fld.value, d)

    return pmap(one, mesh.elements)


def coefficients(mesh, fld, scheme, depth=None):
    """Nodal coefficients for the chosen interpolation operator.

    POINTWISE uses nodal values at every node; CLEMENT uses node-patch means
    and zeroes the coefficients of Dirichlet-boundary nodes; SCOTT_ZHANG uses
    the mean over one admissible incident edge (Dirichlet edges for Dirichlet
    nodes, non-Dirichlet edges otherwise; longest edge wins, ties by id).
    """
    n = mesh.n_nodes
    c = np.zeros(n)
    if scheme == POINTWISE:
        c = fld.value(mesh.points)
        return InterpolantCoefficients(values=np.asarray(c, dtype=float), scheme=scheme)

    if scheme == CLEMENT:
        integrals = _element_integrals(mesh, fld, depth)
        areas = [el.polygon.area for el in mesh.elements]
        for i in range(n):
            if int(mesh.node_tags[i]) == DIRICHLET:
                c[i] = 0.0
                continue
            patch = mesh.node_patch(i)
            num = sum(integrals[k] for k in patch)
            den = sum(areas[k] for k in patch)
            c[i] = num / den
        return InterpolantCoefficients(values=c, scheme=scheme)

    if scheme == SCOTT_ZHANG:
        edges, pts = mesh.edges, mesh.points
        d = pts[edges[:, 1]] - pts[edges[:, 0]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        # (node, edge) incidences, admissible when both are on the Dirichlet
        # part or neither is; per node the longest, ties to the lower id.
        node = edges.ravel()
        eid = np.repeat(np.arange(len(edges)), 2)
        node_dir = mesh.node_tags == DIRICHLET
        ok = node_dir[node] == (mesh.edge_tags == DIRICHLET)[eid]
        node, eid = node[ok], eid[ok]
        order = np.lexsort((eid, -lengths[eid], node))
        chosen, first = np.unique(node[order], return_index=True)
        if len(chosen) < n:
            missing = np.setdiff1d(np.arange(n), chosen)[0]
            raise NoAdmissibleEdge(f"node {missing} has no admissible edge")
        for i, k in enumerate(eid[order][first]):
            a, b = pts[edges[k, 0]], pts[edges[k, 1]]
            c[i] = integrate_on_edge(a, b, fld.value) / lengths[k]
        return InterpolantCoefficients(values=c, scheme=scheme)

    raise ValueError(f"unknown scheme {scheme!r}")


_BARY = np.column_stack([1.0 - RULE.points[:, 0] - RULE.points[:, 1], RULE.points])  # (Q, 3)


def _shared_l2_parts(points, triangles, psi, coeffs, fld):
    """Integrals of (v - interpolant)^2, (E,), over E elements sharing one
    sub-triangulation and basis: ``points`` (E, M, 2), ``coeffs`` (E, n_loop)."""
    w_nodes = coeffs @ psi  # (E, M)
    tp = points[:, triangles]  # (E, T, 3, 2)
    e1 = tp[:, :, 1] - tp[:, :, 0]
    e2 = tp[:, :, 2] - tp[:, :, 0]
    jac = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    pts = _BARY @ tp  # (E, T, Q, 2)
    vh = w_nodes[:, triangles] @ _BARY.T  # (E, T, Q)
    diff = fld.value(pts.reshape(-1, 2)).reshape(vh.shape) - vh
    return np.einsum("et,q,etq->e", jac, RULE.weights, diff * diff)


def element_l2_error(basis, loop_coeffs, fld):
    """Integral of (v - interpolant)^2 over one element at basis resolution."""
    coeffs = np.asarray(loop_coeffs, dtype=float)[None]
    return float(_shared_l2_parts(basis.points[None], basis.triangles, basis.psi, coeffs, fld)[0])


def l2_parts(mesh, fld, coeffs, depth=None, cache=None):
    """Per-element integrals of (v - Iv)^2, (n_elements,); elements of one similarity key
    share a basis from ``cache`` (fresh if None) and go in chunks of ``CHUNK`` points."""
    if depth is None:
        depth = BASIS_DEPTH
    if cache is None:
        cache = BasisCache()
    cache.trim()
    polys = [el.polygon for el in mesh.elements]
    groups = {}
    for k, poly in enumerate(polys):
        groups.setdefault(_full_similarity_key(poly), []).append(k)
    parts = np.empty(len(polys))
    # The polygons of all missed keys are built in one batch.
    missed = [key for key in groups if (key, depth) not in cache.store]
    for key, poly in zip(missed, polygons_of([np.reshape(key, (-1, 2)) for key in missed])):
        cache.put((key, depth), build_basis(poly, depth))
    for key, members in groups.items():
        shared = cache.store[(key, depth)]
        # Physical sub-nodes as a cache hit maps them: unit points * sqrt|K| + c.
        scale = np.sqrt([polys[k].area for k in members])
        center = np.array([polys[k].centroid for k in members])
        values = coeffs.values[[mesh.elements[k].vertex_loop for k in members]]
        per_chunk = max(1, CHUNK // (len(shared.triangles) * len(RULE.weights)))
        for a in range(0, len(members), per_chunk):
            s = slice(a, a + per_chunk)
            pts = shared.points * scale[s, None, None] + center[s, None, :]
            parts[members[s]] = _shared_l2_parts(pts, shared.triangles, shared.psi, values[s], fld)
    return parts


def l2_error(mesh, fld, coeffs, depth=None, cache=None):
    """Global L2 interpolation error sqrt(sum_K int_K (v - Iv)^2), summed in element order."""
    return math.sqrt(max(sum(l2_parts(mesh, fld, coeffs, depth, cache).tolist()), 0.0))
