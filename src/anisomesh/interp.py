"""Harmonic nodal basis and interpolation operators on polygonal elements.

Each basis function is harmonic inside its element, piecewise linear on the
boundary, and Kronecker at the element nodes.  It is realized by a linear
finite element solve on a per-element Delaunay sub-triangulation: Delaunay
meshes give an M-matrix Laplacian, so the discrete maximum principle holds
exactly, and linear boundary data is reproduced exactly.  Lattice points are
laid out in the element's eigenframe, so at one depth (``BASIS_DEPTH``)
stretched elements get stretched, aligned sub-cells.  Only the interior block
of the P1 stiffness becomes a matrix; its boundary columns go straight into
the right-hand sides (one per basis function), solved by one sparse LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay, QhullError

from .errors import NoAdmissibleEdge, SolveFailed, TriangulationFailed
from .mesh import DIRICHLET
from .parallel import pmap
from .quadrature import RULE, default_depth, integrate_on_edge, integrate_on_polygon

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

    def nodal_field(self, coeff_loop):
        """Values of sum_i c_i psi_i at all sub-nodes."""
        return np.asarray(coeff_loop, dtype=float) @ self.psi

    def evaluate(self, coeff_loop, pts):
        """Evaluate the interpolant at points inside the element."""
        w = self.nodal_field(coeff_loop)
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


def _boundary_chain(poly, depth):
    """Boundary sample points with (edge index, parameter) provenance.

    Edge subdivision counts follow the eigenframe lattice spacing so chain
    density matches the interior lattice.
    """
    v = poly.vertices
    n = len(v)
    s = poly.spectrum
    u = s.basis
    local = (v - poly.centroid) @ u
    ext = local.max(axis=0) - local.min(axis=0)
    m = 2 ** depth
    delta = np.maximum(ext / m, 1e-300)
    pts = []
    prov = []
    for j in range(n):
        a, b = v[j], v[(j + 1) % n]
        d_local = (b - a) @ u
        crossings = math.hypot(d_local[0] / delta[0], d_local[1] / delta[1])
        n_seg = max(1, min(4 * m, math.ceil(crossings)))
        for k in range(n_seg):
            t = k / n_seg
            pts.append(a + t * (b - a))
            prov.append((j, t))
    return np.asarray(pts), prov


def _interior_lattice(poly, depth):
    s = poly.spectrum
    u = s.basis
    c = poly.centroid
    local = (poly.vertices - c) @ u
    lo = local.min(axis=0)
    hi = local.max(axis=0)
    m = 2 ** depth
    delta = np.maximum((hi - lo) / m, 1e-300)
    g1 = lo[0] + delta[0] * np.arange(1, m)
    g2 = lo[1] + delta[1] * np.arange(1, m)
    yy1, yy2 = np.meshgrid(g1, g2, indexing="ij")
    cand_local = np.column_stack([yy1.ravel(), yy2.ravel()])
    cand = cand_local @ u.T + c
    from .geometry import points_in_polygon

    keep = points_in_polygon(cand, poly.vertices)
    cand = cand[keep]
    cand_local = cand_local[keep]
    if len(cand) == 0:
        return cand
    # Drop lattice points crowding the boundary: distance to each polygon
    # edge measured in the scaled frame where the lattice spacing is 1.
    scaled_c = cand_local / delta
    seg = local / delta
    min_d2 = np.full(len(scaled_c), np.inf)
    n = len(seg)
    for j in range(n):
        a = seg[j]
        e = seg[(j + 1) % n] - a
        ll = float(e @ e)
        t = np.clip(((scaled_c - a) @ e) / ll, 0.0, 1.0)
        diff = scaled_c - (a[None, :] + t[:, None] * e[None, :])
        min_d2 = np.minimum(min_d2, (diff * diff).sum(axis=1))
    return cand[min_d2 >= 0.45 ** 2]


def _delaunay_conforming(poly, depth):
    """Delaunay sub-triangulation whose edges contain the boundary chain.

    Missing chain segments (possible on non-convex elements) are fixed by
    inserting their midpoints into the chain and retriangulating.
    """
    from .geometry import points_in_polygon

    chain_pts, chain_prov = _boundary_chain(poly, depth)
    # Work in translation/scale-normalized coordinates: similarity maps keep
    # both the Delaunay property and harmonicity.
    c = poly.centroid
    scale = math.sqrt(poly.area)
    interior = _interior_lattice(poly, depth)
    for _ in range(6):
        pts = np.vstack([chain_pts, interior]) if len(interior) else chain_pts.copy()
        norm = (pts - c) / scale
        try:
            tri = Delaunay(norm)
        except QhullError:
            try:
                tri = Delaunay(norm, qhull_options="QJ Pp")
            except QhullError as exc:
                raise TriangulationFailed(f"Delaunay failed: {exc}") from exc
        simplices = tri.simplices.copy()
        # Orient CCW and drop degenerate or exterior triangles; areas are
        # judged in physical coordinates because the stiffness uses them.
        tp = pts[simplices]
        cross = (tp[:, 1, 0] - tp[:, 0, 0]) * (tp[:, 2, 1] - tp[:, 0, 1]) - (
            tp[:, 1, 1] - tp[:, 0, 1]
        ) * (tp[:, 2, 0] - tp[:, 0, 0])
        flip = cross < 0
        simplices[flip] = simplices[flip][:, [0, 2, 1]]
        keep = np.abs(cross) > 1e-12 * np.abs(cross).max()
        centers = tp.mean(axis=1)
        keep &= points_in_polygon(centers, poly.vertices)
        simplices = simplices[keep]
        # Conformity: every consecutive chain pair must be a Delaunay edge.
        n_pts = len(pts)
        tri_edges = np.concatenate(
            [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]]
        )
        tri_edges.sort(axis=1)
        codes = tri_edges[:, 0].astype(np.int64) * n_pts + tri_edges[:, 1]
        n_chain = len(chain_pts)
        ii = np.arange(n_chain)
        jj = (ii + 1) % n_chain
        lo = np.minimum(ii, jj).astype(np.int64)
        hi = np.maximum(ii, jj).astype(np.int64)
        present = np.isin(lo * n_pts + hi, codes)
        if present.all():
            return pts, simplices, chain_prov, n_chain
        missing = [0.5 * (chain_pts[i] + chain_pts[(i + 1) % n_chain])
                   for i in np.nonzero(~present)[0]]
        chain_pts, chain_prov = _rebuild_chain(poly, chain_pts, chain_prov, missing)
    raise TriangulationFailed("boundary chain not recovered by Delaunay refinement")


def _rebuild_chain(poly, chain_pts, chain_prov, midpoints):
    items = list(zip(chain_prov, [tuple(p) for p in chain_pts]))
    for p in midpoints:
        # Midpoint of chain segment (i, i+1) lies on the same polygon edge
        # as point i (chains never skip polygon vertices).
        best = None
        for idx, ((j, t), xy) in enumerate(items):
            nxt = items[(idx + 1) % len(items)]
            a = np.asarray(xy)
            b = np.asarray(nxt[1])
            if np.allclose(0.5 * (a + b), p, atol=1e-12):
                best = (idx, j)
                break
        if best is None:
            continue
        idx, j = best
        v = poly.vertices
        a_edge = v[j]
        b_edge = v[(j + 1) % len(v)]
        denom = b_edge - a_edge
        axis = int(np.argmax(np.abs(denom)))
        t_new = float((p[axis] - a_edge[axis]) / denom[axis])
        items.insert(idx + 1, ((j, t_new), tuple(p)))
    chain_prov = [it[0] for it in items]
    chain_pts = np.asarray([it[1] for it in items])
    return chain_pts, chain_prov


def _p1_stiffness(points, triangles):
    tp = points[triangles]
    e1 = tp[:, 1, :] - tp[:, 0, :]
    e2 = tp[:, 2, :] - tp[:, 0, :]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * np.abs(det)
    # Gradients of the three hat functions on each triangle.
    b = np.stack(
        [tp[:, 1, 1] - tp[:, 2, 1], tp[:, 2, 1] - tp[:, 0, 1], tp[:, 0, 1] - tp[:, 1, 1]],
        axis=1,
    )
    cc = np.stack(
        [tp[:, 2, 0] - tp[:, 1, 0], tp[:, 0, 0] - tp[:, 2, 0], tp[:, 1, 0] - tp[:, 0, 0]],
        axis=1,
    )
    local = (b[:, :, None] * b[:, None, :] + cc[:, :, None] * cc[:, None, :]) / (
        4.0 * area[:, None, None]
    )
    rows = np.repeat(triangles, 3, axis=1).reshape(-1)
    cols = np.tile(triangles, (1, 3)).reshape(-1)
    return rows, cols, local.reshape(-1)


class BasisCache:
    """Similarity-keyed cache: harmonic bases survive translation/scaling.

    The store is emptied once it holds ``MAXSIZE`` entries, when an
    ``l2_error`` call starts, never halfway through one.
    """

    MAXSIZE = 20000

    def __init__(self):
        self.store = {}

    def trim(self):
        if len(self.store) >= self.MAXSIZE:
            self.store.clear()

    def get(self, poly, depth):
        key = (_full_similarity_key(poly), depth)
        hit = self.store.get(key)
        if hit is None:
            return None
        c = poly.centroid
        s = math.sqrt(poly.area)
        return LocalHarmonicBasis(
            polygon=poly,
            points=hit.points * s + c,
            triangles=hit.triangles,
            psi=hit.psi,
            boundary_mask=hit.boundary_mask,
            loop_vertex_index=hit.loop_vertex_index,
        )

    def put(self, poly, depth, basis):
        c = poly.centroid
        s = math.sqrt(poly.area)
        key = (_full_similarity_key(poly), depth)
        self.store[key] = LocalHarmonicBasis(
            polygon=None,
            points=(basis.points - c) / s,
            triangles=basis.triangles,
            psi=basis.psi,
            boundary_mask=basis.boundary_mask,
            loop_vertex_index=basis.loop_vertex_index,
        )


def _full_similarity_key(poly):
    v = (poly.vertices - poly.centroid) / math.sqrt(poly.area)
    return tuple(np.round(v, 12).ravel().tolist())


def build_basis(poly, depth=None, cache=None):
    """Solve the local Laplace problems defining every nodal basis function.

    Boundary data of basis i is the hat: 1 at loop vertex i, 0 at the other
    loop vertices, linear along each boundary edge between consecutive loop
    vertices (hanging nodes included).
    """
    if depth is None:
        depth = BASIS_DEPTH
    if cache is not None:
        hit = cache.get(poly, depth)
        if hit is not None:
            return hit

    # Sub-nodes [0, n_chain) are the boundary chain, the rest are interior.
    pts, tris, chain_prov, n_chain = _delaunay_conforming(poly, depth)
    n_loop = len(poly.vertices)
    n_pts = len(pts)
    boundary_mask = np.arange(n_pts) < n_chain

    # Hat boundary data: chain point on edge j at parameter t gets
    # (1 - t) from loop vertex j and t from loop vertex j + 1.
    edge = np.fromiter((j for j, _ in chain_prov), dtype=np.intp, count=n_chain)
    t = np.fromiter((t for _, t in chain_prov), dtype=float, count=n_chain)
    chain = np.arange(n_chain)
    hat = np.zeros((n_chain, n_loop))
    np.add.at(hat, (chain, edge), 1.0 - t)
    np.add.at(hat, (chain, (edge + 1) % n_loop), t)
    loop_vertex_index = np.full(n_loop, -1, dtype=int)
    loop_vertex_index[edge[t == 0.0]] = chain[t == 0.0]
    if np.any(loop_vertex_index < 0):
        raise TriangulationFailed("a loop vertex is missing from the boundary chain")

    psi = np.zeros((n_loop, n_pts))
    psi[:, :n_chain] = hat.T
    n_int = n_pts - n_chain
    if n_int:
        rows, cols, vals = _p1_stiffness(pts, tris)
        rows = rows - n_chain
        ii = (rows >= 0) & (cols >= n_chain)
        ib = (rows >= 0) & (cols < n_chain)
        a_ii = csc_matrix((vals[ii], (rows[ii], cols[ii] - n_chain)), shape=(n_int, n_int))
        rhs = np.zeros((n_int, n_loop))
        np.add.at(rhs, rows[ib], -vals[ib, None] * hat[cols[ib]])
        try:
            lu = splu(a_ii)
        except RuntimeError as exc:
            raise SolveFailed(f"sub-triangulation Laplacian singular: {exc}") from exc
        psi[:, n_chain:] = lu.solve(rhs).T

    basis = LocalHarmonicBasis(
        polygon=poly,
        points=pts,
        triangles=tris,
        psi=psi,
        boundary_mask=boundary_mask,
        loop_vertex_index=loop_vertex_index,
    )
    if cache is not None:
        cache.put(poly, depth, basis)
    return basis


# ---------------------------------------------------------------------------
# Interpolation coefficients
# ---------------------------------------------------------------------------

@dataclass
class InterpolantCoefficients:
    values: np.ndarray  # (N,) per mesh node
    scheme: str


def _element_integrals(mesh, fld, depth):
    def one(el):
        d = depth if depth is not None else default_depth(el.polygon.diameter)
        return integrate_on_polygon(el.polygon, fld.value, depth=d)

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


def element_l2_error(basis, loop_coeffs, fld):
    """Integral of (v - interpolant)^2 over one element at basis resolution."""
    w_nodes = basis.nodal_field(loop_coeffs)
    tp = basis.points[basis.triangles]
    e1 = tp[:, 1, :] - tp[:, 0, :]
    e2 = tp[:, 2, :] - tp[:, 0, :]
    jac = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    bary = np.column_stack(
        [1.0 - RULE.points[:, 0] - RULE.points[:, 1], RULE.points[:, 0], RULE.points[:, 1]]
    )  # (Q, 3)
    pts = bary @ tp  # (T, Q, 2)
    vh = w_nodes[basis.triangles] @ bary.T  # (T, Q)
    vv = fld.value(pts.reshape(-1, 2)).reshape(vh.shape)
    diff = vv - vh
    return float(np.einsum("t,q,tq->", jac, RULE.weights, diff * diff))


def l2_error(mesh, fld, coeffs, depth=None, cache=None):
    """Global L2 interpolation error sqrt(sum_K int_K (v - Iv)^2)."""
    if cache is not None:
        cache.trim()

    def one(el):
        basis = build_basis(el.polygon, depth=depth, cache=cache)
        return element_l2_error(basis, coeffs.values[el.vertex_loop], fld)

    parts = pmap(one, mesh.elements)
    return math.sqrt(max(sum(parts), 0.0))
