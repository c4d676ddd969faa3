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
banded Cholesky solve handles them all.

``build_bases`` builds the bases of a ``Loops`` batch in one pass per chunk
of elements, reading the batch's vertices, owner index, successors,
centroids and eigenframes: chains, lattices, even-odd tests, triangle
filters, conformity and assembly are array operations over the whole
chunk, and only the Delaunay call, the right-hand side and the banded solve
run per element.  Elements whose triangulation misses a chain segment go
through recovery rounds together.  ``build_basis`` is a batch of one, so
each basis is bit-identical whatever else shares its pass, and a
``BasisCache`` builds all the keys it misses in one such batch.

CLEMENT's node-patch means take the element integrals of the field from
one ``quadrature.integrals`` call, the kernel of the Gram matrices, and sum
them and the element areas over the element-node incidence with two
``bincount``s, so each patch is summed in ascending element id.

``l2_error`` integrates a level per similarity key: each call builds one
quadrature table per key from the cached unit basis (rule points as
coordinate planes, weights, basis values), and each chunk of the key's
elements evaluates the field once for every interpolant of the call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbsv
from scipy.spatial import Delaunay, QhullError

from .errors import NoAdmissibleEdge, SolveFailed, TriangulationFailed
from .geometry import _hypot, block_pairs, loop_successors, points_in_loops, polygons_of
from .mesh import DIRICHLET
from .quadrature import CHUNK, RULE, chunks, integrals, integrate_on_edge

__all__ = [
    "POINTWISE",
    "CLEMENT",
    "SCOTT_ZHANG",
    "LocalHarmonicBasis",
    "InterpolantCoefficients",
    "build_basis",
    "build_bases",
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
        """Evaluate the interpolant at points (..., 2) inside the element; a single
        point gives shape (1,)."""
        w = np.asarray(coeff_loop, dtype=float) @ self.psi
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        tri_pts = self.points[self.triangles]  # (T, 3, 2)
        flat = pts.reshape(-1, 2)
        out = np.empty(len(flat))
        for k, p in enumerate(flat):
            bary = _barycentric(tri_pts, p)
            inside = np.all(bary >= -1e-9, axis=1)
            if not inside.any():
                idx = int(np.argmax(bary.min(axis=1)))
            else:
                idx = int(np.nonzero(inside)[0][0])
            out[k] = float(bary[idx] @ w[self.triangles[idx]])
        return out.reshape(pts.shape[:-1])


def _barycentric(tri_pts, p):
    a = tri_pts[:, 0, :]
    e1 = tri_pts[:, 1, :] - a
    e2 = tri_pts[:, 2, :] - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    r = p[None, :] - a
    x1 = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
    x2 = (e1[:, 0] * r[:, 1] - e1[:, 1] * r[:, 0]) / det
    return np.column_stack([1.0 - x1 - x2, x1, x2])


class _Frames(NamedTuple):
    """Lattice eigenframes of a ``Loops`` batch: ``u`` (E, 2, 2) holds the
    frames as columns u1, u2, ``local`` the vertices in their frame about the
    centroid, ``lo`` the lattice's low corners and ``delta`` its spacings."""

    u: np.ndarray
    local: np.ndarray
    lo: np.ndarray
    delta: np.ndarray


def _frames(loops, depth):
    v, starts, owner = loops.vertices, loops.starts, loops.owner
    u = np.ascontiguousarray(loops.full_rank().u.transpose(0, 2, 1))
    # One (1, 2) @ (2, 2) product per vertex rounds as one element's (n, 2) @
    # (2, 2) does; a scalar formula would not.
    local = ((v - loops.centroid[owner])[:, None, :] @ u[owner])[:, 0]
    lo = np.minimum.reduceat(local, starts)
    delta = np.maximum((np.maximum.reduceat(local, starts) - lo) / 2 ** depth, 1e-300)
    return _Frames(u, local, lo, delta)


class _Nodes(NamedTuple):
    """Sub-triangulation nodes of many elements, each array in element order.

    The boundary chain: ``chain`` points, their owner, and the polygon edge
    ``edge`` (numbered within the owner) and parameter ``t`` in [0, 1) they lie
    at.  Then the ``interior`` lattice points and their owner.
    """

    chain: np.ndarray
    edge: np.ndarray
    t: np.ndarray
    chain_owner: np.ndarray
    interior: np.ndarray
    interior_owner: np.ndarray

    def of(self, elements):
        """The nodes of the elements where the (E,) bool ``elements`` is set."""
        c, i = elements[self.chain_owner], elements[self.interior_owner]
        return _Nodes(self.chain[c], self.edge[c], self.t[c], self.chain_owner[c],
                      self.interior[i], self.interior_owner[i])

    def layout(self):
        """(points, owner, chain flag) of all nodes, each element's chain first."""
        owner = np.concatenate((self.chain_owner, self.interior_owner))
        order = np.argsort(owner, kind="stable")
        points = np.concatenate((self.chain, self.interior))[order]
        return points, owner[order], order < len(self.chain)


def _boundary_chains(loops, frames, depth):
    """Boundary sample points of every element: the chain fields of ``_Nodes``.

    Edge subdivision counts follow the eigenframe lattice spacing, so chain
    density matches the interior lattice; ``math.hypot`` measures the edges.
    """
    v, owner = loops.vertices, loops.owner
    d = v[loops.succ] - v
    scaled = (d[:, None, :] @ frames.u[owner])[:, 0] / frames.delta[owner]
    n_seg = np.clip(np.ceil(_hypot(scaled[:, 0], scaled[:, 1])), 1, 4 * 2 ** depth).astype(int)
    edge = np.repeat(np.arange(len(v)), n_seg)
    t = (np.arange(len(edge)) - (np.cumsum(n_seg) - n_seg)[edge]) / n_seg[edge]
    owner = owner[edge]
    return v[edge] + t[:, None] * d[edge], edge - loops.starts[owner], t, owner


@lru_cache(maxsize=8)
def _lattice_steps(depth):
    """(i, j) of the interior lattice nodes, 1 <= i, j < 2^depth, j fastest."""
    steps = np.arange(1, 2 ** depth, dtype=float)
    ij = np.column_stack([np.repeat(steps, len(steps)), np.tile(steps, len(steps))])
    ij.setflags(write=False)
    return ij


def _interior_lattices(loops, frames, depth):
    """Eigenframe lattice points inside each polygon, in lattice order, and their owner.

    Points closer than 0.45 lattice spacings to the boundary are dropped.
    """
    steps = _lattice_steps(depth)
    u, local, lo, delta = frames
    cand_local = lo[:, None, :] + delta[:, None, :] * steps  # (E, L, 2)
    cand = (cand_local @ u.transpose(0, 2, 1) + loops.centroid[:, None, :]).reshape(-1, 2)
    owner = np.repeat(np.arange(len(loops.sizes)), len(steps))
    keep = points_in_loops(cand, owner, loops.vertices, loops.starts, loops.sizes)
    cand, owner = cand[keep], owner[keep]
    # Distance of each point to every edge of its polygon, one (point, edge)
    # pair per entry, in the scaled frame where the lattice spacing is 1.
    s = cand_local.reshape(-1, 2)[keep] / delta[owner]
    a = local / delta[loops.owner]
    e = a[loops.succ] - a
    item, edge = block_pairs(owner, loops.starts, loops.sizes)
    (sx, sy), (ax, ay), (ex, ey) = s[item].T, a[edge].T, e[edge].T
    t = np.clip(((sx - ax) * ex + (sy - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    dx = sx - (ax + t * ex)
    dy = sy - (ay + t * ey)
    near = np.minimum.reduceat(dx * dx + dy * dy, np.flatnonzero(np.diff(item, prepend=-1)))
    far = near >= 0.45 ** 2
    return cand[far], owner[far]


def _delaunay(points):
    try:
        return Delaunay(points).simplices
    except QhullError:
        try:
            return Delaunay(points, qhull_options="QJ Pp").simplices
        except QhullError as exc:
            raise TriangulationFailed(f"Delaunay failed: {exc}") from exc


def _triangulate(loops, nodes):
    """One Delaunay triangulation per element of ``nodes``, filtered level-wide.

    Returns (triangles, owner, missing): each element's triangles in its own
    node numbering (``_Nodes.layout`` order), CCW, without degenerate or
    exterior ones, and a flag per chain node: the chain segment from it to the
    next chain node is no edge.  Triangles of three chain nodes that the
    degeneracy filter drops still count as carrying their edges; they add
    nothing to the interior rows the solve uses.  A chain node in no triangle
    is no segment's end: the edge that bridges it carries its segments.
    """
    pts, node_owner, chained = nodes.layout()
    count = np.bincount(node_owner, minlength=len(loops.sizes))
    first = np.cumsum(count) - count
    ids = np.flatnonzero(count)
    # Translation/scale-normalized coordinates: similarity maps keep both the
    # Delaunay property and harmonicity.
    norm = (pts - loops.centroid[node_owner]) / np.sqrt(loops.area)[node_owner, None]
    simplices = [_delaunay(norm[a:a + n]) for a, n in zip(first[ids].tolist(), count[ids].tolist())]
    n_tri = np.array([len(s) for s in simplices])
    owner = np.repeat(ids, n_tri)
    tri = np.concatenate(simplices) + first[owner][:, None]
    # Orient CCW and drop degenerate or exterior triangles; areas are judged
    # in physical coordinates because the stiffness uses them.
    p0, p1, p2 = pts[tri.T]
    cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
        p1[:, 1] - p0[:, 1]
    ) * (p2[:, 0] - p0[:, 0])
    flip = cross < 0
    tri[flip, 1:] = tri[flip, :0:-1]
    size = np.abs(cross)
    sound = size > 1e-12 * np.repeat(np.maximum.reduceat(size, np.cumsum(n_tri) - n_tri), n_tri)
    keep = sound.copy()
    keep[sound] = points_in_loops(((p0 + p1 + p2) / 3)[sound], owner[sound], loops.vertices,
                                  loops.starts, loops.sizes)
    # Conformity: every consecutive chain pair must be an edge.  Edges and
    # segments are integer keys; a sentinel ends the sorted edge keys.
    carried = tri[keep | (~sound & chained[tri].all(axis=1))]
    a, b = carried.ravel(), carried[:, [1, 2, 0]].ravel()
    on_chain = chained[a] & chained[b]
    a, b, n = a[on_chain], b[on_chain], len(pts)
    edges = np.append(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), n * n)
    # A chain node that qhull leaves out as coplanar lies on the edge between
    # the chain nodes around it that qhull keeps; that edge carries its segments.
    used = np.zeros(n, dtype=bool)
    used[tri] = True
    in_tri = used[chained]
    at = np.flatnonzero(chained)[in_tri]  # chain nodes in triangles, in chain order
    n_chain = np.bincount(node_owner[at], minlength=len(count))
    nxt = at[loop_successors(np.cumsum(n_chain) - n_chain, n_chain)]
    seg = np.minimum(at, nxt) * n + np.maximum(at, nxt)
    missing = np.zeros(len(in_tri), dtype=bool)
    missing[in_tri] = edges[np.searchsorted(edges, seg)] != seg
    return tri[keep] - first[owner[keep]][:, None], owner[keep], missing


def _recover(loops, nodes, missing):
    """One recovery round for the elements with ``missing`` chain segments.

    A missing segment's diametral circle loses the interior lattice points
    strictly inside it; a segment with none there gets its midpoint inserted
    into the chain, on the segment's polygon edge.
    """
    chain, owner = nodes.chain, nodes.chain_owner
    n_chain = np.bincount(owner, minlength=len(loops.sizes))
    j = np.flatnonzero(missing)
    nxt = loop_successors(np.cumsum(n_chain) - n_chain, n_chain)[j]
    n_int = np.bincount(nodes.interior_owner, minlength=len(loops.sizes))
    seg, idx = block_pairs(owner[j], np.cumsum(n_int) - n_int, n_int)
    p = nodes.interior[idx]
    inside = ((p - chain[j][seg]) * (p - chain[nxt][seg])).sum(axis=1) < 0.0
    crowded = np.zeros(len(j), dtype=bool)
    crowded[seg[inside]] = True
    kept = np.ones(len(nodes.interior), dtype=bool)
    kept[idx[inside]] = False
    j, nxt = j[~crowded], nxt[~crowded]
    mid = 0.5 * (chain[j] + chain[nxt])
    # Chains never skip a polygon vertex, so segment j lies on edge[j].
    edge = nodes.edge[j]
    a = loops.starts[owner[j]] + edge
    start = loops.vertices[a]
    d = loops.vertices[loops.succ[a]] - start
    k = np.arange(len(j))
    axis = np.argmax(np.abs(d), axis=1)
    t_mid = (mid[k, axis] - start[k, axis]) / d[k, axis]
    return _Nodes(np.insert(chain, j + 1, mid, axis=0), np.insert(nodes.edge, j + 1, edge),
                  np.insert(nodes.t, j + 1, t_mid), np.insert(owner, j + 1, owner[j]),
                  nodes.interior[kept], nodes.interior_owner[kept])


def _conforming(loops, depth):
    """Delaunay sub-triangulations whose edges contain the boundary chains.

    Returns (nodes, triangles, owner): each element's triangles in its
    own node numbering, the boundary chain first, then the interior lattice
    in lattice order.  Elements that miss chain segments (possible on
    non-convex ones) go through recovery rounds of ``_recover`` and
    ``_triangulate`` together, 12 triangulations in all.
    """
    frames = _frames(loops, depth)
    nodes = _Nodes(*_boundary_chains(loops, frames, depth),
                   *_interior_lattices(loops, frames, depth))
    parts = []
    for _ in range(12):
        tri, owner, missing = _triangulate(loops, nodes)
        failed = np.zeros(len(loops.sizes), dtype=bool)
        failed[nodes.chain_owner[missing]] = True
        if not failed.any():
            break
        ok = ~failed[owner]
        parts.append((nodes.of(~failed), tri[ok], owner[ok]))
        nodes = _recover(loops, nodes.of(failed), missing[failed[nodes.chain_owner]])
    else:
        raise TriangulationFailed("boundary chain not recovered by Delaunay refinement")
    if not parts:
        return nodes, tri, owner
    parts.append((nodes, tri, owner))
    # Put the rounds' elements back in element order.
    nodes = _Nodes(*map(np.concatenate, zip(*(p[0] for p in parts))))
    c = np.argsort(nodes.chain_owner, kind="stable")
    i = np.argsort(nodes.interior_owner, kind="stable")
    nodes = _Nodes(nodes.chain[c], nodes.edge[c], nodes.t[c], nodes.chain_owner[c],
                   nodes.interior[i], nodes.interior_owner[i])
    tri, owner = (np.concatenate(a) for a in zip(*(p[1:] for p in parts)))
    order = np.argsort(owner, kind="stable")
    return nodes, tri[order], owner[order]


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


def _solve_bases(loops, depth):
    """The bases of a ``Loops`` batch at lattice ``depth``, from one pass over all of them.

    Hat boundary data: the chain point on edge j at parameter t gets 1 - t
    from loop vertex j and t from loop vertex j + 1.  Interior values are the
    discrete harmonic extensions.  One ``_p1_stiffness`` call over all
    triangles and one bincount assemble the interior rows of every element:
    the interior block into LAPACK lower band storage, the boundary columns
    into a dense block that moves to the right-hand side.  Interior nodes keep
    their lattice order, so a band is about one lattice row wide, and one
    banded Cholesky solve per element (LAPACK ``pbsv``, called without the
    ``solveh_banded`` wrapper, whose checks cost more than the solve at these
    sizes) handles all of its basis functions.
    """
    nodes, tri, tri_owner = _conforming(loops, depth)
    pts, node_owner, chained = nodes.layout()
    n_loop = loops.sizes
    n_node = np.bincount(node_owner, minlength=len(n_loop))
    n_chain = np.bincount(nodes.chain_owner, minlength=len(n_loop))
    n_int = n_node - n_chain
    first = np.cumsum(n_node) - n_node
    rows, cols, vals = _p1_stiffness(pts, tri + first[tri_owner][:, None])
    # Interior rows, and of their interior columns only the lower triangle,
    # numbered from each element's first interior node.
    base = (first + n_chain)[tri_owner]
    keep = np.flatnonzero((rows.reshape(9, -1) >= base) & (cols <= rows).reshape(9, -1))
    tri_of = keep % len(tri_owner)  # entries are (pair, triangle), triangles fastest
    owner, base = tri_owner[tri_of], base[tri_of]
    rows, cols, vals = rows[keep] - base, cols[keep] - base, vals[keep]
    interior = cols >= 0
    band = rows - cols
    width = np.zeros(len(n_loop), dtype=int)
    np.maximum.at(width, owner[interior], band[interior])
    width += 1
    n_band = width * n_int
    size = n_band + n_chain * n_int
    start = np.cumsum(size) - size
    # Per element, both blocks column-major, as LAPACK takes them: band entry
    # (r - c, c) at c * width + r - c, boundary entry (r, c) at n_band +
    # c * n_int + r.
    flat = start[owner] + np.where(interior, cols * width[owner] + band,
                                   n_band[owner] + (cols + n_chain[owner]) * n_int[owner] + rows)
    a = np.bincount(flat, vals, minlength=int(size.sum()))
    # psi[i] of element k, the i-th loop vertex's function at its sub-nodes,
    # is row i of block k of one buffer.
    n_psi = n_loop * n_node
    at = np.cumsum(n_psi) - n_psi
    co = nodes.chain_owner
    node = np.arange(len(co)) - (np.cumsum(n_chain) - n_chain)[co]
    psi_all = np.zeros(int(n_psi.sum()))
    psi_all[at[co] + nodes.edge * n_node[co] + node] = 1.0 - nodes.t
    psi_all[at[co] + (nodes.edge + 1) % n_loop[co] * n_node[co] + node] = nodes.t
    # Each edge's first chain point, at t == 0, is its loop vertex.
    loop_vertex = np.split(node[nodes.t == 0.0], np.cumsum(n_loop)[:-1])
    n_tri = np.bincount(tri_owner, minlength=len(n_loop))
    triangles = np.split(tri.astype(np.intc), np.cumsum(n_tri)[:-1])
    bases = []
    for k in range(len(n_loop)):
        m, nc, ni, f, s = n_node[k], n_chain[k], n_int[k], first[k], start[k]
        psi = psi_all[at[k]:at[k] + n_psi[k]].reshape(-1, m)
        if ni:
            rhs = -(psi[:, :nc] @ a[s + n_band[k]:s + size[k]].reshape(nc, ni))
            _, x, info = dpbsv(a[s:s + n_band[k]].reshape(ni, width[k]).T, rhs.T, lower=1,
                               overwrite_ab=1, overwrite_b=1)
            if info:
                raise SolveFailed("sub-triangulation Laplacian not positive definite "
                                  f"(pbsv info {info})")
            psi[:, nc:] = x.T
        bases.append(LocalHarmonicBasis(points=pts[f:f + m], triangles=triangles[k], psi=psi,
                                        boundary_mask=chained[f:f + m],
                                        loop_vertex_index=loop_vertex[k]))
    return bases


class BasisCache:
    """Similarity-keyed cache: harmonic bases survive translation/scaling.

    The store maps (similarity key, depth) to a basis of unit area about the
    origin.  It is emptied once it holds ``MAXSIZE`` entries, when an
    ``l2_error`` call starts, never halfway through one.
    """

    MAXSIZE = 20000

    def __init__(self):
        self.store = {}

    def trim(self):
        if len(self.store) >= self.MAXSIZE:
            self.store.clear()

    def get(self, poly, depth):
        """The stored basis of ``poly``'s key moved onto ``poly``, or None."""
        hit = self.store.get((_similarity_keys(poly.batch())[0], depth))
        return None if hit is None else _placed(hit, poly)

    def fill(self, keys, depth):
        """Store the basis of every similarity key of ``keys`` missing at ``depth``,
        built for the key's own polygon (its rounded normalized vertices), all in
        one ``build_bases`` batch."""
        missed = [key for key in keys if (key, depth) not in self.store]
        shapes = polygons_of([np.reshape(key, (-1, 2)) for key in missed])
        for k, (key, basis) in enumerate(zip(missed, build_bases(shapes, depth))):
            self.store[(key, depth)] = LocalHarmonicBasis(
                points=(basis.points - shapes.centroid[k]) / math.sqrt(shapes.area[k]),
                triangles=basis.triangles,
                psi=basis.psi,
                boundary_mask=basis.boundary_mask,
                loop_vertex_index=basis.loop_vertex_index,
            )


def _similarity_keys(loops):
    """Each polygon's vertices moved to unit area about the origin, rounded to 12
    digits, as one flat tuple: one array pass over a ``Loops`` batch."""
    owner = loops.owner
    scale = np.sqrt(loops.area)[owner]
    flat = np.round((loops.vertices - loops.centroid[owner]) / scale[:, None], 12).ravel().tolist()
    ends = (2 * (loops.starts + loops.sizes)).tolist()
    return [tuple(flat[e - 2 * n:e]) for e, n in zip(ends, loops.sizes.tolist())]


def _placed(unit, poly):
    """A stored basis of unit area about the origin, moved onto ``poly``."""
    return LocalHarmonicBasis(
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
    ``build_bases`` of one polygon.
    """
    if depth is None:
        depth = BASIS_DEPTH
    if cache is None:
        return build_bases(poly.batch(), depth)[0]
    key = _similarity_keys(poly.batch())[0]
    cache.fill([key], depth)
    return _placed(cache.store[(key, depth)], poly)


def build_bases(loops, depth=None):
    """``build_basis`` of each polygon of a ``Loops`` batch, one pass per chunk of them:
    per chunk, every step but the Delaunay call and the banded solve runs over all its
    elements."""
    if depth is None:
        depth = BASIS_DEPTH
    bases = []
    for a, b in chunks(loops.sizes * len(_lattice_steps(depth))):
        bases += _solve_bases(loops.take(np.arange(a, b)), depth)
    return bases


# ---------------------------------------------------------------------------
# Interpolation coefficients
# ---------------------------------------------------------------------------

@dataclass
class InterpolantCoefficients:
    values: np.ndarray  # (N,) per mesh node
    scheme: str


def coefficients(mesh, fld, scheme, depth=None):
    """Nodal coefficients for the chosen interpolation operator.

    POINTWISE uses nodal values at every node; CLEMENT uses node-patch means
    and zeroes the coefficients of Dirichlet-boundary nodes and of nodes in no
    element; SCOTT_ZHANG uses
    the mean over one admissible incident edge (Dirichlet edges for Dirichlet
    nodes, non-Dirichlet edges otherwise; longest edge wins, ties by id).
    """
    n = mesh.n_nodes
    c = np.zeros(n)
    if scheme == POINTWISE:
        c = fld.value(mesh.points)
        return InterpolantCoefficients(values=np.asarray(c, dtype=float), scheme=scheme)

    if scheme == CLEMENT:
        geom = mesh.geometry
        totals = integrals(geom, lambda p, w, out: np.multiply(w, fld.value(p), out=out[0]), 1,
                           depth)[:, 0]
        # Over the incidence in element order, each node's patch sums in ascending id.
        num = np.bincount(mesh.loop_nodes, totals[geom.owner], minlength=n)
        den = np.bincount(mesh.loop_nodes, geom.area[geom.owner], minlength=n)
        np.divide(num, den, out=c, where=(mesh.node_tags != DIRICHLET) & (den > 0.0))
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
# Right factor of every table product: a coordinate's values at the three corners
# give its values at the Q rule points and the two edge differences.
_MAP = np.column_stack([_BARY.T, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]])


def _table(basis):
    """The quadrature table of ``basis``, from two 2-D products: the ``RULE``
    points on its sub-triangles as coordinate planes (2, P), their weights
    |J| w_q (P,), and every basis function's value at them (n_loop, P)."""
    q = len(RULE.weights)
    tri = basis.triangles
    t = len(tri)
    xy = basis.points.T.take(tri, axis=1).reshape(-1, 3) @ _MAP  # x rows, then y rows
    ex, ey = xy[:t, q:], xy[t:, q:]
    jac = np.abs(ex[:, 0] * ey[:, 1] - ex[:, 1] * ey[:, 0])
    phi = basis.psi.take(tri, axis=1).reshape(-1, 3) @ _MAP[:, :q]
    return (xy[:, :q].reshape(2, -1), np.multiply.outer(jac, RULE.weights).ravel(),
            phi.reshape(len(basis.psi), -1))


def _table_parts(table, scale, center, values, fld, buf=None):
    """Integrals of (v - interpolant)^2, (S, E), over E elements sharing one ``table``:
    element e is the table's basis scaled by ``scale[e]`` about ``center[e]``, and
    ``values`` (S, E, n_loop) holds its loop coefficients in S sets.

    Per chunk of whole elements (at most ``CHUNK`` points, unless one element has
    more), the physical points go into coordinate planes in ``buf`` and the field is
    evaluated once, on their (e, P, 2) view, for all S sets.  Every product and sum
    runs per element, so a part does not depend on what else shares its chunk.
    """
    planes, weights, phi = table
    n = len(weights)
    per_chunk = max(1, CHUNK // n)
    size = 2 * n * min(per_chunk, len(scale))
    if buf is None or len(buf) < size:
        buf = np.empty(size)
    out = np.empty(values.shape[:2])
    for a in range(0, len(scale), per_chunk):
        s = scale[a:a + per_chunk]
        xy = buf[:2 * len(s) * n].reshape(2, len(s), n)
        np.multiply(planes[:, None, :], s[:, None], out=xy)
        xy += center[a:a + len(s)].T[:, :, None]
        v = fld.value(xy.transpose(1, 2, 0))
        for k, vals in enumerate(values[:, a:a + len(s)]):
            # A stacked product rounds by the layout of its rows: keep them contiguous.
            vals = np.ascontiguousarray(vals)
            diff = v - (vals[:, None, :] @ phi)[:, 0]
            diff *= diff
            out[k, a:a + len(s)] = np.einsum("ep,p->e", diff, weights) * (s * s)
    return out


def element_l2_error(basis, loop_coeffs, fld):
    """Integral of (v - interpolant)^2 over one element at basis resolution: a
    placed basis is a table of scale 1 about the origin."""
    values = np.asarray(loop_coeffs, dtype=float).reshape(1, 1, -1)
    return float(_table_parts(_table(basis), np.ones(1), np.zeros((1, 2)), values, fld)[0, 0])


def l2_parts(mesh, fld, coeffs, depth=None, cache=None):
    """Per-element integrals of (v - Iv)^2, (n_elements,), for one coefficient set, or
    a list of them for a sequence of sets.

    Elements of one similarity key share a basis from ``cache`` (fresh if None)
    and one quadrature table, built here for this call; each chunk of at most
    ``CHUNK`` points evaluates the field once for every set.
    """
    sets = [coeffs] if isinstance(coeffs, InterpolantCoefficients) else list(coeffs)
    for c in sets:
        if np.shape(c.values) != (mesh.n_nodes,):
            raise ValueError(f"{c.scheme} coefficients of shape {np.shape(c.values)} "
                             f"on a mesh of {mesh.n_nodes} nodes")
    if depth is None:
        depth = BASIS_DEPTH
    if cache is None:
        cache = BasisCache()
    cache.trim()
    geom = mesh.geometry
    groups = {}
    for k, key in enumerate(_similarity_keys(geom)):
        groups.setdefault(key, []).append(k)
    cache.fill(groups, depth)
    # Elements in key order: each key's scales, centres and loop coefficients are
    # views of one gather.
    order = np.fromiter(itertools.chain.from_iterable(groups.values()), dtype=np.int64,
                        count=mesh.n_elements)
    at = mesh.loop_nodes[block_pairs(order, geom.starts, geom.sizes)[1]]
    values = np.stack([np.asarray(c.values, dtype=float)[at] for c in sets])
    scale, center = np.sqrt(geom.area[order]), geom.centroid[order]
    out = np.empty((len(sets), mesh.n_elements))
    buf = np.empty(2 * CHUNK)
    a = lo = 0
    for key, members in groups.items():
        b, hi = a + len(members), lo + len(key) // 2 * len(members)
        # Physical points as a cache hit maps them: unit points * sqrt|K| + c.
        out[:, a:b] = _table_parts(_table(cache.store[(key, depth)]), scale[a:b], center[a:b],
                                   values[:, lo:hi].reshape(len(sets), b - a, -1), fld, buf)
        a, lo = b, hi
    parts = np.empty_like(out)
    parts[:, order] = out
    return parts[0] if isinstance(coeffs, InterpolantCoefficients) else list(parts)


def l2_error(mesh, fld, coeffs, depth=None, cache=None):
    """Global L2 interpolation error sqrt(sum_K int_K (v - Iv)^2), summed in element
    order: one value for one coefficient set, a list for a sequence of sets."""
    parts = l2_parts(mesh, fld, coeffs, depth, cache)
    errors = [math.sqrt(max(sum(p.tolist()), 0.0)) for p in np.atleast_2d(parts)]
    return errors[0] if isinstance(coeffs, InterpolantCoefficients) else errors
