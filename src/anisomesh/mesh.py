"""Polytopal mesh topology with hanging nodes, patch queries, and file IO.

Hanging nodes are ordinary mesh nodes: an element's vertex loop lists every
node on its boundary, including nodes with interior angle pi.  Patches are
therefore computed topologically from loop membership.  A mesh keeps its
topology once, as flat arrays: the element loops concatenated in element
order, and the node patches as one CSR pair.  The mesh is immutable during
indicator and interpolation passes; refinement builds a new mesh.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np

from .errors import InvalidTopology, NonSimpleResult, ParseError
from .geometry import block_pairs, loop_error, loop_moments, loops_simple

__all__ = [
    "INTERIOR",
    "NEUMANN",
    "DIRICHLET",
    "MeshElement",
    "PolyMesh",
    "build_mesh",
    "load_mesh",
    "save_mesh",
    "generate_grid",
    "generate_polygonal",
]

INTERIOR = 0
NEUMANN = 1
DIRICHLET = 2

_FORMAT_VERSION = 1


class MeshElement:
    """Read-only view of element ``id``: its ``vertex_loop`` is its slice of
    the mesh's ``loop_nodes``, its ``polygon`` its row of the geometry batch."""

    __slots__ = ("id", "vertex_loop", "_geometry")

    def __init__(self, eid, vertex_loop, geometry):
        self.id = eid
        self.vertex_loop = vertex_loop
        self._geometry = geometry

    @property
    def polygon(self):
        return self._geometry.polygon(self.id)


class PolyMesh:
    """Nodes, edges, elements, and their mutual incidence, as flat arrays.

    ``geometry`` is the ``Loops`` batch of the element polygons, in element
    order, with their moments and spectra: level passes read it.
    ``loop_nodes`` is the read-only node id of each of its vertices: element
    k's CCW loop is the ``geometry.sizes[k]`` entries from
    ``geometry.starts[k]``.  ``edges`` is an (E, 2) int array of node pairs
    (a, b) with a < b, sorted lexicographically; the row number is the edge
    id.  ``edge_tags`` is the (E,) uint8 array of INTERIOR, NEUMANN or
    DIRICHLET: exactly the edges in one element loop (the boundary) carry
    NEUMANN or DIRICHLET.  The node patches are CSR arrays: node i's patch
    is ``patch_elements[patch_starts[i]:patch_starts[i + 1]]``, its element
    ids in ascending order.  ``elements`` holds ``MeshElement`` views, built
    on first access.
    """

    def __init__(self, points, node_tags, geometry, loop_nodes, edges, edge_tags, domain_area):
        self.points = points
        self.node_tags = node_tags
        self.geometry = geometry
        self.loop_nodes = loop_nodes
        self.edges = edges
        self.edge_tags = edge_tags
        self.patch_starts, self.patch_elements = _node_patch_csr(loop_nodes, geometry.owner,
                                                                 len(points))
        self.domain_area = domain_area

    # -- basic queries ------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.points)

    @property
    def n_elements(self):
        return len(self.geometry.sizes)

    @cached_property
    def elements(self):
        loops = np.split(self.loop_nodes, self.geometry.starts[1:])
        return [MeshElement(k, loop, self.geometry) for k, loop in enumerate(loops)]

    def total_area(self):
        return float(sum(self.geometry.area.tolist()))

    def _patches_of(self, nodes):
        """Element ids of the patches of ``nodes``, concatenated, with repeats."""
        at = block_pairs(np.asarray(nodes), self.patch_starts[:-1], np.diff(self.patch_starts))
        return self.patch_elements[at[1]]

    def neighbour_pairs(self):
        """All unordered pairs of elements whose closures intersect, sorted."""
        # Patch entry j belongs to node sort(loop_nodes)[j]: pair it with that patch.
        item, other = block_pairs(np.sort(self.loop_nodes), self.patch_starts[:-1],
                                  np.diff(self.patch_starts))
        a, b = self.patch_elements[item], self.patch_elements[other]
        codes = np.unique(a[a < b] * self.n_elements + b[a < b])
        return list(zip(*(x.tolist() for x in np.divmod(codes, self.n_elements))))

    # -- patches ------------------------------------------------------------

    def node_patch(self, i):
        """omega_i: indices of elements whose closure contains node i."""
        return set(self._patches_of([i]).tolist())

    def edge_patch(self, edge):
        """omega_E: union of the endpoint node patches of edge (a, b)."""
        return set(self._patches_of(edge).tolist())

    def element_patch(self, eid):
        """omega_K: union of node patches over the element's loop."""
        a, n = self.geometry.starts[eid], self.geometry.sizes[eid]
        return set(self._patches_of(self.loop_nodes[a:a + n]).tolist())

    def max_elements_per_node(self):
        return int(np.diff(self.patch_starts).max(initial=0))

    # -- validation ---------------------------------------------------------

    def validate(self, check_simple=True):
        """Run the full invariant suite; raises InvalidTopology on failure.

        The edge table and node patches are rebuilt from the element loops
        and must equal the stored ones.
        """
        g = self.geometry
        edges, counts, _ = _edge_table(self.loop_nodes, g.succ, self.n_nodes)
        if not np.array_equal(edges, self.edges):
            raise InvalidTopology("edge table does not match the element loops")
        if not np.array_equal(self.edge_tags != INTERIOR, counts == 1):
            raise InvalidTopology("boundary tags are not exactly on the boundary edges")
        patches = _node_patch_csr(self.loop_nodes, g.owner, self.n_nodes)
        if not all(map(np.array_equal, patches, (self.patch_starts, self.patch_elements))):
            raise InvalidTopology("node patches do not match the element loops")
        return self._validate_loops(check_simple)

    def _validate_loops(self, check_simple):
        """The checks that need no table rebuilt: simple element loops (unless
        ``check_simple`` is False) and element areas that sum to the domain's."""
        if check_simple:
            if not loops_simple(self.geometry).all():
                raise NonSimpleResult("polygon boundary self-intersects")
        total = self.total_area()
        if abs(total - self.domain_area) > 1e-10 * self.domain_area:
            raise InvalidTopology(
                f"element areas sum to {total:.17g}, domain area is {self.domain_area:.17g}"
            )
        return True


def _edge_table(tail, succ, n_nodes):
    """Edges of the loops whose vertices are the nodes ``tail``, each followed
    by vertex ``succ``: (edges, counts, boundary walk).

    ``edges`` holds each undirected edge once as (a, b), a < b, in
    lexicographic order; ``counts`` the number of loops using it; the
    boundary walk the (tail, head) pairs of the once-used edges as their
    loop traverses them.  Raises InvalidTopology when a directed edge
    repeats (orientation mismatch or overlap) or an edge is in > 2 loops.
    """
    head = tail[succ]
    directed, dir_counts = np.unique(tail * n_nodes + head, return_counts=True)
    if np.any(dir_counts > 1):
        a, b = divmod(int(directed[dir_counts > 1][0]), n_nodes)
        raise InvalidTopology(
            f"edge {a}->{b} traversed twice in the same direction "
            f"(orientation mismatch or overlapping elements)"
        )
    codes, ids, counts = np.unique(
        np.minimum(tail, head) * n_nodes + np.maximum(tail, head),
        return_inverse=True,
        return_counts=True,
    )
    edges = np.column_stack(np.divmod(codes, n_nodes))
    if np.any(counts > 2):
        k = int(np.argmax(counts > 2))
        raise InvalidTopology(f"edge {tuple(edges[k].tolist())} shared by {counts[k]} elements")
    once = counts[ids] == 1
    return edges, counts, np.column_stack((tail[once], head[once]))


def _node_patch_csr(loop_nodes, owner, n_nodes):
    """(starts, elements): the element ids of each node's patch, ascending,
    from a stable sort of the loops' nodes (owners ascend along the loops)."""
    starts = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(loop_nodes, minlength=n_nodes), out=starts[1:])
    return starts, owner[np.argsort(loop_nodes, kind="stable")]


def build_mesh(points, element_loops, boundary_spec=DIRICHLET, check_simple=True):
    """Construct a PolyMesh with full incidence and invariant validation.

    ``element_loops`` is a list of node-id loops, or a tuple (loop_nodes,
    sizes): the loops concatenated and their lengths.  ``boundary_spec``
    assigns tags to boundary edges: a single tag for the whole boundary, or
    a dict {(a, b): tag} keyed by node pairs (either order); keys of pairs
    that are not boundary edges are ignored.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidTopology("points must be an (N, 2) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidTopology("node coordinates must be finite")
    n_nodes = len(pts)

    if not isinstance(element_loops, tuple):  # nested loops, flattened once
        element_loops = list(chain.from_iterable(element_loops)), list(map(len, element_loops))
    flat, sizes = (np.array(a, dtype=np.int64) for a in element_loops)
    if sizes.sum() != len(flat):
        raise InvalidTopology("loop sizes do not add up to the loop nodes")
    owner = np.repeat(np.arange(len(sizes)), sizes)
    for eid in owner[(flat < 0) | (flat >= n_nodes)][:1].tolist():
        raise InvalidTopology(f"element {eid} references a missing node")
    codes = np.sort(owner * n_nodes + flat)
    for eid in (codes[1:][codes[1:] == codes[:-1]] // max(n_nodes, 1))[:1].tolist():
        raise InvalidTopology(f"element {eid} repeats a node in its loop")
    for eid in np.flatnonzero(sizes < 3)[:1].tolist():
        raise InvalidTopology(f"element {eid}: polygon needs at least 3 vertices")
    geometry = loop_moments(pts[flat], sizes)
    for eid in np.flatnonzero(geometry.error)[:1].tolist():
        error = loop_error(geometry, eid)
        if isinstance(error, ValueError):
            raise InvalidTopology(f"element {eid}: {error}") from error
        raise error

    edges, counts, walk = _edge_table(flat, geometry.succ, n_nodes)
    # Domain area from the oriented boundary: domain on the left of the walk.
    pa, pb = pts[walk[:, 0]], pts[walk[:, 1]]
    domain_area = 0.5 * float(np.sum(pa[:, 0] * pb[:, 1] - pb[:, 0] * pa[:, 1]))
    if domain_area <= 0.0:
        raise InvalidTopology("boundary orientation yields non-positive domain area")

    boundary = np.flatnonzero(counts == 1)
    edge_tags = np.zeros(len(edges), dtype=np.uint8)
    for k in boundary:
        a, b = edges[k].tolist()
        if isinstance(boundary_spec, dict):
            tag = boundary_spec.get((a, b), boundary_spec.get((b, a)))
            if tag is None:
                raise InvalidTopology(f"boundary_spec missing tag for edge {(a, b)}")
        else:
            tag = boundary_spec
        if int(tag) not in (NEUMANN, DIRICHLET):
            raise InvalidTopology(f"boundary edge {(a, b)} needs tag 1 or 2")
        edge_tags[k] = int(tag)

    # Dirichlet wins at junction nodes (closure convention): the larger tag.
    node_tags = np.zeros(n_nodes, dtype=np.uint8)
    np.maximum.at(node_tags, edges[boundary].ravel(), np.repeat(edge_tags[boundary], 2))

    flat.setflags(write=False)
    mesh = PolyMesh(pts, node_tags, geometry, flat, edges, edge_tags, domain_area)
    # The tables were just built from these loops; ``validate`` rebuilds them.
    mesh._validate_loops(check_simple)
    return mesh


# ---------------------------------------------------------------------------
# File IO: plain text, 17 significant digits for bit-exact round trips
# ---------------------------------------------------------------------------

def save_mesh(mesh, path):
    lines = [f"polymesh 2 {_FORMAT_VERSION}", str(mesh.n_nodes)]
    for i in range(mesh.n_nodes):
        x, y = mesh.points[i]
        lines.append(f"{x:.17g} {y:.17g} {int(mesh.node_tags[i])}")
    lines.append(str(mesh.n_elements))
    nodes = mesh.loop_nodes.tolist()
    for a, n in zip(mesh.geometry.starts.tolist(), mesh.geometry.sizes.tolist()):
        lines.append(" ".join(map(str, [n, *nodes[a:a + n]])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    with open(path) as fh:
        raw = fh.readlines()
    rows = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped))
    if not rows:
        raise ParseError("empty mesh file")

    def take():
        if not rows:
            raise ParseError("unexpected end of file")
        return rows.pop(0)

    lineno, header = take()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "polymesh" or parts[1] != "2":
        raise ParseError("bad header, expected 'polymesh 2 <version>'", line=lineno)

    lineno, count = take()
    try:
        n_nodes = int(count)
    except ValueError:
        raise ParseError("expected node count", line=lineno) from None
    pts = np.empty((n_nodes, 2))
    tags = np.zeros(n_nodes, dtype=np.uint8)
    for i in range(n_nodes):
        lineno, row = take()
        parts = row.split()
        if len(parts) != 3:
            raise ParseError("expected 'x y tag'", line=lineno)
        try:
            pts[i] = (float(parts[0]), float(parts[1]))
            tags[i] = int(parts[2])
        except ValueError:
            raise ParseError("bad node row", line=lineno) from None

    lineno, count = take()
    try:
        n_elems = int(count)
    except ValueError:
        raise ParseError("expected element count", line=lineno) from None
    loops = []
    for _ in range(n_elems):
        lineno, row = take()
        parts = row.split()
        try:
            k = int(parts[0])
            loop = [int(p) for p in parts[1:]]
        except (ValueError, IndexError):
            raise ParseError("bad element row", line=lineno) from None
        if len(loop) != k:
            raise ParseError(f"element row promises {k} nodes, has {len(loop)}", line=lineno)
        if not all(0 <= i < n_nodes for i in loop):
            raise ParseError("element row names a node that does not exist", line=lineno)
        loops.append(loop)

    # Boundary edge tags are reconstructed from node tags: an edge lies on
    # the Neumann part when an endpoint does.  Junction nodes carry the
    # Dirichlet tag, so an edge between two junctions reads as Dirichlet.
    boundary_spec = {
        (a, b): NEUMANN if NEUMANN in (tags[a], tags[b]) else DIRICHLET
        for loop in loops for a, b in zip(loop, loop[1:] + loop[:1])
    }

    mesh = build_mesh(pts, loops, boundary_spec)
    # Preserve node tags exactly as stored.
    mesh.node_tags = tags
    return mesh


# ---------------------------------------------------------------------------
# Generators for initial meshes on (0, 1)^2
# ---------------------------------------------------------------------------

def generate_grid(nx, ny, boundary_spec=DIRICHLET):
    """Uniform nx-by-ny quad grid on the unit square."""
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one cell per direction")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    pts = np.array([(x, y) for y in ys for x in xs])
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()  # lower left corners
    loops = np.column_stack((a, a + 1, a + nx + 2, a + nx + 1)).ravel()
    return build_mesh(pts, (loops, np.full(nx * ny, 4)), boundary_spec)


def generate_polygonal(nx, ny, jitter=0.2, seed=0, merge_fraction=0.3, boundary_spec=DIRICHLET):
    """Structured quads with seeded interior jitter and random pair merges.

    Merging removes the shared edge of two adjacent quads, producing general
    polygons (possibly non-convex under jitter); each quad is merged at most
    once.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    pts = np.array([(x, y) for y in ys for x in xs])
    hx, hy = 1.0 / nx, 1.0 / ny
    for j in range(1, ny):
        for i in range(1, nx):
            k = j * (nx + 1) + i
            pts[k, 0] += rng.uniform(-jitter, jitter) * hx
            pts[k, 1] += rng.uniform(-jitter, jitter) * hy

    loops = {(i, j): [a, a + 1, a + nx + 2, a + nx + 1]
             for j in range(ny) for i in range(nx) for a in [j * (nx + 1) + i]}
    merged = set()
    cells = list(loops)
    rng.shuffle(cells)
    out = []
    for cell in cells:
        if cell in merged:
            continue
        i, j = cell
        neighbours = [(i + 1, j), (i, j + 1)]
        rng.shuffle(neighbours)
        free = [nb for nb in neighbours if nb in loops and nb not in merged]
        if rng.random() < merge_fraction and free:
            out.append(_merge_loops(loops[cell], loops[free[0]]))
            merged.add(free[0])
        else:
            out.append(loops[cell])
        merged.add(cell)
    out.sort()
    return build_mesh(pts, out, boundary_spec)


def _merge_loops(loop_a, loop_b):
    """Union of two CCW loops sharing exactly one edge, u -> v in loop_a."""
    reversed_b = set(zip(loop_b[1:] + loop_b[:1], loop_b))
    shared = [edge for edge in zip(loop_a, loop_a[1:] + loop_a[:1]) if edge in reversed_b]
    if not shared:
        raise InvalidTopology("loops share no edge")
    u, v = shared[0]
    # loop_a from v on to just before u, then loop_b from u on to just before v.
    part_a = loop_a[loop_a.index(v):] + loop_a[:loop_a.index(v)]
    part_b = loop_b[loop_b.index(u):] + loop_b[:loop_b.index(u)]
    return part_a[:-1] + part_b[:-1]
