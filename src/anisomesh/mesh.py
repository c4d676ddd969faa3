"""Polytopal mesh topology with hanging nodes, patch queries, and file IO.

Hanging nodes are ordinary mesh nodes: an element's vertex loop lists every
node on its boundary, including nodes with interior angle pi.  Patches are
therefore computed topologically from loop membership.  The mesh is immutable
during indicator and interpolation passes; refinement builds a new mesh.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import InvalidTopology, NonSimpleResult, ParseError
from .geometry import loop_error, loop_moments, loops_simple

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
    """Element as an ordered CCW node-id loop; its ``polygon`` views its row
    of the mesh's geometry batch."""

    __slots__ = ("id", "vertex_loop", "_geometry")

    def __init__(self, eid, vertex_loop, geometry):
        self.id = eid
        self.vertex_loop = vertex_loop
        self._geometry = geometry

    @property
    def polygon(self):
        return self._geometry.polygon(self.id)


class PolyMesh:
    """Nodes, edges, elements, and their mutual incidence.

    ``edges`` is an (E, 2) int array of node pairs (a, b) with a < b, sorted
    lexicographically; the row number is the edge id.  ``edge_tags`` is the
    (E,) uint8 array of INTERIOR, NEUMANN or DIRICHLET: exactly the edges in
    one element loop (the boundary) carry NEUMANN or DIRICHLET.
    ``geometry`` is the ``Loops`` batch of the element polygons, in element
    order, with their moments and spectra: level passes read it.
    ``loop_nodes`` is the read-only node id of each of its vertices: the
    element loops, flat, in element order.
    """

    def __init__(self, points, node_tags, elements, geometry, loop_nodes, edges, edge_tags,
                 node_elems, domain_area):
        self.points = points
        self.node_tags = node_tags
        self.elements = elements
        self.geometry = geometry
        self.loop_nodes = loop_nodes
        self.edges = edges
        self.edge_tags = edge_tags
        self._node_elems = node_elems
        self.domain_area = domain_area

    # -- basic queries ------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.points)

    @property
    def n_elements(self):
        return len(self.elements)

    def total_area(self):
        return float(sum(self.geometry.area.tolist()))

    def neighbour_pairs(self):
        """All unordered pairs of elements whose closures intersect."""
        pairs = set()
        for elems in self._node_elems:
            elems = sorted(elems)
            for i in range(len(elems)):
                for j in range(i + 1, len(elems)):
                    pairs.add((elems[i], elems[j]))
        return sorted(pairs)

    # -- patches ------------------------------------------------------------

    def node_patch(self, i):
        """omega_i: indices of elements whose closure contains node i."""
        return set(self._node_elems[i])

    def edge_patch(self, edge):
        """omega_E: union of the endpoint node patches of edge (a, b)."""
        a, b = edge
        return self.node_patch(a) | self.node_patch(b)

    def element_patch(self, eid):
        """omega_K: union of node patches over the element's loop."""
        out = set()
        for i in self.elements[eid].vertex_loop:
            out.update(self._node_elems[i])
        return out

    def max_elements_per_node(self):
        return max((len(s) for s in self._node_elems), default=0)

    # -- validation ---------------------------------------------------------

    def validate(self, check_simple=True):
        """Run the full invariant suite; raises InvalidTopology on failure.

        The edge table and node patches are rebuilt from the element loops
        and must equal the stored ones.
        """
        loops = [el.vertex_loop for el in self.elements]
        edges, counts, _ = _edge_table(loops, self.n_nodes)
        if not np.array_equal(edges, self.edges):
            raise InvalidTopology("edge table does not match the element loops")
        if not np.array_equal(self.edge_tags != INTERIOR, counts == 1):
            raise InvalidTopology("boundary tags are not exactly on the boundary edges")
        if _node_patches(loops, self.n_nodes) != self._node_elems:
            raise InvalidTopology("node patches do not match the element loops")
        if check_simple:
            if not loops_simple(self.geometry).all():
                raise NonSimpleResult("polygon boundary self-intersects")
        total = self.total_area()
        if abs(total - self.domain_area) > 1e-10 * self.domain_area:
            raise InvalidTopology(
                f"element areas sum to {total:.17g}, domain area is {self.domain_area:.17g}"
            )
        return True


def _edge_table(loops, n_nodes):
    """Edges of the element loops: (edges, counts, boundary walk).

    ``edges`` holds each undirected edge once as (a, b), a < b, in
    lexicographic order; ``counts`` the number of loops using it; the
    boundary walk the (tail, head) pairs of the once-used edges as their
    loop traverses them.  Raises InvalidTopology when a directed edge
    repeats (orientation mismatch or overlap) or an edge is in > 2 loops.
    """
    sizes = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
    tail = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=int(sizes.sum()))
    ends = np.cumsum(sizes)
    nxt = np.arange(1, len(tail) + 1)
    nxt[ends - 1] = ends - sizes
    head = tail[nxt]
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


def _node_patches(loops, n_nodes):
    node_elems = [set() for _ in range(n_nodes)]
    for eid, loop in enumerate(loops):
        for i in loop:
            node_elems[i].add(eid)
    return node_elems


def build_mesh(points, element_loops, boundary_spec=DIRICHLET, check_simple=True):
    """Construct a PolyMesh with full incidence and invariant validation.

    ``boundary_spec`` assigns tags to boundary edges: a single tag for the
    whole boundary, or a dict {(a, b): tag} keyed by node pairs (either
    order); keys of pairs that are not boundary edges are ignored.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidTopology("points must be an (N, 2) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidTopology("node coordinates must be finite")
    n_nodes = len(pts)

    loops = [list(loop) for loop in element_loops]
    sizes = np.array([len(loop) for loop in loops], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=int(sizes.sum()))
    owner = np.repeat(np.arange(len(loops)), sizes)
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
    elements = [MeshElement(eid, loop, geometry) for eid, loop in enumerate(loops)]

    edges, counts, walk = _edge_table(loops, n_nodes)
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
    mesh = PolyMesh(pts, node_tags, elements, geometry, flat, edges, edge_tags,
                    _node_patches(loops, n_nodes), domain_area)
    mesh.validate(check_simple=check_simple)
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
    for el in mesh.elements:
        lines.append(" ".join([str(len(el.vertex_loop))] + [str(i) for i in el.vertex_loop]))
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
    # the Dirichlet part only if both endpoints do (junction nodes carry the
    # Dirichlet tag, so mixed edges read as Neumann).
    def tag_for(a, b):
        ta, tb = int(tags[a]), int(tags[b])
        if ta == DIRICHLET and tb == DIRICHLET:
            return DIRICHLET
        if NEUMANN in (ta, tb):
            return NEUMANN
        return DIRICHLET

    boundary_spec = {
        (a, b): tag_for(a, b) for loop in loops for a, b in zip(loop, loop[1:] + loop[:1])
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
    loops = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            loops.append([a, a + 1, a + nx + 2, a + nx + 1])
    return build_mesh(pts, loops, boundary_spec)


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

    loops = {}
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            loops[(i, j)] = [a, a + 1, a + nx + 2, a + nx + 1]

    merged = set()
    cells = [(i, j) for j in range(ny) for i in range(nx)]
    rng.shuffle(cells)
    out = []
    for cell in cells:
        if cell in merged:
            continue
        i, j = cell
        neighbours = [(i + 1, j), (i, j + 1)]
        rng.shuffle(neighbours)
        did = False
        if rng.random() < merge_fraction:
            for nb in neighbours:
                if nb in loops and nb not in merged:
                    out.append(_merge_loops(loops[cell], loops[nb]))
                    merged.add(cell)
                    merged.add(nb)
                    did = True
                    break
        if not did:
            out.append(loops[cell])
            merged.add(cell)

    out.sort()
    mesh = build_mesh(pts, out, boundary_spec)
    return mesh


def _merge_loops(loop_a, loop_b):
    """Union of two CCW loops sharing exactly one edge."""
    edges_a = {(loop_a[i], loop_a[(i + 1) % len(loop_a)]) for i in range(len(loop_a))}
    shared = None
    for i in range(len(loop_b)):
        a, b = loop_b[i], loop_b[(i + 1) % len(loop_b)]
        if (b, a) in edges_a:
            shared = (b, a)
            break
    if shared is None:
        raise InvalidTopology("loops share no edge")
    u, v = shared  # appears as u->v in loop_a, v->u in loop_b
    ia = loop_a.index(u)
    ib = loop_b.index(v)
    na, nb = len(loop_a), len(loop_b)
    part_a = [loop_a[(ia + 1 + k) % na] for k in range(na - 1)]  # v ... up to u
    part_b = [loop_b[(ib + 1 + k) % nb] for k in range(nb - 1)]  # u ... up to v
    return part_a + part_b
