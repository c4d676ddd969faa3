"""Marking and bisection: uniform, isotropic, and anisotropic strategies.

Marked elements are bisected by a line through their centroid.  The cut-line
direction is orthogonal to the largest-eigenvalue eigenvector of either the
element covariance (ISOTROPIC) or the gradient Gram matrix (ANISOTROPIC);
UNIFORM bisects every element with the isotropic direction.  Cut endpoints
become ordinary nodes and are inserted into the loops of every element
sharing the cut edge, so hanging nodes stay topologically visible.  Each
loop is first extended by the nodes inserted on its edges; the two children
of a split element are then the arcs of that ring from one cut end to the
other.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import CutMissesPolygon, NonSimpleResult
from .geometry import SNAP_TOL, split_polygons, symmetric_eig_2x2
from .indicator import eta_global
from .mesh import INTERIOR, build_mesh

log = logging.getLogger(__name__)

_CUT_FAILURES = (CutMissesPolygon, NonSimpleResult)

UNIFORM = "UNIFORM"
ISOTROPIC = "ISOTROPIC"
ANISOTROPIC = "ANISOTROPIC"

__all__ = [
    "UNIFORM",
    "ISOTROPIC",
    "ANISOTROPIC",
    "RefineConfig",
    "RefinementStep",
    "mark",
    "cut_directions",
    "refine",
    "adaptive_loop",
]


@dataclass
class RefineConfig:
    strategy: str = ISOTROPIC
    marking_factor: float = 0.9
    max_levels: int = 1
    quad_depth: int = None  # None: per-element automatic depth

    def __post_init__(self):
        if not 0.0 < self.marking_factor <= 1.0:
            raise ValueError("marking_factor must be in (0, 1]")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.strategy not in (UNIFORM, ISOTROPIC, ANISOTROPIC):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class RefinementStep:
    parent_of: list  # new element id -> id of the element it came from in the old mesh
    parent_children: dict  # parent element id -> (child id, child id) in the new mesh
    new_nodes: list
    directions: dict  # parent element id -> unit cut-line direction
    skipped: list = field(default_factory=list)


def mark(report, n_elements, factor=0.9):
    """Equidistribution marking: {K : eta_K > factor * eta^2 / n}."""
    threshold = factor * report.eta_global ** 2 / n_elements
    return {i for i, val in enumerate(report.eta_local) if val > threshold}


def cut_directions(loops, grams, strategy):
    """Directions (n, 2) of the cut LINES of a ``Loops`` batch, orthogonal to the
    selected eigenvectors, in one array step.

    ANISOTROPIC takes the largest-eigenvalue eigenvector of each Gram matrix
    of ``grams`` (n, 2, 2), or the x-axis at a tie.  A Gram matrix without
    directional information (a flat field: trace not positive and finite)
    falls back to the covariance, as do the other strategies: u1, whose
    normal u2 is the direction, or a cut orthogonal to the x-axis at a tie.
    DegenerateElement is raised for a covariance that is used and rank deficient.
    """
    l1, l2 = loops.lambda1, loops.lambda2
    d = np.where((l1 - l2 < 1e-12 * (l1 + l2))[:, None], [0.0, 1.0], loops.u[:, 1])
    covariance = np.ones(len(d), dtype=bool)
    if strategy == ANISOTROPIC and len(d):
        if grams is None:
            raise ValueError("anisotropic direction needs an indicator report")
        g11, g12, g22 = grams[:, 0, 0], grams[:, 0, 1], grams[:, 1, 1]
        m1, m2, w1 = symmetric_eig_2x2(g11, g12, g22)
        with np.errstate(all="ignore"):
            tr = g11 + g22
            w1 = np.where((m1 - m2 < 1e-12 * tr)[:, None], [1.0, 0.0], w1)
        covariance = ~((tr > 0.0) & np.isfinite(tr))
        d = np.where(covariance[:, None], d, np.column_stack((-w1[:, 1], w1[:, 0])))
    loops.full_rank(covariance)
    return d


def _bisections(loops, grams, strategy):
    """Per polygon of a ``Loops`` batch, in order: (direction, cut ends) of
    its bisection, or (None, the failures of both directions).

    All polygons are split in one pass; those whose cut fails are tried
    once more, together, in the orthogonal direction.  Failures other than
    a missed cut or a non-simple piece propagate.
    """
    first = cut_directions(loops, grams, strategy)
    outcomes, _ = split_polygons(loops, loops.centroid, first)
    retry = [k for k, out in enumerate(outcomes) if isinstance(out, _CUT_FAILURES)]
    second = np.column_stack((-first[retry, 1], first[retry, 0]))
    retried, _ = split_polygons(loops.take(retry), loops.centroid[retry], second)
    fallback = dict(zip(retry, zip(second, retried)))
    for k, out in enumerate(outcomes):
        d = first[k]
        if k in fallback:
            d, again = fallback[k]
            if isinstance(again, _CUT_FAILURES):
                yield None, f"{out}; {again}"
                continue
            out = again
        if isinstance(out, Exception):
            raise out
        yield d, out[1]


def refine(mesh, marked, strategy=ISOTROPIC, report=None):
    """Bisect the marked elements; returns (new mesh, RefinementStep).

    UNIFORM ignores ``marked`` and bisects everything.  Elements whose cut
    degenerates in both the chosen and the orthogonal direction are skipped
    and logged.  Split order is ascending element id for determinism.
    Raises ValueError for a marked id outside [0, n_elements).
    """
    if strategy not in (UNIFORM, ISOTROPIC, ANISOTROPIC):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == UNIFORM:
        marked = set(range(mesh.n_elements))
    bad = sorted(eid for eid in marked if not 0 <= eid < mesh.n_elements)
    if bad:
        raise ValueError(f"marked element ids {bad} outside [0, {mesh.n_elements})")

    new_points = []  # coordinates of nodes n_nodes, n_nodes + 1, ...
    inserted = {}  # canonical edge key -> list of (t, node id)
    cut_ends = {}  # split parent id -> node ids of its two cut ends
    directions = {}
    skipped = []

    def register_cut_node(el, end):
        """Node id of a cut end: its loop vertex, or the node at parameter s
        along a parent edge, created or reused."""
        loop = el.vertex_loop
        if end[0] == "v":
            return loop[end[1]]
        _, i, s = end
        a, b = loop[i], loop[(i + 1) % len(loop)]
        key = (a, b) if a < b else (b, a)
        t = s if a < b else 1.0 - s
        (xa, ya), (xb, yb) = mesh.points[key[0]].tolist(), mesh.points[key[1]].tolist()
        entries = inserted.setdefault(key, [])
        if entries:
            length = float(np.hypot(xb - xa, yb - ya))
            tol_t = SNAP_TOL * diameter[el.id] / max(length, 1e-300)
            for t_old, nid in entries:
                if abs(t_old - t) <= tol_t:
                    return nid
        # Coordinates from the canonical parameter so both elements sharing
        # the edge resolve to bitwise identical positions.
        nid = mesh.n_nodes + len(new_points)
        new_points.append((xa + t * (xb - xa), ya + t * (yb - ya)))
        entries.append((t, nid))
        return nid

    order = sorted(marked)
    diameter = mesh.geometry.diameter.tolist()
    grams = None if report is None else report.gram[order]
    bisections = _bisections(mesh.geometry.take(order), grams, strategy)
    for eid, (d, cut) in zip(order, bisections):
        el = mesh.elements[eid]
        if d is None:
            log.warning("element %d skipped: %s", eid, cut)
            skipped.append(eid)
            continue
        lo, hi = (register_cut_node(el, end) for end in cut)
        if lo == hi:
            log.warning("element %d skipped: both ends resolve to one node", eid)
            skipped.append(eid)
            continue
        cut_ends[eid] = lo, hi
        directions[eid] = d / float(np.hypot(*d))

    chains = {key: [nid for _, nid in sorted(entries)] for key, entries in inserted.items()}

    def with_hanging(loop):
        """``loop`` with the nodes inserted on its edges this level, in order."""
        ring = []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            ring.append(a)
            ring.extend(chains.get((a, b), ()) if a < b else reversed(chains.get((b, a), ())))
        return ring

    # A split element's children are the two arcs of its ring between the
    # cut ends; each closes along the cut chord.
    new_loops = []
    parent_of_loop = []
    parent_children = {}
    for el in mesh.elements:
        ring = with_hanging(el.vertex_loop)
        if el.id not in cut_ends:
            new_loops.append(ring)
            parent_of_loop.append(el.id)
            continue
        lo, hi = cut_ends[el.id]
        i = ring.index(lo)
        ring = ring[i:] + ring[:i]
        k = ring.index(hi)
        parent_children[el.id] = (len(new_loops), len(new_loops) + 1)
        new_loops += [ring[:k + 1], ring[k:] + ring[:1]]
        parent_of_loop += [el.id, el.id]

    # Boundary tags: each boundary edge's chain of inserted nodes splits it
    # into consecutive pairs that inherit its tag.
    boundary_spec = {}
    for k in np.flatnonzero(mesh.edge_tags != INTERIOR):
        a, b = mesh.edges[k].tolist()
        tag = int(mesh.edge_tags[k])
        chain = [a, *chains.get((a, b), ()), b]
        boundary_spec.update((pair, tag) for pair in zip(chain, chain[1:]))

    points = np.concatenate([mesh.points, np.reshape(new_points, (-1, 2))])
    new_mesh = build_mesh(points, new_loops, boundary_spec, check_simple=False)

    step = RefinementStep(
        parent_of=parent_of_loop,
        parent_children=parent_children,
        new_nodes=list(range(mesh.n_nodes, len(points))),
        directions=directions,
        skipped=skipped,
    )
    return new_mesh, step


def _adaptive_levels(mesh, fld, config):
    """Indicate -> mark -> refine from ``mesh``; yields (mesh, report) per level.

    Stops after a level that marks nothing, and never stops otherwise:
    callers take as many levels as they want, and a level is refined only
    when the next one is asked for.  Elements whose parent was not split
    cover the parent's region, so they keep the parent's Gram matrix, also
    when a neighbour's cut added a hanging node to their loop.
    """
    carried = None
    while True:
        report = eta_global(mesh, fld, depth=config.quad_depth, carried=carried)
        if config.strategy == UNIFORM:
            marked = set(range(mesh.n_elements))
        else:
            marked = mark(report, mesh.n_elements, config.marking_factor)
        report.marked = marked
        yield mesh, report
        if not marked:
            return
        mesh, step = refine(mesh, marked, config.strategy, report)
        carried = {
            child: report.gram[parent]
            for child, parent in enumerate(step.parent_of)
            if parent not in step.parent_children
        }


def adaptive_loop(initial, fld, config):
    """Run indicate -> mark -> refine for ``config.max_levels`` levels.

    Returns the history as a list of (mesh, report) pairs including the
    initial level; stops early when nothing is marked.
    """
    return list(islice(_adaptive_levels(initial, fld, config), config.max_levels + 1))
