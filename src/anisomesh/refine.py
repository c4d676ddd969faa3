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
from .geometry import (SNAP_TOL, block_pairs, loop_successors, split_polygons,
                       symmetric_eig_2x2)
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
    parent_of: np.ndarray  # new element id -> id of the element it came from in the old mesh
    parent_children: dict  # parent element id -> (child id, child id) in the new mesh
    new_nodes: np.ndarray
    directions: dict  # parent element id -> unit cut-line direction
    skipped: list = field(default_factory=list)


def mark(report, n_elements, factor=0.9):
    """Equidistribution marking: {K : eta_K > factor * eta^2 / n}."""
    threshold = factor * report.eta_global ** 2 / n_elements
    return set(np.flatnonzero(np.asarray(report.eta_local) > threshold).tolist())


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
    d = cut_directions(loops, grams, strategy)
    outcomes, _ = split_polygons(loops, loops.centroid, d)
    retry = [k for k, out in enumerate(outcomes) if isinstance(out, _CUT_FAILURES)]
    d[retry] = np.column_stack((-d[retry, 1], d[retry, 0]))
    retried, _ = split_polygons(loops.take(retry), loops.centroid[retry], d[retry])
    for k, again in zip(retry, retried):
        outcomes[k] = f"{outcomes[k]}; {again}" if isinstance(again, _CUT_FAILURES) else again
    for direction, out in zip(d, outcomes):
        if isinstance(out, Exception):
            raise out
        yield (None, out) if isinstance(out, str) else (direction, out[1])


def refine(mesh, marked, strategy=ISOTROPIC, report=None):
    """Bisect the marked elements; returns (new mesh, RefinementStep).

    UNIFORM ignores ``marked`` and bisects everything.  Elements whose cut
    degenerates in both the chosen and the orthogonal direction are skipped
    and logged.  Split order is ascending element id for determinism.
    Raises ValueError for a marked id outside [0, n_elements).
    """
    if strategy not in (UNIFORM, ISOTROPIC, ANISOTROPIC):
        raise ValueError(f"unknown strategy {strategy!r}")
    count = mesh.n_elements
    if strategy == UNIFORM:
        marked = set(range(count))
    bad = sorted(eid for eid in marked if not 0 <= eid < count)
    if bad:
        raise ValueError(f"marked element ids {bad} outside [0, {count})")

    geom, nodes, n = mesh.geometry, mesh.loop_nodes, mesh.n_nodes
    order = sorted(marked)
    grams = None if report is None else report.gram[order]
    skipped, split, ends, directions = [], [], [], {}
    for eid, (d, cut) in zip(order, _bisections(geom.take(order), grams, strategy)):
        if d is None:
            log.warning("element %d skipped: %s", eid, cut)
            skipped.append(eid)
            continue
        split.append(eid)
        ends += cut
        directions[eid] = d / float(np.hypot(*d))

    # The edge of each loop position, and its twin: the position that runs
    # the same edge the other way (-1 on the boundary).
    tail, head = nodes, nodes[geom.succ]
    key = np.minimum(tail, head) * n + np.maximum(tail, head)
    loop_edge = np.searchsorted(mesh.edges[:, 0] * n + mesh.edges[:, 1], key)
    by_edge = np.argsort(loop_edge, kind="stable")
    pair = np.flatnonzero(loop_edge[by_edge[1:]] == loop_edge[by_edge[:-1]])
    twin = np.full(len(nodes), -1)
    twin[by_edge[pair]], twin[by_edge[pair + 1]] = by_edge[pair + 1], by_edge[pair]

    # Cut ends, two per split element in ascending id: a loop vertex, or the
    # point at parameter s along the edge from a loop position.  An edge has
    # at most two, one per element sharing it: the first in element order
    # makes a node, and the second reuses it when within SNAP_TOL of its
    # element's diameter.  Coordinates run from the edge's lower node, so
    # both sides of an edge resolve to identical positions.
    at = np.repeat(geom.starts[split], 2) + np.array([end[1] for end in ends], dtype=np.int64)
    on_edge = np.array([end[0] == "cut" for end in ends], dtype=bool)
    p = at[on_edge]
    s = np.array([end[2] for end in ends if end[0] == "cut"], dtype=float)
    t = np.where(tail[p] < head[p], s, 1.0 - s)
    edge = loop_edge[p]
    pa, pb = mesh.points[mesh.edges[edge, 0]], mesh.points[mesh.edges[edge, 1]]
    by_edge = np.argsort(edge, kind="stable")
    pair = np.flatnonzero(edge[by_edge[1:]] == edge[by_edge[:-1]])
    first, second = by_edge[pair], by_edge[pair + 1]
    diameter = geom.diameter[np.repeat(np.asarray(split, dtype=np.int64), 2)[on_edge]]
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    snap = np.abs(t[first] - t[second]) <= SNAP_TOL * diameter[second] / np.maximum(
        length[second], 1e-300)
    made = np.ones(len(p), dtype=bool)
    made[second[snap]] = False
    cut_node = n + np.cumsum(made) - 1
    cut_node[second[snap]] = cut_node[first[snap]]
    end_node = nodes[at]
    end_node[on_edge] = cut_node
    points = np.concatenate([mesh.points, (pa + t[:, None] * (pb - pa))[made]])

    # Rings: each loop with the nodes made on its edges inserted, ordered by
    # loop position, then by parameter along it.
    p, s, new = p[made], s[made], cut_node[made]
    other = twin[p] >= 0
    seg = np.concatenate([np.arange(len(nodes)), p, twin[p][other]])
    order = np.lexsort((np.concatenate([np.zeros(len(nodes)), s, 1.0 - s[other]]), seg))
    ring, seg = np.concatenate([nodes, new, new[other]])[order], seg[order]
    ring_size = np.bincount(geom.owner[seg], minlength=count)
    ring_start = np.cumsum(ring_size) - ring_size

    # A split element's children are the two arcs of its ring between the
    # cut ends, lo to hi and hi to lo; each closes along the cut chord.
    is_split = np.zeros(count, dtype=bool)
    is_split[split] = True
    lo, hi = np.full((2, count), -1)
    lo[split], hi[split] = end_node[0::2], end_node[1::2]
    pl = np.flatnonzero(ring == lo[geom.owner[seg]])
    ph = np.flatnonzero(ring == hi[geom.owner[seg]])
    parent_of = np.repeat(np.arange(count), 1 + is_split)
    base, size = ring_start[parent_of], ring_size[parent_of]
    begin, length = base.copy(), size.copy()
    child_a, child_b = np.flatnonzero(is_split[parent_of]).reshape(-1, 2).T
    begin[child_a], length[child_a] = pl, (ph - pl) % ring_size[split] + 1
    begin[child_b], length[child_b] = ph, (pl - ph) % ring_size[split] + 1
    row, index = block_pairs(np.arange(len(parent_of)), begin, length)
    new_loops = ring[base[row] + (index - base[row]) % size[row]]

    # Boundary tags: each piece of a ring lies on the edge of its loop
    # position, whose tag it inherits.
    tag = mesh.edge_tags[loop_edge[seg]]
    on = np.flatnonzero(tag != INTERIOR)
    succ = loop_successors(ring_start, ring_size)[on]
    boundary_spec = dict(zip(zip(ring[on].tolist(), ring[succ].tolist()), tag[on].tolist()))

    new_mesh = build_mesh(points, (new_loops, length), boundary_spec, check_simple=False)

    step = RefinementStep(
        parent_of=parent_of,
        parent_children=dict(zip(split, zip(child_a.tolist(), child_b.tolist()))),
        new_nodes=np.arange(n, len(points)),
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
        kept = np.flatnonzero(np.bincount(step.parent_of)[step.parent_of] == 1)  # parent not split
        carried = kept, report.gram[step.parent_of[kept]]


def adaptive_loop(initial, fld, config):
    """Run indicate -> mark -> refine for ``config.max_levels`` levels.

    Returns the history as a list of (mesh, report) pairs including the
    initial level; stops early when nothing is marked.
    """
    return list(islice(_adaptive_levels(initial, fld, config), config.max_levels + 1))
