"""Marking and bisection: uniform, isotropic, and anisotropic strategies.

Marked elements are bisected by a line through their centroid.  The cut-line
direction is orthogonal to the largest-eigenvalue eigenvector of either the
element covariance (ISOTROPIC) or the gradient Gram matrix (ANISOTROPIC);
UNIFORM bisects every element with the isotropic direction.  Cut endpoints
become ordinary nodes and are inserted eagerly into the loops of every
element sharing the cut edge, so hanging nodes stay topologically visible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import CutMissesPolygon, NonSimpleResult, ZeroGram
from .geometry import SNAP_TOL, split_polygon_detailed, symmetric_eig_2x2
from .indicator import eta_global
from .mesh import INTERIOR, build_mesh

log = logging.getLogger(__name__)

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
    "split_direction",
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


def _gram_direction(gram):
    tr = gram[0, 0] + gram[1, 1]
    if tr <= 0.0 or not np.isfinite(tr):
        raise ZeroGram("gram matrix has no directional information")
    l1, l2, w1 = symmetric_eig_2x2(gram[0, 0], gram[0, 1], gram[1, 1])
    if l1 - l2 < 1e-12 * tr:
        w1 = np.array([1.0, 0.0])  # tie: canonical x-axis eigenvector
    return w1


def split_direction(element, report=None, strategy=ISOTROPIC):
    """Direction of the cut LINE (orthogonal to the selected eigenvector)."""
    if strategy == ANISOTROPIC:
        if report is None:
            raise ValueError("anisotropic direction needs an indicator report")
        try:
            w1 = _gram_direction(report.gram[element.id])
            return np.array([-w1[1], w1[0]])
        except ZeroGram:
            pass  # flat field: fall back to the covariance direction
    s = element.polygon.spectrum
    if s.lambda1 - s.lambda2 < 1e-12 * (s.lambda1 + s.lambda2):
        return np.array([0.0, 1.0])  # tie: cut orthogonal to the x-axis
    return s.u2.copy()


def refine(mesh, marked, strategy=ISOTROPIC, report=None):
    """Bisect the marked elements; returns (new mesh, RefinementStep).

    UNIFORM ignores ``marked`` and bisects everything.  Elements whose cut
    degenerates in both the chosen and the orthogonal direction are skipped
    and logged.  Split order is ascending element id for determinism.
    """
    if strategy not in (UNIFORM, ISOTROPIC, ANISOTROPIC):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == UNIFORM:
        marked = set(range(mesh.n_elements))

    points = [mesh.points[i].copy() for i in range(mesh.n_nodes)]
    inserted = {}  # canonical edge key -> list of (t, node id)
    splits = {}  # parent id -> [(child ids, provenance), (child ids, provenance)]
    directions = {}
    skipped = []

    def edge_of(el, local_edge):
        loop = el.vertex_loop
        return loop[local_edge], loop[(local_edge + 1) % len(loop)]

    def register_cut_node(el, local_edge, s):
        """Create or reuse the node at parameter s along a parent edge."""
        a, b = edge_of(el, local_edge)
        key = (a, b) if a < b else (b, a)
        t = s if a < b else 1.0 - s
        length = float(np.hypot(*(points[b] - points[a])))
        tol_t = SNAP_TOL * el.polygon.diameter / max(length, 1e-300)
        for t_old, nid in inserted.get(key, []):
            if abs(t_old - t) <= tol_t:
                return nid
        # Coordinates from the canonical parameter so both elements sharing
        # the edge resolve to bitwise identical positions.
        xy = points[key[0]] + t * (points[key[1]] - points[key[0]])
        nid = len(points)
        points.append(xy)
        inserted.setdefault(key, []).append((t, nid))
        return nid

    for eid in sorted(marked):
        el = mesh.elements[eid]
        d = split_direction(el, report, strategy if strategy != UNIFORM else ISOTROPIC)
        result = None
        failures = []
        for cand in (d, np.array([-d[1], d[0]])):
            try:
                result = split_polygon_detailed(el.polygon, el.polygon.centroid, cand)
                d = cand
                break
            except (CutMissesPolygon, NonSimpleResult) as exc:
                failures.append(str(exc))
        if result is None:
            log.warning("element %d skipped: %s", eid, "; ".join(failures))
            skipped.append(eid)
            continue
        _, _, _, prov_a, prov_b = result
        pieces = []
        degenerate = False
        for prov in (prov_a, prov_b):
            ids = []
            for entry in prov:
                if entry[0] == "v":
                    ids.append(el.vertex_loop[entry[1]])
                else:
                    ids.append(register_cut_node(el, entry[1], entry[2]))
            if len(set(ids)) != len(ids) or len(ids) < 3:
                degenerate = True
            pieces.append((ids, prov))
        if degenerate:
            log.warning("element %d skipped: snapping collapsed a piece", eid)
            skipped.append(eid)
            continue
        splits[eid] = pieces
        directions[eid] = d / float(np.hypot(*d))

    chains = {key: sorted(entries) for key, entries in inserted.items()}

    def expand_pair(parent_el, edge_local, s_u, s_v, skip_ids):
        """Node ids inserted strictly between parameters s_u < s_v on an edge."""
        a, b = edge_of(parent_el, edge_local)
        key = (a, b) if a < b else (b, a)
        if key not in chains:
            return []
        out = []
        for t, nid in chains[key]:
            s = t if a < b else 1.0 - t
            if s_u < s < s_v and nid not in skip_ids:
                out.append((s, nid))
        out.sort()
        return [nid for _, nid in out]

    new_loops = []
    parent_of_loop = []

    for el in mesh.elements:
        loop = el.vertex_loop
        n = len(loop)
        if el.id not in splits:
            out = []
            for i in range(n):
                out.append(loop[i])
                out.extend(expand_pair(el, i, 0.0, 1.0, ()))
            new_loops.append(out)
            parent_of_loop.append(el.id)
            continue
        for ids, prov in splits[el.id]:
            m = len(ids)
            skip = set(ids)
            out = []
            for i in range(m - 1):  # pair (m-1, 0) is the interior cut chord
                out.append(ids[i])
                e_u, s_u = (prov[i][1], prov[i][2]) if prov[i][0] == "cut" else (prov[i][1], 0.0)
                if prov[i + 1][0] == "cut":
                    e_v, s_v = prov[i + 1][1], prov[i + 1][2]
                else:
                    e_v, s_v = prov[i + 1][1], 0.0
                    if (e_v - 1) % n == e_u:
                        e_v, s_v = e_u, 1.0  # vertex j is the far end of edge j-1
                if e_u == e_v and s_u < s_v:
                    out.extend(expand_pair(el, e_u, s_u, s_v, skip))
            out.append(ids[m - 1])
            new_loops.append(out)
            parent_of_loop.append(el.id)

    # Boundary tags: each boundary edge's chain of inserted nodes splits it
    # into consecutive pairs that inherit its tag.
    boundary_spec = {}
    for k in np.flatnonzero(mesh.edge_tags != INTERIOR):
        a, b = mesh.edges[k].tolist()
        tag = int(mesh.edge_tags[k])
        chain = [a] + [nid for _, nid in chains.get((a, b), ())] + [b]
        boundary_spec.update((pair, tag) for pair in zip(chain, chain[1:]))

    new_mesh = build_mesh(np.asarray(points), new_loops, boundary_spec, check_simple=False)

    parent_children = {}
    for child_id, parent in enumerate(parent_of_loop):
        if parent in splits:
            parent_children.setdefault(parent, []).append(child_id)
    step = RefinementStep(
        parent_of=parent_of_loop,
        parent_children={k: tuple(v) for k, v in parent_children.items()},
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
