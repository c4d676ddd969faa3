"""Output checks for the benchmark, computed without the program's own code.

Every check recomputes what it verifies from raw outputs (node coordinates,
vertex loops, indicator values, CSV and mesh files) with the formulas of the
method, or tests a property the method must have.  Nothing here imports
anisomesh, and nothing compares against a stored copy of earlier output.
Each check raises ``CheckFailed`` with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

AREA_TOL = 1e-12
BOUNDARY_TOL = 1e-12
# Tolerance of the independent eta_K recomputation, as a share of
# eta_K + mean(eta_K); the README explains how it was set.
ETA_TOL = 1e-5
MARKING_FACTOR = 0.9
SLOPE_TARGET = -1.0
SLOPE_TOL = 0.2
LINEAR_L2_TOL = 1e-8


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's recomputation."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Mesh geometry from vertex loops
# ---------------------------------------------------------------------------

def _flatten(loops):
    sizes = np.fromiter((len(loop) for loop in loops), dtype=np.int64, count=len(loops))
    flat = np.fromiter((i for loop in loops for i in loop), dtype=np.int64, count=int(sizes.sum()))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    nxt = np.arange(len(flat)) + 1
    ends = starts + sizes  # one past the last vertex of each loop
    nxt[ends - 1] = starts  # close every loop
    return flat, flat[nxt], starts


def element_areas(points, loops):
    """Signed shoelace area of every vertex loop."""
    pts = np.asarray(points, dtype=float)
    a, b, starts = _flatten(loops)
    cross = pts[a, 0] * pts[b, 1] - pts[b, 0] * pts[a, 1]
    return 0.5 * np.add.reduceat(cross, starts)


def check_area_sum(points, loops, tol=AREA_TOL):
    """Element areas are positive and sum to the unit square's area."""
    areas = element_areas(points, loops)
    require(np.all(areas > 0.0), f"{int(np.sum(areas <= 0.0))} elements with non-positive area")
    total = float(math.fsum(areas.tolist()))
    require(abs(total - 1.0) <= tol, f"element areas sum to {total!r}, not 1")


def check_conformity(points, loops, tol=BOUNDARY_TOL):
    """Each edge is a unit-square boundary edge used once, or an interior
    edge used exactly twice with opposite orientations."""
    pts = np.asarray(points, dtype=float)
    a, b, _ = _flatten(loops)
    require(np.all(a != b), "a loop repeats a node consecutively")
    n = np.int64(len(pts))
    directed = a * n + b
    _, counts = np.unique(directed, return_counts=True)
    require(np.all(counts == 1), "an edge is traversed twice in the same direction")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    undirected, counts = np.unique(lo * n + hi, return_counts=True)
    require(np.all(counts <= 2), "an edge is shared by more than two elements")
    once = undirected[counts == 1]
    p, q = pts[once // n], pts[once % n]
    on_side = np.zeros(len(once), dtype=bool)
    for axis in (0, 1):
        for side in (0.0, 1.0):
            on_side |= (np.abs(p[:, axis] - side) <= tol) & (np.abs(q[:, axis] - side) <= tol)
    require(on_side.all(), f"{int((~on_side).sum())} edges used once lie inside the square")
    # Twice-used edges are opposite by construction once no directed edge repeats.


def uniform_counts(level):
    """Element and node counts of a UNIFORM run from a 4x4 grid after ``level`` bisections."""
    return 16 * 2 ** level, (4 * 2 ** ((level + 1) // 2) + 1) * (4 * 2 ** (level // 2) + 1)


def check_uniform_counts(level, n_elements, n_nodes):
    want = uniform_counts(level)
    require((n_elements, n_nodes) == want,
            f"UNIFORM level {level}: {n_elements} elements, {n_nodes} nodes, expected {want}")


# ---------------------------------------------------------------------------
# Indicator and marking
# ---------------------------------------------------------------------------

def check_eta_global(eta_local, eta_global, rel_tol=1e-12):
    """The global measure is the root of the sum of the local ones."""
    own = math.sqrt(math.fsum(np.asarray(eta_local, dtype=float).tolist()))
    require(abs(own - eta_global) <= rel_tol * own,
            f"eta = {eta_global!r} but sqrt(sum eta_K) = {own!r}")


def own_marking(eta_local, factor=MARKING_FACTOR):
    """{K : eta_K > factor * eta^2 / n} with eta^2 = sum eta_K."""
    eta = np.asarray(eta_local, dtype=float)
    threshold = factor * math.fsum(eta.tolist()) / len(eta)
    return set(np.nonzero(eta > threshold)[0].tolist())


def check_refinement_growth(levels, skipped_ids, uniform=False):
    """Element counts grow by the marked count minus the logged skips.

    ``levels`` lists (n_elements, eta_local, program_marked or None) per
    level; ``skipped_ids`` are the element ids the program logged as
    skipped, in log order.  Skips are logged in ascending id order level by
    level, so each level consumes the next ``marked - growth`` of them and
    each must be an element marked at that level.
    """
    pos = 0
    for level in range(len(levels) - 1):
        n, eta_local, program_marked = levels[level]
        marked = set(range(n)) if uniform else own_marking(eta_local)
        if program_marked is not None:
            require(set(program_marked) == marked,
                    f"level {level}: program marked {len(program_marked)} elements, "
                    f"the rule marks {len(marked)}")
        growth = levels[level + 1][0] - n
        skips = len(marked) - growth
        require(0 <= skips <= len(skipped_ids) - pos,
                f"level {level}: {len(marked)} marked, grew by {growth}, "
                f"{len(skipped_ids) - pos} logged skips left")
        ids = skipped_ids[pos:pos + skips]
        require(all(i in marked for i in ids), f"level {level}: a skipped element was not marked")
        pos += skips
    require(pos == len(skipped_ids), f"{len(skipped_ids) - pos} logged skips belong to no level")


# ---------------------------------------------------------------------------
# Independent recomputation of eta_K
# ---------------------------------------------------------------------------

def tanh_layer_gradient(pts):
    """Gradient of tanh(60 x2) - tanh(60 (x1 - x2) - 30)."""
    s = np.tanh(60.0 * pts[:, 1])
    t = np.tanh(60.0 * (pts[:, 0] - pts[:, 1]) - 30.0)
    gt = 60.0 * (1.0 - t * t)
    return np.column_stack([-gt, 60.0 * (1.0 - s * s) + gt])


def polygon_moments(verts):
    """Area, centroid and covariance of a CCW polygon from boundary sums."""
    v = np.asarray(verts, dtype=float)
    shift = v.mean(axis=0)
    x0, y0 = (v - shift).T
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    cross = x0 * y1 - x1 * y0
    area = 0.5 * cross.sum()
    cx = ((x0 + x1) * cross).sum() / (6.0 * area)
    cy = ((y0 + y1) * cross).sum() / (6.0 * area)
    ixx = ((x0 * x0 + x0 * x1 + x1 * x1) * cross).sum() / 12.0
    iyy = ((y0 * y0 + y0 * y1 + y1 * y1) * cross).sum() / 12.0
    ixy = ((x0 * y1 + 2.0 * x0 * y0 + 2.0 * x1 * y1 + x1 * y0) * cross).sum() / 24.0
    cov = np.array([[ixx / area - cx * cx, ixy / area - cx * cy],
                    [ixy / area - cx * cy, iyy / area - cy * cy]])
    return area, np.array([cx, cy]) + shift, cov


def covariance_data(verts):
    """(lambda1, lambda2, alpha) of a polygon, alpha^2 = sqrt(l1 l2) / area."""
    area, _, cov = polygon_moments(verts)
    lam = np.linalg.eigvalsh(cov)
    return float(lam[1]), float(lam[0]), math.sqrt(math.sqrt(lam[0] * lam[1]) / area)


_REFERENCE = {}


def _reference_rule(depth, n_gauss=8):
    """Collapsed Gauss-Legendre rule replicated on 4^depth sub-triangles of
    the reference triangle; weights sum to 1/2."""
    key = (depth, n_gauss)
    if key not in _REFERENCE:
        t, w = np.polynomial.legendre.leggauss(n_gauss)
        t, w = 0.5 * (t + 1.0), 0.5 * w
        u, s = np.meshgrid(t, t, indexing="ij")
        xi = np.column_stack([u.ravel(), ((1.0 - u) * s).ravel()])
        wq = (np.outer(w, w) * (1.0 - u)).ravel()
        m = 2 ** depth
        i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        up = (i + j) < m
        down = (i + j) < m - 1
        o_up = np.column_stack([i[up], j[up]]) / m
        o_dn = np.column_stack([i[down] + 1, j[down] + 1]) / m
        h = 1.0 / m
        pts_up = o_up[:, None, :] + h * xi[None, :, :]
        pts_dn = o_dn[:, None, :] - h * xi[None, :, :]
        pts = np.concatenate([pts_up, pts_dn]).reshape(-1, 2)
        wts = np.tile(wq * h * h, len(o_up) + len(o_dn))
        _REFERENCE[key] = (pts, wts)
    return _REFERENCE[key]


def quadrature_depth(diameter):
    """Subdivision depth making sub-triangles no wider than the layer width
    1/60 for elements of diameter up to 32/60."""
    return int(min(5, max(2, math.ceil(math.log2(max(60.0 * diameter, 1.0))))))


def eta_direct(verts, gradient=tanh_layer_gradient):
    """eta_K = int_K |A^{-T} grad v|^2 = alpha^-2 int_K grad v . C grad v,
    with C the covariance, by a centroid fan of collapsed Gauss rules.

    Returns None when the centroid does not see every edge (no fan).
    """
    v = np.asarray(verts, dtype=float)
    area, c, cov = polygon_moments(v)
    lam = np.linalg.eigvalsh(cov)
    alpha2 = math.sqrt(lam[0] * lam[1]) / area
    a, b = v, np.roll(v, -1, axis=0)
    e1, e2 = a - c, b - c
    jac = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(jac <= 1e-14 * np.abs(jac).max()):
        return None
    d = v[:, None, :] - v[None, :, :]
    diameter = float(np.sqrt((d * d).sum(axis=2).max()))
    ref, w = _reference_rule(quadrature_depth(diameter))
    pts = c + ref[None, :, 0:1] * e1[:, None, :] + ref[None, :, 1:2] * e2[:, None, :]
    g = gradient(pts.reshape(-1, 2))
    q = np.einsum("pi,ij,pj->p", g, cov, g).reshape(len(v), -1)
    return float((q @ w) @ jac) / alpha2


def check_eta_sample(points, loops, eta_local, ids, count=None, tol=ETA_TOL):
    """Recompute eta_K on the first ``count`` elements of ``ids`` that a
    centroid fan covers (on all of ``ids`` when ``count`` is None); returns
    how many were checked, and fails if fewer than ``count`` could be.

    The error is measured against eta_K plus the mean indicator, because
    elements far from the layers carry values near 1e-25 whose relative
    quadrature error is meaningless for marking.
    """
    eta_local = np.asarray(eta_local, dtype=float)
    mean = math.fsum(eta_local.tolist()) / len(eta_local)
    want = len(ids) if count is None else min(count, len(ids))
    done = 0
    for k in ids:
        if done == want:
            break
        own = eta_direct(np.asarray(points)[list(loops[k])])
        if own is None:
            continue
        got = float(eta_local[k])
        require(abs(got - own) <= tol * (own + mean),
                f"eta of element {k} is {got!r}, recomputed {own!r}")
        done += 1
    require(done == want, f"only {done} of {want} sampled elements could be fanned")
    return done


# ---------------------------------------------------------------------------
# Convergence properties
# ---------------------------------------------------------------------------

def loglog_slope(x, y):
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


def check_slope(ndof, eta, window=5, target=SLOPE_TARGET, tol=SLOPE_TOL):
    slope = loglog_slope(ndof[-window:], eta[-window:])
    require(abs(slope - target) <= tol,
            f"eta slope over the last {window} levels is {slope:.4f}, not {target} +- {tol}")
    return slope


def ndof_at_eta(ndof, eta, target):
    """Nodes needed to reach ``target``, interpolated log-log between levels."""
    for i in range(1, len(eta)):
        if eta[i] <= target:
            t = (math.log(target) - math.log(eta[i - 1])) / (math.log(eta[i]) - math.log(eta[i - 1]))
            return math.exp(math.log(ndof[i - 1]) + t * (math.log(ndof[i]) - math.log(ndof[i - 1])))
    raise CheckFailed(f"the run never reached eta = {target}")


# ---------------------------------------------------------------------------
# Files written by `anisomesh run`
# ---------------------------------------------------------------------------

def parse_mesh_file(path):
    """Parse the plain-text mesh format; returns (points, tags, loops)."""
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip() and not line.lstrip().startswith("#")]
    try:
        head = rows[0]
        require(len(head) == 3 and head[:2] == ["polymesh", "2"], f"{path}: bad header {head}")
        n_nodes = int(rows[1][0])
        node_rows = rows[2:2 + n_nodes]
        require(len(node_rows) == n_nodes and all(len(r) == 3 for r in node_rows),
                f"{path}: bad node rows")
        points = np.array([[float(r[0]), float(r[1])] for r in node_rows])
        tags = np.array([int(r[2]) for r in node_rows])
        n_elems = int(rows[2 + n_nodes][0])
        elem_rows = rows[3 + n_nodes:]
        require(len(elem_rows) == n_elems, f"{path}: {len(elem_rows)} element rows, {n_elems} promised")
        loops = []
        for r in elem_rows:
            loop = [int(x) for x in r[1:]]
            require(int(r[0]) == len(loop) >= 3, f"{path}: bad element row {r}")
            require(min(loop) >= 0 and max(loop) < n_nodes, f"{path}: element names a missing node")
            loops.append(loop)
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"{path}: unparsable ({exc})") from None
    require(np.all(np.isfinite(points)), f"{path}: non-finite coordinates")
    require(set(tags.tolist()) <= {0, 1, 2}, f"{path}: unknown node tag")
    return points, tags, loops


def read_csv(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_spectra(points, loops, rows, rel_tol=1e-9):
    """Covariance eigenvalues and alpha in the indicator CSV match the mesh file."""
    require(len(rows) == len(loops), f"indicator CSV has {len(rows)} rows for {len(loops)} elements")
    for k, row in enumerate(rows):
        require(int(row["element_id"]) == k, f"indicator row {k} names element {row['element_id']}")
        own = covariance_data(points[loops[k]])
        got = (float(row["lambda1"]), float(row["lambda2"]), float(row["alpha"]))
        for name, x, y in zip(("lambda1", "lambda2", "alpha"), got, own):
            require(abs(x - y) <= rel_tol * abs(y),
                    f"element {k}: {name} is {x!r} in the CSV, {y!r} from the mesh file")


def check_aspects(rows):
    """Diameter is at least twice the inradius, so every aspect is >= 2."""
    aspects = [float(r["aspect"]) for r in rows]
    require(all(a >= 2.0 for a in aspects), f"audited aspect {min(aspects)!r} below 2")


def tree_digest(root):
    """SHA-256 over the names and bytes of every file below ``root``."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0" + data)
            total += len(data)
    return h.hexdigest(), total
