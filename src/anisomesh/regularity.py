"""Mesh regularity audits: star-shape kernels, aspect ratios, neighbour anisotropy.

Audits never reject a mesh.  They report the observed constants (aspect
bounds, eigenvalue jumps, frame rotations) so they can be compared against
user thresholds; degenerate findings show up as zeros or large ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Loops, loop_error, loop_moments, map_polygon, point_set_diameter

__all__ = [
    "ElementRegularity",
    "NeighbourRegularity",
    "RegularityAudit",
    "star_kernel",
    "chebyshev_center",
    "audit_element",
    "audit_neighbours",
    "audit_mapped_patch",
    "audit_mesh",
]


@dataclass(frozen=True)
class ElementRegularity:
    element_id: int
    rho: float
    z: np.ndarray
    aspect: float  # h / rho (inf when rho == 0)
    min_edge_ratio: float  # max over edges of h / |e|
    lambda_ratio: float
    alpha: float
    n_nodes: int


@dataclass(frozen=True)
class NeighbourRegularity:
    pair: tuple
    delta_max: float
    rotation_term: float
    rotation_norm: float  # ||R - I||_2, unscaled
    rotation: np.ndarray


@dataclass
class RegularityAudit:
    """Per-element and per-pair records of an audited mesh.

    The records of the mapped elements F_K(K), and the sigma and c bounds
    observed on them, are built on first access from ``geometry``, the
    audited elements' batch.
    """

    elements: list
    pairs: list
    geometry: Loops
    max_delta: float = 0.0
    max_rotation_term: float = 0.0
    max_node_valence: int = 0
    lambda_ratio_hist: np.ndarray = field(default=None)
    alpha_hist: np.ndarray = field(default=None)

    @cached_property
    def mapped_elements(self):
        g = self.geometry
        return _mapped_records(range(len(g.sizes)), g, _reference_maps(g), g.alpha)[0]

    @property
    def max_aspect(self):
        """Observed sigma bound on the mapped elements."""
        return max((r.aspect for r in self.mapped_elements), default=0.0)

    @property
    def max_edge_ratio(self):
        """Observed c bound on the mapped elements."""
        return max((r.min_edge_ratio for r in self.mapped_elements), default=0.0)


def _halfplanes(coords):
    """Inward half-planes (nx, ny, b), n . x <= b, of a CCW loop; unit normals."""
    lines = []
    for (x0, y0), (x1, y1) in zip(coords, coords[1:] + coords[:1]):
        length = math.hypot(x1 - x0, y1 - y0)
        # Outward normal of a CCW edge is (e_y, -e_x).
        nx, ny = (y1 - y0) / length, (x0 - x1) / length
        lines.append((nx, ny, nx * x0 + ny * y0))
    return lines


def _clip_halfplane(points, labels, line, label, eps):
    """Sutherland-Hodgman clip of a convex loop against n . x <= b.

    ``labels[k]`` names the line carrying the edge from ``points[k]`` to the
    next point; the edge the clip adds is labelled ``label``.
    """
    nx, ny, b = line
    d = [nx * x + ny * y - b for x, y in points]
    if max(d) <= eps:
        return points, labels
    out, out_labels = [], []
    n = len(points)
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        if d[i] <= eps:
            out.append(points[i])
            out_labels.append(labels[i])
        if (d[i] <= eps) != (d[j] <= eps):
            t = d[i] / (d[i] - d[j])
            (xi, yi), (xj, yj) = points[i], points[j]
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
            out_labels.append(label if d[i] <= eps else labels[i])
    return out, out_labels


def chebyshev_center(lines):
    """Largest inscribed circle of a convex loop, by collapsing its edges.

    ``lines`` are the lines n . x = b (unit outward normals) carrying the
    loop's edges in counter-clockwise order.  Offsetting every line inward
    by t shrinks each edge until the offsets of its two neighbours meet on
    it; the edge that vanishes first is removed and its neighbours' times
    are recomputed (the edge events of the straight skeleton).  When three
    lines remain, their equidistant point is the centre z and its offset
    the radius.  Returns (z, r); z is NaN and r is 0 below three lines.
    """
    k = len(lines)
    if k < 3:
        return np.array([math.nan, math.nan]), 0.0
    prev = [k - 1] + list(range(k - 1))
    succ = list(range(1, k)) + [0]

    def collapse(i):
        # Subtracting line i from its neighbours leaves a 2x2 system for the
        # point at equal offset t from all three lines.
        nx, ny, b = lines[i]
        ax, ay, ab = lines[prev[i]]
        cx, cy, cb = lines[succ[i]]
        ax, ay, ab, cx, cy, cb = ax - nx, ay - ny, ab - b, cx - nx, cy - ny, cb - b
        det = ax * cy - ay * cx
        if det == 0.0:
            return math.inf, 0.0, 0.0
        x = (ab * cy - ay * cb) / det
        y = (ax * cb - ab * cx) / det
        return b - nx * x - ny * y, x, y

    events = [collapse(i) for i in range(k)]
    alive = list(range(k))
    while len(alive) > 3:
        i = min(alive, key=lambda j: events[j][0])
        alive.remove(i)
        a, c = prev[i], succ[i]
        succ[a], prev[c] = c, a
        events[a] = collapse(a)
        events[c] = collapse(c)
    t, x, y = events[alive[0]]
    return np.array([x, y]), t


def _kernel_region(poly):
    """(region, lines, lo): a box clipped by every edge's inward half-plane,
    in the frame with origin lo, and the lines carrying its edges, CCW."""
    v = poly.vertices
    h = poly.diameter
    # A local frame keeps the offsets at the scale of h far from the origin.
    lo = v.min(axis=0)
    wx, wy = (v.max(axis=0) - lo).tolist()
    lines = _halfplanes((v - lo).tolist())
    m = len(lines)
    pad = 0.1 * h
    lines += [(0.0, -1.0, pad), (1.0, 0.0, wx + pad), (0.0, 1.0, wy + pad), (-1.0, 0.0, pad)]
    region = [(-pad, -pad), (wx + pad, -pad), (wx + pad, wy + pad), (-pad, wy + pad)]
    labels = [m, m + 1, m + 2, m + 3]
    eps = 1e-12 * h
    for k in range(m):
        region, labels = _clip_halfplane(region, labels, lines[k], k, eps)
        if not region:
            break
    return region, [lines[k] for k in labels], lo


def star_kernel(poly):
    """Inscribed-circle radius and center of a polygon's kernel.

    The kernel is the intersection of the inward half-planes of all edges;
    a polygon is star-shaped iff the kernel has interior.  A bounding box is
    clipped by every half-plane, and the largest circle in the resulting
    convex loop gives rho and z.  Returns (rho, z); rho = 0 for
    non-star-shaped input, with z the centroid if the kernel is empty.
    """
    region, lines, lo = _kernel_region(poly)
    z, rho = chebyshev_center(lines)
    if rho <= 1e-12 * poly.diameter or len(region) < 3:
        return 0.0, z + lo if np.all(np.isfinite(z)) else poly.centroid
    return rho, z + lo


def _element_record(eid, poly, lambda_ratio, alpha):
    rho, z = star_kernel(poly)
    h = poly.diameter
    v = poly.vertices
    edge_len = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
    return ElementRegularity(
        element_id=eid,
        rho=rho,
        z=np.asarray(z),
        aspect=h / rho if rho > 0.0 else math.inf,
        min_edge_ratio=float(h / edge_len.min()),
        lambda_ratio=lambda_ratio,
        alpha=alpha,
        n_nodes=len(v),
    )


def audit_element(poly, eid=0):
    """Regularity records for an element and its reference configuration.

    Returns (record of K, record of F_K(K)); anisotropy-aware checks use the
    mapped record, whose element should look isotropic and unit-sized.
    """
    refmap = poly.refmap
    mapped = map_polygon(poly, refmap)
    return (_element_record(eid, poly, poly.spectrum.ratio, refmap.alpha),
            _element_record(eid, mapped, mapped.spectrum.ratio, refmap.alpha))


def _reference_maps(loops):
    """The matrices A (n, 2, 2) of ``reference_map`` of every loop of a ``Loops``
    batch: its products, stacked, and its powers from Python's ``**``, whose
    bits a numpy array power need not reproduce."""
    g = loops.full_rank()
    inv_sqrt = [x ** -0.5 for x in np.column_stack((g.lambda1, g.lambda2)).ravel().tolist()]
    return (g.alpha[:, None, None] * (np.reshape(inv_sqrt, (-1, 2, 1)) * np.eye(2))) @ g.u


def _mapped_records(ids, loops, maps, alphas):
    """Records of the elements ``ids`` (the batch ``loops``) mapped by the
    matrices ``maps`` of these alphas, and the ``Loops`` batch of the images.
    Loops of one size share a stacked matmul: the BLAS call, and rounding, of
    ``ReferenceMap.apply`` on each."""
    images = np.empty_like(loops.vertices)
    for m in np.unique(loops.sizes).tolist():
        rows = np.flatnonzero(loops.sizes == m)
        at = loops.starts[rows, None] + np.arange(m)
        images[at] = loops.vertices[at] @ maps[rows].transpose(0, 2, 1)
    mapped = loop_moments(images, loops.sizes)
    for k in np.flatnonzero(mapped.error)[:1].tolist():
        raise loop_error(mapped, k)
    mapped.full_rank()
    ratio = mapped.lambda1 / mapped.lambda2
    return [_element_record(k, mapped.polygon(i), ratio[i], alphas[i])
            for i, k in enumerate(ids)], mapped


def relative_rotation_angle(u1_a, u1_b):
    """Angle between two principal axes, wrapped to (-pi/2, pi/2].

    Eigenvectors are defined up to sign, so frames of nearly aligned
    elements may differ by ~pi under the global sign canon; the axis angle
    modulo pi is the geometrically meaningful difference.
    """
    ang = math.atan2(u1_b[1], u1_b[0]) - math.atan2(u1_a[1], u1_a[0])
    while ang <= -0.5 * math.pi:
        ang += math.pi
    while ang > 0.5 * math.pi:
        ang -= math.pi
    return ang


def neighbour_record(pair, a, b):
    """Record of two elements whose spectra are ``a`` and ``b``, each a
    (lambda1, lambda2, u1) triple."""
    (l1_a, l2_a, u1_a), (l1_b, l2_b, u1_b) = a, b
    da = abs(l1_b / l1_a - 1.0)
    db = abs(l2_b / l2_a - 1.0)
    phi = relative_rotation_angle(u1_a, u1_b)
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    rnorm = 2.0 * abs(math.sin(0.5 * phi))
    term = rnorm * math.sqrt(l1_a / l2_a)
    return NeighbourRegularity(
        pair=pair,
        delta_max=max(da, db),
        rotation_term=term,
        rotation_norm=rnorm,
        rotation=rot,
    )


def audit_neighbours(mesh):
    """Anisotropy-compatibility records for every closure-intersecting pair."""
    geom = mesh.geometry.full_rank()
    specs = list(zip(geom.lambda1.tolist(), geom.lambda2.tolist(), geom.u[:, 0].tolist()))
    return [neighbour_record((a, b), specs[a], specs[b]) for a, b in mesh.neighbour_pairs()]


def audit_mapped_patch(mesh, eid):
    """Audit every element of omega_K after mapping by A_K.

    Returns (records, h_patch, max_area_ratio): per-element isotropic records
    of the mapped patch, the mapped patch diameter, and max |K'|/|K| over the
    patch.
    """
    g = mesh.geometry
    patch = sorted(mesh.element_patch(eid))
    polys = g.take(patch)
    maps = np.repeat(_reference_maps(g.take([eid])), len(patch), axis=0)
    records, images = _mapped_records(patch, polys, maps, np.repeat(g.alpha[eid], len(patch)))
    max_ratio = max((polys.area / g.area[eid]).tolist())
    return records, point_set_diameter(images.vertices), max_ratio


def audit_mesh(mesh):
    """Full regularity audit: per-element (original and, on first access,
    mapped) and per-pair."""
    geom = mesh.geometry.full_rank()
    ratios, alphas = geom.lambda1 / geom.lambda2, geom.alpha
    recs = [_element_record(k, geom.polygon(k), ratios[k], alphas[k])
            for k in range(mesh.n_elements)]
    pairs = audit_neighbours(mesh)

    def hist(vals):
        if len(vals) == 0:
            return None
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo <= 1e-9 * max(abs(lo), abs(hi), 1.0):
            lo, hi = lo - 0.5, hi + 0.5
        return np.histogram(vals, bins=16, range=(lo, hi))[0]

    return RegularityAudit(
        elements=recs,
        pairs=pairs,
        geometry=geom,
        max_delta=max((p.delta_max for p in pairs), default=0.0),
        max_rotation_term=max((p.rotation_term for p in pairs), default=0.0),
        max_node_valence=mesh.max_elements_per_node(),
        lambda_ratio_hist=hist(np.log10(ratios)),
        alpha_hist=hist(alphas),
    )


def write_element_csv(mesh, audit, fh):
    fh.write("element_id,lambda1,lambda2,ratio,alpha,rho,aspect,min_edge_ratio,n_nodes\n")
    l1, l2 = mesh.geometry.lambda1.tolist(), mesh.geometry.lambda2.tolist()
    for rec in audit.elements:
        k = rec.element_id
        fh.write(
            f"{k},{l1[k]:.12g},{l2[k]:.12g},{rec.lambda_ratio:.12g},"
            f"{rec.alpha:.12g},{rec.rho:.12g},{rec.aspect:.12g},"
            f"{rec.min_edge_ratio:.12g},{rec.n_nodes}\n"
        )


def write_pair_csv(audit, fh):
    fh.write("pair,k1,k2,delta_max,rotation_term\n")
    for idx, p in enumerate(audit.pairs):
        fh.write(f"{idx},{p.pair[0]},{p.pair[1]},{p.delta_max:.12g},{p.rotation_term:.12g}\n")
