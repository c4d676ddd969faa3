"""Numerical checks of the anisotropy-robust inequalities.

The generic constants are unknowable, so inequalities are verified as
scale-stability statements: ratios lhs / (rhs without constant) must stay
bounded across a family of increasingly stretched elements.  The two-sided
norm-mapping bound is exact and is asserted directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SandwichViolated
from .fields import monomial_field, tanh_layer
from .geometry import Polygon
from .quadrature import integrals, integrate_on_edge
from .regularity import neighbour_record

__all__ = [
    "InequalityRecord",
    "check_trace",
    "check_poincare",
    "check_h1_mapping",
    "check_neighbour_gradient",
    "rectangle_family",
    "sweep_fields",
    "trace_sweep",
    "poincare_sweep",
    "h1_sweep",
    "neighbour_sweep",
    "write_records_csv",
]

DEPTH = 3  # quadrature subdivision depth of every element integral here


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    lhs: float
    rhs_without_constant: float
    ratio: float
    context: str


def _record(name, lhs, rhs, context):
    if lhs <= 0.0:
        ratio = 0.0
    elif rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = math.inf
    if not math.isfinite(ratio):
        raise SandwichViolated(f"{name}: non-finite ratio (lhs={lhs}, rhs={rhs})")
    return InequalityRecord(name=name, lhs=lhs, rhs_without_constant=rhs, ratio=ratio,
                            context=context)


def _integrals(loops, fld, refmap, mean=0.0):
    """Per polygon of ``loops``, at ``DEPTH``, the integrals of v - mean, (v - mean)^2,
    |grad v|^2 and |A^{-T} grad v|^2, with A the matrix of ``refmap``: (n, 4)."""
    a_inv_t = refmap.inverse_transpose

    def rows(p, w, out):
        v = fld.value(p) - mean
        g = fld.gradient(p)
        mapped = g @ a_inv_t.T
        np.multiply(w, v, out=out[0])
        np.multiply(w, v ** 2, out=out[1])
        np.multiply(w, (g * g).sum(axis=1), out=out[2])
        np.multiply(w, (mapped * mapped).sum(axis=1), out=out[3])

    return integrals(loops, rows, 4, DEPTH).values


def check_trace(poly, edge, fld, context=""):
    """Edge norm against the anisotropically scaled element norm.

    lhs = ||v||^2_{L2(E)};  rhs = (|E|/|K|) (||v||^2 + ||A^{-T} grad v||^2).
    """
    a, b = np.asarray(edge[0], float), np.asarray(edge[1], float)
    lhs = integrate_on_edge(a, b, lambda p: fld.value(p) ** 2, n_seg=16)
    e_len = float(np.hypot(*(b - a)))
    _, l2sq, _, mapped = _integrals(poly.batch(), fld, poly.refmap)[0].tolist()
    rhs = e_len / poly.area * (l2sq + mapped)
    return _record("trace", lhs, rhs, context)


def check_poincare(mesh, patch, eid, fld, context=""):
    """Patch deviation from its mean against the scaled gradient norm."""
    polys = mesh.geometry.take(sorted(patch))
    rm = mesh.geometry.polygon(eid).refmap
    total, scale, _, rhs = (sum(col) for col in _integrals(polys, fld, rm).T.tolist())
    mean = total / sum(polys.area.tolist())
    lhs = sum(_integrals(polys, fld, rm, mean)[:, 1].tolist())
    # Deviations at the roundoff floor of the field's own norm are zero
    # (constant fields otherwise produce 0/0).
    if lhs <= 1e-26 * max(scale, 1.0):
        lhs = 0.0
    return _record("poincare", math.sqrt(max(lhs, 0.0)), math.sqrt(max(rhs, 0.0)), context)


def check_h1_mapping(poly, fld, slack=1e-8, context=""):
    """Exact sandwich between the element and reference H1 seminorms.

    sqrt(l2/l1) |v_hat|^2 <= |v|^2 <= sqrt(l1/l2) |v_hat|^2 must hold for
    every field; a violation signals a quadrature or mapping bug.
    """
    s = poly.spectrum
    rm = poly.refmap
    *_, h1, mapped = _integrals(poly.batch(), fld, rm)[0].tolist()
    # Reference seminorm pulled back to the element: the mapped gradient with
    # the volume factor |det A|.
    h1_hat = mapped * abs(rm.matrix[0, 0] * rm.matrix[1, 1] - rm.matrix[0, 1] * rm.matrix[1, 0])
    lo = math.sqrt(s.lambda2 / s.lambda1) * h1_hat
    hi = math.sqrt(s.lambda1 / s.lambda2) * h1_hat
    scale = max(h1, hi, 1e-300)
    if h1 < lo - slack * scale or h1 > hi + slack * scale:
        raise SandwichViolated(
            f"H1 mapping bound failed: {lo:.6g} <= {h1:.6g} <= {hi:.6g} ({context})"
        )
    ratio = h1 / h1_hat if h1_hat > 0.0 else 0.0
    return InequalityRecord("h1_mapping", h1, h1_hat, ratio, context)


def check_neighbour_gradient(poly_k, poly_other, fld, context=""):
    """Gradient norm with a neighbour's map against the element's own map.

    The ratio is also compared against the pairwise bound
    sqrt(1 + delta_max) (1 + rotation_term) alpha_{K'} / alpha_K derived from
    the audited pair quantities; returns (record, bound).
    """
    lhs, rhs = (math.sqrt(_integrals(poly_other.batch(), fld, rm)[0, 3])
                for rm in (poly_k.refmap, poly_other.refmap))
    rec = _record("neighbour_gradient", lhs, rhs, context)
    a, b = poly_other.spectrum, poly_k.spectrum
    pair = neighbour_record((0, 1), (a.lambda1, a.lambda2, a.u1), (b.lambda1, b.lambda2, b.u1))
    bound = (
        math.sqrt(1.0 + pair.delta_max)
        * (1.0 + pair.rotation_term)
        * (poly_other.refmap.alpha / poly_k.refmap.alpha)
    )
    return rec, bound


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SCALES = (1.0, 10.0, 100.0, 1000.0, 10000.0)  # long side of the sweep rectangles


def rectangle_family(scales=SCALES):
    """Rectangles [0, s] x [0, 1] of growing anisotropy."""
    return [
        (s, Polygon([(0.0, 0.0), (s, 0.0), (s, 1.0), (0.0, 1.0)]))
        for s in scales
    ]


def sweep_fields(max_degree, include_tanh):
    """Monomials up to the given total degree, plus the layered test field."""
    fields = []
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            if i == j == 0:
                continue
            fields.append(monomial_field(i, j))
    if include_tanh:
        fields.append(tanh_layer())
    return fields


def trace_sweep(scales=SCALES, max_degree=3):
    records = []
    for s, poly in rectangle_family(scales):
        v = poly.vertices
        edges = {"short": (v[1], v[2]), "long": (v[0], v[1])}
        for fld in sweep_fields(max_degree, include_tanh=False):
            for side, edge in edges.items():
                records.append(
                    check_trace(poly, edge, fld, context=f"s={s:g},{side},{fld.label}")
                )
    return records


def poincare_sweep():
    from .mesh import build_mesh

    records = []
    for s, poly in rectangle_family():
        mesh = build_mesh(poly.vertices, [[0, 1, 2, 3]])
        for fld in sweep_fields(3, include_tanh=False):
            records.append(
                check_poincare(mesh, {0}, 0, fld, context=f"s={s:g},{fld.label}")
            )
    return records


def h1_sweep():
    records = []
    for s, poly in rectangle_family():
        for fld in sweep_fields(3, include_tanh=False):
            records.append(check_h1_mapping(poly, fld, context=f"s={s:g},{fld.label}"))
    return records


def neighbour_sweep():
    """Side-by-side rectangle pairs with jumping thickness."""
    records = []
    for b2 in (1.0, 1.25, 1.5):
        k1 = Polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)])
        k2 = Polygon([(2.0, 0.0), (4.0, 0.0), (4.0, b2), (2.0, b2)])
        for fld in sweep_fields(3, include_tanh=False):
            rec, bound = check_neighbour_gradient(k1, k2, fld, context=f"b={b2:g},{fld.label}")
            records.append(rec)
            if rec.ratio > bound * (1.0 + 1e-9):
                raise SandwichViolated(
                    f"neighbour gradient ratio {rec.ratio:.6g} exceeds bound {bound:.6g}"
                )
    return records


def write_records_csv(records, fh):
    fh.write("name,context,ratio\n")
    for r in records:
        fh.write(f"{r.name},{r.context},{r.ratio:.12g}\n")
