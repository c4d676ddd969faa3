"""Gradient Gram matrices and the anisotropic error measure.

The local indicator of an element contracts its gradient Gram matrix with
the covariance spectrum:

    eta_K = alpha^{-2} (lambda1 u1.G u1 + lambda2 u2.G u2),

which equals the squared L2 norm of A_K^{-T} grad v over the element.  Gram
matrices are assembled once per element and reused for marking and for the
anisotropic split direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import default_depth, integrate_on_polygon, polygon_sample_points, triangle_rule

__all__ = [
    "IndicatorReport",
    "HessianTerms",
    "gram_element",
    "gram_patch",
    "eta_local",
    "eta_global",
    "hessian_terms",
    "element_quadrature_depth",
]

BATCH_POINTS = 2_000_000  # quadrature points per field call in eta_global


@dataclass
class IndicatorReport:
    eta_local: np.ndarray
    eta_global: float
    gram: np.ndarray  # (n, 2, 2)
    marked: set

    def to_csv(self, mesh, fh):
        fh.write("element_id,eta,g11,g12,g22,lambda1,lambda2,alpha\n")
        for el in mesh.elements:
            g = self.gram[el.id]
            s = el.polygon.spectrum
            fh.write(
                f"{el.id},{self.eta_local[el.id]:.12g},{g[0, 0]:.12g},{g[0, 1]:.12g},"
                f"{g[1, 1]:.12g},{s.lambda1:.12g},{s.lambda2:.12g},{el.polygon.refmap.alpha:.12g}\n"
            )


@dataclass(frozen=True)
class HessianTerms:
    L: np.ndarray  # L[i, j] = int (u_i . H u_j)^2
    S0: float
    S1: float
    rhs0: float  # alpha^-4 * S0 * sum lam_i lam_j L_ij
    rhs1: float


def element_quadrature_depth(poly, layer_scale=60.0):
    """Per-element subdivision depth resolving layers of width 1/layer_scale."""
    return default_depth(poly.diameter, scale=layer_scale)


def gram_element(poly, fld, rule=None, depth=None):
    """G*(v) = int over the element of grad v grad v^T, entrywise."""
    if rule is None:
        rule = triangle_rule(7)
    if depth is None:
        depth = element_quadrature_depth(poly)
    pts, w = polygon_sample_points(poly, rule=rule, depth=depth)
    g = fld.gradient(pts)
    gx, gy = g[:, 0], g[:, 1]
    m = np.array(
        [
            [float(w @ (gx * gx)), float(w @ (gx * gy))],
            [float(w @ (gx * gy)), float(w @ (gy * gy))],
        ]
    )
    return m


def gram_patch(mesh, eid, fld, rule=None, depth=None):
    """Patch Gram matrix: sum of element Grams over omega_K."""
    total = np.zeros((2, 2))
    for other in sorted(mesh.element_patch(eid)):
        total += gram_element(mesh.elements[other].polygon, fld, rule=rule, depth=depth)
    return total


def eta_from_gram(poly, gram):
    s = poly.spectrum
    alpha = poly.refmap.alpha
    q1 = float(s.u1 @ gram @ s.u1)
    q2 = float(s.u2 @ gram @ s.u2)
    val = (s.lambda1 * q1 + s.lambda2 * q2) / (alpha * alpha)
    return max(val, 0.0)


def eta_local(poly, fld, rule=None, depth=None):
    """Local error measure via the Gram contraction; >= 0, zero for constants."""
    return eta_from_gram(poly, gram_element(poly, fld, rule=rule, depth=depth))


def eta_local_direct(poly, fld, rule=None, depth=None):
    """Independent evaluation path: direct quadrature of |A^{-T} grad v|^2."""
    a_inv_t = poly.refmap.inverse_transpose

    def integrand(pts):
        g = fld.gradient(pts)
        mapped = g @ a_inv_t.T
        return (mapped * mapped).sum(axis=1)

    if depth is None:
        depth = element_quadrature_depth(poly)
    return integrate_on_polygon(poly, integrand, rule=rule, depth=depth)


def eta_global(mesh, fld, rule=None, depth=None, carried=None):
    """Aggregate the local indicators into a report (marking left empty).

    ``carried`` maps element ids to Gram matrices that are already known,
    such as those of elements whose parent was not split at the last
    refinement; they are used as given.  The other elements are processed
    in batches of about BATCH_POINTS quadrature points: their points are
    concatenated so the field gradient is evaluated once per batch, then the
    Gram entries come from segmented weighted sums.
    """
    if rule is None:
        rule = triangle_rule(7)
    carried = carried or {}
    grams = np.empty((mesh.n_elements, 2, 2))
    for eid, gram in carried.items():
        grams[eid] = gram

    def flush(batch):
        if not batch:
            return
        offsets = np.cumsum([0] + [len(w) for _, _, w in batch])
        pts = np.vstack([p for _, p, _ in batch])
        ws = np.concatenate([w for _, _, w in batch])
        g = fld.gradient(pts)
        wxx = ws * g[:, 0] * g[:, 0]
        wxy = ws * g[:, 0] * g[:, 1]
        wyy = ws * g[:, 1] * g[:, 1]
        starts = offsets[:-1]
        g11 = np.add.reduceat(wxx, starts)
        g12 = np.add.reduceat(wxy, starts)
        g22 = np.add.reduceat(wyy, starts)
        for k, (el, _, _) in enumerate(batch):
            grams[el.id] = ((g11[k], g12[k]), (g12[k], g22[k]))

    pending = []
    pending_pts = 0
    for el in mesh.elements:
        if el.id in carried:
            continue
        d = depth if depth is not None else element_quadrature_depth(el.polygon)
        pts, w = polygon_sample_points(el.polygon, rule=rule, depth=d)
        pending.append((el, pts, w))
        pending_pts += len(w)
        if pending_pts >= BATCH_POINTS:
            flush(pending)
            pending = []
            pending_pts = 0
    flush(pending)

    etas = np.array([eta_from_gram(el.polygon, grams[el.id]) for el in mesh.elements])
    return IndicatorReport(
        eta_local=etas,
        eta_global=math.sqrt(float(etas.sum())),
        gram=grams,
        marked=set(),
    )


def hessian_terms(poly, fld, rule=None, depth=None):
    """Curvature data entering the pointwise-interpolation bounds.

    L[i, j] integrates (u_i . H(v) u_j)^2; S0 = 1 and
    S1 = sqrt(lambda1/lambda2) / |K| scale the two derivative orders, and
    rhs_l = alpha^-4 S_l sum_ij lambda_i lambda_j L_ij are the resulting
    diagnostic right-hand sides.
    """
    s = poly.spectrum
    if rule is None:
        rule = triangle_rule(7)
    if depth is None:
        depth = element_quadrature_depth(poly)
    pts, w = polygon_sample_points(poly, rule=rule, depth=depth)
    h = fld.hessian(pts)
    u = np.stack([s.u1, s.u2])  # (2, 2)
    # proj[k, i, j] = u_i . H(x_k) u_j
    proj = np.einsum("ia,kab,jb->kij", u, h, u)
    lmat = np.einsum("k,kij->ij", w, proj * proj)
    lam = np.array([s.lambda1, s.lambda2])
    alpha = poly.refmap.alpha
    weighted = float((lam[:, None] * lam[None, :] * lmat).sum())
    s0 = 1.0
    s1 = math.sqrt(s.lambda1 / s.lambda2) / poly.area
    return HessianTerms(
        L=lmat,
        S0=s0,
        S1=s1,
        rhs0=alpha ** -4 * s0 * weighted,
        rhs1=alpha ** -4 * s1 * weighted,
    )
