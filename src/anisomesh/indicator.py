"""Gradient Gram matrices and the anisotropic error measure.

The local indicator of an element contracts its gradient Gram matrix with
the covariance spectrum:

    eta_K = alpha^{-2} (lambda1 u1.G u1 + lambda2 u2.G u2),

which equals the squared L2 norm of A_K^{-T} grad v over the element.  Gram
matrices are assembled once per element and reused for marking and for the
anisotropic split direction.  A level is integrated in chunked array passes
and contracted at once; ``gram_element`` and ``eta_local`` are one-element calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import reference_alpha
from .quadrature import default_depth, fan_chunks, integrate_on_polygon, polygon_sample_points

__all__ = [
    "IndicatorReport",
    "HessianTerms",
    "gram_element",
    "gram_elements",
    "gram_patch",
    "eta_local",
    "eta_global",
    "hessian_terms",
]


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
            alpha = reference_alpha(el.polygon)
            fh.write(
                f"{el.id},{self.eta_local[el.id]:.12g},{g[0, 0]:.12g},{g[0, 1]:.12g},"
                f"{g[1, 1]:.12g},{s.lambda1:.12g},{s.lambda2:.12g},{alpha:.12g}\n"
            )


@dataclass(frozen=True)
class HessianTerms:
    L: np.ndarray  # L[i, j] = int (u_i . H u_j)^2
    S0: float
    S1: float
    rhs0: float  # alpha^-4 * S0 * sum lam_i lam_j L_ij
    rhs1: float


def gram_element(poly, fld, depth=None):
    """G*(v) = int over the element of grad v grad v^T, entrywise."""
    return gram_elements([poly], fld, depth)[0]


def gram_elements(polys, fld, depth=None):
    """Gram matrices of many polygons, (n, 2, 2): one ``fld.gradient`` call per
    ``fan_chunks`` slice; a larger element fills its own products row."""
    out = np.empty((len(polys), 3))  # g11, g12, g22
    for ids, first, size, slices in fan_chunks(polys, depth):
        products = np.empty((3, size))  # w gx gx, w gx gy, w gy gy
        for at, pts, w in slices:
            gx, gy = fld.gradient(pts).T
            row = products[:, at:at + len(w)]
            wgx = w * gx
            np.multiply(wgx, gx, out=row[0])
            np.multiply(wgx, gy, out=row[1])
            np.multiply(w * gy, gy, out=row[2])
        # One reduceat segment per element fixes each sum's order whatever
        # shares the chunk; w @ x or x.sum() would round differently.
        out[ids] = np.add.reduceat(products, first, axis=1).T
    return out[:, [[0, 1], [1, 2]]]


def gram_patch(mesh, eid, fld, depth=None):
    """Patch Gram matrix: sum of element Grams over omega_K."""
    total = np.zeros((2, 2))
    for other in sorted(mesh.element_patch(eid)):
        total += gram_element(mesh.elements[other].polygon, fld, depth=depth)
    return total


def _contract(polys, grams):
    """eta_K of each polygon from its Gram matrix, in one stacked contraction."""
    spectra = [p.spectrum for p in polys]
    u = np.array([(s.u1, s.u2) for s in spectra])  # (n, 2, 2): rows u1, u2
    lam = np.array([(s.lambda1, s.lambda2) for s in spectra])
    alpha = np.array([reference_alpha(p) for p in polys])
    # u_i @ G @ u_i as a stacked matmul rounds as it does for one element;
    # an einsum or a scalar formula would not.
    q = ((u[:, :, None, :] @ grams[:, None]) @ u[:, :, :, None])[:, :, 0, 0]
    val = (lam[:, 0] * q[:, 0] + lam[:, 1] * q[:, 1]) / (alpha * alpha)
    return np.where(val < 0.0, 0.0, val)


def eta_local(poly, fld, depth=None):
    """Local error measure via the Gram contraction; >= 0, zero for constants."""
    return float(_contract([poly], gram_element(poly, fld, depth=depth)[None])[0])


def eta_local_direct(poly, fld, depth=None):
    """Independent evaluation path: direct quadrature of |A^{-T} grad v|^2."""
    a_inv_t = poly.refmap.inverse_transpose

    def integrand(pts):
        g = fld.gradient(pts)
        mapped = g @ a_inv_t.T
        return (mapped * mapped).sum(axis=1)

    if depth is None:
        depth = default_depth(poly.diameter)
    return integrate_on_polygon(poly, integrand, depth=depth)


def eta_global(mesh, fld, depth=None, carried=None):
    """Aggregate the local indicators into a report (marking left empty).

    ``carried`` maps element ids to Gram matrices that are already known,
    such as those of elements whose parent was not split at the last
    refinement; they are used as given.  The Grams of all other elements
    come from one ``gram_elements`` call.
    """
    carried = carried or {}
    polys = [el.polygon for el in mesh.elements]
    grams = np.empty((len(polys), 2, 2))
    grams[list(carried)] = np.reshape(list(carried.values()), (-1, 2, 2))
    fresh = [k for k in range(len(polys)) if k not in carried]
    grams[fresh] = gram_elements([polys[k] for k in fresh], fld, depth)
    etas = _contract(polys, grams)
    return IndicatorReport(
        eta_local=etas,
        eta_global=math.sqrt(float(etas.sum())),
        gram=grams,
        marked=set(),
    )


def hessian_terms(poly, fld, depth=None):
    """Curvature data entering the pointwise-interpolation bounds.

    L[i, j] integrates (u_i . H(v) u_j)^2; S0 = 1 and
    S1 = sqrt(lambda1/lambda2) / |K| scale the two derivative orders, and
    rhs_l = alpha^-4 S_l sum_ij lambda_i lambda_j L_ij are the resulting
    diagnostic right-hand sides.
    """
    s = poly.spectrum
    if depth is None:
        depth = default_depth(poly.diameter)
    pts, w = polygon_sample_points(poly, depth=depth)
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
