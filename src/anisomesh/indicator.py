"""Gradient Gram matrices and the anisotropic error measure.

The local indicator of an element contracts its gradient Gram matrix with
the covariance spectrum:

    eta_K = alpha^{-2} (lambda1 u1.G u1 + lambda2 u2.G u2),

which equals the squared L2 norm of A_K^{-T} grad v over the element.  Gram
matrices are assembled once per element and reused for marking and for the
anisotropic split direction.  A level's Grams are one ``quadrature.integrals``
call, whose integrand writes the three weighted gradient products in place;
they are contracted at once, reading the mesh's geometry batch.  Unless the
depth is fixed, each Gram's depth is chosen on eta_K, against the mean eta_K
of the whole mesh, the scale that marking compares against; the depths are
reported and carried with the Grams, with the last change of eta_K that the
rule measured.  The mean falls as a mesh refines, so a carried Gram whose
change exceeds the tolerance of the current mean is integrated anew.
``eta_local`` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import MAX_DEPTH, TOL, integrals

__all__ = [
    "IndicatorReport",
    "HessianTerms",
    "gram_elements",
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
    depth: np.ndarray = None  # (n,) quadrature depth of each Gram
    step: np.ndarray = None  # (n,) change of eta_K over the last depth step; NaN at fixed depths

    def to_csv(self, mesh, fh):
        geom = mesh.geometry.full_rank()
        fh.write("element_id,eta,g11,g12,g22,lambda1,lambda2,alpha\n")
        rows = zip(self.eta_local.tolist(), self.gram.reshape(-1, 4).tolist(),
                   geom.lambda1.tolist(), geom.lambda2.tolist(), geom.alpha.tolist())
        for k, (eta, (g11, g12, _, g22), l1, l2, alpha) in enumerate(rows):
            fh.write(f"{k},{eta:.12g},{g11:.12g},{g12:.12g},{g22:.12g},{l1:.12g},{l2:.12g},"
                     f"{alpha:.12g}\n")


@dataclass(frozen=True)
class HessianTerms:
    L: np.ndarray  # L[i, j] = int (u_i . H u_j)^2
    S0: float
    S1: float
    rhs0: float  # alpha^-4 * S0 * sum lam_i lam_j L_ij
    rhs1: float


def gram_elements(loops, fld, depth=None):
    """Gram matrices int grad v grad v^T of the polygons of a ``Loops`` batch, (n, 2, 2)."""
    return _grams(loops, fld, depth)[0]


def _grams(loops, fld, depth=None, others=(0.0, 0)):
    """Gram matrices (n, 2, 2) of a ``Loops`` batch, the depth (n,) of each and
    its last step (n,): ``integrals`` of the three weighted products, one
    ``fld.gradient`` call per slice.  Chosen depths compare eta_K against the
    mean eta over the batch and ``others``, the (sum, count) of the indicators
    of the rest of the mesh."""

    def products(pts, w, out):  # w gx gx, w gx gy, w gy gy
        gx, gy = fld.gradient(pts).T
        wgx = w * gx
        np.multiply(wgx, gx, out=out[0])
        np.multiply(wgx, gy, out=out[1])
        np.multiply(w * gy, gy, out=out[2])

    def etas(values):
        eta = _contract(loops, values[:, [[0, 1], [1, 2]]])
        return eta[:, None], (eta.sum() + others[0]) / (len(eta) + others[1])

    values, depths, steps = integrals(loops, products, 3, depth, etas)
    steps = np.full(len(depths), np.nan) if steps is None else steps[:, 0]
    return values[:, [[0, 1], [1, 2]]], depths, steps


def _contract(loops, grams):
    """eta_K of each polygon of a ``Loops`` batch from its Gram matrix, in one
    stacked contraction."""
    u = loops.full_rank().u  # (n, 2, 2): rows u1, u2
    # u_i @ G @ u_i as a stacked matmul rounds as it does for one element;
    # an einsum or a scalar formula would not.
    q = ((u[:, :, None, :] @ grams[:, None]) @ u[:, :, :, None])[:, :, 0, 0]
    val = (loops.lambda1 * q[:, 0] + loops.lambda2 * q[:, 1]) / (loops.alpha * loops.alpha)
    return np.where(val < 0.0, 0.0, val)


def eta_local(poly, fld, depth=None):
    """Local error measure via the Gram contraction; >= 0, zero for constants."""
    loops = poly.batch()
    return float(_contract(loops, gram_elements(loops, fld, depth))[0])


def eta_local_direct(poly, fld, depth=None):
    """Independent evaluation path: direct quadrature of |A^{-T} grad v|^2."""
    a_inv_t = poly.refmap.inverse_transpose

    def integrand(pts, w, out):
        mapped = fld.gradient(pts) @ a_inv_t.T
        np.multiply(w, (mapped * mapped).sum(axis=1), out=out[0])

    return float(integrals(poly.batch(), integrand, 1, depth).values[0, 0])


def eta_global(mesh, fld, depth=None, carried=None):
    """Aggregate the local indicators into a report (marking left empty).

    ``depth`` fixes one quadrature depth, or one per element; None chooses
    them.  ``carried`` is a tuple (ids, grams, depths, steps) of element ids
    and the Gram matrices (k, 2, 2), depths and steps already known for them,
    such as those of elements whose parent was not split at the last
    refinement; they are used as given, unless a chosen depth no longer meets
    the tolerance of this mesh's mean indicator.  The Grams of all other
    elements come from one ``integrals`` call.
    """
    geom = mesh.geometry
    grams = np.zeros((mesh.n_elements, 2, 2))
    depths = np.zeros(mesh.n_elements, dtype=int)
    steps = np.full(mesh.n_elements, np.nan)
    fresh = np.ones(mesh.n_elements, dtype=bool)
    if carried is not None:
        ids, *known = carried
        grams[ids], depths[ids], steps[ids] = known
        fresh[ids] = False
    _integrate(geom, fld, depth, np.flatnonzero(fresh), grams, depths, steps)
    etas = _contract(geom, grams)
    # NaN steps (fixed depths) compare False.
    stale = np.flatnonzero(~fresh & (depths < MAX_DEPTH) & (steps > TOL * (etas + etas.mean())))
    if len(stale):
        _integrate(geom, fld, depth, stale, grams, depths, steps)
        etas = _contract(geom, grams)
    return IndicatorReport(
        eta_local=etas,
        eta_global=math.sqrt(float(etas.sum())),
        gram=grams,
        marked=set(),
        depth=depths,
        step=steps,
    )


def _integrate(geom, fld, depth, ids, grams, depths, steps):
    """Integrate the Grams of elements ``ids`` of a mesh's geometry into rows
    ``ids`` of its Grams, depths and steps, against the others' indicators."""
    grams[ids] = 0.0  # so these rows contract to 0 in the others' sum
    others = _contract(geom, grams).sum(), len(grams) - len(ids)
    depth = depth if np.ndim(depth) == 0 else np.asarray(depth)[ids]
    grams[ids], depths[ids], steps[ids] = _grams(geom.take(ids), fld, depth, others)


def hessian_terms(poly, fld, depth=None):
    """Curvature data entering the pointwise-interpolation bounds.

    L[i, j] integrates (u_i . H(v) u_j)^2; S0 = 1 and
    S1 = sqrt(lambda1/lambda2) / |K| scale the two derivative orders, and
    rhs_l = alpha^-4 S_l sum_ij lambda_i lambda_j L_ij are the resulting
    diagnostic right-hand sides.
    """
    s = poly.spectrum
    u = np.stack([s.u1, s.u2])  # (2, 2)

    def squares(pts, w, out):
        # proj[k, i, j] = u_i . H(x_k) u_j; row 2 i + j of out is w proj_ij^2.
        proj = np.einsum("ia,kab,jb->kij", u, fld.hessian(pts), u)
        np.multiply(w, (proj * proj).reshape(-1, 4).T, out=out)

    lmat = integrals(poly.batch(), squares, 4, depth).values[0].reshape(2, 2)
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
