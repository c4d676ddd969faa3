"""Gradient Gram matrices and the anisotropic error measure.

The local indicator of an element contracts its gradient Gram matrix with
the covariance spectrum:

    eta_K = alpha^{-2} (lambda1 u1.G u1 + lambda2 u2.G u2),

which equals the squared L2 norm of A_K^{-T} grad v over the element.  Gram
matrices are assembled once per element and reused for marking and for the
anisotropic split direction.  A level's Grams are one ``quadrature.integrals``
call, whose integrand writes the three weighted gradient products in place;
they are contracted at once, reading the mesh's geometry batch.  Unless the
depth is fixed, each Gram's sub-triangles are refined on eta_K, whose three
terms c_ij G_ij are linear in the Gram, against the mean eta_K of the whole
mesh after the first level, the scale that marking compares against.  The
report gives each Gram's deepest level, its step (the sum of the accepted
changes of eta_K), the mean it was integrated against, and the field points
the Grams took; depths, steps and means are carried with the Grams.  The
mean falls as a mesh refines, so a carried Gram whose step exceeds the
tolerance of the current mean is integrated anew.  ``eta_local`` is a batch
of one.
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
    depth: np.ndarray = None  # (n,) deepest subdivision level of each Gram
    step: np.ndarray = None  # (n,) sum of the accepted changes of eta_K; NaN at fixed depths
    mean: np.ndarray = None  # (n,) mean eta_K of each Gram's tolerance; NaN at fixed depths
    points: int = 0  # field points the Grams were integrated at

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


def gram_elements(loops, fld, depth=None, mean=None):
    """Gram matrices int grad v grad v^T of the polygons of a ``Loops`` batch, (n, 2, 2)."""
    return _grams(loops, fld, depth, mean).values


def _grams(loops, fld, depth=None, mean=None, others=(0.0, 0)):
    """``Integrals`` of the Gram matrices (n, 2, 2) of a ``Loops`` batch: the
    three weighted products, one ``fld.gradient`` call per slice.  Unless
    ``depth`` is fixed, sub-triangles are refined on eta_K, a linear map of
    the Gram, against ``mean``, or else the mean of the level-1 eta over the
    batch and ``others``, the (sum, count) of the indicators of the rest of
    the mesh."""

    def products(pts, w, out):  # w gx gx, w gx gy, w gy gy
        gx, gy = fld.gradient(pts).T
        wgx = w * gx
        np.multiply(wgx, gx, out=out[0])
        np.multiply(wgx, gy, out=out[1])
        np.multiply(w * gy, gy, out=out[2])

    if depth is not None:
        res = integrals(loops, products, 3, depth)
    else:
        # eta_K = sum_i lam_i u_i.G u_i / alpha^2 = c0 G11 + c1 G12 + c2 G22.
        ux, uy = np.moveaxis(loops.full_rank().u, 2, 0)  # (n, 2) each: rows u1, u2
        lam = np.stack([loops.lambda1, loops.lambda2], axis=1) / (loops.alpha ** 2)[:, None]
        c = np.stack([lam * ux * ux, 2.0 * lam * ux * uy, lam * uy * uy], axis=2).sum(axis=1)

        def eta(values, rows):
            return (values * c[rows])[:, None, :]

        if mean is None:
            def mean(a):
                return (a.sum(axis=0) + others[0]) / (len(a) + others[1])

        res = integrals(loops, products, 3, None, eta, mean)
    return res._replace(values=res.values[:, [[0, 1], [1, 2]]])


def _contract(loops, grams):
    """eta_K of each polygon of a ``Loops`` batch from its Gram matrix, in one
    stacked contraction."""
    u = loops.full_rank().u  # (n, 2, 2): rows u1, u2
    # u_i @ G @ u_i as a stacked matmul rounds as it does for one element;
    # an einsum or a scalar formula would not.
    q = ((u[:, :, None, :] @ grams[:, None]) @ u[:, :, :, None])[:, :, 0, 0]
    val = (loops.lambda1 * q[:, 0] + loops.lambda2 * q[:, 1]) / (loops.alpha * loops.alpha)
    return np.where(val < 0.0, 0.0, val)


def eta_local(poly, fld, depth=None, mean=None):
    """Local error measure via the Gram contraction; >= 0, zero for constants."""
    loops = poly.batch()
    return float(_contract(loops, gram_elements(loops, fld, depth, mean))[0])


def eta_local_direct(poly, fld, depth=None):
    """Independent evaluation path: direct quadrature of |A^{-T} grad v|^2."""
    a_inv_t = poly.refmap.inverse_transpose

    def integrand(pts, w, out):
        mapped = fld.gradient(pts) @ a_inv_t.T
        np.multiply(w, (mapped * mapped).sum(axis=1), out=out[0])

    return float(integrals(poly.batch(), integrand, 1, depth).values[0, 0])


def eta_global(mesh, fld, depth=None, carried=None):
    """Aggregate the local indicators into a report (marking left empty).

    ``depth`` fixes one quadrature depth, or one per element; None refines
    each element's sub-triangles by the rule.  ``carried`` is a tuple (ids,
    grams, depths, steps, means) of element ids and the Gram matrices
    (k, 2, 2), depths, steps and tolerance means already known for them,
    such as those of elements whose parent was not split at the last
    refinement; they are used as given, unless their steps no longer meet
    the tolerance of this mesh's mean indicator.  The Grams of all other
    elements come from one ``integrals`` call.
    """
    geom = mesh.geometry
    n = mesh.n_elements
    grams = np.zeros((n, 2, 2))
    depths = np.zeros(n, dtype=int)
    steps, means = np.full(n, np.nan), np.full(n, np.nan)
    fresh = np.ones(n, dtype=bool)
    if carried is not None:
        ids, *known = carried
        grams[ids], depths[ids], steps[ids], means[ids] = known
        fresh[ids] = False
    columns = (grams, depths, steps, means)
    points = _integrate(geom, fld, depth, np.flatnonzero(fresh), columns)
    etas = _contract(geom, grams)
    # NaN steps (fixed depths) compare False.
    stale = np.flatnonzero(~fresh & (depths < MAX_DEPTH) & (steps > TOL * (etas + etas.mean())))
    if len(stale):
        points += _integrate(geom, fld, depth, stale, columns)
        etas = _contract(geom, grams)
    return IndicatorReport(
        eta_local=etas,
        eta_global=math.sqrt(float(etas.sum())),
        gram=grams,
        marked=set(),
        depth=depths,
        step=steps,
        mean=means,
        points=points,
    )


def _integrate(geom, fld, depth, ids, columns):
    """Integrate the Grams of elements ``ids`` of a mesh's geometry into rows
    ``ids`` of its ``columns`` (grams, depths, steps, means), against the
    others' indicators; returns the field points this took."""
    grams, depths, steps, means = columns
    grams[ids] = 0.0  # so these rows contract to 0 in the others' sum
    others = _contract(geom, grams).sum(), len(grams) - len(ids)
    depth = depth if np.ndim(depth) == 0 else np.asarray(depth)[ids]
    res = _grams(geom.take(ids), fld, depth, others=others)
    grams[ids], depths[ids] = res.values, res.depths
    if res.steps is not None:
        steps[ids], means[ids] = res.steps[:, 0], res.mean[0]
    return res.points


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
