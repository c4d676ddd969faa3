import math
import tracemalloc

import numpy as np
import pytest

from anisomesh.fields import (
    ScalarField,
    constant_field,
    expression_field,
    linear_field,
    monomial_field,
    tanh_layer,
)
from anisomesh.geometry import Polygon, split_polygon_detailed
from anisomesh.indicator import (
    eta_global,
    eta_local,
    eta_local_direct,
    gram_elements,
    hessian_terms,
)
from anisomesh.mesh import build_mesh, generate_grid
from anisomesh.quadrature import polygon_sample_points
from anisomesh.refine import ANISOTROPIC, ISOTROPIC, RefineConfig, adaptive_loop, refine
from conftest import random_polygon

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def rotate_field(fld, theta):
    """Field w with w(R x) = v(x)."""
    rot = rotation(theta)

    def value(p):
        return fld.value(np.asarray(p) @ rot)

    def gradient(p):
        return fld.gradient(np.asarray(p) @ rot) @ rot.T

    def hessian(p):
        h = fld.hessian(np.asarray(p) @ rot)
        return np.einsum("ij,...jk,lk->...il", rot, h, rot)

    return ScalarField(value, gradient, hessian, label=f"{fld.label}@{theta:.3f}")


class TestGram:
    def test_gradient_x1(self):
        g = gram_elements(UNIT_SQUARE.batch(), linear_field(1, 0), depth=1)[0]
        assert g == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-14)

    def test_gradient_diagonal(self):
        g = gram_elements(UNIT_SQUARE.batch(), linear_field(1, 1), depth=1)[0]
        assert g == pytest.approx(np.ones((2, 2)), rel=1e-14)

    def test_constant_zero(self):
        g = gram_elements(UNIT_SQUARE.batch(), constant_field(4.2), depth=1)[0]
        assert g == pytest.approx(np.zeros((2, 2)), abs=1e-15)

    def test_positive_semidefinite(self, rng):
        for _ in range(10):
            poly = random_polygon(rng)
            g = gram_elements(poly.batch(), tanh_layer(), depth=2)[0]
            assert g[0, 1] == pytest.approx(g[1, 0], abs=1e-13)
            evals = np.linalg.eigvalsh(g)
            assert evals.min() >= -1e-12 * g.trace()

    def test_matches_list_form_reduceat(self, rng):
        fld = tanh_layer()
        for poly in [random_polygon(rng, ratio=r) for r in (1.0, 1e3)] + [UNIT_SQUARE]:
            for depth in (2, 4, 6):
                pts, w = polygon_sample_points(poly, depth=depth)
                gx, gy = fld.gradient(pts).T
                g11, g12, g22 = np.add.reduceat(
                    [w * gx * gx, w * gx * gy, w * gy * gy], [0], axis=1)[:, 0]
                got = gram_elements(poly.batch(), fld, depth=depth)[0]
                assert np.array_equal(got, np.array([[g11, g12], [g12, g22]]))

    def test_split_additivity(self, rng):
        # A layer-scale element fully resolved at depth 6: both integration
        # paths then agree to the 1e-8 relative level.
        fld = tanh_layer()
        cell = Polygon([(0.50, 0.0), (0.54, 0.0), (0.54, 0.04), (0.50, 0.04)])
        for _ in range(6):
            theta = rng.uniform(0, math.pi)
            a, b, _, _ = split_polygon_detailed(
                cell, cell.centroid, np.array([math.cos(theta), math.sin(theta)])
            )
            whole = gram_elements(cell.batch(), fld, depth=6)[0]
            parts = (gram_elements(a.batch(), fld, depth=6)[0]
                     + gram_elements(b.batch(), fld, depth=6)[0])
            assert parts == pytest.approx(whole, rel=1e-8, abs=1e-10 * whole.trace())


class TestEtaLocal:
    def test_linear_on_unit_square(self):
        assert eta_local(UNIT_SQUARE, linear_field(1, 0), depth=1) == pytest.approx(
            1.0, rel=1e-13
        )

    def test_constant_zero(self):
        assert eta_local(UNIT_SQUARE, constant_field(7), depth=1) == 0.0

    def test_two_path_identity(self, rng):
        # Gram contraction equals direct quadrature of |A^{-T} grad v|^2.
        fields = [monomial_field(2, 1), monomial_field(1, 2), tanh_layer()]
        for k in range(8):
            poly = random_polygon(rng, ratio=float(rng.uniform(1, 1e3)))
            fld = fields[k % len(fields)]
            a = eta_local(poly, fld, depth=3)
            b = eta_local_direct(poly, fld, depth=3)
            assert a == pytest.approx(b, rel=1e-10)

    def test_rotation_covariance(self, rng):
        fld = tanh_layer()
        for _ in range(5):
            poly = random_polygon(rng, ratio=20.0)
            theta = rng.uniform(0, 2 * math.pi)
            rotated_poly = Polygon(poly.vertices @ rotation(theta).T)
            rotated_fld = rotate_field(fld, theta)
            a = eta_local(poly, fld, depth=3)
            b = eta_local(rotated_poly, rotated_fld, depth=3)
            assert b == pytest.approx(a, rel=1e-10)


class TestEtaGlobal:
    def test_single_element(self):
        mesh = build_mesh(UNIT_SQUARE.vertices, [[0, 1, 2, 3]])
        rep = eta_global(mesh, linear_field(1, 0), depth=1)
        assert rep.eta_global == pytest.approx(math.sqrt(rep.eta_local[0]), rel=1e-14)

    def test_2x2_symmetry(self):
        mesh = generate_grid(2, 2)
        rep = eta_global(mesh, linear_field(1, 0), depth=1)
        assert np.allclose(rep.eta_local, rep.eta_local[0], rtol=1e-12)
        assert rep.eta_global ** 2 == pytest.approx(4.0 * rep.eta_local[0], rel=1e-12)

    def test_sum_identity(self, rng):
        mesh = generate_grid(3, 3)
        rep = eta_global(mesh, tanh_layer())
        assert rep.eta_global ** 2 == pytest.approx(rep.eta_local.sum(), rel=1e-12)

    def test_quadrature_refinement_stability(self):
        mesh = generate_grid(4, 4)
        coarse = eta_global(mesh, tanh_layer())
        fine = eta_global(mesh, tanh_layer(), depth=7)
        assert coarse.eta_global == pytest.approx(fine.eta_global, rel=1e-4)

    def test_gram_carry_over(self):
        # After one refinement, every element whose parent was not split
        # keeps exactly its parent's Gram, also when a neighbour's cut left
        # a hanging node in its loop; split children are integrated afresh.
        fld = tanh_layer()
        cfg = RefineConfig(strategy=ISOTROPIC, max_levels=1)
        (coarse, rep0), (fine, rep1) = adaptive_loop(generate_grid(4, 4), fld, cfg)
        _, step = refine(coarse, rep0.marked, ISOTROPIC, rep0)
        fresh = eta_global(fine, fld)
        hanging = 0
        for child, parent in enumerate(step.parent_of):
            if parent in step.parent_children:
                assert np.array_equal(rep1.gram[child], fresh.gram[child])
            else:
                assert np.array_equal(rep1.gram[child], rep0.gram[parent])
                hanging += len(fine.elements[child].vertex_loop) > len(
                    coarse.elements[parent].vertex_loop)
        assert step.parent_children and hanging

    def test_peak_memory_follows_one_element(self):
        # Grams are integrated element by element, so the quadrature arrays
        # alive at once belong to one element, not to the whole mesh.
        fld = tanh_layer()
        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=8)
        mesh = adaptive_loop(generate_grid(4, 4), fld, cfg)[-1][0]
        assert mesh.n_elements == 131
        tracemalloc.start()
        try:
            eta_global(mesh, fld)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_csv_export(self, tmp_path):
        mesh = generate_grid(2, 2)
        rep = eta_global(mesh, tanh_layer(), depth=2)
        path = tmp_path / "ind.csv"
        with open(path, "w") as fh:
            rep.to_csv(mesh, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "element_id,eta,g11,g12,g22,lambda1,lambda2,alpha"
        assert len(lines) == 5


class TestHessianTerms:
    def test_quadratic(self):
        fld = expression_field("0.5*x1^2")
        terms = hessian_terms(UNIT_SQUARE, fld, depth=1)
        assert terms.L == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-13)
        assert terms.S0 == 1.0
        assert terms.S1 == pytest.approx(1.0, rel=1e-12)  # sqrt(1)/|K|

    def test_linear_zero(self):
        terms = hessian_terms(UNIT_SQUARE, linear_field(2, 3), depth=1)
        assert terms.L == pytest.approx(np.zeros((2, 2)), abs=1e-15)
        assert terms.rhs0 == pytest.approx(0.0, abs=1e-12)

    def test_frobenius_identity(self, rng):
        # |Lam^(1/2) U^T H U Lam^(1/2)|_F^2 = sum_ij lam_i lam_j (u_i.H u_j)^2
        fld = tanh_layer()
        poly = random_polygon(rng, ratio=100.0)
        s = poly.spectrum
        pts = rng.uniform(0, 1, (20, 2))
        h = fld.hessian(pts)
        u = s.basis
        lam_sqrt = np.diag([s.lambda1 ** 0.5, s.lambda2 ** 0.5])
        for k in range(len(pts)):
            mapped = lam_sqrt @ u.T @ h[k] @ u @ lam_sqrt
            lhs = float((mapped * mapped).sum())
            proj = u.T @ h[k] @ u
            lam = np.array([s.lambda1, s.lambda2])
            rhs = float((np.outer(lam, lam) * proj ** 2).sum())
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rhs_scalings(self, rng):
        poly = random_polygon(rng, ratio=50.0)
        fld = tanh_layer()
        terms = hessian_terms(poly, fld, depth=2)
        s = poly.spectrum
        assert terms.S1 == pytest.approx(
            math.sqrt(s.lambda1 / s.lambda2) / poly.area, rel=1e-12
        )
        assert terms.rhs1 == pytest.approx(terms.rhs0 * terms.S1, rel=1e-12)
