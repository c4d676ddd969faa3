import math

import numpy as np
import pytest
from scipy.integrate import quad

from anisomesh.errors import ParseError
from anisomesh.fields import (
    check_derivatives,
    constant_field,
    expression_field,
    get_field,
    linear_field,
    monomial_field,
    tanh_layer,
)
from anisomesh.geometry import Polygon, split_polygon_detailed
from anisomesh.quadrature import (
    _subdivided_reference,
    EDGE_RULE,
    integrate_on_edge,
    integrate_on_polygon,
    polygon_fans,
    polygon_sample_points,
    triangle_rule,
)
from conftest import random_convex_polygon, random_polygon, random_star_polygon

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def tanh_square_integral_oracle():
    """Independent 1D reference for the layered field over the unit square.

    The first term is separable in x2; for the second, substituting
    u = x1 - x2 turns the double integral into a weighted 1D integral with
    triangular weight (1 - |u|).
    """
    i1, _ = quad(lambda y: math.tanh(60.0 * y), 0.0, 1.0, limit=200)
    i2, _ = quad(
        lambda u: math.tanh(60.0 * u - 30.0) * (1.0 - abs(u)),
        -1.0,
        1.0,
        points=[0.5],
        limit=200,
    )
    return i1 - i2


class TestTanhLayer:
    def test_values(self):
        v = tanh_layer()
        assert v.value(np.array([0.5, 0.0])) == pytest.approx(0.0, abs=1e-15)
        assert v.value(np.array([0.0, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_gradient_closed_form(self):
        v = tanh_layer()
        pts = np.array([[0.3, 0.1], [0.52, 0.01], [0.9, 0.4]])
        t = 60.0 * (pts[:, 0] - pts[:, 1]) - 30.0
        expected = -60.0 * (1.0 - np.tanh(t) ** 2)
        assert v.gradient(pts)[:, 0] == pytest.approx(expected, rel=1e-14)

    def test_gradient_bits_match_column_expression(self, rng):
        # The column-by-column expression the gradient was first written as;
        # byte equality also pins the sign of the zeros where tanh saturates.
        def reference(points):
            p = np.asarray(points, dtype=float)
            ts = np.tanh(60.0 * p[..., 1])
            tt = np.tanh(60.0 * (p[..., 0] - p[..., 1]) - 30.0)
            g = np.empty(ts.shape + (2,))
            g[..., 0] = -60.0 * (1.0 - tt * tt)
            g[..., 1] = 60.0 * (1.0 - ts * ts) + 60.0 * (1.0 - tt * tt)
            return g

        v = tanh_layer()
        pts = rng.uniform(-0.5, 1.5, (3, 400, 2))
        pts[0, :50, 0] = pts[0, :50, 1] + 0.5  # t = 0
        pts[1, :50, 0] = pts[1, :50, 1] + 2.0  # tanh(t) == 1 exactly
        for x in (pts[0, 0], pts[1, 0], np.array([0.5, 0.0]), pts[2], pts):
            got = v.gradient(x)
            assert got.shape == x.shape
            assert got.tobytes() == reference(x).tobytes()

    def test_derivatives_match_finite_differences(self, rng):
        v = tanh_layer()
        pts = rng.uniform(0.0, 1.0, (100, 2))
        g_err, h_err = check_derivatives(v, pts, step=1e-5)
        assert g_err < 1e-6
        assert h_err < 1e-6


class TestExpressionFields:
    def test_matches_builtin_tanh(self, rng):
        expr = expression_field("tanh(60*x2) - tanh(60*(x1-x2)-30)")
        ref = tanh_layer()
        pts = rng.uniform(0.0, 1.0, (50, 2))
        assert expr.value(pts) == pytest.approx(ref.value(pts), rel=1e-14)
        assert expr.gradient(pts) == pytest.approx(ref.gradient(pts), rel=1e-12)
        assert expr.hessian(pts) == pytest.approx(ref.hessian(pts), rel=1e-12)

    @pytest.mark.parametrize(
        "text",
        ["x1^2*x2 - sin(x2)/(1+x1^2)", "exp(-3*(x1-0.5)^2)*cos(2*x2)", "-x1^3 + 2"],
    )
    def test_ad_against_finite_differences(self, text, rng):
        fld = expression_field(text)
        pts = rng.uniform(0.1, 0.9, (60, 2))
        g_err, h_err = check_derivatives(fld, pts, step=1e-5)
        assert g_err < 1e-6
        assert h_err < 1e-6

    def test_constants_and_pi(self):
        fld = expression_field("pi*x1")
        assert fld.value(np.array([2.0, 0.0])) == pytest.approx(2 * math.pi)

    @pytest.mark.parametrize("bad", ["x1 +", "foo(x1)", "x3", "1 2", "(x1", "x1^x2"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            expression_field(bad)

    def test_registry(self):
        assert get_field("tanh_layer").label == "tanh_layer"
        fld = get_field("expr:x1+x2")
        assert fld.value(np.array([0.25, 0.5])) == pytest.approx(0.75)
        with pytest.raises(ParseError):
            get_field("nope")


class TestTriangleRule:
    @pytest.mark.parametrize("order", [1, 3, 5, 7])
    def test_exactness_and_positivity(self, order):
        rule = triangle_rule(order)
        assert np.all(rule.weights > 0.0)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                exact = (
                    math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                )
                got = float(
                    rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                )
                assert abs(got - exact) < 1e-13

    def test_exactness_survives_subdivision(self):
        fld = monomial_field(4, 3)
        exact = 1.0 / 20.0  # int over unit square
        for depth in (0, 1, 3):
            got = integrate_on_polygon(UNIT_SQUARE, fld.value, depth=depth)
            assert got == pytest.approx(exact, rel=1e-12)


class TestPolygonIntegration:
    def test_constant_and_linear(self):
        one = integrate_on_polygon(UNIT_SQUARE, lambda p: np.ones(len(p)), depth=2)
        x = integrate_on_polygon(UNIT_SQUARE, lambda p: p[:, 0], depth=2)
        assert one == pytest.approx(1.0, rel=1e-14)
        assert x == pytest.approx(0.5, rel=1e-14)

    def test_weights_sum_to_area(self, rng):
        for _ in range(10):
            poly = random_polygon(rng, ratio=float(rng.uniform(1, 500)))
            _, w = polygon_sample_points(poly, depth=2)
            assert w.sum() == pytest.approx(poly.area, rel=1e-12)

    def test_sample_points_match_per_triangle_map(self, rng):
        polys = [random_convex_polygon(rng), random_star_polygon(rng),
                 random_convex_polygon(rng, ratio=1e6), random_star_polygon(rng, ratio=1e3)]
        for poly in polys:
            for depth in range(2, 7):
                xi, eta, ref_w = _subdivided_reference(depth)
                want_pts, want_w = [], []
                for a, b, c in polygon_fans(poly.batch())[0]:
                    e1, e2 = b - a, c - a
                    want_pts.append(np.column_stack(
                        [a[k] + xi * e1[k] + eta * e2[k] for k in (0, 1)]))
                    want_w.append(abs(e1[0] * e2[1] - e1[1] * e2[0]) * ref_w)
                pts, w = polygon_sample_points(poly, depth=depth)
                assert np.array_equal(pts, np.concatenate(want_pts))
                assert np.array_equal(w, np.concatenate(want_w))

    def test_tanh_against_separable_oracle(self):
        # The 1/60-wide layers keep depth 3 pre-asymptotic (error ~3e-5);
        # the element-size default depth (6 for a unit-sized element)
        # reaches the oracle to well below 1e-6.
        oracle = tanh_square_integral_oracle()
        got3 = integrate_on_polygon(UNIT_SQUARE, tanh_layer().value, depth=3)
        assert got3 == pytest.approx(oracle, abs=1e-4)
        got6 = integrate_on_polygon(UNIT_SQUARE, tanh_layer().value, depth=6)
        assert got6 == pytest.approx(oracle, abs=1e-9)

    def test_refinement_convergence_factor(self):
        v = tanh_layer().value
        vals = {d: integrate_on_polygon(UNIT_SQUARE, v, depth=d) for d in (3, 4, 5, 6)}
        assert abs(vals[4] - vals[3]) >= 4.0 * abs(vals[5] - vals[4])
        assert abs(vals[5] - vals[4]) >= 4.0 * abs(vals[6] - vals[5])

    def test_additivity_under_split(self, rng):
        v = tanh_layer().value
        for _ in range(8):
            poly = random_polygon(rng)
            theta = rng.uniform(0, math.pi)
            d = np.array([math.cos(theta), math.sin(theta)])
            a, b, _, _ = split_polygon_detailed(poly, poly.centroid, d)
            whole = integrate_on_polygon(poly, v, depth=4)
            parts = integrate_on_polygon(a, v, depth=4) + integrate_on_polygon(b, v, depth=4)
            assert parts == pytest.approx(whole, rel=1e-4)

    def test_additivity_exact_for_polynomials(self, rng):
        fld = monomial_field(2, 1)
        for _ in range(8):
            poly = random_polygon(rng)
            theta = rng.uniform(0, math.pi)
            a, b, _, _ = split_polygon_detailed(
                poly, poly.centroid, np.array([math.cos(theta), math.sin(theta)])
            )
            whole = integrate_on_polygon(poly, fld.value, depth=2)
            parts = integrate_on_polygon(a, fld.value, depth=2) + integrate_on_polygon(
                b, fld.value, depth=2
            )
            assert parts == pytest.approx(whole, rel=1e-10)


class TestEdgeQuadrature:
    def test_edge_rule_exactness(self):
        x, w = EDGE_RULE
        for k in range(8):
            assert float(w @ x ** k) == pytest.approx(1.0 / (k + 1), rel=1e-14)

    def test_integrate_on_edge(self):
        val = integrate_on_edge((0.0, 0.0), (2.0, 0.0), lambda p: p[:, 0], n_seg=3)
        assert val == pytest.approx(2.0, rel=1e-14)

    def test_composite_handles_layer(self):
        v = tanh_layer().value
        coarse = integrate_on_edge((0.0, 0.0), (1.0, 0.0), v, n_seg=64)
        finer = integrate_on_edge((0.0, 0.0), (1.0, 0.0), v, n_seg=128)
        assert coarse == pytest.approx(finer, abs=1e-10)


class TestHelperFields:
    def test_constant_linear_monomial(self, rng):
        pts = rng.uniform(-1, 1, (20, 2))
        assert constant_field(3.5).value(pts) == pytest.approx(np.full(20, 3.5))
        lf = linear_field(2.0, -1.0, 0.5)
        assert lf.value(pts) == pytest.approx(2 * pts[:, 0] - pts[:, 1] + 0.5)
        assert np.all(lf.hessian(pts) == 0.0)
        mf = monomial_field(2, 3)
        g_err, h_err = check_derivatives(mf, pts, step=1e-6)
        assert g_err < 1e-6 and h_err < 1e-5

    @pytest.mark.parametrize("fld", [
        tanh_layer(),
        constant_field(-2.5),
        linear_field(1.5, -0.25, 0.75),
        monomial_field(3, 2),
        monomial_field(0, 1),
        expression_field("exp(x1) * sin(3 * x2) - x1 ^ 2 / (1 + x2 ^ 2) + tanh(20 * x1)"),
    ], ids=lambda f: f.label)
    def test_planar_views_match_contiguous_points(self, fld, rng):
        # The level L2 pass hands fields (e, P, 2) views of coordinate planes.
        planes = rng.uniform(-1, 1, (2, 3, 50))
        view = planes.transpose(1, 2, 0)
        pts = np.ascontiguousarray(view).reshape(-1, 2)
        assert not view.flags.c_contiguous and pts.flags.c_contiguous
        for cb, tail in ((fld.value, ()), (fld.gradient, (2,)), (fld.hessian, (2, 2))):
            got = cb(view)
            assert got.shape == (3, 50) + tail
            assert np.array_equal(got.reshape((-1,) + tail), cb(pts))
