import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisomesh.errors import CutMissesPolygon, DegenerateElement
from anisomesh.geometry import (
    Polygon,
    ReferenceMap,
    map_polygon,
    points_in_polygon,
    polygons_of,
    split_polygon_detailed,
    symmetric_eig_2x2,
)
from anisomesh.mesh import build_mesh
from conftest import random_convex_polygon, random_polygon, random_star_polygon

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


def scalar_eig_2x2(a, b, c):
    """Closed-form spectrum of one [[a, b], [b, c]] in scalar Python: (l1, l2, u1)."""
    half_tr, half_diff = 0.5 * (a + c), 0.5 * (a - c)
    r = math.hypot(half_diff, b)
    l1 = half_tr + r
    l2 = (a * c - b * b) / l1 if l1 > 0.0 else half_tr - r
    u1 = [1.0, 0.0]
    if not r <= 1e-14 * max(abs(l1), abs(l2), 1e-300):
        x, y = (r + half_diff, b) if half_diff >= 0.0 else (b, r - half_diff)
        norm = math.hypot(x, y)
        if norm != 0.0:
            u1 = [x / norm, y / norm]
    x, y = u1
    if (x if abs(x) > 1e-14 * max(abs(x), abs(y)) else y) < 0.0:
        u1 = [-x, -y]
    return l1, l2, u1


@st.composite
def symmetric_2x2(draw):
    """(a, b, c) of [[a, b], [b, c]]: any entries from 1e-300 to 1e300 in modulus, or
    with b = 0, or a = c, or g g^T for a 2x2 or a rank-one g."""
    kind = draw(st.sampled_from(["any", "diagonal", "equal", "rank one", "gram"]))
    if kind in ("rank one", "gram"):
        p, q, r, s = (draw(st.floats(-1e150, 1e150)) for _ in range(4))
        if kind == "rank one":
            q = s = 0.0
        return p * p + q * q, p * r + q * s, r * r + s * s
    a, b, c = draw(MAGNITUDES), draw(MAGNITUDES), draw(MAGNITUDES)
    return a, 0.0 if kind == "diagonal" else b, a if kind == "equal" else c


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def mc_moments(poly, n_samples, rng):
    """Monte-Carlo oracle: rejection sampling in the bounding box.

    Returns (area, centroid, cov) estimates with their standard errors.
    """
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    box = float(np.prod(hi - lo))
    pts = rng.uniform(lo, hi, size=(n_samples, 2))
    inside = points_in_polygon(pts, poly.vertices)
    frac = inside.mean()
    area = box * frac
    area_se = box * math.sqrt(frac * (1.0 - frac) / n_samples)
    acc = pts[inside]
    m = len(acc)
    centroid = acc.mean(axis=0)
    centroid_se = acc.std(axis=0, ddof=1) / math.sqrt(m)
    d = acc - centroid
    prods = np.stack([d[:, 0] * d[:, 0], d[:, 0] * d[:, 1], d[:, 1] * d[:, 1]], axis=1)
    cov = prods.mean(axis=0)
    cov_se = prods.std(axis=0, ddof=1) / math.sqrt(m)
    return (area, area_se), (centroid, centroid_se), (cov, cov_se)


def two_pass_moments(vertices):
    """Scalar reference for Polygon's checks and moments, in two passes.

    The first pass checks orientation and repeated vertices on the raw
    coordinates; the second shifts to the vertex mean and sums the closed-form
    boundary terms.  Returns (area, centroid, second_moment, diameter).
    """
    coords = np.asarray(vertices, dtype=float).tolist()
    n = len(coords)
    scale = max(max(c[0] for c in coords) - min(c[0] for c in coords),
                max(c[1] for c in coords) - min(c[1] for c in coords)) or 1.0
    twice_area = 0.0
    for i in range(n):
        x0, y0 = coords[i]
        x1, y1 = coords[(i + 1) % n]
        if abs(x1 - x0) <= 1e-15 * scale and abs(y1 - y0) <= 1e-15 * scale:
            raise ValueError("repeated consecutive vertices")
        twice_area += x0 * y1 - x1 * y0
    if twice_area <= 0.0:
        raise ValueError("clockwise")
    diameter = math.sqrt(max((a[0] - b[0]) * (a[0] - b[0]) + (a[1] - b[1]) * (a[1] - b[1])
                             for a in coords for b in coords))
    px = sum(c[0] for c in coords) / n
    py = sum(c[1] for c in coords) / n
    twice_area = sx = sy = sxx = syy = sxy = 0.0
    x1, y1 = coords[-1][0] - px, coords[-1][1] - py
    for c in coords:
        x0, y0 = x1, y1
        x1, y1 = c[0] - px, c[1] - py
        cross = x0 * y1 - x1 * y0
        twice_area += cross
        sx += (x0 + x1) * cross
        sy += (y0 + y1) * cross
        sxx += (x0 * x0 + x0 * x1 + x1 * x1) * cross
        syy += (y0 * y0 + y0 * y1 + y1 * y1) * cross
        sxy += (x0 * y1 + 2.0 * x0 * y0 + 2.0 * x1 * y1 + x1 * y0) * cross
    area = 0.5 * twice_area
    if area <= 1e-14 * diameter * diameter:
        raise DegenerateElement("degenerate")
    cx, cy = sx / (6.0 * area), sy / (6.0 * area)
    ixx, iyy, ixy = sxx / 12.0, syy / 12.0, sxy / 24.0
    cov = np.array([[ixx / area - cx * cx, ixy / area - cx * cy],
                    [ixy / area - cx * cy, iyy / area - cy * cy]])
    return area, np.array([cx + px, cy + py]), cov, diameter


def with_hanging_nodes(vertices, count, rng):
    """Insert ``count`` nodes inside random edges (interior angle pi)."""
    v = list(vertices)
    for _ in range(count):
        i = int(rng.integers(len(v)))
        a, b = v[i], v[(i + 1) % len(v)]
        v.insert(i + 1, a + rng.uniform(0.2, 0.8) * (b - a))
    return np.array(v)


class TestMoments:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 31),
        convex=st.booleans(),
        log_ratio=st.floats(0.0, 8.0),
        shift=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        hanging=st.integers(0, 4),
    )
    def test_matches_two_pass_reference_bit_for_bit(self, seed, convex, log_ratio, shift, hanging):
        # One polygon alone, and in a batch with others of 3 to 16 vertices
        # at a random place, so that padding never leaks into a sum.
        rng = np.random.default_rng(seed)
        make = random_convex_polygon if convex else random_star_polygon
        base = make(rng, ratio=10.0 ** log_ratio).vertices + np.asarray(shift)
        v = with_hanging_nodes(base, hanging, rng)
        batch = [with_hanging_nodes(random_polygon(rng, n_vertices=int(rng.integers(3, 13)),
                                                   ratio=10.0 ** log_ratio).vertices,
                                    int(rng.integers(0, 5)), rng) for _ in range(4)]
        batch.insert(int(rng.integers(0, 5)), v)
        shapes = polygons_of(batch)
        polys = [Polygon(v)] + [shapes.polygon(k) for k in range(len(batch))]
        for vertices, poly in zip([v] + batch, polys):
            area, centroid, cov, diameter = two_pass_moments(vertices)
            assert poly.area == area
            assert poly.centroid.tobytes() == centroid.tobytes()
            assert poly.second_moment.tobytes() == cov.tobytes()
            assert poly.diameter == diameter

    def test_unit_square(self):
        poly = Polygon(UNIT_SQUARE)
        assert poly.area == pytest.approx(1.0, abs=1e-15)
        assert poly.centroid == pytest.approx([0.5, 0.5], abs=1e-15)
        assert poly.second_moment == pytest.approx(np.diag([1.0 / 12.0, 1.0 / 12.0]), abs=1e-15)

    def test_reference_triangle(self):
        poly = Polygon([(0, 0), (1, 0), (0, 1)])
        assert poly.area == pytest.approx(0.5, abs=1e-15)
        assert poly.centroid == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-15)

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (14.1, 1.0), (100.0, 0.25)])
    def test_rectangle_separable(self, a, b):
        poly = Polygon([(0, 0), (a, 0), (a, b), (0, b)])
        m = poly.second_moment
        assert m[0, 0] == pytest.approx(a * a / 12.0, rel=1e-13)
        assert m[1, 1] == pytest.approx(b * b / 12.0, rel=1e-13)
        assert abs(m[0, 1]) < 1e-13 * a * a
        assert poly.spectrum.ratio == pytest.approx((a / b) ** 2, rel=1e-12)

    def test_monte_carlo_oracle(self, rng):
        poly = random_polygon(rng, ratio=10.0)
        (area, area_se), (cen, cen_se), (cov, cov_se) = mc_moments(poly, 200_000, rng)
        assert abs(area - poly.area) <= 3.0 * area_se
        assert np.all(np.abs(cen - poly.centroid) <= 3.0 * cen_se + 1e-12)
        exact = poly.second_moment[[0, 0, 1], [0, 1, 1]]
        assert np.all(np.abs(cov - exact) <= 3.0 * cov_se + 1e-12)

    def test_far_from_origin_is_stable(self):
        shift = np.array([1e6, -3e6])
        near = Polygon(UNIT_SQUARE)
        far = Polygon(np.asarray(UNIT_SQUARE) + shift)
        assert far.area == pytest.approx(near.area, rel=1e-12)
        assert far.second_moment == pytest.approx(near.second_moment, abs=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateElement):
            Polygon([(0, 0), (1, 0), (2, 1e-17), (1, 1e-17)])

    def test_thin_sliver_raises_at_construction(self):
        # The tolerance is area <= 1e-14 * h^2, here h = 1 to rounding.
        with pytest.raises(DegenerateElement):
            Polygon([(0, 0), (1, 0), (1, 5e-15), (0, 5e-15)])
        assert Polygon([(0, 0), (1, 0), (1, 2e-14), (0, 2e-14)]).area == pytest.approx(2e-14)

    def test_caller_array_stays_writable(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        poly = Polygon(a)
        a[0, 0] = 5.0
        assert poly.vertices[0, 0] == 0.0
        with pytest.raises(ValueError):
            poly.vertices[0, 0] = 1.0
        # A mesh's polygons are views on one batch, not on its points.
        points = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        mesh = build_mesh(points, [[0, 1, 2, 3]])
        points[0, 0] = mesh.points[0, 0] = 0.0
        assert not mesh.elements[0].polygon.vertices.flags.writeable

    def test_orientation_rejected(self):
        with pytest.raises(ValueError):
            Polygon(list(reversed(UNIT_SQUARE)))

    @pytest.mark.parametrize(
        "vertices",
        [
            [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)],  # repeated consecutive vertex
            [(0, 0), (1, 0)],  # fewer than 3 vertices
            [(0, 0), (1, 0), (1, math.inf), (0, 1)],
            [(0, 0), (1, 0), (math.nan, 1), (0, 1)],
        ],
    )
    def test_invalid_loops_raise_value_error(self, vertices):
        with pytest.raises(ValueError):
            Polygon(vertices)


class TestSpectrum:
    @settings(max_examples=200, deadline=None)
    @given(matrices=st.lists(symmetric_2x2(), min_size=1, max_size=8))
    def test_array_eigen_solve(self, matrices):
        l1, l2, u1 = symmetric_eig_2x2(*map(np.array, zip(*matrices)))
        for k, (a, b, c) in enumerate(matrices):
            # Each row is its batch of one, whatever shares the batch.
            one = symmetric_eig_2x2([a], [b], [c])
            assert [x[0].tobytes() for x in one] == [l1[k].tobytes(), l2[k].tobytes(),
                                                      u1[k].tobytes()]
            x, y = u1[k]
            if not (math.isfinite(x) and math.isfinite(y)):
                continue  # entries near 1e300 overflow
            # The operations of the scalar closed form, bit for bit.
            s1, s2, (sx, sy) = scalar_eig_2x2(a, b, c)
            assert np.array([l1[k], l2[k], x, y]).tobytes() == np.array([s1, s2, sx, sy]).tobytes()
            assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-15)
            assert (x if abs(x) > 1e-14 * max(abs(x), abs(y)) else y) > 0.0
            m = np.array([[a, b], [b, c]])
            scale = np.abs(m).max()
            if (scale == 0.0 or not (a >= 0.0 and c >= 0.0 and a * c >= b * b)
                    or not all(e == 0.0 or 1e-100 <= abs(e) <= 1e100 for e in m.flat)):
                continue
            # Well conditioned (positive semidefinite, as covariances and Grams
            # are, and far from under- and overflow): eigh's eigenvalues to
            # 1e-12 of the largest, and u2, u1 rotated by +90 degrees, the
            # eigenvector of l2.
            low, high = np.linalg.eigh(m)[0]
            assert abs(l1[k] - high) <= 1e-12 * scale
            assert abs(l2[k] - low) <= 1e-12 * scale
            u2 = np.array([-y, x])
            assert np.abs(m @ u2 - l2[k] * u2).max() <= 1e-12 * scale

    def test_alpha_takes_pythons_pow(self, rng):
        # alpha = (sqrt(l1 l2) / |K|) ** 0.5 is C pow, which differs from sqrt
        # in the last bit for about one x in 1,200: many triangles catch a sqrt.
        tris = rng.uniform(-1.0, 1.0, (20000, 3, 2))
        e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        tris = np.where((cross < 0.0)[:, None, None], tris[:, ::-1], tris)[np.abs(cross) > 1e-3]
        loops = polygons_of(list(tris))
        expected = [(math.sqrt(l1 * l2) / area) ** 0.5 for l1, l2, area in
                    zip(loops.lambda1.tolist(), loops.lambda2.tolist(), loops.area.tolist())]
        assert loops.alpha.tolist() == expected

    def test_unit_square_isotropic(self):
        s = Polygon(UNIT_SQUARE).spectrum
        assert s.lambda1 == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert s.lambda2 == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert s.ratio == pytest.approx(1.0, rel=1e-12)

    def test_stretched_rectangle_matches_separable_oracle(self):
        s = Polygon([(0, 0), (14.1, 0), (14.1, 1), (0, 1)]).spectrum
        assert s.ratio == pytest.approx(14.1 ** 2, rel=1e-12)
        assert s.ratio == pytest.approx(198.81, rel=1e-12)
        assert s.u1 == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_eigen_residual(self, rng):
        for _ in range(25):
            poly = random_polygon(rng, ratio=float(rng.uniform(1, 1e4)))
            s = poly.spectrum
            m = s.covariance
            for lam, u in ((s.lambda1, s.u1), (s.lambda2, s.u2)):
                assert np.linalg.norm(m @ u - lam * u) <= 1e-12 * s.lambda1
            recomposed = s.basis @ np.diag([s.lambda1, s.lambda2]) @ s.basis.T
            assert recomposed == pytest.approx(m, rel=1e-12, abs=1e-15 * s.lambda1)

    def test_canonical_orientation(self, rng):
        for _ in range(25):
            s = random_polygon(rng, ratio=50.0).spectrum
            if abs(s.u1[0]) > 1e-14:
                assert s.u1[0] > 0.0
            else:
                assert s.u1[1] > 0.0
            assert s.u2 == pytest.approx([-s.u1[1], s.u1[0]], abs=1e-15)
            assert np.linalg.det(s.basis) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0.0, 2.0 * math.pi), seed=st.integers(0, 2 ** 31))
    def test_rotation_invariance(self, theta, seed):
        poly = random_polygon(np.random.default_rng(seed), ratio=30.0)
        rotated = Polygon(poly.vertices @ rotation(theta).T)
        s0, s1 = poly.spectrum, rotated.spectrum
        assert s1.lambda1 == pytest.approx(s0.lambda1, rel=1e-12)
        assert s1.lambda2 == pytest.approx(s0.lambda2, rel=1e-12)


class TestReferenceMap:
    def test_unit_square_alpha(self):
        rm = Polygon(UNIT_SQUARE).refmap
        assert rm.alpha == pytest.approx(12.0 ** -0.5, rel=1e-14)
        assert 0.28 < rm.alpha < 0.32

    def test_determinant_identity(self, rng):
        for _ in range(20):
            poly = random_polygon(rng, ratio=float(rng.uniform(1, 1e3)))
            s = poly.spectrum
            rm = poly.refmap
            det = np.linalg.det(rm.matrix)
            assert det == pytest.approx(
                rm.alpha ** 2 / math.sqrt(s.lambda1 * s.lambda2), rel=1e-12
            )
            assert rm.matrix @ rm.inverse == pytest.approx(np.eye(2), abs=1e-12)

    def test_mapped_element_normalized(self, rng):
        # Unit area, isotropic covariance alpha^2 I, tiny off-diagonal.
        for _ in range(20):
            poly = random_polygon(rng, ratio=float(rng.uniform(1, 1e4)))
            rm = poly.refmap
            mapped = map_polygon(poly, rm)
            a2 = rm.alpha ** 2
            assert abs(mapped.area - 1.0) < 1e-10
            cov = mapped.second_moment
            assert abs(cov[0, 0] - a2) < 1e-10 * a2 * 10
            assert abs(cov[1, 1] - a2) < 1e-10 * a2 * 10
            assert abs(cov[0, 1]) < 1e-10 * a2
            assert mapped.diameter >= 1.0
            assert mapped.centroid == pytest.approx(rm.apply(poly.centroid), rel=1e-10,
                                                    abs=1e-12)

    def test_map_polygon_identity(self):
        poly = Polygon(UNIT_SQUARE)
        ident = ReferenceMap(matrix=np.eye(2), alpha=1.0, inverse=np.eye(2))
        assert map_polygon(poly, ident).vertices == pytest.approx(poly.vertices)


class TestSplit:
    def test_square_symmetric_cut(self):
        poly = Polygon(UNIT_SQUARE)
        a, b, seg, _ = split_polygon_detailed(poly, (0.5, 0.5), (0.0, 1.0))
        assert a.area == pytest.approx(0.5, abs=1e-15)
        assert b.area == pytest.approx(0.5, abs=1e-15)
        ends = sorted(map(tuple, seg))
        assert ends == [(0.5, 0.0), (0.5, 1.0)]

    def test_rectangle_cut_into_unit_squares(self):
        poly = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        a, b, _, _ = split_polygon_detailed(poly, poly.centroid, poly.spectrum.u2)
        for piece in (a, b):
            assert piece.area == pytest.approx(1.0, rel=1e-13)
            w = piece.vertices
            assert np.ptp(w[:, 0]) == pytest.approx(1.0, abs=1e-13)
            assert np.ptp(w[:, 1]) == pytest.approx(1.0, abs=1e-13)

    def test_diagonal_cut_snaps_to_vertices(self):
        poly = Polygon(UNIT_SQUARE)
        d = np.array([1.0, 1.0]) / math.sqrt(2.0)
        a, b, seg, _ = split_polygon_detailed(poly, (0.5, 0.5), d)
        assert len(a) == 3 and len(b) == 3
        assert a.area + b.area == pytest.approx(1.0, rel=1e-14)
        ends = sorted(map(tuple, seg))
        assert ends == [(0.0, 0.0), (1.0, 1.0)]

    def test_u_shape_multi_crossing(self):
        # Two prongs: the horizontal line at y = 2 crosses the boundary four
        # times; the interval containing the anchor is used.
        u_shape = Polygon(
            [(0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (1, 1), (1, 3), (0, 3)]
        )
        a, b, seg, _ = split_polygon_detailed(u_shape, (0.5, 2.0), (1.0, 0.0))
        assert a.area + b.area == pytest.approx(u_shape.area, rel=1e-12)
        xs = sorted(p[0] for p in seg)
        assert xs == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_u_shape_anchor_outside_uses_longest_interval(self):
        u_shape = Polygon(
            [(0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (1, 1), (1, 3), (0, 3)]
        )
        # Anchor in the notch (outside); both interior intervals have length
        # one, the first is chosen deterministically.
        a, b, _, _ = split_polygon_detailed(u_shape, (2.5, 2.0), (1.0, 0.0))
        assert a.area + b.area == pytest.approx(u_shape.area, rel=1e-12)

    def test_pieces_are_arcs_with_vertex_snapped_end(self):
        # Through vertex 0 of the unit square to the middle of edge 1: the
        # low end snaps to the vertex, the high end is a cut point.
        poly = Polygon(UNIT_SQUARE)
        a, b, seg, ends = split_polygon_detailed(poly, (0.0, 0.0), (1.0, 0.5))
        assert ends == (("v", 0), ("cut", 1, 0.5))
        assert np.array_equal(seg[1], [1.0, 0.5])
        assert np.array_equal(a.vertices, [(0, 0), (1, 0), (1, 0.5)])
        assert np.array_equal(b.vertices, [(1, 0.5), (1, 1), (0, 1), (0, 0)])

    def test_pieces_are_arcs_on_u_shape_crossed_four_times(self):
        # y = 2 crosses edges 7, 5, 3 and 1; the anchor's interval runs from
        # edge 7 to edge 5, so piece b is the left prong above the cut.
        u_shape = Polygon(
            [(0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (1, 1), (1, 3), (0, 3)]
        )
        a, b, _, ends = split_polygon_detailed(u_shape, (0.5, 2.0), (1.0, 0.0))
        assert [e[:2] for e in ends] == [("cut", 7), ("cut", 5)]
        assert [e[2] for e in ends] == pytest.approx([1.0 / 3.0, 0.5], abs=1e-15)
        np.testing.assert_allclose(
            a.vertices, [(0, 2), (0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (1, 1), (1, 2)],
            rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(b.vertices, [(1, 2), (1, 3), (0, 3), (0, 2)],
                                   rtol=0.0, atol=1e-15)

    def test_cut_misses_polygon(self):
        poly = Polygon(UNIT_SQUARE)
        with pytest.raises(CutMissesPolygon):
            split_polygon_detailed(poly, (5.0, 5.0), (0.0, 1.0))

    def test_conservation_and_vertex_provenance(self, rng):
        for _ in range(30):
            poly = random_polygon(rng, ratio=float(rng.uniform(1, 100)))
            theta = rng.uniform(0, math.pi)
            d = np.array([math.cos(theta), math.sin(theta)])
            try:
                a, b, seg, _ = split_polygon_detailed(poly, poly.centroid, d)
            except CutMissesPolygon:
                continue
            assert a.area + b.area == pytest.approx(poly.area, rel=1e-12)
            allowed = {tuple(np.round(v, 9)) for v in poly.vertices}
            allowed |= {tuple(np.round(p, 9)) for p in seg}
            for piece in (a, b):
                for v in piece.vertices:
                    assert tuple(np.round(v, 9)) in allowed
            # The cut endpoints lie on the parent boundary.
            for p in seg:
                assert points_in_polygon(
                    np.asarray(p)[None, :], poly.vertices,
                    boundary_tol=1e-9 * poly.diameter,
                )[0]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), theta=st.floats(0.0, math.pi))
    def test_split_conservation_property(self, seed, theta):
        gen = np.random.default_rng(seed)
        poly = random_convex_polygon(gen, ratio=float(gen.uniform(1, 50)))
        d = np.array([math.cos(theta), math.sin(theta)])
        a, b, _, _ = split_polygon_detailed(poly, poly.centroid, d)
        assert a.area + b.area == pytest.approx(poly.area, rel=1e-12)


class TestPolygonUtilities:
    def test_contains(self):
        inside = points_in_polygon(np.array([(0.5, 0.5), (1.5, 0.5), (1.0, 0.3)]), UNIT_SQUARE)
        assert inside.tolist() == [True, False, False]
        on_edge = points_in_polygon(np.array([(1.0, 0.3)]), UNIT_SQUARE, boundary_tol=1e-12)
        assert on_edge.tolist() == [True]

    def test_contains_matches_per_edge_loop(self, rng):
        def per_edge(pts, v, boundary_tol=0.0):
            x, y = pts[:, 0], pts[:, 1]
            x0, y0 = v[:, 0], v[:, 1]
            x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
            inside = np.zeros(len(pts), dtype=bool)
            on = np.zeros(len(pts), dtype=bool)
            for i in range(len(v)):
                cond = (y0[i] > y) != (y1[i] > y)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xs = x0[i] + (y - y0[i]) / (y1[i] - y0[i]) * (x1[i] - x0[i])
                inside ^= cond & (x < xs)
                ex, ey = x1[i] - x0[i], y1[i] - y0[i]
                t = np.clip(((x - x0[i]) * ex + (y - y0[i]) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
                dx, dy = x - (x0[i] + t * ex), y - (y0[i] + t * ey)
                on |= dx * dx + dy * dy <= boundary_tol * boundary_tol
            return inside | on if boundary_tol > 0.0 else inside

        polys = [np.array(UNIT_SQUARE), np.array([(0, 0), (2, 0), (2, 1), (1, 0.2), (0, 1)], dtype=float)]
        polys += [random_star_polygon(rng, ratio=r).vertices for r in (1.0, 1e3)]
        for v in polys:
            lo, hi = v.min(axis=0), v.max(axis=0)
            # Random points, the vertices, and points on the edges.
            t = rng.uniform(0.0, 1.0, (len(v), 1))
            pts = np.vstack([rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (300, 2)),
                             v, v + t * (np.roll(v, -1, axis=0) - v)])
            for tol in (0.0, 1e-12, 1e-2 * float((hi - lo).max())):
                assert np.array_equal(points_in_polygon(pts, v, boundary_tol=tol),
                                      per_edge(pts, v, boundary_tol=tol))

    def test_diameter_of_many_vertex_loop(self):
        # The pairwise maximum, not a bounding-box diagonal (2.0001 here).
        t = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
        ellipse = Polygon(np.column_stack([np.cos(t), 0.01 * np.sin(t)]))
        assert ellipse.diameter == 2.0

    def test_non_simple_detected(self):
        bowtie = np.array([(0, 0), (1, 1), (1, 0), (0, 1)], dtype=float)
        assert not np.any(points_in_polygon(np.array([[10.0, 10.0]]), bowtie))
        poly = Polygon([(0, 0), (2, 0), (2, 1), (1, -0.5), (0, 1)])
        with pytest.raises(Exception):
            poly.validate_simple()

    def test_star_polygon_generator_is_simple(self, rng):
        for _ in range(10):
            random_star_polygon(rng).validate_simple()
