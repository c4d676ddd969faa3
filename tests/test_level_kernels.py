"""Level-wide element kernels against their one-element calls.

The integral, Gram, eta, fan, split, cut-direction and harmonic-basis kernels
keep the arithmetic of the per-element code, so they must agree bit for bit
whatever else shares a chunk, a level or a ``Loops.take`` subset of it; the
L2 parts sum in another order and must agree to 1e-13 relative.
"""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisomesh import indicator, interp
from anisomesh.errors import CutMissesPolygon, DegenerateElement
from anisomesh.fields import tanh_layer
from anisomesh.geometry import (CovarianceSpectrum, Polygon, loops_simple, polygons_of,
                                split_polygon_detailed, split_polygons)
from anisomesh.indicator import eta_global, eta_local, gram_elements
from anisomesh.interp import POINTWISE, BasisCache, build_basis, coefficients, element_l2_error
from anisomesh.mesh import build_mesh, generate_grid, generate_polygonal
from anisomesh.quadrature import (
    CHUNK,
    _ear_clip,
    default_depth,
    integrals,
    integrate_on_polygon,
    polygon_fans,
    polygon_sample_points,
)
from anisomesh.refine import (ANISOTROPIC, ISOTROPIC, UNIFORM, RefineConfig, adaptive_loop,
                              cut_directions, refine)
from anisomesh.regularity import audit_mesh, star_kernel
from conftest import random_convex_polygon, random_star_polygon

U_SHAPE = Polygon([(0, 0), (3, 0), (3, 1), (2, 1), (2, 0.1), (1, 0.1), (1, 1), (0, 1)])


def batch(polys):
    """The ``Loops`` batch of a list of polygons."""
    return polygons_of([p.vertices for p in polys])


def reference_fan(poly):
    """One polygon's fan by scalar loops: around the centroid if it sees
    every edge, else around the star-kernel center, else ear clipping."""
    coords = poly.vertices.tolist()
    lo = min(min(q) for q in coords)
    hi = max(max(q) for q in coords)
    tol = 1e-12 * max(hi - lo, 1e-300)

    def sees(cx, cy):
        x1, y1 = coords[-1]
        for q in coords:
            x0, y0 = x1, y1
            x1, y1 = q
            ex, ey = x1 - x0, y1 - y0
            if ex * (cy - y0) - ey * (cx - x0) <= tol * math.hypot(ex, ey):
                return False
        return True

    c = poly.centroid
    if not sees(float(c[0]), float(c[1])):
        rho, c = star_kernel(poly)
        if rho == 0.0:
            return _ear_clip(poly.vertices)
    tris = []
    for a, b in zip(coords, coords[1:] + coords[:1]):
        area = 0.5 * ((a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0]))
        if area > 0.0:
            tris.append((c, a, b))
    return np.array(tris, dtype=float)


def reference_eta(poly, gram):
    """eta_K of one element as u @ G @ u per direction."""
    s = poly.spectrum
    alpha = poly.refmap.alpha
    q1 = float(s.u1 @ gram @ s.u1)
    q2 = float(s.u2 @ gram @ s.u2)
    return max((s.lambda1 * q1 + s.lambda2 * q2) / (alpha * alpha), 0.0)


class TestFans:
    def test_fans_match_scalar_reference(self, rng):
        polys = [random_convex_polygon(rng, ratio=r) for r in (1.0, 1e8) for _ in range(10)]
        polys += [random_star_polygon(rng, ratio=r) for r in (1.0, 10.0, 1e3) for _ in range(20)]
        polys += [el.polygon for el in generate_polygonal(6, 6, jitter=0.3, seed=4).elements]
        for poly in polys:
            assert np.array_equal(polygon_fans(poly.batch())[0], reference_fan(poly))

    def test_many_polygons_concatenate_single_fans(self, rng):
        polys = [random_star_polygon(rng), U_SHAPE, random_convex_polygon(rng), U_SHAPE,
                 random_star_polygon(rng, ratio=1e3)]
        tris, counts = polygon_fans(batch(polys))
        singles = [polygon_fans(p.batch())[0] for p in polys]
        assert counts.tolist() == [len(t) for t in singles]
        assert np.array_equal(tris, np.concatenate(singles))

    def test_ear_clip_covers_polygon_without_kernel(self):
        assert star_kernel(U_SHAPE)[0] == 0.0
        tris = polygon_fans(U_SHAPE.batch())[0]
        e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
        areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        assert (areas > 0.0).all()
        assert math.isclose(areas.sum(), U_SHAPE.area, rel_tol=1e-14)


def assert_level_split_matches_single_calls(polys, anchors, directions):
    """Each polygon's outcome in one ``split_polygons`` pass equals its
    ``split_polygon_detailed`` call alone: the same cut ends and points bit
    for bit and bit-identical piece moments, or the same exception class."""
    outcomes, pieces = split_polygons(batch(polys), anchors, directions)
    for k, (poly, anchor, d) in enumerate(zip(polys, anchors, directions)):
        try:
            a, b, cut, ends = split_polygon_detailed(poly, anchor, d)
        except Exception as exc:  # noqa: BLE001 - the class is what is compared
            assert type(outcomes[k]) is type(exc)
            continue
        assert not isinstance(outcomes[k], Exception)
        level_cut, level_ends = outcomes[k]
        assert level_ends == ends
        assert all(p.tobytes() == q.tobytes() for p, q in zip(level_cut, cut))
        for row, piece in zip((2 * k, 2 * k + 1), (a, b)):
            assert pieces.area[row] == piece.area
            assert pieces.centroid[row].tobytes() == piece.centroid.tobytes()
            assert pieces.second_moment[row].tobytes() == piece.second_moment.tobytes()
            assert pieces.diameter[row] == piece.diameter
    return outcomes


class TestLevelSplit:
    U_WIDE = Polygon([(0, 0), (6, 0), (6, 3), (4, 3), (4, 1), (1, 1), (1, 3), (0, 3)])
    SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        cells=st.integers(2, 6),
        jitter=st.floats(0.0, 0.3),
        through_vertex=st.floats(0.0, 1.0),
        off_centroid=st.floats(0.0, 1.0),
    )
    def test_matches_one_element_calls_on_polygonal_meshes(self, seed, cells, jitter,
                                                           through_vertex, off_centroid):
        # Jittered meshes with merged (often non-convex) cells, and star
        # polygons, whose lines cross many times.  Anchors are centroids or
        # points anywhere in the bounding box (outside the polygon, or
        # between several chords); directions are random or run from the
        # anchor through a vertex.
        rng = np.random.default_rng(seed)
        polys = [el.polygon for el in
                 generate_polygonal(cells, cells, jitter=jitter, seed=seed).elements]
        polys += [random_star_polygon(rng, ratio=10.0 ** rng.uniform(0, 3)) for _ in range(8)]
        anchors, directions = [], []
        for poly in polys:
            v = poly.vertices
            anchor = poly.centroid
            if rng.random() < off_centroid:
                anchor = rng.uniform(v.min(axis=0), v.max(axis=0))
            anchors.append(anchor)
            if rng.random() < through_vertex:
                directions.append(v[rng.integers(len(v))] - anchor)
            else:
                theta = rng.uniform(0.0, math.pi)
                directions.append(np.array([math.cos(theta), math.sin(theta)]))
        assert_level_split_matches_single_calls(polys, anchors, directions)

    def test_fixed_cases(self):
        a = math.sqrt(3.0) - 1.0
        notched = Polygon([(0, 0), (2, 0), (2, 2), (1, a), (0, 2)])
        along = np.array([-1.0, 2.0 - a])
        cases = [
            # The U shape crossed four times; the anchor's interval is used.
            (U_SHAPE, (0.5, 0.5), (1.0, 0.0), (("cut", 7, 0.5), ("cut", 5, 0.4 / 0.9))),
            # An end snapped to vertex 0.
            (self.SQUARE, (0.0, 0.0), (1.0, 0.5), (("v", 0), ("cut", 1, 0.5))),
            # The anchor in the notch, outside every interval: the longest
            # interval, the right prong, is used.
            (self.U_WIDE, (2.5, 2.0), (1.0, 0.0), (("cut", 3, 0.5), ("cut", 1, 2.0 / 3.0))),
            # The cut along the notch edge misses; its orthogonal splits.
            (notched, notched.centroid, along, CutMissesPolygon),
            (notched, notched.centroid, np.array([-along[1], along[0]]), None),
        ]
        polys, anchors, directions, _ = zip(*cases)
        # Every case shares the pass with every other, and with a grid.
        grid = [el.polygon for el in generate_grid(3, 3).elements]
        outcomes = assert_level_split_matches_single_calls(
            list(polys) + grid, list(anchors) + [p.centroid for p in grid],
            list(directions) + [np.array([0.3, 1.0])] * len(grid))
        for (*_, want), got in zip(cases, outcomes):
            if want is CutMissesPolygon:
                assert isinstance(got, CutMissesPolygon)
            elif want is not None:
                ends = got[1]
                assert [e[:2] for e in ends] == [e[:2] for e in want]
                assert [e[2] for e in ends if e[0] == "cut"] == pytest.approx(
                    [e[2] for e in want if e[0] == "cut"], abs=1e-15)
            else:
                assert not isinstance(got, Exception)


def assert_same_basis(got, want):
    for name in ("points", "triangles", "psi", "boundary_mask", "loop_vertex_index"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), name


class TestLevelBases:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        jitter=st.one_of(st.floats(0.0, 0.3), st.floats(1e-9, 1e-7)),
        strategy=st.sampled_from([ANISOTROPIC, ISOTROPIC]),
        levels=st.integers(1, 3),
    )
    def test_level_pass_matches_batch_of_one(self, seed, jitter, strategy, levels):
        # A level's elements, star polygons and the U shape, whose first
        # triangulation misses chain segments, at scales 1e7 apart and in a
        # random order: recovery rounds run on a subset of a pass that spans
        # several chunks.  Tiny jitters put nearly coincident nodes on
        # element boundaries.
        rng = np.random.default_rng(seed)
        mesh0 = generate_polygonal(4, 4, jitter=jitter, seed=seed)
        history = adaptive_loop(mesh0, tanh_layer(), RefineConfig(strategy=strategy,
                                                                 max_levels=levels))
        polys = [el.polygon for el in history[-1][0].elements]
        polys += [random_star_polygon(rng, ratio=10.0 ** rng.uniform(0, 3)) for _ in range(6)]
        polys += [U_SHAPE, Polygon(U_SHAPE.vertices * 1e-7 + 0.5)]
        polys = [polys[k] for k in rng.permutation(len(polys))]
        with mock.patch.object(interp, "_recover", wraps=interp._recover) as recover:
            bases = interp.build_bases(batch(polys))
        assert recover.called
        for poly, basis in zip(polys, bases):
            assert_same_basis(basis, build_basis(poly))


class TestGramChunks:
    def test_sliver_larger_than_a_chunk(self, rng):
        # Unit length: default depth 6, four fan triangles of 65,536 points.
        sliver = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 0.01), (0.0, 0.01)])
        assert default_depth(sliver.diameter) == 6
        pts, w = polygon_sample_points(sliver, depth=6)
        assert len(w) > CHUNK
        polys = [random_convex_polygon(rng) for _ in range(3)]
        polys.insert(1, sliver)
        fld = tanh_layer()
        grams = gram_elements(batch(polys), fld)
        for poly, gram in zip(polys, grams):
            assert np.array_equal(gram, gram_elements(poly.batch(), fld)[0])
        gx, gy = fld.gradient(pts).T
        g11, g12, g22 = np.add.reduceat([w * gx * gx, w * gx * gy, w * gy * gy], [0], axis=1)[:, 0]
        assert np.array_equal(grams[1], np.array([[g11, g12], [g12, g22]]))

    def test_fixed_depth_matches_single_calls(self, rng):
        polys = [random_star_polygon(rng) for _ in range(12)] + [U_SHAPE]
        fld = tanh_layer()
        for depth in (2, 4):
            grams = gram_elements(batch(polys), fld, depth=depth)
            for poly, gram in zip(polys, grams):
                assert np.array_equal(gram, gram_elements(poly.batch(), fld, depth=depth)[0])

    def test_one_row_integrand_matches_single_calls(self, rng):
        # A sliver of more than a chunk between small polygons, which take
        # default depths 2 and 3: two depth groups, and chunks that hold one
        # polygon, several, or a slice of one.
        sliver = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 0.01), (0.0, 0.01)])
        small = [random_convex_polygon(rng).vertices for _ in range(3)]
        polys = [Polygon(v * scale) for scale in (0.02, 0.05) for v in small]
        polys.insert(2, sliver)
        assert [default_depth(p.diameter) for p in polys] == [2, 2, 6, 2, 3, 3, 3]
        fld = tanh_layer()

        def value(p, w, out):
            np.multiply(w, fld.value(p), out=out[0])

        got = integrals(batch(polys), value, 1)
        assert got.shape == (len(polys), 1)
        for poly, row in zip(polys, got):
            assert np.array_equal(row, integrals(poly.batch(), value, 1)[0])


class TestSharedBases:
    def test_l2_parts_do_not_depend_on_element_order(self):
        # Keys round to 12 digits, far above the differences that break
        # Delaunay ties on these near-square cells: a basis built for
        # whichever element of a key comes first changed 7 of the 27 parts.
        fld = tanh_layer()
        mesh0 = generate_polygonal(4, 4, jitter=1e-15, seed=0)
        mesh = adaptive_loop(mesh0, fld, RefineConfig(strategy=ANISOTROPIC, max_levels=2))[-1][0]
        reversed_mesh = build_mesh(mesh.points, [el.vertex_loop for el in mesh.elements[::-1]])
        parts = [interp.l2_parts(m, fld, coefficients(m, fld, POINTWISE), cache=BasisCache())
                 for m in (mesh, reversed_mesh)]
        assert np.array_equal(parts[0], parts[1][::-1])


class TestFanIntegrals:
    def test_level_fans_match_reduceat_over_sample_points(self):
        # CLEMENT's element integrals come from one polygon_fans call per
        # depth and a field sliced into chunks; each sum is one reduceat
        # segment over the element's sample points.
        fld = tanh_layer()
        mesh = generate_polygonal(4, 4, jitter=0.3, seed=1)
        sliver = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 0.01), (0.0, 0.01)])

        def value(p, w, out):
            np.multiply(w, fld.value(p), out=out[0])

        for depth in (None, 6):
            got = integrals(mesh.geometry, value, 1, depth)[:, 0]
            for el, total in zip(mesh.elements, got):
                d = default_depth(el.polygon.diameter) if depth is None else depth
                pts, w = polygon_sample_points(el.polygon, depth=d)
                assert total == np.add.reduceat(w * fld.value(pts), [0])[0]
        pts, w = polygon_sample_points(sliver, depth=6)
        assert integrate_on_polygon(sliver, fld.value, depth=6) == np.add.reduceat(
            w * fld.value(pts), [0])[0]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


def assert_take_matches_rows(geom, ids, grams, strategy, fld, bases):
    """Every level kernel on ``geom.take(ids)`` gives rows ``ids`` of its result
    on the whole batch ``geom``, bit for bit."""
    sub = geom.take(ids)
    for name in ("area", "centroid", "second_moment", "diameter", "lambda1", "lambda2", "u",
                 "alpha"):
        assert same_bits(getattr(sub, name), getattr(geom, name)[ids]), name
    assert same_bits(sub.vertices, np.concatenate([geom.polygon(k).vertices for k in ids]))
    assert same_bits(gram_elements(sub, fld), grams[ids])
    assert same_bits(indicator._contract(sub, grams[ids]), indicator._contract(geom, grams)[ids])
    assert same_bits(loops_simple(sub), loops_simple(geom)[ids])
    keys = interp._similarity_keys(geom)
    assert interp._similarity_keys(sub) == [keys[k] for k in ids]
    tris, counts = polygon_fans(geom)
    first = np.cumsum(counts) - counts
    sub_tris, sub_counts = polygon_fans(sub)
    assert same_bits(sub_counts, counts[ids])
    assert same_bits(sub_tris, np.concatenate([tris[first[k]:first[k] + counts[k]] for k in ids]))
    dirs = cut_directions(geom, grams, strategy)
    sub_dirs = cut_directions(sub, grams[ids], strategy)
    assert same_bits(sub_dirs, dirs[ids])
    outcomes, pieces = split_polygons(geom, geom.centroid, dirs)
    sub_outcomes, sub_pieces = split_polygons(sub, sub.centroid, sub_dirs)
    for i, k in enumerate(ids):
        got, want = sub_outcomes[i], outcomes[k]
        if isinstance(want, Exception):
            assert type(got) is type(want)
            continue
        assert got[1] == want[1] and all(map(same_bits, got[0], want[0]))
        for name in ("area", "centroid", "second_moment", "diameter", "alpha"):
            rows = getattr(pieces, name)
            assert same_bits(getattr(sub_pieces, name)[2 * i:2 * i + 2], rows[2 * k:2 * k + 2])
    if bases is not None:
        for got, k in zip(interp.build_bases(sub), ids):
            assert_same_basis(got, bases[k])


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    jitter=st.floats(0.0, 0.3),
    strategy=st.sampled_from([ANISOTROPIC, ISOTROPIC, UNIFORM]),
    levels=st.integers(2, 3),
    kept=st.floats(0.0, 1.0),
)
def test_level_kernels_match_one_element_calls(seed, jitter, strategy, levels, kept):
    # ``kept`` is the share of each level's elements in a random subset,
    # taken in random order, on which every level kernel runs again.
    fld = tanh_layer()
    rng = np.random.default_rng(seed)
    mesh0 = generate_polygonal(4, 4, jitter=jitter, seed=seed)
    history = adaptive_loop(mesh0, fld, RefineConfig(strategy=strategy, max_levels=levels))
    for level, (mesh, _) in enumerate(history):
        polys = [el.polygon for el in mesh.elements]
        report = eta_global(mesh, fld)
        ids = rng.permutation(mesh.n_elements)[:max(1, round(kept * mesh.n_elements))]
        last = level == len(history) - 1
        assert_take_matches_rows(mesh.geometry, ids, report.gram, strategy, fld,
                                 interp.build_bases(mesh.geometry) if last else None)
        for k, poly in enumerate(polys):
            gram = gram_elements(poly.batch(), fld)[0]
            assert np.array_equal(report.gram[k], gram)
            assert report.eta_local[k] == eta_local(poly, fld)
            assert report.eta_local[k] == reference_eta(poly, gram)
        coeffs = coefficients(mesh, fld, POINTWISE)
        parts = interp.l2_parts(mesh, fld, coeffs, cache=BasisCache())
        # Elements of one similarity key share the basis of the key's own
        # polygon, through a cache, on both paths: on near-square lattices
        # Delaunay ties make a basis built for each element differ far above
        # roundoff.
        cache = BasisCache()
        single = [element_l2_error(build_basis(el.polygon, cache=cache),
                                   coeffs.values[el.vertex_loop], fld)
                  for el in mesh.elements]
        # Relative 1e-13 on each element's part, or an absolute floor: a
        # rounding change of 1e-14 in the pointwise difference v - Iv moves
        # the element's L2 norm sqrt(part) by at most 1e-14 sqrt|K|.  Parts
        # where v is nearly interpolated exactly (about 1e-33 where
        # tanh_layer saturates) are all roundoff and only meet the floor.
        parts, single = np.asarray(parts), np.asarray(single)
        floor = 1e-14 * np.sqrt([p.area for p in polys])
        assert np.all((np.abs(parts - single) <= 1e-13 * single)
                      | (np.abs(np.sqrt(parts) - np.sqrt(single)) <= floor))


def test_level_passes_build_no_spectrum_objects(monkeypatch):
    # Level passes read the spectra from the mesh's geometry batch; only a
    # batch of one (``Polygon.spectrum``) builds a CovarianceSpectrum.
    def built(*args, **kwargs):
        raise AssertionError("a level pass built a per-element spectrum")

    fld = tanh_layer()
    mesh = generate_polygonal(4, 4, jitter=0.3, seed=3)
    monkeypatch.setattr(CovarianceSpectrum, "__init__", built)
    with pytest.raises(AssertionError):
        mesh.elements[0].polygon.spectrum
    report = eta_global(mesh, fld)
    marked = set(np.flatnonzero(report.eta_local > np.median(report.eta_local)).tolist())
    for strategy in (UNIFORM, ISOTROPIC, ANISOTROPIC):
        refine(mesh, marked, strategy, report)
    interp.l2_error(mesh, fld, coefficients(mesh, fld, POINTWISE))
    report.to_csv(mesh, io.StringIO())


def test_rank_deficient_element_raises_where_its_spectrum_is_used():
    # Area 2e-14 passes the area check, but lambda2 / lambda1 is about 4e-28:
    # the mesh builds, and every pass that reads the covariance spectrum raises.
    mesh = build_mesh([(0, 0), (1, 0), (1, 2e-14), (0, 2e-14)], [[0, 1, 2, 3]])
    fld = tanh_layer()
    report = indicator.IndicatorReport(np.ones(1), 1.0, np.zeros((1, 2, 2)), set())
    for run in (lambda: eta_global(mesh, fld),
                lambda: refine(mesh, {0}, ISOTROPIC),
                lambda: refine(mesh, {0}, ANISOTROPIC, report),  # a zero Gram falls back
                lambda: interp.l2_error(mesh, fld, coefficients(mesh, fld, POINTWISE)),
                lambda: report.to_csv(mesh, io.StringIO()),
                lambda: audit_mesh(mesh)):
        with pytest.raises(DegenerateElement, match="rank deficient"):
            run()
