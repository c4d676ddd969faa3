import math

import numpy as np
import pytest

from anisomesh import interp
from anisomesh.errors import NoAdmissibleEdge, SolveFailed
from anisomesh.fields import ScalarField, constant_field, linear_field, tanh_layer
from anisomesh.geometry import Polygon, points_in_polygon, polygons_of
from anisomesh.interp import (
    CLEMENT,
    POINTWISE,
    SCOTT_ZHANG,
    BasisCache,
    build_basis,
    coefficients,
    element_l2_error,
    l2_error,
    l2_parts,
)
from anisomesh.mesh import (DIRICHLET, INTERIOR, NEUMANN, build_mesh, generate_grid,
                            generate_polygonal)
from anisomesh.quadrature import integrals, triangle_rule
from anisomesh.refine import ANISOTROPIC, ISOTROPIC, RefineConfig, adaptive_loop
from conftest import random_convex_polygon, random_star_polygon

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def interpolant_at(mesh, bases, coeffs, p):
    """The interpolant at p, through the basis of the first element containing p."""
    el = next(el for el in mesh.elements
              if points_in_polygon(np.array([p]), el.polygon.vertices, boundary_tol=1e-12)[0])
    return float(bases[el.id].evaluate(coeffs.values[el.vertex_loop], p)[0])


def sliver(ratio, angle=0.0):
    a = math.sqrt(ratio)
    pts = np.array([(0, 0), (a, 0), (a, 1.0), (0, 1.0)], dtype=float)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return Polygon(pts @ rot.T)


SLIVERS = [sliver(r, a) for r in (1e3, 1e6, 1e8) for a in (0.0, 0.4, 1.1)]


def full_p1_stiffness(points, triangles):
    """Dense P1 Laplacian over all sub-nodes, assembled with np.add.at."""
    x, y = points[triangles, 0], points[triangles, 1]  # (T, 3)
    area = 0.5 * np.abs((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    gx = np.roll(y, -1, axis=1) - np.roll(y, 1, axis=1)
    gy = np.roll(x, 1, axis=1) - np.roll(x, -1, axis=1)
    local = gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    k = np.zeros((len(points), len(points)))
    np.add.at(k, (triangles[:, :, None], triangles[:, None, :]), local / (4.0 * area[:, None, None]))
    return k


class TestBasis:
    def test_triangle_is_barycentric(self):
        tri = Polygon([(0, 0), (1, 0), (0, 1)])
        basis = build_basis(tri, depth=3)
        exact = [
            1.0 - basis.points[:, 0] - basis.points[:, 1],
            basis.points[:, 0],
            basis.points[:, 1],
        ]
        for i in range(3):
            assert np.abs(basis.psi[i] - exact[i]).max() <= 1e-12

    def test_square_center_value(self):
        basis = build_basis(UNIT_SQUARE, depth=3)
        center = np.array([0.5, 0.5])
        for i in range(4):
            val = basis.evaluate(np.eye(4)[i], center)[0]
            assert val == pytest.approx(0.25, abs=1e-10)

    def test_edge_midpoint_value(self):
        basis = build_basis(UNIT_SQUARE, depth=3)
        val = basis.evaluate(np.eye(4)[0], np.array([0.5, 0.0]))[0]
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_kronecker_at_vertices(self):
        basis = build_basis(UNIT_SQUARE, depth=3)
        for i in range(4):
            for j in range(4):
                got = basis.psi[i][basis.loop_vertex_index[j]]
                assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_partition_of_unity_and_range(self, rng):
        polys = [
            random_convex_polygon(rng),
            random_star_polygon(rng),
            *SLIVERS,
        ]
        for poly in polys:
            basis = build_basis(poly)
            assert basis.partition_residual() <= 1e-10
            assert basis.range_violation() <= 1e-10

    def test_hanging_node_gets_own_basis(self):
        poly = Polygon([(0, 0), (0.5, 0.0), (1, 0), (1, 1), (0, 1)])
        basis = build_basis(poly, depth=3)
        assert basis.psi.shape[0] == 5
        # The hanging node's function is 1 there, 0 at the true corners.
        val = basis.evaluate(np.eye(5)[1], np.array([0.5, 0.0]))[0]
        assert val == pytest.approx(1.0, abs=1e-12)
        assert basis.partition_residual() <= 1e-10

    def test_default_depth_is_three_at_any_anisotropy(self):
        for poly in (UNIT_SQUARE, sliver(1e3), sliver(1e8)):
            basis = build_basis(poly)
            assert 0 < (~basis.boundary_mask).sum() <= 49
            assert np.array_equal(basis.psi, build_basis(poly, depth=3).psi)

    def test_discrete_harmonic_against_full_stiffness(self, rng):
        polys = [random_convex_polygon(rng) for _ in range(3)]
        polys += [random_star_polygon(rng) for _ in range(3)]
        polys += SLIVERS[::2]
        # Depth 5 widens the interior band from about 8 to about 32.
        cases = [(poly, None) for poly in polys] + [(poly, 5) for poly in polys[::3]]
        for poly, depth in cases:
            basis = build_basis(poly, depth=depth)
            k = full_p1_stiffness(basis.points, basis.triangles)
            residual = (k @ basis.psi.T)[~basis.boundary_mask]
            assert np.abs(residual).max() <= 1e-12 * np.abs(k).max()

    def test_singular_interior_block_raises_solve_failed(self, monkeypatch):
        # Zeroing the last interior node's stiffness row leaves a zero pivot.
        def broken(points, triangles):
            rows, cols, vals = p1_stiffness(points, triangles)
            return rows, cols, np.where(rows == len(points) - 1, 0.0, vals)

        p1_stiffness = interp._p1_stiffness
        monkeypatch.setattr(interp, "_p1_stiffness", broken)
        with pytest.raises(SolveFailed):
            build_basis(UNIT_SQUARE, depth=3)

    def test_cache_miss_computes_key_once(self, monkeypatch):
        calls = []

        def counted(loops):
            calls.append(loops)
            return similarity_keys(loops)

        similarity_keys = interp._similarity_keys
        monkeypatch.setattr(interp, "_similarity_keys", counted)
        cache = BasisCache()
        build_basis(UNIT_SQUARE, depth=3, cache=cache)
        assert len(calls) == 1 and len(cache.store) == 1
        build_basis(UNIT_SQUARE, depth=3, cache=cache)
        assert len(calls) == 2

    def test_cache_round_trip(self):
        cache = BasisCache()
        b1 = build_basis(UNIT_SQUARE, depth=3, cache=cache)
        shifted = Polygon(np.asarray(UNIT_SQUARE.vertices) * 2.0 + np.array([3.0, 4.0]))
        b2 = build_basis(shifted, depth=3, cache=cache)
        assert len(cache.store) == 1
        assert np.allclose(b2.points, b1.points * 2.0 + np.array([3.0, 4.0]))
        assert np.array_equal(b1.psi, b2.psi)

    def test_cache_size_after_anisotropic_curve(self):
        fld = tanh_layer()
        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=8)
        cache = BasisCache()
        for mesh, _ in adaptive_loop(generate_grid(4, 4), fld, cfg):
            l2_error(mesh, fld, coefficients(mesh, fld, POINTWISE), cache=cache)
        held = sum(
            b.points.nbytes + b.triangles.nbytes + b.psi.nbytes
            + b.boundary_mask.nbytes + b.loop_vertex_index.nbytes
            for b in cache.store.values()
        )
        assert held < 3 * 2**20


U_SHAPE = Polygon([(0, 0), (3, 0), (3, 1), (2, 1), (2, 0.1), (1, 0.1), (1, 1), (0, 1)])


class TestChainRecovery:
    """Non-convex elements whose Delaunay triangulation misses chain segments."""

    def recovered(self, poly, monkeypatch):
        rounds = []

        def spy(*args):
            rounds.append(1)
            return rebuild(*args)

        rebuild = interp._recover
        monkeypatch.setattr(interp, "_recover", spy)
        # The first len(edge) points are the boundary chain.
        nodes, tris, _ = interp._conforming(poly.batch(), interp.BASIS_DEPTH)
        monkeypatch.undo()
        return nodes.layout()[0], tris, nodes.edge, nodes.t, len(rounds)

    def check_chain(self, poly, pts, tris, edge, t):
        n_chain = len(edge)
        tri_edges = {frozenset(e) for tri in tris.tolist()
                     for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))}
        assert all(frozenset((i, (i + 1) % n_chain)) in tri_edges for i in range(n_chain))
        at_vertex = np.flatnonzero(t == 0.0)
        assert edge[at_vertex].tolist() == list(range(len(poly.vertices)))
        assert np.array_equal(pts[at_vertex], poly.vertices)
        # Inserted points stay on their edge, in chain order.
        v = poly.vertices
        on_edge = v[edge] + t[:, None] * (np.roll(v, -1, axis=0)[edge] - v[edge])
        assert np.abs(on_edge - pts[:n_chain]).max() <= 1e-12 * np.abs(v).max()
        assert np.all(np.diff(edge) >= 0)
        assert np.all(np.diff(t)[np.diff(edge) == 0] > 0.0)

    def check_basis(self, poly):
        basis = build_basis(poly)
        assert basis.partition_residual() <= 1e-10
        assert basis.range_violation() <= 1e-10
        assert np.array_equal(basis.points[basis.loop_vertex_index], poly.vertices)

    def test_u_shape_recovers_in_one_round(self, monkeypatch):
        pts, tris, edge, t, rounds = self.recovered(U_SHAPE, monkeypatch)
        assert rounds == 1
        self.check_chain(U_SHAPE, pts, tris, edge, t)
        self.check_basis(U_SHAPE)

    @pytest.mark.parametrize("seed", [0, 5, 6, 28, 55])
    def test_stretched_star_recovers(self, seed, monkeypatch):
        poly = random_star_polygon(np.random.default_rng(seed), ratio=1e3)
        pts, tris, edge, t, rounds = self.recovered(poly, monkeypatch)
        assert rounds >= 1
        self.check_chain(poly, pts, tris, edge, t)
        self.check_basis(poly)

    def test_tiny_jitter_history_builds(self):
        # Level 3 holds the quad (0.5, 0.5)-(0.75, 0.75), whose corner at
        # (0.75, 0.5) is three nodes 4.2e-9 and 2.9e-9 apart.  Delaunay joins
        # them in a triangle that the degeneracy filter drops, and that
        # triangle's two chain segments are no other triangle's edges.
        fld = tanh_layer()
        mesh0 = generate_polygonal(4, 4, jitter=1e-8, seed=0)
        history = adaptive_loop(mesh0, fld, RefineConfig(strategy=ANISOTROPIC, max_levels=3))
        mesh = history[3][0]
        assert math.isfinite(l2_error(mesh, fld, coefficients(mesh, fld, POINTWISE)))
        for basis in interp.build_bases(mesh.geometry):
            assert basis.partition_residual() <= 1e-10
            assert basis.range_violation() <= 1e-10

    def test_coplanar_chain_node_is_bridged(self):
        # Three loop vertices on one vertical line, 1.6e-9 and 1.3e-9 apart
        # (element 3 of ISOTROPIC level 1 on generate_polygonal(4, 4, jitter
        # 4.29e-8, seed 65535)).  Qhull keeps the middle one out of every
        # triangle as coplanar; the edge between the other two carries it.
        poly = Polygon([(0.25000000714651405, 0.2500000030231513),
                        (0.25000000714651416, 0.2499999970511457), (0.25, 0.0), (0.5, 0.0),
                        (0.5000000043093643, 0.24999999798860398),
                        (0.5000000043093643, 0.24999999957828703),
                        (0.5000000043093643, 0.2500000008456034)])
        basis = build_basis(poly)
        assert basis.partition_residual() <= 1e-10
        assert basis.range_violation() <= 1e-10
        a, middle, b = basis.loop_vertex_index[4:]
        assert middle not in basis.triangles
        assert any({a, b} <= set(tri) for tri in basis.triangles.tolist())

    def test_stretched_stars_build(self):
        polys = [random_star_polygon(np.random.default_rng(s), ratio=1e3) for s in range(500)]
        for basis in interp.build_bases(polygons_of([p.vertices for p in polys])):
            assert basis.partition_residual() <= 1e-10
            assert basis.range_violation() <= 1e-10


class TestCoefficients:
    def test_constant_reproduction_all_schemes(self):
        mesh = generate_grid(2, 2, boundary_spec=NEUMANN)
        fld = constant_field(2.5)
        for scheme in (POINTWISE, CLEMENT, SCOTT_ZHANG):
            c = coefficients(mesh, fld, scheme)
            assert c.values == pytest.approx(np.full(mesh.n_nodes, 2.5), rel=1e-12)

    def test_pointwise_linear_exact(self):
        mesh = generate_polygonal(3, 3, jitter=0.2, seed=8)
        fld = linear_field(2.0, -1.0, 0.3)
        c = coefficients(mesh, fld, POINTWISE)
        assert c.values == pytest.approx(fld.value(mesh.points), rel=1e-14)

    def test_clement_center_node(self):
        mesh = generate_grid(2, 2)
        c = coefficients(mesh, linear_field(1, 0), CLEMENT, depth=2)
        assert c.values[4] == pytest.approx(0.5, rel=1e-12)

    def test_clement_zeroes_dirichlet_nodes(self):
        mesh = generate_grid(2, 2)  # all-Dirichlet boundary
        c = coefficients(mesh, constant_field(1.0), CLEMENT, depth=1)
        for i in range(mesh.n_nodes):
            if int(mesh.node_tags[i]) == DIRICHLET:
                assert c.values[i] == 0.0
            else:
                assert c.values[i] == pytest.approx(1.0, rel=1e-13)

    def test_clement_sums_patches_in_ascending_element_id(self):
        # Two isotropic levels of a grid leave hanging nodes; the side x = 0
        # is Neumann.  Some node patch iterates, as a set, in another order
        # than ascending id, and the reference sums each patch in that order.
        fld = tanh_layer()
        fine = adaptive_loop(generate_grid(4, 4), fld,
                             RefineConfig(strategy=ISOTROPIC, max_levels=2))[-1][0]
        x = fine.points[:, 0]
        spec = {(a, b): NEUMANN if x[a] == x[b] == 0.0 else DIRICHLET
                for a, b in fine.edges[fine.edge_tags != INTERIOR].tolist()}
        mesh = build_mesh(fine.points, [el.vertex_loop for el in fine.elements], spec)
        assert any(len(el.vertex_loop) > 4 for el in mesh.elements)
        assert (mesh.node_tags == NEUMANN).any()
        patches = [mesh.node_patch(i) for i in range(mesh.n_nodes)]
        assert any(list(p) != sorted(p) for p in patches)
        # Each element integral from the element alone, against the mean the
        # mesh-wide call froze.
        def value(p, w, out):
            np.multiply(w, fld.value(p), out=out[0])

        mean = integrals(mesh.geometry, value, 1).mean
        totals = [integrals(el.polygon.batch(), value, 1, mean=mean).values[0, 0]
                  for el in mesh.elements]
        want = np.zeros(mesh.n_nodes)
        for i, patch in enumerate(patches):
            if mesh.node_tags[i] == DIRICHLET:
                continue
            num = den = 0.0
            for k in sorted(patch):
                num += totals[k]
                den += mesh.elements[k].polygon.area
            want[i] = num / den
        assert np.array_equal(coefficients(mesh, fld, CLEMENT).values, want)

    def test_clement_zeroes_node_in_no_element(self):
        mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1), (5, 5)], [[0, 1, 2, 3]], NEUMANN)
        c = coefficients(mesh, constant_field(2.0), CLEMENT, depth=1)
        assert c.values[4] == 0.0 and c.values[:4] == pytest.approx(np.full(4, 2.0), rel=1e-13)

    def test_scott_zhang_edge_choice(self):
        mesh = build_mesh(UNIT_SQUARE.vertices, [[0, 1, 2, 3]])
        c = coefficients(mesh, linear_field(1, 0), SCOTT_ZHANG)
        # Node 0: tie between bottom and left edges resolved by lowest id;
        # the bottom edge (0, 1) has the mean 0.5.
        assert c.values[0] == pytest.approx(0.5, rel=1e-12)

    def test_scott_zhang_dirichlet_node_uses_dirichlet_edge(self):
        spec = {(0, 1): DIRICHLET, (1, 2): NEUMANN, (2, 3): NEUMANN, (0, 3): NEUMANN}
        mesh = build_mesh(UNIT_SQUARE.vertices, [[0, 1, 2, 3]], spec)
        fld = linear_field(0.0, 1.0)  # vanishes on the Dirichlet edge y = 0
        c = coefficients(mesh, fld, SCOTT_ZHANG)
        assert c.values[0] == pytest.approx(0.0, abs=1e-13)
        assert c.values[1] == pytest.approx(0.0, abs=1e-13)

    def test_no_admissible_edge(self):
        mesh = generate_grid(2, 2)
        mesh.node_tags[4] = DIRICHLET  # interior node mislabelled
        with pytest.raises(NoAdmissibleEdge):
            coefficients(mesh, constant_field(1.0), SCOTT_ZHANG)


class TestInterpolantAndError:
    def test_pointwise_reproduces_linear(self, rng):
        mesh = generate_polygonal(3, 3, jitter=0.25, seed=13)
        fld = linear_field(1.3, -0.4, 0.2)
        c = coefficients(mesh, fld, POINTWISE)
        cache = BasisCache()
        err = l2_error(mesh, fld, c, cache=cache)
        assert err <= 1e-8

    def test_interpolant_value_linear(self):
        mesh = generate_grid(2, 2)
        fld = linear_field(1.0, 2.0)
        c = coefficients(mesh, fld, POINTWISE)
        bases = {el.id: build_basis(el.polygon) for el in mesh.elements}
        for p in [(0.3, 0.3), (0.77, 0.15), (0.5, 0.5)]:
            got = interpolant_at(mesh, bases, c, p)
            assert got == pytest.approx(fld.value(np.asarray(p)), abs=1e-10)

    def test_reproduces_own_basis_member(self):
        mesh = build_mesh(UNIT_SQUARE.vertices, [[0, 1, 2, 3]])
        basis = build_basis(mesh.elements[0].polygon, depth=3)

        member = ScalarField(
            value=lambda p: basis.evaluate(np.eye(4)[2], np.atleast_2d(p)),
            gradient=None,
            hessian=None,
            label="psi2",
        )
        c = coefficients(mesh, member, POINTWISE)
        assert c.values == pytest.approx(np.eye(4)[2], abs=1e-12)
        err = element_l2_error(basis, c.values[mesh.elements[0].vertex_loop], member)
        assert math.sqrt(max(err, 0.0)) <= 1e-10

    def test_clement_vanishes_on_dirichlet_boundary(self):
        mesh = generate_grid(2, 2)  # Dirichlet everywhere
        fld = tanh_layer()
        c = coefficients(mesh, fld, CLEMENT, depth=3)
        bases = {el.id: build_basis(el.polygon) for el in mesh.elements}
        for p in [(0.3, 0.0), (1.0, 0.7), (0.0, 0.2), (0.6, 1.0)]:
            val = interpolant_at(mesh, bases, c, p)
            assert val == pytest.approx(0.0, abs=1e-10)

    def test_depth_refinement_stability(self):
        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=4)
        history = adaptive_loop(generate_grid(4, 4), tanh_layer(), cfg)
        mesh = history[-1][0]
        fld = tanh_layer()
        c = coefficients(mesh, fld, POINTWISE)
        e_coarse = l2_error(mesh, fld, c, depth=3)
        e_fine = l2_error(mesh, fld, c, depth=4)
        assert abs(e_fine - e_coarse) / e_fine < 0.05

    def test_linear_reproduction_with_hanging_nodes(self):
        # Hanging nodes are real degrees of freedom: pointwise interpolation
        # of a linear field stays exact on a mesh carrying them.
        mesh = generate_grid(2, 2)
        fld0 = tanh_layer()
        from anisomesh.indicator import eta_global
        from anisomesh.refine import refine

        rep = eta_global(mesh, fld0, depth=2)
        refined, step = refine(mesh, {0}, strategy=ANISOTROPIC, report=rep)
        has_hanging = any(
            len(el.vertex_loop) > 4 for el in refined.elements
        )
        assert has_hanging
        fld = linear_field(0.9, -1.7, 0.4)
        c = coefficients(refined, fld, POINTWISE)
        assert l2_error(refined, fld, c) <= 1e-8

    def test_l2_error_decreases_with_adaptation(self):
        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=5)
        history = adaptive_loop(generate_grid(4, 4), tanh_layer(), cfg)
        fld = tanh_layer()
        cache = BasisCache()
        errs = []
        for mesh, _ in history[::2]:
            c = coefficients(mesh, fld, POINTWISE)
            errs.append(l2_error(mesh, fld, c, cache=cache))
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestL2Pass:
    def test_order_5_rule_against_order_13(self, monkeypatch):
        # v_h is linear on each sub-triangle, so 9 points of order 5 there
        # resolve the L2 error of the ANISOTROPIC 12-level mesh, its slivers
        # included, as 49 points of order 13 do (-5.3e-5 relative).
        fld = tanh_layer()
        mesh = adaptive_loop(generate_grid(4, 4), fld,
                             RefineConfig(strategy=ANISOTROPIC, max_levels=12))[-1][0]
        coeffs = coefficients(mesh, fld, POINTWISE)
        cache = BasisCache()
        assert interp.L2_RULE.order == 5 and len(interp.L2_RULE.weights) == 9
        got = l2_error(mesh, fld, coeffs, cache=cache)
        fine = triangle_rule(13)
        bary = np.column_stack([1.0 - fine.points[:, 0] - fine.points[:, 1], fine.points])
        monkeypatch.setattr(interp, "L2_RULE", fine)
        monkeypatch.setattr(interp, "_MAP", np.column_stack([bary.T, interp._MAP[:, -2:]]))
        want = l2_error(mesh, fld, coeffs, cache=cache)
        assert got != want and abs(got - want) <= 1e-4 * want

    def test_sets_share_one_field_evaluation(self):
        # Every chunk evaluates the field once for all sets; each set's parts
        # are those of its own call, bit for bit.
        mesh = adaptive_loop(generate_polygonal(3, 3, jitter=0.2, seed=4), tanh_layer(),
                             RefineConfig(strategy=ANISOTROPIC, max_levels=2))[-1][0]
        calls = []

        def value(p):
            calls.append(np.shape(p))
            return tanh_layer().value(p)

        fld = ScalarField(value, None, None)
        sets = [coefficients(mesh, tanh_layer(), s) for s in (POINTWISE, CLEMENT)]
        cache = BasisCache()
        both = l2_parts(mesh, fld, sets, cache=cache)
        n_calls = len(calls)
        single = [l2_parts(mesh, fld, c, cache=cache) for c in sets]
        assert len(calls) == 3 * n_calls
        assert all(np.array_equal(a, b) for a, b in zip(both, single))
        assert l2_error(mesh, fld, sets, cache=cache) == [l2_error(mesh, fld, c, cache=cache)
                                                         for c in sets]

    def test_key_group_over_many_chunks_matches_lone_elements(self):
        # 256 cells of one similarity key fill many chunks; each part is the
        # one its cell gets as the only element of a mesh.
        fld = tanh_layer()
        mesh = generate_grid(16, 16)
        cache = BasisCache()
        parts = l2_parts(mesh, fld, coefficients(mesh, fld, POINTWISE), cache=cache)
        basis = cache.store[next(iter(cache.store))]
        assert len(cache.store) == 1
        points = mesh.n_elements * len(basis.triangles) * len(interp.L2_RULE.weights)
        assert points > 8 * interp.CHUNK
        for el, part in zip(mesh.elements, parts):
            lone = build_mesh(mesh.points[el.vertex_loop], [[0, 1, 2, 3]])
            assert np.array_equal(l2_parts(lone, fld, coefficients(lone, fld, POINTWISE),
                                           cache=cache), [part])

    def test_coefficients_of_another_mesh_raise(self):
        fld = tanh_layer()
        history = adaptive_loop(generate_grid(4, 4), fld,
                                RefineConfig(strategy=ANISOTROPIC, max_levels=2))
        coarse, fine = history[0][0], history[-1][0]
        assert fine.n_nodes > coarse.n_nodes
        fine_pw = coefficients(fine, fld, POINTWISE)
        for coeffs in (fine_pw, [coefficients(coarse, fld, POINTWISE), fine_pw]):
            with pytest.raises(ValueError, match="coefficients"):
                l2_parts(coarse, fld, coeffs)
            with pytest.raises(ValueError, match="coefficients"):
                l2_error(coarse, fld, coeffs)
