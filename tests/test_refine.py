import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisomesh.fields import constant_field, tanh_layer
from anisomesh.indicator import IndicatorReport, eta_global, gram_elements
from anisomesh.quadrature import MAX_DEPTH
from anisomesh.mesh import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    build_mesh,
    generate_grid,
    generate_polygonal,
)
from anisomesh.refine import (
    ANISOTROPIC,
    ISOTROPIC,
    UNIFORM,
    RefineConfig,
    adaptive_loop,
    cut_directions,
    mark,
    refine,
)


def fake_report(eta_locals, grams=None):
    eta = np.asarray(eta_locals, dtype=float)
    if grams is None:
        grams = np.zeros((len(eta), 2, 2))
    return IndicatorReport(
        eta_local=eta,
        eta_global=math.sqrt(float(eta.sum())),
        gram=np.asarray(grams, dtype=float),
        marked=set(),
    )


class TestMark:
    def test_outlier_marked(self):
        report = fake_report([1.0, 1.0, 10.0])
        assert mark(report, 3, 0.9) == {2}

    def test_equal_values_all_marked(self):
        report = fake_report([2.0, 2.0, 2.0, 2.0])
        assert mark(report, 4, 0.9) == {0, 1, 2, 3}

    def test_zeros_none_marked(self):
        report = fake_report([0.0, 0.0])
        assert mark(report, 2, 0.9) == set()

    def test_brute_force_equivalence(self, rng):
        for _ in range(100):
            vals = rng.uniform(0.0, 1.0, int(rng.integers(1, 40))) ** 2
            report = fake_report(vals)
            expected = {
                i
                for i, v in enumerate(vals)
                if v > 0.9 * report.eta_global ** 2 / len(vals)
            }
            assert mark(report, len(vals), 0.9) == expected


class TestSplitDirection:
    def test_isotropic_rectangle(self):
        mesh = build_mesh([(0, 0), (2, 0), (2, 1), (0, 1)], [[0, 1, 2, 3]])
        d = cut_directions(mesh.elements[0].polygon.batch(), None, ISOTROPIC)[0]
        assert d == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_anisotropic_from_gram(self):
        mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])
        report = fake_report([1.0], [np.array([[1.0, 0.0], [0.0, 0.0]])])
        d = cut_directions(mesh.elements[0].polygon.batch(), report.gram, ANISOTROPIC)[0]
        assert d == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_isotropic_tie_canonical(self):
        mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])
        d = cut_directions(mesh.elements[0].polygon.batch(), None, ISOTROPIC)[0]
        assert d == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_anisotropic_near_tie_takes_x_axis(self):
        # Gram eigenvalues 2e-13 apart, under 1e-12 of the trace: a tie, so the
        # cut is orthogonal to the x-axis, not to the diagonal eigenvector.
        mesh = build_mesh([(0, 0), (2, 0), (2, 1), (0, 1)], [[0, 1, 2, 3]])
        report = fake_report([1.0], [np.array([[1.0, 1e-13], [1e-13, 1.0]])])
        d = cut_directions(mesh.elements[0].polygon.batch(), report.gram, ANISOTROPIC)[0]
        assert d == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_zero_gram_falls_back_to_isotropic(self):
        mesh = build_mesh([(0, 0), (2, 0), (2, 1), (0, 1)], [[0, 1, 2, 3]])
        report = fake_report([0.0], [np.zeros((2, 2))])
        d = cut_directions(mesh.elements[0].polygon.batch(), report.gram, ANISOTROPIC)[0]
        assert d == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_orthogonality_to_selected_eigenvector(self, rng):
        mesh = build_mesh([(0, 0), (2, 0), (2, 1), (0, 1)], [[0, 1, 2, 3]])
        for _ in range(20):
            g = rng.uniform(-1, 1, (2, 2))
            g = g @ g.T
            report = fake_report([1.0], [g])
            d = cut_directions(mesh.elements[0].polygon.batch(), report.gram,
                               ANISOTROPIC)[0]
            w, v = np.linalg.eigh(g)
            largest = v[:, np.argmax(w)]
            assert abs(float(d @ largest)) < 1e-12


class TestRefine:
    def test_uniform_single_square(self):
        mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])
        out, step = refine(mesh, set(), strategy=UNIFORM)
        assert out.n_elements == 2
        assert out.n_nodes == 6
        assert step.parent_children == {0: (0, 1)}
        assert len(step.new_nodes) == 2
        out.validate()

    @staticmethod
    def two_squares():
        nodes = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]
        return build_mesh(nodes, [[0, 1, 4, 5], [1, 2, 3, 4]])

    def test_vertical_cut_leaves_neighbour_loop(self):
        # The left square's tie rule gives a vertical cut whose endpoints
        # land on the top and bottom edges, away from the shared edge.
        mesh = self.two_squares()
        out, step = refine(mesh, {0}, strategy=ISOTROPIC)
        assert out.n_elements == 3
        right = [el for el in out.elements if el.polygon.centroid[0] > 1.2]
        assert len(right) == 1
        assert len(right[0].vertex_loop) == 4
        out.validate()

    def test_horizontal_cut_adds_hanging_node(self):
        mesh = self.two_squares()
        report = fake_report([1.0, 0.0], [np.array([[0.0, 0.0], [0.0, 1.0]]),
                                          np.zeros((2, 2))])
        out, step = refine(mesh, {0}, strategy=ANISOTROPIC, report=report)
        assert out.n_elements == 3
        right = [el for el in out.elements if el.polygon.centroid[0] > 1.2]
        assert len(right[0].vertex_loop) == 5  # gained the hanging node
        out.validate()

    def test_skips_logged_once_in_ascending_order(self, monkeypatch, caplog):
        # Two elements get a zero cut direction, so both candidates miss; the
        # benchmark's marking check reads the skips in this log order.
        from anisomesh import refine as refine_mod

        chosen = {11, 3}
        original = refine_mod.cut_directions

        def zero_for_chosen(loops, grams, strategy):
            # UNIFORM splits every element, so row k is element k.
            d = original(loops, grams, strategy)
            d[sorted(chosen)] = 0.0
            return d

        monkeypatch.setattr(refine_mod, "cut_directions", zero_for_chosen)
        mesh = generate_grid(4, 4)
        with caplog.at_level("WARNING", logger="anisomesh.refine"):
            out, step = refine(mesh, set(), strategy=UNIFORM)
        assert step.skipped == [3, 11]
        assert [r.getMessage() for r in caplog.records] == [
            f"element {eid} skipped: zero cut direction; zero cut direction" for eid in (3, 11)]
        assert sorted(step.parent_children) == [k for k in range(16) if k not in chosen]
        assert out.n_elements == 16 + 14
        out.validate()

    def test_orthogonal_fallback(self, monkeypatch):
        # The centroid of this notched square is its reflex vertex (1, a), so a
        # cut along the edge from (1, a) to (0, 2) has no interior chord; the
        # orthogonal cut is used instead.
        from anisomesh import refine as refine_mod

        a = math.sqrt(3.0) - 1.0
        mesh = build_mesh([(0, 0), (2, 0), (2, 2), (1, a), (0, 2)], [[0, 1, 2, 3, 4]])
        along = np.array([-1.0, 2.0 - a])
        monkeypatch.setattr(refine_mod, "cut_directions",
                            lambda loops, grams, strategy: np.tile(along, (len(loops.sizes), 1)))
        out, step = refine(mesh, {0}, strategy=ISOTROPIC)
        assert step.skipped == []
        assert step.parent_children == {0: (0, 1)}
        assert np.array_equal(step.directions[0],
                              np.array([-along[1], along[0]]) / np.hypot(*along))
        out.validate()

    def test_boundary_tags_inherited(self):
        mesh = generate_grid(1, 1)
        out, _ = refine(mesh, {0}, strategy=UNIFORM)
        assert set(out.edge_tags.tolist()) == {INTERIOR, DIRICHLET}
        assert np.count_nonzero(out.edge_tags == INTERIOR) == 1  # the cut chord

    @pytest.mark.parametrize("strategy,levels", [(UNIFORM, 5), (ANISOTROPIC, 8)])
    def test_mixed_boundary_tags_through_levels(self, strategy, levels):
        # Neumann on x = 1, Dirichlet elsewhere: every sub-segment of a side
        # keeps that side's tag, and so does every node inserted on it.
        grid = generate_grid(4, 4)
        on_right = grid.points[:, 0] == 1.0
        spec = {
            (a, b): NEUMANN if on_right[a] and on_right[b] else DIRICHLET
            for a, b in grid.edges[grid.edge_tags != INTERIOR].tolist()
        }
        cfg = RefineConfig(strategy=strategy, max_levels=levels)
        mesh = adaptive_loop(generate_grid(4, 4, spec), tanh_layer(), cfg)[-1][0]
        tagged = mesh.edge_tags != INTERIOR
        right = np.all(mesh.points[mesh.edges[tagged], 0] == 1.0, axis=1)
        assert np.array_equal(mesh.edge_tags[tagged] == NEUMANN, right)
        assert right.sum() > 4  # the right side was split

    @pytest.mark.parametrize("eid", [-1, 4])
    def test_out_of_range_marked_id_rejected(self, eid):
        with pytest.raises(ValueError, match=rf"\[{eid}\]"):
            refine(generate_grid(2, 2), {0, eid}, strategy=ISOTROPIC)

    def test_conservation_over_uniform_levels(self):
        mesh = generate_grid(1, 1)
        for _ in range(6):
            mesh, _ = refine(mesh, set(), strategy=UNIFORM)
            mesh.validate()
            assert mesh.total_area() == pytest.approx(1.0, rel=1e-10)
        assert mesh.n_elements == 64

    def test_shared_cut_points_deduplicated(self):
        # Both squares cut vertically insert the same midpoints on the
        # shared edge structure without duplicating nodes.
        mesh = generate_grid(2, 1)
        out, _ = refine(mesh, {0, 1}, strategy=ISOTROPIC)
        assert out.n_elements == 4
        coords = {tuple(np.round(p, 12)) for p in out.points}
        assert len(coords) == out.n_nodes  # all nodes distinct
        out.validate()

    def test_directions_recorded_orthogonal(self, rng):
        mesh = generate_polygonal(3, 3, jitter=0.2, seed=4)
        report = eta_global(mesh, tanh_layer(), depth=2)
        out, step = refine(mesh, set(range(mesh.n_elements)), ANISOTROPIC, report)
        for eid, d in step.directions.items():
            g = report.gram[eid]
            if g.trace() <= 0.0:
                continue  # saturated field: isotropic fallback applies
            w, v = np.linalg.eigh(g)
            largest = v[:, np.argmax(w)]
            smallest = v[:, np.argmin(w)]
            # Orthogonal to the largest eigenvector, or to the smallest when
            # the primary cut degenerated and the orthogonal retry was used.
            assert min(abs(float(d @ largest)), abs(float(d @ smallest))) < 1e-9
        out.validate()


class TestChildRayleigh:
    def test_children_reduce_dominant_term(self):
        # After an anisotropic split, each child's leading spectral term
        # (with the parent's gradient data restricted to the child) does not
        # exceed the parent's.
        fld = tanh_layer()
        mesh = generate_grid(4, 4)
        report = eta_global(mesh, fld)
        marked = mark(report, mesh.n_elements, 0.9)
        out, step = refine(mesh, marked, ANISOTROPIC, report)
        for parent, children in step.parent_children.items():
            p_poly = mesh.elements[parent].polygon
            sp = p_poly.spectrum
            g_parent = report.gram[parent]
            parent_term = sp.lambda1 * float(sp.u1 @ g_parent @ sp.u1)
            for child in children:
                c_poly = out.elements[child].polygon
                sc = c_poly.spectrum
                g_child = gram_elements(c_poly.batch(), fld, depth=4)[0]
                child_term = sc.lambda1 * float(sc.u1 @ g_child @ sc.u1)
                assert child_term <= parent_term * (1.0 + 1e-6) + 1e-12


class TestAdaptiveLoop:
    def test_constant_field_terminates_immediately(self):
        mesh = generate_grid(2, 2)
        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=5)
        history = adaptive_loop(mesh, constant_field(3.0), cfg)
        assert len(history) == 1
        assert history[0][1].marked == set()

    def test_eta_monotone_decrease(self):
        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=6)
        history = adaptive_loop(generate_grid(4, 4), tanh_layer(), cfg)
        etas = [rep.eta_global for _, rep in history]
        assert all(b < a for a, b in zip(etas, etas[1:]))

    def test_marked_elements_concentrate_on_layers(self):
        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=5)
        history = adaptive_loop(generate_grid(4, 4), tanh_layer(), cfg)
        for mesh, rep in history[3:]:
            near = 0
            for eid in rep.marked:
                c = mesh.elements[eid].polygon.centroid
                d1 = abs(c[1])
                d2 = abs(c[1] - (c[0] - 0.5)) / math.sqrt(2.0)
                if min(d1, d2) < 0.1:
                    near += 1
            if rep.marked:
                assert near / len(rep.marked) >= 0.8

    def test_topology_valid_every_level(self):
        cfg = RefineConfig(strategy=ISOTROPIC, max_levels=5)
        history = adaptive_loop(generate_polygonal(3, 3, jitter=0.2, seed=1),
                                tanh_layer(), cfg)
        assert len(history) == 6
        for mesh, _ in history:
            mesh.validate()
            assert mesh.total_area() == pytest.approx(1.0, rel=1e-10)

    def test_uniform_marks_everything(self):
        cfg = RefineConfig(strategy=UNIFORM, max_levels=2)
        history = adaptive_loop(generate_grid(2, 2), tanh_layer(), cfg)
        sizes = [m.n_elements for m, _ in history]
        assert sizes == [4, 8, 16]

    def test_continue_from_saved_mesh(self, tmp_path):
        # A mid-run mesh written to disk (hanging nodes included) can be
        # reloaded and refined further.
        from anisomesh.mesh import load_mesh, save_mesh

        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=3)
        history = adaptive_loop(generate_grid(4, 4), tanh_layer(), cfg)
        mid = history[-1][0]
        path = tmp_path / "mid.mesh"
        save_mesh(mid, path)
        resumed = load_mesh(path)
        resumed.validate()
        more = adaptive_loop(resumed, tanh_layer(), RefineConfig(strategy=ANISOTROPIC,
                                                                 max_levels=2))
        assert more[-1][0].n_elements > mid.n_elements
        more[-1][0].validate()
        assert more[-1][1].eta_global < history[-1][1].eta_global

    def test_node_valence_stays_bounded(self):
        # Each node belongs to a small number of elements, and the maximum
        # stops growing once hanging-node patterns appear.
        cfg = RefineConfig(strategy=ANISOTROPIC, max_levels=8)
        history = adaptive_loop(generate_grid(4, 4), tanh_layer(), cfg)
        valences = [m.max_elements_per_node() for m, _ in history]
        cap = max(valences[:4])
        assert all(v <= cap for v in valences)


@pytest.mark.parametrize("strategy,levels", [(ANISOTROPIC, 12), (ISOTROPIC, 14), (UNIFORM, 9)])
def test_refined_topology_equals_the_mesh_rebuilt_from_its_loops(strategy, levels):
    # Refinement hands build_mesh flat loops; the same loops as nested lists,
    # with the refined boundary tags, must give the same arrays.
    cfg = RefineConfig(strategy=strategy, max_levels=levels)
    for mesh, _ in adaptive_loop(generate_grid(4, 4), tanh_layer(), cfg)[1:]:
        tagged = mesh.edge_tags != INTERIOR
        spec = dict(zip(map(tuple, mesh.edges[tagged].tolist()), mesh.edge_tags[tagged].tolist()))
        rebuilt = build_mesh(mesh.points, [el.vertex_loop.tolist() for el in mesh.elements], spec)
        assert np.array_equal(mesh.geometry.sizes, rebuilt.geometry.sizes)
        for name in ("loop_nodes", "edges", "edge_tags", "node_tags", "patch_starts",
                     "patch_elements"):
            mine, theirs = getattr(mesh, name), getattr(rebuilt, name)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name


class TestRefineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(marking_factor=0.0)
        with pytest.raises(ValueError):
            RefineConfig(max_levels=0)
        with pytest.raises(ValueError):
            RefineConfig(strategy="SIDEWAYS")

    @pytest.mark.parametrize("depth", [-1, MAX_DEPTH + 1, 12])
    def test_quad_depth_outside_the_rule_rejected(self, depth):
        # Constructed only: depth 12 would integrate 16 4^12 points per fan triangle.
        with pytest.raises(ValueError):
            RefineConfig(quad_depth=depth)
        assert RefineConfig(quad_depth=MAX_DEPTH).quad_depth == MAX_DEPTH


def neumann_on_two_sides(mesh):
    """``mesh`` rebuilt with NEUMANN on the sides x = 0 and y = 1, DIRICHLET elsewhere."""
    x, y = mesh.points.T
    spec = {
        (a, b): NEUMANN if (x[a] == x[b] == 0.0) or (y[a] == y[b] == 1.0) else DIRICHLET
        for a, b in mesh.edges[mesh.edge_tags != INTERIOR].tolist()
    }
    return build_mesh(mesh.points, [el.vertex_loop for el in mesh.elements], spec)


def boundary_segments(mesh):
    tagged = np.flatnonzero(mesh.edge_tags != INTERIOR)
    return mesh.points[mesh.edges[tagged]], mesh.edge_tags[tagged]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    cells=st.integers(3, 5),
    jitter=st.floats(0.0, 0.3),
    strategy=st.sampled_from([ANISOTROPIC, ISOTROPIC, UNIFORM]),
    levels=st.integers(2, 3),
)
def test_refinement_invariants_on_polygonal_meshes(seed, cells, jitter, strategy, levels):
    mesh0 = neumann_on_two_sides(generate_polygonal(cells, cells, jitter=jitter, seed=seed))
    history = adaptive_loop(mesh0, tanh_layer(), RefineConfig(strategy=strategy, max_levels=levels))
    for mesh, _ in history:
        assert math.fsum(el.polygon.area for el in mesh.elements) == pytest.approx(1.0, rel=1e-12)
        # Loop membership of every undirected edge: two loops inside, one on the boundary.
        members = Counter(
            (min(a, b), max(a, b))
            for loop in (el.vertex_loop.tolist() for el in mesh.elements)
            for a, b in zip(loop, loop[1:] + loop[:1])
        )
        assert sorted(members) == [tuple(e) for e in mesh.edges.tolist()]
        want = np.where(mesh.edge_tags == INTERIOR, 2, 1)
        assert [members[tuple(e)] for e in mesh.edges.tolist()] == want.tolist()
    for (parent, _), (child, _) in zip(history, history[1:]):
        # Every child boundary edge lies on parent boundary edges, all of its tag.
        segs, tags = boundary_segments(parent)
        p0, d = segs[:, 0], segs[:, 1] - segs[:, 0]
        for (a, b), tag in zip(*boundary_segments(child)):
            on = np.ones(len(segs), dtype=bool)
            for q in (a, b):
                t = np.clip(((q - p0) * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
                on &= np.hypot(*(p0 + t[:, None] * d - q).T) <= 1e-12
            assert on.any()
            assert set(tags[on].tolist()) == {tag}


def edge_ring(parent, child, loop):
    """``loop`` of ``parent`` with every node new in ``child`` that lies inside
    one of its edges, in order along the edge: the ring children are arcs of."""
    new = np.arange(parent.n_nodes, child.n_nodes)
    q = child.points[new]
    ring = []
    for a, b in zip(loop, loop[1:] + loop[:1]):
        ring.append(a)
        p0, d = parent.points[a], parent.points[b] - parent.points[a]
        t = (q - p0) @ d / (d @ d)
        on = (t > 0.0) & (t < 1.0) & (np.hypot(*(p0 + t[:, None] * d - q).T) <= 1e-12)
        ring.extend(new[on][np.argsort(t[on])].tolist())
    return ring


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    cells=st.integers(3, 5),
    jitter=st.floats(0.0, 0.3),
    strategy=st.sampled_from([ANISOTROPIC, ISOTROPIC, UNIFORM]),
    levels=st.integers(1, 3),
)
def test_children_are_arcs_of_the_parent_ring(seed, cells, jitter, strategy, levels):
    # The two children of a split element run from one cut end to the other
    # around the parent loop extended by this level's hanging nodes; they
    # share exactly the cut ends.  An element not split keeps that ring.
    fld = tanh_layer()
    mesh = generate_polygonal(cells, cells, jitter=jitter, seed=seed)
    for _ in range(levels):
        report = eta_global(mesh, fld)
        child, step = refine(mesh, mark(report, mesh.n_elements), strategy, report)
        loops = [el.vertex_loop.tolist() for el in child.elements]
        for el in mesh.elements:
            ring = edge_ring(mesh, child, el.vertex_loop.tolist())
            if el.id not in step.parent_children:
                assert loops[step.parent_of.tolist().index(el.id)] == ring
                continue
            a, b = (loops[c] for c in step.parent_children[el.id])
            lo, hi = a[0], a[-1]
            assert (b[0], b[-1]) == (hi, lo)
            assert set(a) & set(b) == {lo, hi}
            k = ring.index(lo)
            assert ring[k:] + ring[:k] == a + b[1:-1]
        mesh = child
