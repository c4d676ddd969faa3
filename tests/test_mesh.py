import math

import numpy as np
import pytest

from anisomesh.errors import InvalidTopology, ParseError
from anisomesh.fields import tanh_layer
from anisomesh.mesh import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    build_mesh,
    generate_grid,
    generate_polygonal,
    load_mesh,
    save_mesh,
)
from anisomesh.refine import ISOTROPIC, RefineConfig, adaptive_loop

UNIT_SQUARE_NODES = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def hanging_node_mesh():
    """Bottom square split at x = 0.5; the top square keeps the full edge and
    acquires the midpoint as a fifth loop node with interior angle pi."""
    nodes = [
        (0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
        (0.0, 1.0), (0.5, 1.0), (1.0, 1.0),
        (0.0, 2.0), (1.0, 2.0),
    ]
    loops = [
        [0, 1, 4, 3],
        [1, 2, 5, 4],
        [3, 4, 5, 7, 6],
    ]
    return build_mesh(nodes, loops)


class TestBuildMesh:
    def test_single_square(self):
        mesh = build_mesh(UNIT_SQUARE_NODES, [[0, 1, 2, 3]])
        assert mesh.n_nodes == 4
        assert len(mesh.edges) == 4
        assert mesh.n_elements == 1
        assert mesh.domain_area == pytest.approx(1.0)
        assert mesh.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
        assert np.all(mesh.edge_tags != INTERIOR)

    def test_2x2_grid_counts(self):
        mesh = generate_grid(2, 2)
        assert mesh.n_nodes == 9
        assert len(mesh.edges) == 12
        assert mesh.n_elements == 4
        mesh.validate()

    def test_hanging_node(self):
        mesh = hanging_node_mesh()
        assert len(mesh.elements[2].vertex_loop) == 5
        # Element views read the flat loops; they cannot write them.
        assert not mesh.elements[2].vertex_loop.flags.writeable
        assert np.shares_memory(mesh.elements[2].vertex_loop, mesh.loop_nodes)
        mesh.validate()
        # The hanging node (id 4) belongs to all three elements.
        assert mesh.node_patch(4) == {0, 1, 2}

    def test_orientation_mismatch_rejected(self):
        with pytest.raises(InvalidTopology):
            build_mesh(UNIT_SQUARE_NODES, [[0, 3, 2, 1]])

    def test_overlapping_elements_rejected(self):
        nodes = UNIT_SQUARE_NODES + [(2.0, 0.0), (2.0, 1.0)]
        with pytest.raises(InvalidTopology):
            build_mesh(nodes, [[0, 1, 2, 3], [0, 1, 2, 3]])

    def test_area_mismatch_rejected(self):
        # A triangle double-covering half the square: element areas sum to
        # 1.5 while the oriented boundary encloses only 0.5.
        with pytest.raises(InvalidTopology):
            build_mesh(UNIT_SQUARE_NODES, [[0, 1, 2, 3], [0, 1, 2]])

    def test_repeated_node_in_loop_rejected(self):
        with pytest.raises(InvalidTopology):
            build_mesh(UNIT_SQUARE_NODES, [[0, 1, 2, 1]])

    def test_boundary_spec_variants(self):
        spec = {(0, 1): NEUMANN, (1, 2): DIRICHLET, (2, 3): DIRICHLET, (0, 3): DIRICHLET}
        mesh = build_mesh(UNIT_SQUARE_NODES, [[0, 1, 2, 3]], spec)
        tags = dict(zip(map(tuple, mesh.edges.tolist()), mesh.edge_tags.tolist()))
        assert tags == spec
        # Junction nodes carry the Dirichlet tag.
        assert int(mesh.node_tags[0]) == DIRICHLET
        assert int(mesh.node_tags[1]) == DIRICHLET

        mesh = build_mesh(UNIT_SQUARE_NODES, [[0, 1, 2, 3]], NEUMANN)
        assert set(mesh.edge_tags.tolist()) == {NEUMANN}


class TestValidate:
    @staticmethod
    def corrupt_edge_row(mesh):
        mesh.edges[3, 1] += 1

    @staticmethod
    def corrupt_boundary_tag(mesh):
        mesh.edge_tags[np.flatnonzero(mesh.edge_tags)[0]] = INTERIOR

    @staticmethod
    def corrupt_node_patch(mesh):
        # Node 5 loses the last element of its patch to node 6's.
        mesh.patch_starts[6] -= 1

    @pytest.mark.parametrize("corrupt", ["corrupt_edge_row", "corrupt_boundary_tag",
                                         "corrupt_node_patch"])
    def test_corrupt_table_rejected(self, corrupt):
        mesh = generate_polygonal(3, 3)
        assert mesh.validate()
        getattr(self, corrupt)(mesh)
        with pytest.raises(InvalidTopology):
            mesh.validate()


class TestPatches:
    def test_corner_node_single_element(self):
        mesh = build_mesh(UNIT_SQUARE_NODES, [[0, 1, 2, 3]])
        assert mesh.node_patch(0) == {0}

    def test_center_node_2x2(self):
        mesh = generate_grid(2, 2)
        assert mesh.node_patch(4) == {0, 1, 2, 3}

    def test_interior_edge_patch_2x2(self):
        mesh = generate_grid(2, 2)
        interior = mesh.edges[mesh.edge_tags == INTERIOR]
        assert len(interior) == 4
        for e in interior:
            assert mesh.edge_patch(e) == {0, 1, 2, 3}

    def test_single_element_edge_patch(self):
        mesh = build_mesh(UNIT_SQUARE_NODES, [[0, 1, 2, 3]])
        assert mesh.edge_patch(mesh.edges[0]) == {0}

    def test_element_patch_2x2(self):
        mesh = generate_grid(2, 2)
        assert sorted(mesh.element_patch(0)) == [0, 1, 2, 3]

    def test_element_patch_contains_self(self):
        mesh = generate_polygonal(3, 3, jitter=0.15, seed=5)
        for el in mesh.elements:
            assert el.id in mesh.element_patch(el.id)

    def test_patches_are_csr_of_the_loops(self):
        mesh = hanging_node_mesh()
        assert mesh.patch_starts.tolist() == [0, 1, 3, 4, 6, 9, 11, 12, 13]
        assert mesh.patch_elements.tolist() == [0, 0, 1, 1, 0, 2, 0, 1, 2, 1, 2, 2, 2]
        assert mesh.edge_patch((1, 4)) == {0, 1, 2}
        assert mesh.element_patch(0) == {0, 1, 2}

    def test_neighbour_pairs_match_set_reference(self):
        # Every pair of elements sharing a node, from per-node sets.
        mesh = adaptive_loop(generate_grid(3, 3), tanh_layer(),
                             RefineConfig(strategy=ISOTROPIC, max_levels=2))[-1][0]
        assert any(len(el.vertex_loop) > 4 for el in mesh.elements)
        node_elems = [set() for _ in range(mesh.n_nodes)]
        for el in mesh.elements:
            for i in el.vertex_loop.tolist():
                node_elems[i].add(el.id)
        pairs = {(a, b) for elems in node_elems for a in elems for b in elems if a < b}
        assert mesh.neighbour_pairs() == sorted(pairs)
        assert mesh.max_elements_per_node() == max(map(len, node_elems))
        assert [mesh.node_patch(i) for i in range(mesh.n_nodes)] == node_elems

    def test_patch_symmetry(self):
        mesh = hanging_node_mesh()
        for i in range(mesh.n_nodes):
            for eid in mesh.node_patch(i):
                assert i in mesh.elements[eid].vertex_loop


class TestIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        mesh = generate_polygonal(3, 2, jitter=0.3, seed=7)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert back.n_nodes == mesh.n_nodes
        assert np.array_equal(back.points, mesh.points)
        assert np.array_equal(back.node_tags, mesh.node_tags)
        assert [el.vertex_loop.tolist() for el in back.elements] == [
            el.vertex_loop.tolist() for el in mesh.elements
        ]
        # Second round trip is byte identical.
        path2 = tmp_path / "mesh2.txt"
        save_mesh(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_round_trip_irrational_coords(self, tmp_path):
        nodes = [(0.0, 0.0), (math.pi, 1e-30), (math.pi, math.sqrt(2)), (0.0, 1.0 / 3.0)]
        mesh = build_mesh(nodes, [[0, 1, 2, 3]])
        path = tmp_path / "m.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.points, mesh.points)

    def test_comments_and_blank_lines(self, tmp_path):
        text = """# a polygonal mesh
polymesh 2 1
4
0 0 2
1 0 2

1 1 2
0 1 2
# the element
1
4 0 1 2 3
"""
        path = tmp_path / "commented.txt"
        path.write_text(text)
        mesh = load_mesh(path)
        assert mesh.n_elements == 1

    @pytest.mark.parametrize(
        "text",
        [
            "polymesh 3 1\n0\n0\n",
            "polymesh 2 1\nbad\n",
            "polymesh 2 1\n1\n0 0 2\n1\n4 0 1 2\n",
            "polymesh 2 1\n3\n0 0 2\n1 0 2\n",
            "polymesh 2 1\n3\n0 0 2\n1 0 2\n1 1 2\n1\n3 0 1 7\n",
        ],
    )
    def test_parse_errors(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_mesh(path)

    def test_hanging_mesh_round_trip(self, tmp_path):
        mesh = hanging_node_mesh()
        path = tmp_path / "hang.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        back.validate()
        assert len(back.elements[2].vertex_loop) == 5


class TestGenerators:
    def test_grid_counts(self):
        mesh = generate_grid(3, 2)
        assert mesh.n_nodes == 12
        assert mesh.n_elements == 6
        assert mesh.total_area() == pytest.approx(1.0, rel=1e-14)

    def test_polygonal_deterministic(self):
        a = generate_polygonal(4, 4, jitter=0.25, seed=11)
        b = generate_polygonal(4, 4, jitter=0.25, seed=11)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.loop_nodes, b.loop_nodes)
        assert np.array_equal(a.geometry.sizes, b.geometry.sizes)
        c = generate_polygonal(4, 4, jitter=0.25, seed=12)
        assert not np.array_equal(a.points, c.points)

    def test_polygonal_merges_produce_polygons(self):
        mesh = generate_polygonal(5, 5, jitter=0.1, seed=3, merge_fraction=0.8)
        sizes = {len(el.vertex_loop) for el in mesh.elements}
        assert any(s > 4 for s in sizes)
        assert mesh.total_area() == pytest.approx(1.0, rel=1e-12)
        mesh.validate()

    def test_boundary_tags_default_dirichlet(self):
        mesh = generate_grid(2, 2)
        assert set(mesh.edge_tags.tolist()) == {INTERIOR, DIRICHLET}
        assert np.count_nonzero(mesh.edge_tags == DIRICHLET) == 8
        assert int(mesh.node_tags[4]) == INTERIOR


class TestValence:
    def test_max_elements_per_node(self):
        mesh = generate_grid(3, 3)
        assert mesh.max_elements_per_node() == 4
