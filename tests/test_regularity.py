import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from anisomesh.geometry import Polygon, map_polygon
from anisomesh.mesh import build_mesh, generate_grid, generate_polygonal
from anisomesh.regularity import (
    _kernel_region,
    audit_element,
    audit_mapped_patch,
    audit_mesh,
    audit_neighbours,
    neighbour_record,
    relative_rotation_angle,
    star_kernel,
    write_element_csv,
    write_pair_csv,
)
from conftest import random_convex_polygon, random_star_polygon

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
U_SHAPE = Polygon([(0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (1, 1), (1, 3), (0, 3)])


def kernel_area(poly):
    """Shoelace area of the clipped region star_kernel centres its circle in."""
    region = np.asarray(_kernel_region(poly)[0]).reshape(-1, 2)
    x, y = region.T
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def triple(poly):
    """(lambda1, lambda2, u1) of a polygon's spectrum, as ``neighbour_record`` takes it."""
    s = poly.spectrum
    return s.lambda1, s.lambda2, s.u1


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


class TestStarKernel:
    def test_convex_kernel_is_polygon_itself(self, rng):
        for _ in range(10):
            poly = random_convex_polygon(rng)
            rho, z = star_kernel(poly)
            assert kernel_area(poly) == pytest.approx(poly.area, rel=1e-9)
            assert rho > 0.0

    def test_unit_square(self):
        rho, z = star_kernel(UNIT_SQUARE)
        assert rho == pytest.approx(0.5, rel=1e-9)
        assert z == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_non_star_shape_empty(self):
        U_SHAPE.validate_simple()
        rho, z = star_kernel(U_SHAPE)
        assert kernel_area(U_SHAPE) == 0.0
        assert rho == 0.0
        assert np.all(np.isfinite(z))

    def test_chebyshev_circle_interior(self, rng):
        # The inscribed circle must keep its distance to every edge.
        for _ in range(15):
            poly = random_convex_polygon(rng, ratio=float(rng.uniform(1, 100)))
            rho, z = star_kernel(poly)
            v = poly.vertices
            n = len(v)
            for i in range(n):
                a, b = v[i], v[(i + 1) % n]
                e = b - a
                dist = (e[0] * (z[1] - a[1]) - e[1] * (z[0] - a[0])) / np.hypot(*e)
                assert dist >= rho - 1e-10 * poly.diameter

    def test_equivariant_under_similarity(self, rng):
        # Scaling by 3 and translating multiplies rho by 3 and maps z along.
        shift = np.array([5.0, -2.0])
        for _ in range(10):
            poly = random_star_polygon(rng)
            rho, z = star_kernel(poly)
            rho3, z3 = star_kernel(Polygon(poly.vertices * 3.0 + shift))
            assert rho3 == pytest.approx(3.0 * rho, rel=1e-12)
            assert z3 == pytest.approx(3.0 * z + shift, abs=1e-11)


def linprog_center(poly):
    """Oracle: max r s.t. n_i . x + r <= b_i over all edges, solved by HiGHS."""
    normals, offsets = edge_lines(poly.vertices)
    res = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([normals, np.ones(len(offsets))]),
                  b_ub=offsets, bounds=[(None, None)] * 3, method="highs")
    assert res.success
    return res.x[:2], float(res.x[2])


def edge_lines(vertices):
    e = np.roll(vertices, -1, axis=0) - vertices
    normals = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    return normals, (normals * vertices).sum(axis=1)


def min_slack(poly, z):
    """Distance from z to the nearest edge line; rho for an optimal centre."""
    normals, offsets = edge_lines(poly.vertices)
    return float((offsets - normals @ z).min())


def with_hanging_nodes(poly, rng):
    """Insert a node inside every other edge: collinear consecutive edges."""
    v = poly.vertices
    out = []
    for i in range(len(v)):
        out.append(v[i])
        if i % 2 == 0:
            out.append(v[i] + rng.uniform(0.2, 0.8) * (v[(i + 1) % len(v)] - v[i]))
    return Polygon(out)


class TestAgainstLinprog:
    """rho and z from clipping and edge collapse against an LP solver."""

    def check(self, poly, z_unique=True):
        rho, z = star_kernel(poly)
        z_lp, rho_lp = linprog_center(poly)
        assert kernel_area(poly) > 0.0
        assert rho == pytest.approx(rho_lp, rel=1e-9)
        assert min_slack(poly, z) == pytest.approx(rho, rel=1e-9)
        if z_unique:
            assert np.hypot(*(z - z_lp)) <= 1e-8 * rho

    def test_random_convex(self, rng):
        for _ in range(40):
            self.check(random_convex_polygon(rng, ratio=float(rng.uniform(1, 100))))

    def test_random_star_shaped(self, rng):
        for _ in range(40):
            self.check(random_star_polygon(rng, ratio=float(rng.uniform(1, 10))))

    def test_rectangles(self, rng):
        # The centre slides along the midline: only rho and optimality count.
        for _ in range(10):
            w, h = rng.uniform(0.01, 10.0, 2)
            x0, y0 = rng.uniform(-5.0, 5.0, 2)
            self.check(Polygon([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]),
                       z_unique=False)

    def test_hanging_nodes(self, rng):
        for _ in range(20):
            self.check(with_hanging_nodes(random_convex_polygon(rng, ratio=10.0), rng))
            self.check(with_hanging_nodes(random_star_polygon(rng), rng))
        grid = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 0.5), (1, 1), (0.5, 1), (0, 1)])
        self.check(grid, z_unique=False)

    def test_far_from_origin(self, rng):
        shift = np.array([1e6, -1e6])
        for _ in range(10):
            poly = random_star_polygon(rng)
            rho, z = star_kernel(Polygon(poly.vertices + shift))
            z_lp, rho_lp = linprog_center(poly)
            assert rho == pytest.approx(rho_lp, rel=1e-8)
            assert np.hypot(*(z - shift - z_lp)) <= 1e-7 * rho

    def test_200_vertex_ellipse(self):
        ang = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
        for minor in (0.5, 0.01):
            self.check(Polygon(np.column_stack([np.cos(ang), minor * np.sin(ang)])),
                       z_unique=False)


class TestElementAudit:
    def test_unit_square_aspect(self):
        rec, rec_mapped = audit_element(UNIT_SQUARE)
        assert rec.aspect == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
        assert rec.n_nodes == 4
        assert rec.min_edge_ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert rec.lambda_ratio == pytest.approx(1.0, rel=1e-12)

    def test_stretched_rectangle_maps_to_square(self):
        poly = Polygon([(0, 0), (100, 0), (100, 1), (0, 1)])
        rec, rec_mapped = audit_element(poly)
        assert rec.lambda_ratio == pytest.approx(1e4, rel=1e-10)
        assert rec_mapped.aspect == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
        assert rec_mapped.lambda_ratio == pytest.approx(1.0, rel=1e-9)

    def test_reference_diameter_bounds(self, rng):
        # 1 <= h_mapped <= sigma / sqrt(pi) with sigma the mapped aspect.
        for _ in range(15):
            poly = random_convex_polygon(rng, ratio=float(rng.uniform(1, 1e4)))
            _, rec_mapped = audit_element(poly)
            mapped = map_polygon(poly, poly.refmap)
            h = mapped.diameter
            assert h >= 1.0 - 1e-12
            assert h <= rec_mapped.aspect / math.sqrt(math.pi) + 1e-9


class TestNeighbourAudit:
    def test_translated_congruent(self):
        mesh = generate_grid(2, 1)
        pairs = audit_neighbours(mesh)
        assert len(pairs) == 1
        assert pairs[0].delta_max == pytest.approx(0.0, abs=1e-12)
        assert pairs[0].rotation_term == pytest.approx(0.0, abs=1e-12)

    def test_thickness_jump(self):
        k1 = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        k2 = Polygon([(2, 0), (4, 0), (4, 1.5), (2, 1.5)])
        rec = neighbour_record((0, 1), triple(k1), triple(k2))
        assert rec.delta_max == pytest.approx(1.25, rel=1e-12)

    def test_small_rotation_of_sliver(self):
        base = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 0.1), (0.0, 0.1)])
        p1 = Polygon(base)
        p2 = Polygon(base @ rotation(0.01).T)
        assert p1.spectrum.ratio == pytest.approx(1e4, rel=1e-9)
        rec = neighbour_record((0, 1), triple(p1), triple(p2))
        assert rec.rotation_term == pytest.approx(1.0, abs=1e-3)
        assert np.linalg.det(rec.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_norm_symmetric(self):
        base = np.array([(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0)])
        p1 = Polygon(base)
        p2 = Polygon(base @ rotation(0.2).T)
        fwd = neighbour_record((0, 1), triple(p1), triple(p2))
        bwd = neighbour_record((1, 0), triple(p2), triple(p1))
        assert fwd.rotation_norm == pytest.approx(bwd.rotation_norm, abs=1e-12)
        # The scaled terms differ (different lambda scalings) but the raw
        # rotation magnitude matches 2 sin(phi / 2).
        assert fwd.rotation_norm == pytest.approx(2.0 * math.sin(0.1), rel=1e-9)

    def test_angle_wrapping_mod_pi(self):
        assert relative_rotation_angle([1.0, 0.0], [-1.0, 1e-9]) == pytest.approx(
            0.0, abs=1e-8
        )


class TestMappedPatch:
    def test_many_vertex_patch_exact_diameter(self):
        # 600 vertices on an ellipse map to a near-circle, whose bounding-box
        # diagonal overstates its diameter by about sqrt(2).
        ang = np.linspace(0.0, 2.0 * math.pi, 600, endpoint=False)
        pts = np.column_stack([0.5 + 0.4 * np.cos(ang), 0.5 + 0.1 * np.sin(ang)])
        mesh = build_mesh(pts, [list(range(600))], check_simple=False)
        _, h_patch, _ = audit_mapped_patch(mesh, 0)
        poly = mesh.elements[0].polygon
        mapped = map_polygon(poly, poly.refmap).vertices
        assert h_patch == pytest.approx(max(np.hypot(*(mapped - p).T).max() for p in mapped),
                                        rel=1e-12)
        assert np.hypot(*np.ptp(mapped, axis=0)) > 1.4 * h_patch

    def test_single_element(self):
        mesh = build_mesh(UNIT_SQUARE.vertices, [[0, 1, 2, 3]])
        recs, h_patch, ratio = audit_mapped_patch(mesh, 0)
        assert len(recs) == 1
        assert recs[0].lambda_ratio == pytest.approx(1.0, rel=1e-9)
        assert h_patch == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert ratio == pytest.approx(1.0)

    def test_2x2_uniform_grid(self):
        mesh = generate_grid(2, 2)
        recs, h_patch, ratio = audit_mapped_patch(mesh, 0)
        assert len(recs) == 4
        # All four mapped elements are congruent unit squares; the mapped
        # patch is a 2x2 block with twice the mapped element diameter.
        assert h_patch == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_perturbed_regularity_bound(self):
        mesh = generate_polygonal(4, 4, jitter=0.1, seed=2, merge_fraction=0.0)
        audit = audit_mesh(mesh)
        sigma = audit.max_aspect
        c_delta = audit.max_delta
        c_rot = audit.max_rotation_term
        assert c_delta < 1.0
        bound = math.sqrt((1.0 + c_delta) / (1.0 - c_delta)) * (1.0 + c_rot) ** 2 * sigma
        for el in mesh.elements:
            recs, _, _ = audit_mapped_patch(mesh, el.id)
            for rec in recs:
                assert rec.aspect <= bound * (1.0 + 1e-9)


def record_bits(audit):
    """Every field of every element record, z as raw bytes."""
    return [
        tuple(f.tobytes() if isinstance(f, np.ndarray) else f for f in dataclasses.astuple(rec))
        for rec in audit.elements + audit.mapped_elements
    ]


class TestMeshAudit:
    def test_independent_of_process_history(self):
        mesh = generate_polygonal(4, 4, jitter=0.2, seed=5)
        first = record_bits(audit_mesh(mesh))
        assert record_bits(audit_mesh(mesh)) == first
        moved = build_mesh(mesh.points * 3.0 + np.array([2.0, -7.0]),
                           [el.vertex_loop for el in mesh.elements])
        audit_mesh(moved)
        assert record_bits(audit_mesh(mesh)) == first

    def test_records_match_audit_element(self):
        # The pass over the mesh's geometry batch gives every element the
        # records that auditing it alone gives, mapped ones included.
        mesh = generate_polygonal(4, 4, jitter=0.2, seed=5)
        alone = [audit_element(el.polygon, el.id) for el in mesh.elements]
        want = SimpleNamespace(elements=[a for a, _ in alone],
                               mapped_elements=[b for _, b in alone])
        assert record_bits(audit_mesh(mesh)) == record_bits(want)

    def test_global_maxima_match_records(self):
        mesh = generate_polygonal(3, 3, jitter=0.2, seed=9)
        audit = audit_mesh(mesh)
        assert audit.max_aspect == max(r.aspect for r in audit.mapped_elements)
        assert audit.max_delta == max(p.delta_max for p in audit.pairs)
        assert audit.max_rotation_term == max(p.rotation_term for p in audit.pairs)
        assert audit.max_node_valence == mesh.max_elements_per_node()

    def test_csv_export(self, tmp_path):
        mesh = generate_grid(2, 2)
        audit = audit_mesh(mesh)
        epath = tmp_path / "elements.csv"
        with open(epath, "w") as fh:
            write_element_csv(mesh, audit, fh)
        lines = epath.read_text().splitlines()
        assert lines[0] == "element_id,lambda1,lambda2,ratio,alpha,rho,aspect,min_edge_ratio,n_nodes"
        assert len(lines) == 5
        ppath = tmp_path / "pairs.csv"
        with open(ppath, "w") as fh:
            write_pair_csv(audit, fh)
        assert ppath.read_text().splitlines()[0] == "pair,k1,k2,delta_max,rotation_term"
