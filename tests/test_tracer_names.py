"""The names bench/tracing.py patches must exist in anisomesh.

The benchmark's tracer looks functions and methods up by name from outside
the package, so a refactor that drops one would only fail the traced
benchmark; this test makes it fail the test suite instead.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import os

import anisomesh.geometry
import anisomesh.interp
from anisomesh.mesh import generate_grid
from anisomesh.quadrature import polygon_fans, polygon_sample_points
from anisomesh.refine import UNIFORM, RefinementStep, refine

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")

# Patched outside SPANNED: counted functions and replaced methods.
COUNTED = (
    ("quadrature", "polygon_sample_points"),
    ("regularity", "star_kernel"),
    ("regularity", "chebyshev_center"),
    ("parallel", "pmap"),
    ("fields", "get_field"),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    names = tuple(load_tracing().SPANNED) + COUNTED
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"anisomesh.{module}"), name)), (module, name)
    assert "__init__" in vars(anisomesh.geometry.Polygon)
    assert "get" in vars(anisomesh.interp.BasisCache)


def test_wrapped_signatures():
    # The tracer's wrappers call these with fixed positional arguments.
    params = inspect.signature(anisomesh.interp.BasisCache.get).parameters
    assert list(params) == ["self", "poly", "depth"]
    params = inspect.signature(importlib.import_module("anisomesh.parallel").pmap).parameters
    assert list(params) == ["fn", "items"]


def test_sample_points_return_read_by_tracer():
    # The tracer adds len(out[1]) of polygon_sample_points to quadrature.points:
    # the weights, 16 per sub-triangle of the depth, 4^depth per fan triangle.
    poly = anisomesh.geometry.Polygon([(0, 0), (2, 0), (2, 1), (1, 2), (0, 1)])
    fans = len(polygon_fans(poly.batch())[0])
    for depth in range(3):
        points, weights = polygon_sample_points(poly, depth)
        assert points.shape == (16 * 4 ** depth * fans, 2)
        assert weights.shape == (16 * 4 ** depth * fans,)


def test_return_attributes_read_by_tracer():
    # The tracer's _after_* hooks count from what refine and build_mesh
    # return: RefinementStep.parent_children, .skipped and .new_nodes, and
    # PolyMesh.n_elements.
    fields = {f.name for f in dataclasses.fields(RefinementStep)}
    assert {"parent_children", "skipped", "new_nodes"} <= fields
    tracer = load_tracing().Tracer()
    out = refine(generate_grid(2, 1), set(), strategy=UNIFORM)
    tracer._after_refine_refine((), out, 0)
    tracer._after_mesh_build_mesh((), out[0], 0)
    assert dict(tracer.counts) == {
        "refine.elements_split": 2,
        "refine.elements_skipped": 0,
        "refine.nodes_added": 3,
        "mesh.elements_built": 4,
    }


def test_refine_builds_its_mesh_through_the_traced_name(monkeypatch):
    # The tracer spans build_mesh by replacing the name in every anisomesh
    # module, refine's included.  A refine that built its mesh another way
    # would leave mesh.build_mesh_s and mesh.elements_built at 0.
    import anisomesh.refine

    calls = []
    original = anisomesh.refine.build_mesh

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(anisomesh.refine, "build_mesh", counted)
    refine(generate_grid(2, 1), set(), strategy=UNIFORM)
    assert len(calls) == 1
