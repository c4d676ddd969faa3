"""The names bench/tracing.py patches must exist in anisomesh.

The benchmark's tracer looks functions and methods up by name from outside
the package, so a refactor that drops one would only fail the traced
benchmark; this test makes it fail the test suite instead.
"""

import importlib
import importlib.util
import inspect
import os

import anisomesh.geometry
import anisomesh.interp

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
