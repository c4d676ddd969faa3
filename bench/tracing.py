"""Spans and counts around anisomesh's public functions, installed from outside.

``Tracer.install`` replaces selected functions and methods by wrappers in
every loaded ``anisomesh`` module that refers to them (modules import each
other's functions by name, so patching only the defining module would miss
most calls).  A span is (name, start, end, parent index); spans stay in
memory until ``write`` dumps them.  Cheap, very frequent calls get counters
instead of spans.  Everything here assumes one thread, which the benchmark
enforces with ANISOMESH_THREADS=1.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

SPANNED = (
    ("cli", "main"),
    ("cli", "run_strategy"),
    ("cli", "write_level_artifacts"),
    ("refine", "adaptive_loop"),
    ("refine", "refine"),
    ("indicator", "eta_global"),
    ("geometry", "split_polygon_detailed"),
    ("mesh", "build_mesh"),
    ("mesh", "save_mesh"),
    ("interp", "coefficients"),
    ("interp", "l2_error"),
    ("interp", "build_basis"),
    ("interp", "element_l2_error"),
    ("regularity", "audit_mesh"),
    ("render", "render_svg"),
)

# Per-layer metric -> name of the span whose self time it sums.
SELF_TIMES = {
    "interp.build_basis_s": "interp.build_basis",
    "interp.element_l2_s": "interp.element_l2_error",
    "interp.coeff_clement_s": "interp.coefficients.CLEMENT",
    "interp.coeff_pointwise_s": "interp.coefficients.POINTWISE",
    "indicator.eta_global_s": "indicator.eta_global",
    "refine.refine_s": "refine.refine",
    "geometry.split_s": "geometry.split_polygon_detailed",
    "mesh.build_mesh_s": "mesh.build_mesh",
    "regularity.audit_s": "regularity.audit_mesh",
    "render.svg_s": "render.render_svg",
    "mesh.save_s": "mesh.save_mesh",
    "cli.artifacts_s": "cli.write_level_artifacts",
}

COUNTS = (
    "interp.bases_built",
    "interp.subtriangles",
    "quadrature.points",
    "fields.points_evaluated",
    "refine.elements_split",
    "refine.elements_skipped",
    "refine.nodes_added",
    "geometry.polygons_built",
    "mesh.elements_built",
    "regularity.star_kernel_calls",
    "regularity.lp_solves",
    "cli.bytes_written",
    "parallel.pmap_items",
)

RATIOS = (
    "interp.basis_cache_hit_ratio",
    "indicator.gram_cache_hit_ratio",
    "regularity.kernel_cache_hit_ratio",
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _spanned(self, module, name, fn):
        tracer = self
        label = f"{module}.{name}"
        after = getattr(self, f"_after_{module}_{name}", None)

        def wrapper(*args, **kwargs):
            span_name = label
            if label == "interp.coefficients":
                span_name = f"{label}.{args[2] if len(args) > 2 else kwargs['scheme']}"
            hits = tracer.counts["interp.basis_hits"]
            rec = tracer._open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                after(args, out, hits)
            return out

        return wrapper

    def _after_refine_refine(self, args, out, _):
        step = out[1]
        self.counts["refine.elements_split"] += len(step.parent_children)
        self.counts["refine.elements_skipped"] += len(step.skipped)
        self.counts["refine.nodes_added"] += len(step.new_nodes)

    def _after_mesh_build_mesh(self, args, out, _):
        self.counts["mesh.elements_built"] += out.n_elements

    def _after_indicator_eta_global(self, args, out, _):
        self.counts["indicator.gram_lookups"] += args[0].n_elements

    def _after_interp_build_basis(self, args, out, hits_before):
        if self.counts["interp.basis_hits"] == hits_before:
            self.counts["interp.bases_built"] += 1
            self.counts["interp.subtriangles"] += len(out.triangles)

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sample_points(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts["quadrature.points"] += len(out[1])
            if tracer._innermost() == "indicator.eta_global":
                tracer.counts["indicator.gram_misses"] += 1
            return out

        return wrapper

    def _cache_get(self, fn):
        counts = self.counts

        def wrapper(cache, poly, depth):
            out = fn(cache, poly, depth)
            counts["interp.basis_lookups"] += 1
            counts["interp.basis_hits"] += out is not None
            return out

        return wrapper

    def _pmap(self, fn):
        counts = self.counts

        def wrapper(func, items):
            items = list(items)
            counts["parallel.pmap_items"] += len(items)
            return fn(func, items)

        return wrapper

    def wrap_field(self, fld):
        """A copy of a ScalarField whose callbacks count evaluated points."""
        counts = self.counts

        def counting(cb):
            def wrapper(points):
                counts["fields.points_evaluated"] += np.asarray(points).size // 2
                return cb(points)
            return wrapper

        return type(fld)(counting(fld.value), counting(fld.gradient), counting(fld.hessian),
                         label=fld.label)

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "anisomesh" or mod_name.startswith("anisomesh.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _replace_method(self, cls, name, replacement):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def install(self):
        import importlib

        def mod(name):
            return importlib.import_module(f"anisomesh.{name}")

        for module, name in SPANNED:
            fn = getattr(mod(module), name)
            self._replace_everywhere(fn, self._spanned(module, name, fn))
        quad = mod("quadrature")
        self._replace_everywhere(quad.polygon_sample_points,
                                 self._sample_points(quad.polygon_sample_points))
        reg = mod("regularity")
        for name, key in (("star_kernel", "regularity.star_kernel_calls"),
                          ("chebyshev_center", "regularity.lp_solves")):
            fn = getattr(reg, name)
            self._replace_everywhere(fn, self._counted(key, fn))
        par = mod("parallel")
        self._replace_everywhere(par.pmap, self._pmap(par.pmap))
        fields = mod("fields")
        get_field = fields.get_field
        self._replace_everywhere(get_field, lambda label: self.wrap_field(get_field(label)))
        polygon = mod("geometry").Polygon
        self._replace_method(polygon, "__init__",
                             self._counted("geometry.polygons_built", polygon.__init__))
        cache = mod("interp").BasisCache
        self._replace_method(cache, "get", self._cache_get(cache.get))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Sum over spans of each name of duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return out

    def layer_metrics(self):
        selfs = self.self_times()
        c = self.counts
        metrics = {key: selfs.get(span, 0.0) for key, span in SELF_TIMES.items()}
        metrics.update({key: c[key] for key in COUNTS})
        metrics["interp.basis_cache_hit_ratio"] = _ratio(
            c["interp.basis_hits"], c["interp.basis_lookups"])
        metrics["indicator.gram_cache_hit_ratio"] = _ratio(
            c["indicator.gram_lookups"] - c["indicator.gram_misses"], c["indicator.gram_lookups"])
        metrics["regularity.kernel_cache_hit_ratio"] = _ratio(
            c["regularity.star_kernel_calls"] - c["regularity.lp_solves"],
            c["regularity.star_kernel_calls"])
        return metrics

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                "counts": dict(self.counts),
            }, fh, separators=(",", ":"))
