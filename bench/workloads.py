"""One round of one benchmark workload, in the fresh process run.py starts.

Usage (run.py builds this command line; run it by hand to debug a round):

    python3 bench/workloads.py --workload aniso_layer --seed 1 --trace 0 \
        --spawned <time.monotonic() of the parent at spawn> --out result.json

The round sets up (imports, field, initial mesh), times the workload's work
through anisomesh's public entry points, then checks every output with
``checks`` and writes one JSON record to ``--out``.  The adaptive runs take
no random input: ``--seed`` picks the elements whose indicator is
recomputed and the linear field of the reproduction check, so
``ndof_at_eta`` and ``l2_final`` are the same for every seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import resource
import shutil
import sys
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# levels: adaptive levels after the initial mesh; eta_target: where
# ndof_at_eta is read, inside the run's eta range; eta_samples: elements per
# level whose eta_K is recomputed; slope: whether the run is long enough for
# the asymptotic eta ~ ndof^-1 check (the acceptance suite's 12 levels).
WORKLOADS = {
    "aniso_layer": dict(kind="adaptive", strategy="ANISOTROPIC", levels=12,
                        eta_target=0.03, eta_samples=4, slope=True),
    "uniform_grid": dict(kind="adaptive", strategy="UNIFORM", levels=9,
                         eta_target=0.2, eta_samples=4, slope=False),
    "cli_polygonal": dict(kind="cli", mesh="polygonal 8 8 jitter 0.2 seed 3", levels=9,
                          eta_target=0.12, eta_samples=4),
}

# Reduced sizes for the benchmark's own tests.
SMALL = {
    "aniso_layer": dict(levels=7, eta_target=0.2, slope=False),
    "uniform_grid": dict(levels=4, eta_target=0.8),
    "cli_polygonal": dict(levels=3, eta_target=0.7),
}


class SkipLog(logging.Handler):
    """Collects the ids of elements that refine logs as skipped."""

    pattern = re.compile(r"element (\d+) skipped")

    def __init__(self):
        super().__init__(logging.WARNING)
        self.ids = []

    def emit(self, record):
        m = self.pattern.match(record.getMessage())
        if m:
            self.ids.append(int(m.group(1)))


class Operations:
    """Counts operations (adaptive levels and checks) and check failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def level(self, count=1):
        self.attempted += count

    def check(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.failures.append(f"{name}: {exc}")
            return None


def import_program():
    """Import anisomesh from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import anisomesh

    if not os.path.abspath(anisomesh.__file__).startswith(src + os.sep):
        raise ImportError(f"anisomesh imported from {anisomesh.__file__}, not {src}")


def check_mesh_level(ops, level, points, loops):
    ops.check(f"L{level} area sum", checks.check_area_sum, points, loops)
    ops.check(f"L{level} conformity", checks.check_conformity, points, loops)


def run_adaptive(spec, seed, spawned, tracer, setup_only=False):
    from anisomesh import fields, interp, mesh as mesh_mod, refine

    fld = fields.get_field("tanh_layer")
    initial = mesh_mod.generate_grid(4, 4)
    cfg = refine.RefineConfig(strategy=spec["strategy"], max_levels=spec["levels"])
    skips = SkipLog()
    logging.getLogger("anisomesh.refine").addHandler(skips)
    if tracer is not None:
        fld = tracer.wrap_field(fld)
        tracer.install()

    setup_s = time.monotonic() - spawned
    if setup_only:
        return {"setup_s": setup_s}
    t0 = time.perf_counter()
    history = refine.adaptive_loop(initial, fld, cfg)
    cache = interp.BasisCache()
    curve = []
    for m, _ in history:
        coeffs = interp.coefficients(m, fld, interp.POINTWISE)
        curve.append(interp.l2_error(m, fld, coeffs, cache=cache))
    run_s = time.perf_counter() - t0
    rss = peak_rss_mb()
    logging.getLogger("anisomesh.refine").removeHandler(skips)
    if tracer is not None:
        tracer.uninstall()

    ops = Operations()
    ops.level(len(history))
    uniform = spec["strategy"] == refine.UNIFORM
    rng = np.random.default_rng(seed)
    ops.check("level count", checks.require, len(history) == spec["levels"] + 1,
              f"{len(history)} levels, expected {spec['levels'] + 1}")
    for level, (m, rep) in enumerate(history):
        points, loops = m.points, [el.vertex_loop for el in m.elements]
        check_mesh_level(ops, level, points, loops)
        if uniform:
            ops.check(f"L{level} counts", checks.check_uniform_counts, level,
                      m.n_elements, m.n_nodes)
        ops.check(f"L{level} eta", checks.check_eta_global, rep.eta_local, rep.eta_global)
        ops.check(f"L{level} eta_K", checks.check_eta_sample, points, loops, rep.eta_local,
                  rng.permutation(m.n_elements), spec["eta_samples"])
    ops.check("marking", checks.check_refinement_growth,
              [(m.n_elements, rep.eta_local, rep.marked) for m, rep in history],
              skips.ids, uniform)
    ndof = [m.n_nodes for m, _ in history]
    eta = [rep.eta_global for _, rep in history]
    if spec.get("slope"):
        ops.check("eta slope", checks.check_slope, ndof, eta)
    ops.check("L2 curve", checks.require,
              all(math.isfinite(e) and e > 0.0 for e in curve), f"bad L2 curve {curve}")
    final = history[-1][0]
    a, b, c = rng.uniform(-1.0, 1.0, size=3)
    lin = fields.linear_field(a, b, c)
    lin_err = interp.l2_error(final, lin, interp.coefficients(final, lin, interp.POINTWISE),
                              cache=cache)
    ops.check("linear reproduction", checks.require, lin_err <= checks.LINEAR_L2_TOL,
              f"POINTWISE L2 error of a linear field is {lin_err!r}")
    nd = ops.check("ndof_at_eta", checks.ndof_at_eta, ndof, eta, spec["eta_target"])
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": rss,
        "ndof_at_eta": nd,
        "l2_final": curve[-1],
        "attempted": ops.attempted,
        "failures": ops.failures,
    }


def run_cli(spec, seed, spawned, tracer, tag, setup_only=False):
    from anisomesh import cli

    work = os.path.join(OUT_ROOT, "cli", tag)
    shutil.rmtree(work, ignore_errors=True)
    out_dir = os.path.join(work, "out")
    os.makedirs(work)
    cfg_path = os.path.join(work, "experiment.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(
            "field=tanh_layer\n"
            f"mesh={spec['mesh']}\n"
            "strategy=ISOTROPIC\n"
            f"levels={spec['levels']}\n"
            "l2=true\n"
            "save_levels=true\n"
            "deterministic=true\n"
        )
    skips = SkipLog()
    logging.getLogger("anisomesh.refine").addHandler(skips)
    if tracer is not None:
        tracer.install()

    setup_s = time.monotonic() - spawned
    if setup_only:
        return {"setup_s": setup_s}
    t0 = time.perf_counter()
    rc = cli.main(["run", cfg_path, "--output-dir", out_dir])
    run_s = time.perf_counter() - t0
    rss = peak_rss_mb()
    logging.getLogger("anisomesh.refine").removeHandler(skips)
    if tracer is not None:
        tracer.uninstall()

    ops = Operations()
    ops.check("exit code", checks.require, rc == 0, f"anisomesh run returned {rc}")
    rows = checks.read_csv(os.path.join(out_dir, "convergence.csv"))
    ops.level(len(rows))
    ops.check("level count", checks.require, len(rows) == spec["levels"] + 1,
              f"{len(rows)} levels, expected {spec['levels'] + 1}")
    rng = np.random.default_rng(seed)
    levels = []
    for level, row in enumerate(rows):
        prefix = os.path.join(out_dir, f"isotropic_L{level:02d}")
        parsed = ops.check(f"L{level} parse", checks.parse_mesh_file, prefix + ".mesh")
        if parsed is None:
            continue
        points, _, loops = parsed
        check_mesh_level(ops, level, points, loops)
        ops.check(f"L{level} counts", checks.require,
                  (len(points), len(loops)) == (int(row["ndof"]), int(row["nelem"])),
                  f"mesh file has {len(points)} nodes, {len(loops)} elements; "
                  f"convergence.csv says {row['ndof']}, {row['nelem']}")
        ind = checks.read_csv(prefix + "_indicator.csv")
        eta_local = np.array([float(r["eta"]) for r in ind])
        # The CSVs carry 12 significant digits.
        ops.check(f"L{level} eta", checks.check_eta_global, eta_local, float(row["eta"]), 1e-10)
        ops.check(f"L{level} spectra", checks.check_spectra, points, loops, ind)
        ops.check(f"L{level} eta_K", checks.check_eta_sample, points, loops, eta_local,
                  rng.permutation(len(loops)), spec["eta_samples"])
        ops.check(f"L{level} aspect", checks.check_aspects,
                  checks.read_csv(prefix + "_audit_elements.csv"))
        levels.append((len(loops), eta_local, None))
    ops.check("marking", checks.check_refinement_growth, levels, skips.ids)
    l2 = [float(r["l2_pointwise"]) for r in rows]
    ops.check("L2 curve", checks.require, all(math.isfinite(e) and e > 0.0 for e in l2),
              f"bad l2_pointwise column {l2}")
    nd = ops.check("ndof_at_eta", checks.ndof_at_eta, [int(r["ndof"]) for r in rows],
                   [float(r["eta"]) for r in rows], spec["eta_target"])
    digest, size = checks.tree_digest(out_dir)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": rss,
        "ndof_at_eta": nd,
        "l2_final": l2[-1],
        "attempted": ops.attempted,
        "failures": ops.failures,
        "digest": digest,
        "bytes_written": size,
        "out_dir": out_dir,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(workload, seed, spawned, trace=False, small=False, tag="round", setup_only=False):
    """Set up, time and check one round; returns the JSON-ready record.

    With ``setup_only`` the round stops after set-up and reports only
    ``setup_s``: run.py takes extra set-up samples that way.
    """
    spec = dict(WORKLOADS[workload])
    if small:
        spec.update(SMALL[workload])
    import_program()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    if spec["kind"] == "cli":
        result = run_cli(spec, seed, spawned, tracer, f"{workload}-{tag}", setup_only)
    else:
        result = run_adaptive(spec, seed, spawned, tracer, setup_only)
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = result.get("bytes_written", 0)
        result["layers"] = layers
        os.makedirs(os.path.join(OUT_ROOT, "trace"), exist_ok=True)
        tracer.write(os.path.join(OUT_ROOT, "trace", f"{workload}-{tag}.json"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tag", default="round")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, args.spawned, bool(args.trace), tag=args.tag,
                       setup_only=args.setup_only)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
