"""Command line driver: adaptive runs, audits, rendering, inequality sweeps.

``anisomesh run <config>`` reproduces the layer-adaptation experiments at
desk scale: it refines an initial mesh with one (or all) of the strategies,
writing per-level mesh files, audit and indicator CSVs, SVG renders, and a
convergence table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice

import numpy as np

from . import __version__
from .errors import AnisomeshError, ParseError
from .fields import get_field
from .interp import BasisCache, CLEMENT, POINTWISE, coefficients, l2_error
from .mesh import load_mesh, save_mesh, generate_grid, generate_polygonal
from .refine import ANISOTROPIC, ISOTROPIC, UNIFORM, RefineConfig, _adaptive_levels
from .regularity import audit_mesh, write_element_csv, write_pair_csv
from .render import render_svg
from .verify import (
    h1_sweep,
    neighbour_sweep,
    poincare_sweep,
    trace_sweep,
    write_records_csv,
)

STRATEGIES = (UNIFORM, ISOTROPIC, ANISOTROPIC)
COMPARE = "COMPARE"


def parse_config(path):
    """Read a config as JSON or as plain key=value lines."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON config: {exc}") from exc
    else:
        raw = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key=value", line=lineno)
            key, val = line.split("=", 1)
            raw[key.strip()] = val.strip()
    return normalize_config(raw)


def normalize_config(raw):
    cfg = {
        "field": "tanh_layer",
        "mesh": "grid 4 4",
        "strategy": ANISOTROPIC,
        "levels": 6,
        "marking_factor": 0.9,
        "quad_depth": None,
        "basis_depth": None,
        "output_dir": "out",
        "l2": True,
        "deterministic": False,
        "seed": 0,
        "save_levels": True,
    }
    for key, val in raw.items():
        if key not in cfg:
            raise ParseError(f"unknown config key {key!r}")
        cfg[key] = val
    for key in ("field", "output_dir"):
        if not isinstance(cfg[key], str):
            raise ParseError(f"{key} must be a string, got {cfg[key]!r}")
    cfg["levels"] = _number(int, "levels", cfg["levels"])
    if cfg["levels"] < 0:
        raise ParseError(f"levels must be a non-negative integer, got {cfg['levels']}")
    cfg["seed"] = _number(int, "seed", cfg["seed"])
    cfg["marking_factor"] = _number(float, "marking_factor", cfg["marking_factor"])
    if not 0.0 < cfg["marking_factor"] <= 1.0:
        raise ParseError(f"marking_factor must be in (0, 1], got {cfg['marking_factor']}")
    for key in ("quad_depth", "basis_depth"):
        if cfg[key] in (None, "auto", "none", ""):
            cfg[key] = None
            continue
        cfg[key] = _number(int, key, cfg[key])
        if cfg[key] < 0:
            raise ParseError(f"{key} must be a non-negative integer, got {cfg[key]}")
    for key in ("l2", "deterministic", "save_levels"):
        word = cfg[key].lower() if isinstance(cfg[key], str) else json.dumps(cfg[key])
        if word not in _TRUE + _FALSE:
            raise ParseError(f"{key} must be one of {'/'.join(_TRUE + _FALSE)}, "
                             f"got {cfg[key]!r}")
        cfg[key] = word in _TRUE
    cfg["strategy"] = str(cfg["strategy"]).upper()
    if cfg["strategy"] not in STRATEGIES + (COMPARE,):
        raise ParseError(f"strategy must be one of {STRATEGIES + (COMPARE,)}")
    return cfg


_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")


def _number(kind, key, val):
    """``kind(val)`` for ``kind`` int or float; a ParseError naming ``key`` otherwise.

    Booleans are not numbers, and an int must not drop a fraction.
    """
    try:
        if isinstance(val, bool) or (kind is int and isinstance(val, float)
                                     and not val.is_integer()):
            raise TypeError
        return kind(val)
    except (TypeError, ValueError):
        raise ParseError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {val!r}") from None


def _cell_counts(parts):
    nx, ny = (_number(int, f"{parts[0]} cell count", p) for p in parts[1:3])
    if nx < 1 or ny < 1:
        raise ParseError(f"{parts[0]} needs at least one cell per direction, got {nx} x {ny}")
    return nx, ny


def make_initial_mesh(spec, seed=0):
    """Mesh from a path or a generator spec 'grid NX NY' / 'polygonal NX NY ...'."""
    parts = str(spec).split()
    if parts and parts[0] == "grid":
        if len(parts) != 3:
            raise ParseError("generator spec: grid NX NY")
        return generate_grid(*_cell_counts(parts))
    if parts and parts[0] == "polygonal":
        if len(parts) < 3 or len(parts) % 2 == 0:
            raise ParseError("generator spec: polygonal NX NY [jitter J] [seed S]")
        kwargs = {"jitter": 0.2, "seed": seed}
        rest = parts[3:]
        for key, val in zip(rest[::2], rest[1::2]):
            if key == "jitter":
                kwargs["jitter"] = _number(float, "jitter", val)
            elif key == "seed":
                kwargs["seed"] = _number(int, "seed", val)
            else:
                raise ParseError(f"unknown generator option {key!r}")
        return generate_polygonal(*_cell_counts(parts), **kwargs)
    if not os.path.exists(spec):
        raise ParseError(f"mesh path {spec!r} does not exist")
    return load_mesh(spec)


def run_strategy(mesh, fld, strategy, cfg, out_dir):
    """One adaptive run; returns the per-level convergence rows.

    A row's ``wall_ms`` covers the refinement that produced its mesh, the
    indicator, the L2 errors and the level's artifacts.
    """
    tag = strategy.lower()
    rows = []
    basis_cache = BasisCache()
    rc = RefineConfig(
        strategy=strategy,
        marking_factor=cfg["marking_factor"],
        quad_depth=cfg["quad_depth"],
    )
    levels = islice(_adaptive_levels(mesh, fld, rc), cfg["levels"] + 1)
    t0 = time.perf_counter()
    for level, (mesh, report) in enumerate(levels):
        l2_pw = l2_clem = float("nan")
        if cfg["l2"]:
            pw = coefficients(mesh, fld, POINTWISE)
            l2_pw = l2_error(mesh, fld, pw, depth=cfg["basis_depth"], cache=basis_cache)
            clem = coefficients(mesh, fld, CLEMENT, depth=cfg["quad_depth"])
            l2_clem = l2_error(mesh, fld, clem, depth=cfg["basis_depth"], cache=basis_cache)
        if cfg["save_levels"]:
            write_level_artifacts(mesh, report, out_dir, tag, level, cfg)
        wall_ms = 0.0 if cfg["deterministic"] else (time.perf_counter() - t0) * 1e3
        rows.append(
            {
                "level": level,
                "ndof": mesh.n_nodes,
                "nelem": mesh.n_elements,
                "eta": report.eta_global,
                "l2_pointwise": l2_pw,
                "l2_clement": l2_clem,
                "wall_ms": wall_ms,
            }
        )
        t0 = time.perf_counter()
    return rows


def write_level_artifacts(mesh, report, out_dir, tag, level, cfg):
    prefix = os.path.join(out_dir, f"{tag}_L{level:02d}")
    save_mesh(mesh, prefix + ".mesh")
    audit = audit_mesh(mesh)
    with open(prefix + "_audit_elements.csv", "w") as fh:
        write_element_csv(mesh, audit, fh)
    with open(prefix + "_audit_pairs.csv", "w") as fh:
        write_pair_csv(audit, fh)
    with open(prefix + "_indicator.csv", "w") as fh:
        report.to_csv(mesh, fh)
    svg = render_svg(mesh, element_values=report.eta_local,
                     timestamp=not cfg["deterministic"])
    with open(prefix + ".svg", "w") as fh:
        fh.write(svg)


def write_convergence(rows, path, header_comment=None):
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        cols = ["level", "ndof", "nelem", "eta", "l2_pointwise", "l2_clement", "wall_ms"]
        if rows and "strategy" in rows[0]:
            cols = ["strategy"] + cols
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def cmd_run(args):
    cfg = parse_config(args.config)
    if args.output_dir:
        cfg["output_dir"] = args.output_dir
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    fld = get_field(cfg["field"])

    stamp = None if cfg["deterministic"] else time.strftime("%Y-%m-%d %H:%M:%S")
    if cfg["strategy"] == COMPARE:
        merged = []
        for strategy in STRATEGIES:
            mesh = make_initial_mesh(cfg["mesh"], cfg["seed"])
            rows = run_strategy(mesh, fld, strategy, cfg, out_dir)
            for row in rows:
                merged.append({"strategy": strategy, **row})
        write_convergence(merged, os.path.join(out_dir, "convergence.csv"), stamp)
    else:
        mesh = make_initial_mesh(cfg["mesh"], cfg["seed"])
        rows = run_strategy(mesh, fld, cfg["strategy"], cfg, out_dir)
        write_convergence(rows, os.path.join(out_dir, "convergence.csv"), stamp)
    return 0


def cmd_audit(args):
    mesh = load_mesh(args.mesh)
    audit = audit_mesh(mesh)
    prefix = args.out or os.path.splitext(args.mesh)[0]
    with open(prefix + "_audit_elements.csv", "w") as fh:
        write_element_csv(mesh, audit, fh)
    with open(prefix + "_audit_pairs.csv", "w") as fh:
        write_pair_csv(audit, fh)
    print(f"elements: {mesh.n_elements}  nodes: {mesh.n_nodes}")
    print(f"max mapped aspect (sigma): {audit.max_aspect:.6g}")
    print(f"max mapped edge ratio (c): {audit.max_edge_ratio:.6g}")
    print(f"max eigenvalue jump (c_delta): {audit.max_delta:.6g}")
    print(f"max rotation term (c_R): {audit.max_rotation_term:.6g}")
    print(f"max elements per node: {audit.max_node_valence}")
    return 0


def cmd_render(args):
    if args.zoom and not (args.zoom[2] > args.zoom[0] and args.zoom[3] > args.zoom[1]):
        raise ParseError(f"--zoom box needs X1 > X0 and Y1 > Y0, got {args.zoom}")
    mesh = load_mesh(args.mesh)
    values = None
    if args.field_csv:
        table = np.genfromtxt(args.field_csv, delimiter=",", names=True)
        values = np.zeros(mesh.n_elements)
        ids = table["element_id"].astype(int)
        values[ids] = table[table.dtype.names[1]]
    viewport = tuple(args.zoom) if args.zoom else None
    svg = render_svg(mesh, element_values=values, viewport=viewport,
                     timestamp=not args.no_timestamp)
    out = args.out or (os.path.splitext(args.mesh)[0] + ".svg")
    with open(out, "w") as fh:
        fh.write(svg)
    print(out)
    return 0


def cmd_verify(args):
    sweeps = {
        "trace": trace_sweep,
        "poincare": poincare_sweep,
        "h1": h1_sweep,
        "neighbour": neighbour_sweep,
    }
    names = [args.sweep] if args.sweep else list(sweeps)
    status = 0
    for name in names:
        records = sweeps[name]()
        ratios = [r.ratio for r in records if r.ratio > 0.0]
        print(f"{name}: {len(records)} checks, ratio range "
              f"[{min(ratios, default=0):.4g}, {max(ratios, default=0):.4g}]")
        if args.out:
            path = args.out if len(names) == 1 else f"{os.path.splitext(args.out)[0]}_{name}.csv"
            with open(path, "w") as fh:
                write_records_csv(records, fh)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anisomesh",
        description="Anisotropic polygonal mesh adaptation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an adaptive refinement experiment")
    p_run.add_argument("config", help="config file (key=value lines or JSON)")
    p_run.add_argument("--output-dir", help="override the config output_dir")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="regularity audit of a mesh file")
    p_audit.add_argument("mesh")
    p_audit.add_argument("--out", help="output CSV prefix")
    p_audit.set_defaults(func=cmd_audit)

    p_render = sub.add_parser("render", help="render a mesh file to SVG")
    p_render.add_argument("mesh")
    p_render.add_argument("--field", dest="field_csv", help="per-element CSV for fill colors")
    p_render.add_argument("--out")
    p_render.add_argument("--zoom", nargs=4, type=float, metavar=("X0", "Y0", "X1", "Y1"))
    p_render.add_argument("--no-timestamp", action="store_true")
    p_render.set_defaults(func=cmd_render)

    p_verify = sub.add_parser("verify", help="run inequality stability sweeps")
    p_verify.add_argument("--sweep", choices=["trace", "poincare", "h1", "neighbour"])
    p_verify.add_argument("--out", help="CSV output path")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AnisomeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
