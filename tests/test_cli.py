import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import anisomesh
from anisomesh.cli import main, make_initial_mesh, normalize_config, parse_config
from anisomesh.errors import ParseError
from anisomesh.fields import tanh_layer
from anisomesh.mesh import generate_grid, save_mesh
from anisomesh.refine import ANISOTROPIC, RefineConfig, adaptive_loop
from anisomesh.render import color_ramp, render_svg


def write_config(path, **overrides):
    cfg = {
        "field": "tanh_layer",
        "mesh": "grid 2 2",
        "strategy": "ISOTROPIC",
        "levels": 2,
        "l2": False,
        "deterministic": True,
    }
    cfg.update(overrides)
    lines = [f"{k}={v}" for k, v in cfg.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfig:
    def test_key_value_and_json_equivalent(self, tmp_path):
        kv = write_config(tmp_path / "a.cfg", output_dir=str(tmp_path / "o1"))
        jcfg = tmp_path / "a.json"
        jcfg.write_text(json.dumps({
            "field": "tanh_layer", "mesh": "grid 2 2", "strategy": "ISOTROPIC",
            "levels": 2, "l2": False, "deterministic": True,
            "output_dir": str(tmp_path / "o1"),
        }))
        a = parse_config(kv)
        b = parse_config(jcfg)
        assert a == b

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("flavor=salt\n")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ParseError):
            normalize_config({"strategy": "DIAGONAL"})

    def test_readme_example_with_inline_comments(self, tmp_path):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        cfg = parse_config(path)
        assert cfg["field"] == "tanh_layer"
        assert cfg["mesh"] == "grid 4 4"
        assert cfg["l2"] and cfg["deterministic"] and cfg["save_levels"]
        assert cfg["basis_depth"] is None and cfg["quad_depth"] is None
        assert (cfg["levels"], cfg["seed"], cfg["output_dir"]) == (12, 0, "out")

    @pytest.mark.parametrize("key", ["quad_depth", "basis_depth"])
    @pytest.mark.parametrize("value", ["-1", -1])
    def test_negative_depth_rejected(self, key, value):
        with pytest.raises(ParseError):
            normalize_config({key: value})
        assert normalize_config({key: "0"})[key] == 0

    @pytest.mark.parametrize("line", [
        "seed=abc", "mesh=grid a 4", "mesh=grid 0 4", "marking_factor=x", "marking_factor=2",
        "mesh=polygonal 4 4 jitter q", "levels=-1",
        "l2=ture", "deterministic=yes please", "save_levels=2",
        # JSON values, written as key:=json
        "levels:=2.7", "seed:=1.5", "quad_depth:=3.9", "basis_depth:=true",
    ])
    def test_bad_value_is_parse_error(self, tmp_path, line):
        if ":=" in line:
            key, val = line.split(":=")
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({
                "mesh": "grid 2 2", "levels": 2, "l2": False,
                "output_dir": str(tmp_path / "o"), key: json.loads(val),
            }))
        else:
            key, val = line.split("=")
            path = write_config(tmp_path / "bad.cfg", output_dir=str(tmp_path / "o"),
                                **{key: val})
        with pytest.raises(ParseError):
            cfg = parse_config(path)
            make_initial_mesh(cfg["mesh"], cfg["seed"])
        assert main(["run", str(path)]) == 1
        assert not (tmp_path / "o" / "convergence.csv").exists()

    def test_generator_specs(self):
        mesh = make_initial_mesh("grid 3 2")
        assert mesh.n_elements == 6
        mesh = make_initial_mesh("polygonal 3 3 jitter 0.1 seed 4")
        assert mesh.total_area() == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ParseError):
            make_initial_mesh("grid 3")
        with pytest.raises(ParseError):
            make_initial_mesh("/nonexistent/mesh.txt")


class TestRunCommand:
    def test_uniform_doubling(self, tmp_path):
        cfg = write_config(
            tmp_path / "u.cfg", mesh="grid 1 1", strategy="UNIFORM", levels=6,
            output_dir=str(tmp_path / "u"),
        )
        assert main(["run", str(cfg)]) == 0
        rows = (tmp_path / "u" / "convergence.csv").read_text().splitlines()
        assert rows[0].startswith("level,")
        assert len(rows) == 8  # header + levels 0..6
        last = rows[-1].split(",")
        assert int(last[2]) == 64

    def test_zero_levels_writes_initial_level_only(self, tmp_path):
        cfg = write_config(tmp_path / "z.cfg", levels=0, output_dir=str(tmp_path / "z"))
        assert main(["run", str(cfg)]) == 0
        rows = (tmp_path / "z" / "convergence.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[:3] == ["0", "9", "4"]
        assert not list((tmp_path / "z").glob("*_L01*"))

    def test_rows_match_adaptive_loop(self, tmp_path):
        cfg = write_config(
            tmp_path / "a.cfg", mesh="grid 4 4", strategy="ANISOTROPIC", levels=4,
            save_levels=False, output_dir=str(tmp_path / "a"),
        )
        assert main(["run", str(cfg)]) == 0
        rows = (tmp_path / "a" / "convergence.csv").read_text().splitlines()[1:]
        history = adaptive_loop(generate_grid(4, 4), tanh_layer(),
                                RefineConfig(strategy=ANISOTROPIC, max_levels=4))
        expected = [f"{m.n_nodes},{m.n_elements},{rep.eta_global:.12g}" for m, rep in history]
        assert [",".join(row.split(",")[1:4]) for row in rows] == expected

    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg1 = write_config(tmp_path / "c1.cfg", output_dir=str(out1), l2=True)
        cfg2 = write_config(tmp_path / "c2.cfg", output_dir=str(out2), l2=True)
        assert main(["run", str(cfg1)]) == 0
        assert main(["run", str(cfg2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        expected = {"convergence.csv"}
        for lvl in range(3):
            for suffix in (".mesh", ".svg", "_audit_elements.csv",
                           "_audit_pairs.csv", "_indicator.csv"):
                expected.add(f"isotropic_L{lvl:02d}{suffix}")
        assert set(names) == expected
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_compare_merges_strategies(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", strategy="COMPARE", levels=1,
            output_dir=str(tmp_path / "cmp"),
        )
        assert main(["run", str(cfg)]) == 0
        rows = (tmp_path / "cmp" / "convergence.csv").read_text().splitlines()
        assert rows[0].split(",")[0] == "strategy"
        strategies = {row.split(",")[0] for row in rows[1:]}
        assert strategies == {"UNIFORM", "ISOTROPIC", "ANISOTROPIC"}

    def test_convergence_columns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", levels=1, l2=True, output_dir=str(tmp_path / "o"),
        )
        main(["run", str(cfg)])
        header = (tmp_path / "o" / "convergence.csv").read_text().splitlines()[0]
        assert header == "level,ndof,nelem,eta,l2_pointwise,l2_clement,wall_ms"

    def test_expression_field_and_polygonal_mesh(self, tmp_path):
        cfg = write_config(
            tmp_path / "e.cfg",
            field="expr:tanh(8*(x1-0.5))",
            mesh="polygonal 3 3 jitter 0.15 seed 6",
            strategy="ANISOTROPIC",
            levels=2,
            output_dir=str(tmp_path / "e"),
        )
        assert main(["run", str(cfg)]) == 0
        rows = (tmp_path / "e" / "convergence.csv").read_text().splitlines()
        assert len(rows) == 4

    def test_run_from_mesh_file(self, tmp_path):
        mesh = generate_grid(2, 2)
        mpath = tmp_path / "start.mesh"
        save_mesh(mesh, mpath)
        cfg = write_config(
            tmp_path / "m.cfg", mesh=str(mpath), levels=1,
            output_dir=str(tmp_path / "m"),
        )
        assert main(["run", str(cfg)]) == 0
        first = (tmp_path / "m" / "convergence.csv").read_text().splitlines()[1]
        assert first.split(",")[1] == "9"  # started from the saved 2x2 grid


class TestOtherCommands:
    def test_audit_and_render(self, tmp_path, capsys):
        mesh = generate_grid(2, 2)
        path = tmp_path / "m.mesh"
        save_mesh(mesh, path)
        assert main(["audit", str(path), "--out", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "max elements per node: 4" in out
        assert (tmp_path / "a_audit_elements.csv").exists()

        svg_path = tmp_path / "m.svg"
        assert main(["render", str(path), "--no-timestamp", "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.count("<path") == 4
        assert "<!--" not in svg

    def test_render_with_field_and_zoom(self, tmp_path):
        mesh = generate_grid(2, 2)
        path = tmp_path / "m.mesh"
        save_mesh(mesh, path)
        csv = tmp_path / "vals.csv"
        csv.write_text("element_id,eta\n0,0.1\n1,0.4\n2,0.2\n3,0.9\n")
        out = tmp_path / "z.svg"
        assert main([
            "render", str(path), "--field", str(csv), "--out", str(out),
            "--zoom", "0", "0", "0.5", "0.5", "--no-timestamp",
        ]) == 0
        assert "#" in out.read_text()

    @pytest.mark.parametrize("box", [("0", "0", "0", "1"), ("0", "1", "1", "0.5")])
    def test_render_rejects_empty_zoom_box(self, tmp_path, capsys, box):
        path = tmp_path / "m.mesh"
        save_mesh(generate_grid(2, 2), path)
        out = tmp_path / "z.svg"
        assert main(["render", str(path), "--out", str(out), "--zoom", *box]) == 1
        assert capsys.readouterr().err.startswith("error: --zoom")
        assert not out.exists()

    def test_verify_command(self, tmp_path, capsys):
        assert main(["verify", "--sweep", "trace", "--out", str(tmp_path / "t.csv")]) == 0
        assert (tmp_path / "t.csv").exists()
        out = capsys.readouterr().out
        assert out.startswith("trace:")

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.mesh"
        assert main(["audit", str(missing)]) == 1


class TestRender:
    def test_deterministic_bytes(self):
        mesh = generate_grid(2, 2)
        a = render_svg(mesh, timestamp=False)
        b = render_svg(mesh, timestamp=False)
        assert a == b
        assert a.count("<path") == 4

    def test_single_square_path(self):
        mesh = generate_grid(1, 1)
        svg = render_svg(mesh, timestamp=False)
        assert svg.count("<path") == 1
        assert svg.count(" L ") == 3  # M start + 3 line segments + Z close

    def test_color_ramp_endpoints(self):
        assert color_ramp(0.0) == "#440154"
        assert color_ramp(1.0) == "#fde725"
        assert color_ramp(0.5).startswith("#")

    def test_field_fill(self):
        mesh = generate_grid(2, 2)
        svg = render_svg(mesh, element_values=[0.0, 1.0, 0.5, 0.25], timestamp=False)
        assert "#440154" in svg and "#fde725" in svg

    def test_zoom_viewport(self):
        mesh = generate_grid(2, 2)
        full = render_svg(mesh, timestamp=False)
        zoom = render_svg(mesh, viewport=(0, 0, 0.5, 0.5), timestamp=False)
        assert zoom != full

    def test_viewport_coordinate_transform(self):
        # With viewport (0, 0, 2, 2) and size 640 the node at (1, 1) lands at
        # pixel (1/2)*640 + margin in x and height - 320 + margin in y.
        mesh = generate_grid(1, 1)
        svg = render_svg(mesh, size=640, viewport=(0, 0, 2, 2), timestamp=False)
        assert "326.400 326.400" in svg


def test_import_leaves_scipy_optimize_unloaded():
    # The package solves no LP; loading scipy.optimize would only cost import time.
    src = os.path.dirname(os.path.dirname(anisomesh.__file__))
    code = "import sys, anisomesh.cli; sys.exit('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_exported_names_resolve():
    # A name deleted from a module must not stay listed in its __all__ or in
    # the package's own imports.
    for info in pkgutil.iter_modules(anisomesh.__path__):
        mod = importlib.import_module(f"anisomesh.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"anisomesh.{info.name}.__all__ lists {name!r}"
    tree = ast.parse(pathlib.Path(anisomesh.__file__).read_text())
    imported = [a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert imported
    for name in imported:
        assert hasattr(anisomesh, name), f"anisomesh imports {name!r}"


def test_package_reads_no_environment():
    # Results depend on the config alone: no module reads os.environ or
    # os.getenv, also not as a name imported from os.
    src = pathlib.Path(anisomesh.__file__).parent
    readers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                readers.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno}" for a in node.names
                            if a.name in ("environ", "getenv")]
    assert len(list(src.glob("*.py"))) > 10
    assert readers == []
