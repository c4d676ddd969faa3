"""Fast tests of the benchmark itself: every output check rejects a corrupted
result, and a reduced-size round of every workload passes all checks.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import statistics
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def grid(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    points = np.array([(x, y) for y in xs for x in xs])
    loops = [[j * (n + 1) + i, j * (n + 1) + i + 1, (j + 1) * (n + 1) + i + 1,
              (j + 1) * (n + 1) + i] for j in range(n) for i in range(n)]
    return points, loops


@pytest.fixture(scope="module")
def aniso_history():
    from anisomesh.fields import tanh_layer
    from anisomesh.mesh import generate_grid
    from anisomesh.refine import ANISOTROPIC, RefineConfig, adaptive_loop

    return adaptive_loop(generate_grid(4, 4), tanh_layer(),
                         RefineConfig(strategy=ANISOTROPIC, max_levels=4))


@pytest.fixture(scope="module")
def cli_round():
    result = workloads.run_round("cli_polygonal", 5, time.monotonic(), trace=True, small=True,
                                 tag="test")
    return result, result["out_dir"]


def test_area_and_conformity_reject_a_dropped_element():
    points, loops = grid(3)
    checks.check_area_sum(points, loops)
    checks.check_conformity(points, loops)
    with pytest.raises(CheckFailed):
        checks.check_area_sum(points, loops[:4] + loops[5:])
    with pytest.raises(CheckFailed):
        checks.check_conformity(points, loops[:4] + loops[5:])


def test_conformity_rejects_a_flipped_loop_and_an_overlap():
    points, loops = grid(2)
    with pytest.raises(CheckFailed):
        checks.check_conformity(points, [loops[0][::-1]] + loops[1:])
    with pytest.raises(CheckFailed):
        checks.check_conformity(points, loops + [loops[0]])


def test_area_rejects_a_moved_boundary_node():
    points, loops = grid(2)
    points = points.copy()
    points[1, 1] = 1e-3  # the midpoint of the bottom side moves inside
    with pytest.raises(CheckFailed):
        checks.check_area_sum(points, loops)
    with pytest.raises(CheckFailed):
        checks.check_conformity(points, loops)


def test_uniform_counts():
    assert checks.uniform_counts(0) == (16, 25)
    assert checks.uniform_counts(1) == (32, 45)
    assert checks.uniform_counts(2) == (64, 81)
    with pytest.raises(CheckFailed):
        checks.check_uniform_counts(3, 128, 144)


def test_eta_checks_reject_a_perturbed_eta(aniso_history):
    mesh, rep = aniso_history[-1]
    loops = [el.vertex_loop for el in mesh.elements]
    ids = list(range(mesh.n_elements))
    assert checks.check_eta_sample(mesh.points, loops, rep.eta_local, ids) == len(ids)
    checks.check_eta_global(rep.eta_local, rep.eta_global)
    bad = rep.eta_local.copy()
    k = int(np.argmax(bad))
    bad[k] *= 1.01
    with pytest.raises(CheckFailed):
        checks.check_eta_sample(mesh.points, loops, bad, [k])
    with pytest.raises(CheckFailed):
        checks.check_eta_global(bad, rep.eta_global)


def test_eta_sample_skips_unfannable_elements_but_checks_count():
    # A C-shaped cell: its centroid lies in the notch, so no centroid fan.
    c_shape = [(0, 0), (1, 0), (1, 0.2), (0.2, 0.2), (0.2, 0.8), (1, 0.8), (1, 1), (0, 1)]
    points, loops = grid(2)
    n = len(points)
    points = np.vstack([points, np.array(c_shape, dtype=float)])
    loops = loops + [list(range(n, n + len(c_shape)))]
    assert checks.eta_direct(points[loops[-1]]) is None
    eta = [checks.eta_direct(points[loop]) for loop in loops[:-1]] + [1.0]
    assert checks.check_eta_sample(points, loops, eta, [4, 0, 2, 1], 2) == 2
    with pytest.raises(CheckFailed):
        checks.check_eta_sample(points, loops, eta, [4, 0], 2)


def test_marking_check_rejects_wrong_marks_and_growth(aniso_history):
    levels = [(m.n_elements, rep.eta_local, rep.marked) for m, rep in aniso_history]
    checks.check_refinement_growth(levels, [])
    n, eta, marked = levels[1]
    with pytest.raises(CheckFailed):
        checks.check_refinement_growth(
            levels[:1] + [(n, eta, set(marked) - {min(marked)})] + levels[2:], [])
    with pytest.raises(CheckFailed):
        checks.check_refinement_growth(levels[:1] + [(n + 1, eta, marked)] + levels[2:], [])
    with pytest.raises(CheckFailed):  # a logged skip that the counts do not show
        checks.check_refinement_growth(levels, [min(marked)])


def test_marking_check_accepts_logged_skips():
    eta = np.array([1.0, 1.0, 0.01, 0.01])
    marked = checks.own_marking(eta)
    assert marked == {0, 1}
    checks.check_refinement_growth([(4, eta, marked), (5, None, None)], [1])
    with pytest.raises(CheckFailed):
        checks.check_refinement_growth([(4, eta, marked), (5, None, None)], [2])


def test_slope_check():
    ndof = np.array([100.0, 150.0, 220.0, 330.0, 500.0])
    checks.check_slope(ndof, 3.0 / ndof)
    with pytest.raises(CheckFailed):
        checks.check_slope(ndof, 3.0 / ndof ** 0.7)


def test_ndof_at_eta_interpolates_log_log():
    assert checks.ndof_at_eta([10, 40], [1.0, 0.25], 0.5) == pytest.approx(20.0)
    with pytest.raises(CheckFailed):
        checks.ndof_at_eta([10, 40], [1.0, 0.25], 0.1)


def test_mesh_file_checks_reject_a_changed_coordinate(cli_round, tmp_path):
    result, out_dir = cli_round
    assert result["failures"] == []
    prefix = os.path.join(out_dir, "isotropic_L02")
    points, tags, loops = checks.parse_mesh_file(prefix + ".mesh")
    ind = checks.read_csv(prefix + "_indicator.csv")
    checks.check_spectra(points, loops, ind)
    with open(prefix + ".mesh") as fh:
        lines = fh.read().split("\n")
    interior = int(np.nonzero(tags == 0)[0][0])
    row = lines[2 + interior].split()
    row[0] = repr(float(row[0]) + 1e-6)
    lines[2 + interior] = " ".join(row)
    bad = tmp_path / "bad.mesh"
    bad.write_text("\n".join(lines))
    bad_points, _, bad_loops = checks.parse_mesh_file(str(bad))
    with pytest.raises(CheckFailed):
        checks.check_spectra(bad_points, bad_loops, ind)
    lines[1] = str(len(points) + 1)
    bad.write_text("\n".join(lines))
    with pytest.raises(CheckFailed):
        checks.parse_mesh_file(str(bad))


def test_file_checks_reject_wrong_aspect_and_changed_bytes(cli_round, tmp_path):
    _, out_dir = cli_round
    rows = checks.read_csv(os.path.join(out_dir, "isotropic_L01_audit_elements.csv"))
    checks.check_aspects(rows)
    rows[3]["aspect"] = "1.99"
    with pytest.raises(CheckFailed):
        checks.check_aspects(rows)
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    assert checks.tree_digest(str(copy)) == checks.tree_digest(out_dir)
    with open(copy / "convergence.csv", "a") as fh:
        fh.write("\n")
    assert checks.tree_digest(str(copy))[0] != checks.tree_digest(out_dir)[0]


@pytest.mark.parametrize("workload", ["aniso_layer", "uniform_grid"])
def test_reduced_run_passes_all_checks(workload):
    result = workloads.run_round(workload, 3, time.monotonic(), trace=True, small=True)
    assert result["failures"] == []
    assert result["attempted"] > 20
    assert result["ndof_at_eta"] > 0.0 and result["l2_final"] > 0.0
    assert set(result["layers"]) == set(run.PER_LAYER)


def test_reduced_cli_run_passes_all_checks(cli_round):
    result, _ = cli_round
    assert result["failures"] == []
    layers = result["layers"]
    assert layers["cli.bytes_written"] == result["bytes_written"] > 0
    assert layers["regularity.audit_s"] > 0.0 and layers["regularity.lp_solves"] > 0
    again = workloads.run_round("cli_polygonal", 5, time.monotonic(), small=True, tag="again")
    assert again["digest"] == result["digest"]


@pytest.mark.parametrize("round_s, expected", [(60.0, 2), (30.0, 5)])
def test_run_stops_before_the_deadline(monkeypatch, capsys, round_s, expected):
    clock = [0.0]
    timeouts = []

    def fake_round(workload, seed, trace, index, timeout, setup_only=False):
        if setup_only:
            clock[0] += 1.0
            return {"setup_s": 0.25}
        timeouts.append(timeout)
        clock[0] += round_s
        return {"setup_s": 0.5, "run_s": round_s - 1.0, "peak_rss_mb": 100.0,
                "ndof_at_eta": 500.0, "l2_final": 0.01, "attempted": 10, "failures": []}

    monkeypatch.setattr(run, "run_round", fake_round)
    monkeypatch.setattr(run, "time", type("Clock", (), {"monotonic": lambda: clock[0]}))
    assert run.main(["--workload", "aniso_layer", "--seed", "1", "--seconds", "1000"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 10 * expected + 2 * (expected - 1)
    assert len(timeouts) == expected and clock[0] <= run.DEADLINE_S
    assert all(t >= round_s for t in timeouts)
    setups = [0.25] * run.SETUP_REPEATS + [0.5] * expected
    assert result["metrics"]["setup_s"]["value"] == statistics.median(setups)


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
