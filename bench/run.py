"""Benchmark entry point: runs one workload as whole rounds, each in a fresh process.

    python3 bench/run.py --workload aniso_layer --seed 1 --seconds 25 --trace 0

Each round is a new single-threaded Python process (bench/workloads.py),
because anisomesh keeps module-global caches (the star-kernel cache in
regularity) that would otherwise carry over and make later rounds cheaper
than a user's run.  Rounds run one after another until the next one would
end past ``--seconds`` (or past ``DEADLINE_S``, whichever comes first), and
at least twice, so that every run can compare outputs between two rounds.
Untraced runs first start ``SETUP_REPEATS`` processes that only set up, and
report ``setup_s`` as the median over those and the rounds.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones (medians over rounds),
with ``--trace 1`` the per-layer ones from the traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from tracing import COUNTS, RATIOS, SELF_TIMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
# Untraced runs also start this many set-up-only processes, so that
# setup_s, which is short and noisy, is a median of MIN_ROUNDS + 3 samples.
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ndof_at_eta": "nodes",
    "l2_final": "1",
}
# Deterministic outputs: every round must report them bit for bit.
REPEATABLE = ("ndof_at_eta", "l2_final", "digest")

PER_LAYER = {name: "s" for name in SELF_TIMES}
PER_LAYER.update({name: "count" for name in COUNTS})
PER_LAYER["cli.bytes_written"] = "bytes"
PER_LAYER.update({name: "1" for name in RATIOS})

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "ANISOMESH_THREADS": "1"}


def run_round(workload, seed, trace, index, timeout, setup_only=False):
    """One fresh-process round; returns its record, or raises RuntimeError."""
    os.makedirs(OUT_ROOT, exist_ok=True)
    tag = f"trace{trace}-{'s' if setup_only else 'r'}{index}"
    out = os.path.join(OUT_ROOT, f"{workload}-{tag}.json")
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ)
    env.update(THREAD_ENV)
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--spawned", repr(spawned),
           "--out", out, "--tag", tag] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"round {index} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"round {index} exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def aggregate(rounds, trace, setups=()):
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    for key in REPEATABLE:
        if key not in rounds[0]:
            continue
        values = [r[key] for r in rounds]
        for i, v in enumerate(values[1:], start=2):
            attempted += 1
            if v != values[0]:
                failures.append(f"{key} differs between round 1 ({values[0]!r}) "
                                f"and round {i} ({v!r})")
    if trace:
        names = PER_LAYER
        values = {k: [r["layers"][k] for r in rounds] for k in names}
    else:
        names = END_TO_END
        values = {k: [r[k] for r in rounds] for k in names}
        values["setup_s"] += list(setups)
    metrics = {}
    for name, unit in names.items():
        if any(v is None for v in values[name]):
            continue  # its check failed and is listed in failures
        metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="anisomesh benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "anisomesh")):
        print(f"error: no anisomesh sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    start = time.monotonic()
    setups = []
    if not args.trace:
        for i in range(1, SETUP_REPEATS + 1):
            try:
                setups.append(run_round(args.workload, args.seed, 0, i,
                                        DEADLINE_S - (time.monotonic() - start),
                                        setup_only=True)["setup_s"])
            except RuntimeError as exc:
                print(f"error: {args.workload}: set-up {exc}", file=sys.stderr)
                return 1
    rounds = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + longest > min(args.seconds, DEADLINE_S):
            break
        t0 = time.monotonic()
        try:
            rounds.append(run_round(args.workload, args.seed, args.trace, len(rounds) + 1,
                                    DEADLINE_S - elapsed))
        except RuntimeError as exc:
            print(f"error: {args.workload}: {exc}", file=sys.stderr)
            return 1
        longest = max(longest, time.monotonic() - t0)
        r = rounds[-1]
        print(f"round {len(rounds)}: setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} checks failed={len(r['failures'])}",
              flush=True)

    result, failures = aggregate(rounds, args.trace, setups)
    for f in failures:
        print(f"FAILED {f}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
