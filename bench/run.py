"""Benchmark for dyck312: run a workload and print its metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; dyck312 is imported from its src/. Each
workload runs in a fresh interpreter (worker.py). Set-up is timed over several
fresh interpreters and reported as the median. Times are in reference-speed
seconds (clock.py). With --trace 0 the metrics are
the end-to-end ones in BENCHMARK.json; with --trace 1 they are the per-layer
ones, from batches run with the tracer installed, and the spans of the last
traced batch are written to .bench_trace/<workload>.spans. The last line of
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from clock import CAL_REF_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9  # fresh interpreters timed for set-up per run
TIME_LIMIT_S = 170  # a run must end within 180 s


class RunFailed(Exception):
    pass


def launch(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its 'ready' line; return it and the set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line != "ready\n":
        _, err = finish(proc, deadline)
        raise RunFailed(f"worker did not start:\n{err}")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{err}")
    return out, err


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    setups = []
    cal = calibrate()
    for _ in range(SETUP_SAMPLES):
        proc, setup = launch(["--probe"], deadline)
        finish(proc, deadline)
        next_cal = calibrate()
        setups.append(setup * CAL_REF_S * 2 / (cal + next_cal))
        cal = next_cal
    proc, _ = launch(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--trace-out", os.path.join(ROOT, ".bench_trace")],
        deadline,
    )
    out, _ = finish(proc, deadline)
    raw = json.loads(out.strip().splitlines()[-1])
    walls = raw["walls"]
    values = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    if trace:
        values.update(raw["layers"])
        values["trace.overhead_s"] = statistics.median(raw["traced_walls"]) - values["wall_s"]
    return {"raw": raw, "values": values}


def report(name: str, spec: dict, trace: int, run: dict) -> dict:
    raw, values = run["raw"], run["values"]
    attempted, failed = raw["attempted"], raw["failed"]
    batches = len(raw["walls"]) + len(raw["traced_walls"])
    print(f"# {name}: {batches} batches, {attempted} operations checked")
    print(f"fail_rate = {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values[m["name"]]
        note = " (computed: n_max * dim^2)" if m["name"].endswith(".cell_ops") else ""
        print(f"{m['name']} = {value:.6g} {m['unit']}{note}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not trace:
        print(f"wall_s per batch: {', '.join(f'{w:.4f}' for w in raw['walls'])}")
        print(f"raw wall seconds per batch: {', '.join(f'{w:.4f}' for w in raw['raw_walls'])}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dyck312", "cli.py")):
        print(f"error: no dyck312 sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for name in names if args.workload == "all" else [args.workload]:
        deadline = perf_counter() + TIME_LIMIT_S
        try:
            run = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except RunFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(name, spec, args.trace, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
