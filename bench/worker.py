"""One fresh interpreter per workload, started by run.py.

It first imports dyck312.cli from the checkout's src/ and builds the CLI
parser, then prints 'ready': run.py times that as set-up. With --probe it
stops there. Otherwise it builds the workload, runs batches for the given
number of seconds, checks every batch, and prints one JSON line of raw
results. Its peak resident memory therefore belongs to this workload alone.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import dyck312.cli  # noqa: E402

dyck312.cli.build_parser()
if not os.path.abspath(dyck312.__file__).startswith(SRC + os.sep):
    sys.exit(f"dyck312 was imported from {dyck312.__file__}, not from {SRC}")
print("ready", flush=True)


def main(argv: list[str]) -> int:
    import argparse
    import json
    import resource
    import statistics
    from time import perf_counter

    from clock import Clock
    from tracer import Tracer
    from workloads import WORKLOADS, Session, digest

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out", default=None, help="directory for the span file")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    verdicts: dict[str, tuple[int, int]] = {}
    walls: list[float] = []
    raw_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    began = perf_counter()
    clock = Clock()
    while True:
        # In a traced run, untraced and traced batches alternate, so that the
        # tracing overhead is measured under the same conditions.
        traced = tracer is not None and len(walls) > len(traced_walls)
        session = Session(tracer if traced else None, clock)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            clock.start()
            outputs = workload.batch(session)
            raw, wall = clock.finish()
        finally:
            if traced:
                tracer.restore()
        if traced:
            traced_walls.append(wall)
            layers.append(tracer.metrics(session.output_bytes))
        else:
            walls.append(wall)
            raw_walls.append(raw)
        key = digest(outputs)
        if key not in verdicts:
            verdicts[key] = workload.check(outputs)
        attempted += verdicts[key][0]
        failed += verdicts[key][1]
        if perf_counter() - began >= args.seconds and (tracer is None or traced_walls):
            break

    if tracer is not None and args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
        tracer.dump(os.path.join(args.trace_out, f"{args.workload}.spans"))
    result = {
        "walls": walls,
        "raw_walls": raw_walls,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": {k: statistics.median(d[k] for d in layers) for k in layers[0]} if layers else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--probe"]:
        sys.exit(main(sys.argv[1:]))
