"""One segment of a benchmark run, in a fresh interpreter.

Imports lcplab and builds the inputs of its rounds (the set-up), then
runs the operations one after the other, each starting when the last
returned.  The reference kernel runs between operations, never inside
one.  After each operation its output is checked, outside the timed
region.  Prints one JSON object on stdout.

Run by ``run.py``; by hand:
    python3 lcpbench/worker.py --workload structures --seed 1 --round 0 --t-spawn 0
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

# seconds of operation time between two kernel samples
KERNEL_EVERY_S = 0.25


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True, help="index of the round")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up, sample the kernel and exit without operations")
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args(argv)

    import lcplab  # noqa: F401  (set-up: the import is part of it)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wround = wl(args.seed, args.round)
    t_setup_end = time.monotonic()
    setup_s = t_setup_end - (args.t_spawn if args.t_spawn > 0 else T_START)

    # not part of set-up: the benchmark's own checks and kernel
    import calib
    import checks
    import paper_tables

    paper_rows = paper_tables.rows()
    kernel = [calib.run_kernel() for _ in range(3)]
    kernel_at = [0, 0, 0]
    ops = []
    since_kernel = 0.0
    for slot, inp in enumerate([] if args.setup_only else wround.inputs):
        if since_kernel >= KERNEL_EVERY_S:
            kernel.append(calib.run_kernel())
            kernel_at.append(len(ops))
            since_kernel = 0.0
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            out = wround.run(inp)
            err = None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        dt, dc = time.perf_counter() - t0, time.thread_time() - c0
        since_kernel += dt
        if err is None:
            try:
                wround.check(inp, out, checks, paper_rows)
            except checks.CheckFailed as exc:
                err = f"check failed: {exc}"
        ops.append({"round": args.round, "slot": slot, "raw_s": dt, "cpu_s": dc, "error": err,
                    "key": wround.key(inp)})
    kernel.append(calib.run_kernel())
    kernel_at.append(len(ops))

    result = {
        "setup_s": setup_s,
        "kernel_s": [k[0] for k in kernel],
        "kernel_cpu_s": [k[1] for k in kernel],
        "kernel_at": kernel_at,
        "ops": ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import tracing

        result["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "counters": tracer.counters,
            "per_call_overhead_s": tracing.per_call_overhead(),
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
