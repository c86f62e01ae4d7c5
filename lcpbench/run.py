"""lcplab benchmark: one command for the catalog, lattice-search and
structures workloads.

    python3 lcpbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

A run is a closed loop with one caller: segments run one after another,
each a fresh interpreter (``worker.py``) that imports lcplab, builds one
round of inputs and runs its operations back to back.  A run makes as
many whole rounds as take ``--seconds`` calibrated seconds on the
reference machine.  With ``--trace 1`` the same rounds run with every
layer traced, so the per-layer counts repeat exactly per seed.

Times are reported in calibrated seconds: raw seconds times
``calib.K_REF / k``, with ``k`` the trimmed mean time of the reference
kernel in the segment (for set-up times: in the run).  Raw figures are printed
on the line before the result.  The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calib  # noqa: E402

WORKLOADS = ("catalog", "lattice-search", "structures")
# planned calibrated seconds per round: a run makes round(--seconds /
# ROUND_S) rounds (at least one), so that every run of a workload has the
# same make-up whatever the load of the machine.  At --seconds 20 that is
# 2, 3 and 1 rounds, which take about 26, 22 and 27 calibrated seconds.
ROUND_S = {"catalog": 10.0, "lattice-search": 6.7, "structures": 20.0}
SEGMENT_TIMEOUT_S = 150
# extra fresh interpreters per run that only time the set-up
SETUP_PROBES = 4
MIN_COMPLETED_OPS = 10


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("LCPLAB_FIXTURES", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_segment(workload, seed, rnd, trace, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(rnd), "--trace", str(trace)]
    cmd += ["--setup-only"] if setup_only else []
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True, timeout=SEGMENT_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"segment exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("segment printed no result")
    return json.loads(lines[-1])


def check_sources():
    if not os.path.isfile(os.path.join(ROOT, "src", "lcplab", "__init__.py")):
        raise BenchError("src/lcplab not found next to the benchmark: nothing to measure")
    for d in (os.path.join(ROOT, "src", "lcplab"), HERE):
        compileall.compile_dir(d, quiet=1, maxlevels=0)


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, with Beta((n+1)p, (n+1)(1-p)) weights.  It is an
    estimator of the same quantile as the sample quantile, but it does
    not rest on the one or two operations that happen to sit at p, so it
    varies less from run to run when single operations are noisy."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], xs))


def summarise(workload, seed, segments, seconds, trace, wall_s) -> dict:
    ops = [op for seg in segments for op in seg["ops"]]
    keys = [op["key"] for op in ops]
    k_run = calib.level([k for seg in segments for k in seg["kernel_s"]])
    scale = calib.K_REF / k_run
    failed = [op for op in ops if op["error"] is not None]
    wrong = [op for op in failed if op["error"].startswith("check failed")]
    ok_raw = [op["raw_s"] for op in ops if op["error"] is None]
    # an operation is calibrated by the kernel of its own segment
    ok_cal = [
        op["raw_s"] * calib.K_REF / calib.level(seg["kernel_s"])
        for seg in segments for op in seg["ops"] if op["error"] is None
    ]
    # catalog passes repeat the same 27 rows by design; the others never
    # repeat an input within a run
    repeated = workload != "catalog" and len(set(keys)) != len(keys)
    setup_raw = statistics.median(seg["setup_s"] for seg in segments)
    raw = {
        "setup_s": setup_raw,
        "ops_per_s": len(ok_raw) / sum(ok_raw),
        "op_p50_s": quantile(ok_raw, 0.5),
        "op_p90_s": quantile(ok_raw, 0.9),
    }
    cal = {
        "setup_s": setup_raw * scale,
        "ops_per_s": len(ok_cal) / sum(ok_cal),
        "op_p50_s": quantile(ok_cal, 0.5),
        "op_p90_s": quantile(ok_cal, 0.9),
    }
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in cal.items()}
    metrics["peak_rss_mb"] = {"value": max(seg["rss_mb"] for seg in segments), "unit": "MB"}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "wall_s": wall_s, "segments": len(segments), "ops": len(ops),
        "k_run_s": k_run, "k_ref_s": calib.K_REF, "scale": scale,
        "raw": raw, "metrics": metrics,
        "failures": [f"round {op['round']} slot {op['slot']}: {op['error']}" for op in failed],
        "attempted": len(ops), "failed": len(failed),
        "correct": not wrong and not repeated, "inputs_repeated": repeated,
        "segment_detail": [
            {"setup_s": seg["setup_s"], "kernel_s": seg["kernel_s"], "kernel_at": seg["kernel_at"],
             "kernel_cpu_s": seg["kernel_cpu_s"],
             "op_raw_s": [op["raw_s"] for op in seg["ops"]],
             "op_cpu_s": [op["cpu_s"] for op in seg["ops"]]}
            for seg in segments
        ],
    }


def trace_metrics(segments, scale) -> dict:
    import tracing

    calls, self_s, counters = {}, {}, {}
    overhead = 0.0
    for seg in segments:
        tr = seg["trace"]
        for k, v in tr["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in tr["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in tr["counters"].items():
            counters[k] = counters.get(k, 0) + v
        overhead += tr["per_call_overhead_s"] * sum(tr["calls"].values())
    out = {}
    for name in tracing.span_names():
        if name not in tracing.SELF_ONLY:
            out[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        if name not in tracing.CALLS_ONLY:
            out[f"{name}.self_s"] = {"value": self_s[name] * scale, "unit": "s"}
    for name in tracing.COUNTERS:
        out[name] = {"value": counters[name], "unit": "count"}
    cand = counters["lattice.scan.candidates"]
    out["lattice.certify.yield"] = {
        "value": counters["lattice.witnesses"] / cand if cand else 0.0, "unit": "ratio"}
    out["trace.wrapped_calls"] = {"value": sum(calls.values()), "unit": "count"}
    out["trace.overhead_s"] = {"value": overhead * scale, "unit": "s"}
    return out


def run(workload, seed, seconds, trace) -> dict:
    check_sources()
    t0 = time.monotonic()
    rounds = max(1, round(seconds / ROUND_S[workload]))
    segments = [run_segment(workload, seed, rnd, trace) for rnd in range(rounds)]
    if not trace:
        for _ in range(SETUP_PROBES):
            segments.append(run_segment(workload, seed, rounds, 0, setup_only=True))
    completed = sum(op["error"] is None for seg in segments for op in seg["ops"])
    if completed < MIN_COMPLETED_OPS:
        raise BenchError(f"only {completed} operations completed: too few to report timings")
    summary = summarise(workload, seed, segments, seconds, trace, time.monotonic() - t0)
    if trace:
        summary["trace_metrics"] = trace_metrics(segments, summary["scale"])
    return summary


def write_output(summary):
    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "trace" if summary["trace"] else "run"
    path = os.path.join(OUT_DIR, f"{kind}-{summary['workload']}-seed{summary['seed']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 2
    write_output(summary)
    for line in summary["failures"]:
        print(f"FAILED {line}")
    m, raw = summary["metrics"], summary["raw"]
    print(f"{summary['workload']} seed={summary['seed']}: {summary['attempted']} ops "
          f"({summary['failed']} failed) in {summary['segments']} segments, "
          f"wall {summary['wall_s']:.1f} s, k_run {summary['k_run_s'] * 1e3:.2f} ms "
          f"(k_ref {calib.K_REF * 1e3:.2f} ms)")
    for name in ("setup_s", "ops_per_s", "op_p50_s", "op_p90_s"):
        print(f"  {name:<12} {m[name]['value']:.4f} {m[name]['unit']:<4} calibrated   "
              f"{raw[name]:.4f} raw")
    print(f"  {'peak_rss_mb':<12} {m['peak_rss_mb']['value']:.1f} MB")
    print(json.dumps({"raw": raw, "wall_s": summary["wall_s"], "k_run_s": summary["k_run_s"]}))
    metrics = summary["trace_metrics"] if args.trace else m
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
