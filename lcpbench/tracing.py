"""Per-layer tracing of lcplab from outside its source.

``install`` replaces the public functions of each layer module by
wrappers that record a span per call: calls, and self time (the span's
duration minus that of its traced child spans).  A function is wrapped
under every name by which any lcplab module holds it, so calls made
through a name imported with ``from .x import f`` are seen as well.

Grid-point work inside ``kernels.scan_defects`` is counted as scan
points, not as ``expm``/``charpoly_coeffs`` calls: those two are
recorded only outside the scan (refinement and certification).
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function names wrapped for calls and self time)
LAYERS = [
    ("exact", ["rref", "nullspace", "solve", "det", "charpoly"]),
    ("algebra", ["audit_algebra", "almost_abelian_presentation"]),
    ("weyl", ["levi_civita", "weyl_connection", "curvature"]),
    ("detect", ["verify_lcp", "maximal_flat_parallel", "classify", "structural_audit"]),
    (
        "construct",
        ["semidirect_lcp", "almab_lcp", "flag_lcp", "amalgamated_product", "metric_modification"],
    ),
    ("lowdim", ["verify_table", "sample_lattice_verdict", "table_algebra"]),
    (
        "lattice",
        [
            "lattice_verdict",
            "integer_charpoly_scan",
            "certify_witness",
            "certify_witness_blocked",
            "no_lattice_double_root",
        ],
    ),
    ("kernels", ["scan_defects", "expm", "charpoly_coeffs"]),
    ("intpoly", ["int_charpoly", "int_det", "companion"]),
    ("docfmt", ["parse_file"]),
    ("fixtures", ["witness_specs_from_fixtures"]),
]

# spans reported with calls only (their self time is not a metric)
CALLS_ONLY = {
    "lowdim.table_algebra",
    "lattice.certify_witness_blocked",
    "lattice.no_lattice_double_root",
    "kernels.charpoly_coeffs",
    "intpoly.int_det",
    "intpoly.companion",
}
# spans reported with self time only
SELF_ONLY = {"fixtures.witness_specs_from_fixtures"}
COUNTERS = [
    "lattice.scan.candidates",
    "lattice.witnesses",
    "lattice.certificates",
    "kernels.scan.points",
]
_INSIDE_SCAN_PASSTHROUGH = {"kernels.expm", "kernels.charpoly_coeffs"}


def span_names() -> list:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS for fn in fns]
    names.insert(names.index("algebra.audit_algebra"), "algebra.LieAlgebra")
    return names


def metric_names() -> list:
    """Every per-layer metric name a traced run reports."""
    out = []
    for name in span_names():
        if name not in SELF_ONLY:
            out.append(f"{name}.calls")
        if name not in CALLS_ONLY:
            out.append(f"{name}.self_s")
    out += COUNTERS + ["lattice.certify.yield", "trace.wrapped_calls", "trace.overhead_s"]
    return out


class Tracer:
    """Span stack with per-name aggregates and counters, kept in memory."""

    def __init__(self):
        self.calls = {name: 0 for name in span_names()}
        self.self_s = {name: 0.0 for name in span_names()}
        self.counters = {name: 0 for name in COUNTERS}
        # each open span: [name, child seconds]
        self._stack = []

    def wrap(self, name, fn, after=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        passthrough = name in _INSIDE_SCAN_PASSTHROUGH
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if passthrough and stack and stack[-1][0] == "kernels.scan_defects":
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(self.counters, args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced


def _count_scan(counters, args, result):
    counters["lattice.scan.candidates"] += len(result)


def _count_verdict(counters, args, result):
    counters["lattice.witnesses"] += len(result.witnesses)
    counters["lattice.certificates"] += len(result.certificates)


def _count_points(counters, args, result):
    counters["kernels.scan.points"] += len(args[1])


_AFTER = {
    "lattice.integer_charpoly_scan": _count_scan,
    "lattice.lattice_verdict": _count_verdict,
    "kernels.scan_defects": _count_points,
}


def install() -> Tracer:
    """Wrap every traced function under every name lcplab holds it by."""
    import importlib

    import lcplab
    from lcplab import algebra

    for mod_name, _ in LAYERS:
        importlib.import_module(f"lcplab.{mod_name}")
    tracer = Tracer()
    modules = [m for k, m in sorted(sys.modules.items()) if k == "lcplab" or k.startswith("lcplab.")]
    for mod_name, fns in LAYERS:
        mod = sys.modules[f"lcplab.{mod_name}"]
        for fn_name in fns:
            original = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped = tracer.wrap(name, original, _AFTER.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
    init = algebra.LieAlgebra.__init__
    algebra.LieAlgebra.__init__ = tracer.wrap("algebra.LieAlgebra", init)
    if not getattr(lcplab.lattice_verdict, "__wrapped_by_tracer__", False):
        raise RuntimeError("tracing wrappers were not installed on the lcplab namespace")
    return tracer


def per_call_overhead(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a
    no-op function with the same wrapper."""

    def noop():
        return None

    wrapped = Tracer().wrap("exact.rref", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    plain = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped()
    traced = clock() - t0
    return max(traced - plain, 0.0) / calls
