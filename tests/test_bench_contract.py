"""The benchmark imports lcplab names and reads attributes of what they
return.  Each workload of ``lcpbench/workloads.py`` is built here at
seed 1, round 0 (lattice-search also at rounds 1 and 2, whose fresh
random bases reach more of the lattice code, and structures at rounds
1 and 2, whose 78 fresh structures the checks recompute in plain
Fractions apart from the constructors' integer forms), and every one of its
inputs is run and checked by ``lcpbench/checks.py``, so an API change
that would break a benchmark run fails this test first."""

import importlib.util
from pathlib import Path

import pytest

LCPBENCH = Path(__file__).parent.parent / "lcpbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"lcpbench_{name}", LCPBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


def _run_and_check(name, rnd):
    checks, paper_rows = _load("checks"), _load("paper_tables").rows()
    wround = workloads.WORKLOADS[name](1, rnd)
    for inp in wround.inputs:
        wround.key(inp)
        wround.check(inp, wround.run(inp), checks, paper_rows)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name):
    _run_and_check(name, 0)


@pytest.mark.parametrize("rnd", [1, 2])
def test_lattice_search_later_rounds_pass_their_checks(rnd):
    _run_and_check("lattice-search", rnd)


@pytest.mark.parametrize("rnd", [1, 2])
def test_structures_later_rounds_pass_their_checks(rnd):
    _run_and_check("structures", rnd)
