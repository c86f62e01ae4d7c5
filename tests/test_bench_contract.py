"""The benchmark imports lcplab names and reads attributes of what they
return.  Each workload of ``lcpbench/workloads.py`` is built here at
seed 1, round 0 (lattice-search also at rounds 1 and 2, whose fresh
random bases reach more of the lattice code, and structures at rounds
1 and 2, whose 78 fresh structures the checks recompute in plain
Fractions apart from the constructors' integer forms), and every one of its
inputs is run and checked by ``lcpbench/checks.py``, so an API change
that would break a benchmark run fails this test first."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lcplab.detect as detect
import lcplab.fixtures as fixtures
import lcplab.lowdim as lowdim
from lcplab import kernels

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


def test_catalog_verdicts_read_no_fixture(monkeypatch):
    # one catalog pass's sample_lattice_verdict calls, made as the
    # workload makes them, read no fixture and search no flat space:
    # every verdict reads C alone, and g_{5.13} at q=-1/3 is still
    # decided by codim2_highdim
    wround = workloads.WORKLOADS["catalog"](1, 0)
    read = []
    for module, name in ((fixtures, "fixture_dir"), (detect, "maximal_flat_parallel")):
        call = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, name=name, call=call: read.append(name) or call(*a))
    lat = {
        i: lowdim.sample_lattice_verdict(lowdim.SAMPLES[i], t_range=workloads.CATALOG_T_RANGE, seed=0)
        for i in wround.inputs
    }
    assert read == []
    g513 = ("g_{5.13}^{-1-2q,q,r}", {"q": -Fraction(1, 3), "r": 1})
    (i,) = [i for i in wround.inputs if (lowdim.SAMPLES[i].name, lowdim.SAMPLES[i].params) == g513]
    assert lat[i]["evidence"] == "codim2_highdim" and lat[i]["verdict"].rule == "codim2_highdim"


def test_lattice_search_makes_no_float_eigen_solve(monkeypatch):
    # every lattice-search verdict is exact: the norm bound settles each
    # t-range clamp, the hyperbolic slots are listed by trace level and
    # the complex ones have a root off both axes, so no slot reaches the
    # float spectrum
    solves = []
    eigvals, spectrum = np.linalg.eigvals, kernels.spectrum
    monkeypatch.setattr(np.linalg, "eigvals", lambda *a: solves.append("eigvals") or eigvals(*a))
    monkeypatch.setattr(kernels, "spectrum", lambda *a: solves.append("spectrum") or spectrum(*a))
    for seed in (1, 2, 3):
        for rnd in (0, 1, 2):
            wround = workloads.WORKLOADS["lattice-search"](seed, rnd)
            for inp in wround.inputs:
                wround.run(inp)
    assert solves == []
