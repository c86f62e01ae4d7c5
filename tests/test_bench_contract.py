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


def test_catalog_reads_fixtures_only_where_the_codim2_rule_can_fire(monkeypatch):
    # over one pass of the catalog workload, sample_lattice_verdict reads
    # a row's fixtures only at n >= 5 with n - 2 among the row's flat
    # dimensions: g_{5.7} at p=q=r=1/3 and g_{5.13} at q=-1/3, of which
    # the second is still decided by codim2_highdim
    wround = workloads.WORKLOADS["catalog"](1, 0)
    read, parse = [], lowdim.witness_specs_from_fixtures
    monkeypatch.setattr(
        lowdim, "witness_specs_from_fixtures", lambda s: read.append((s.name, s.params)) or parse(s)
    )
    lat = {inp: wround.run(inp)[1] for inp in wround.inputs}
    third = Fraction(1, 3)
    g57 = ("g_{5.7}^{p,q,r}", {"p": third, "q": third, "r": third})
    g513 = ("g_{5.13}^{-1-2q,q,r}", {"q": -third, "r": 1})
    assert read == [g57, g513]
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
