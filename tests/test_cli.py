import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from lcplab import cli

DATA = Path(__file__).parent / "data"

E11 = """dim 3
label e(1,1)
bracket 1 2 : 0 1 0
bracket 1 3 : 0 0 -1
theta : -1 0 0
"""

BROKEN = """dim 3
bracket 1 2 : 0 0 1
bracket 1 3 : 1 0 0
"""

ROTATION = """dim 3
label rotation
bracket 1 2 : 0 0 1
bracket 1 3 : 0 -1 0
"""

ALMAB = """dim 1
block A : 1
block B : 0 -1 ; 1 0
"""


def run_cli(*args, max_bytes=None, fresh=False):
    """Run the CLI in this process through ``cli.main``, with its output
    captured; the exit code is main's return value, or argparse's through
    SystemExit.  ``max_bytes`` or ``fresh`` runs ``python -m lcplab.cli``
    in a new process instead: ``max_bytes`` caps its address space, so a
    command that tried to allocate past it fails instead of swapping."""
    if max_bytes is not None or fresh:
        limit = None
        if max_bytes is not None:
            def limit():
                resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))
        return subprocess.run(
            [sys.executable, "-m", "lcplab.cli", *args], capture_output=True, text=True, preexec_fn=limit
        )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as e:
            code = e.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def assert_input_error(out, *words):
    """Exit code 2 with a one-line error naming ``words``, no traceback."""
    assert out.returncode == 2
    assert len(out.stderr.strip().splitlines()) == 1 and "Traceback" not in out.stderr
    assert all(w in out.stderr for w in words)


@pytest.fixture()
def e11_doc(tmp_path):
    p = tmp_path / "e11.lcp"
    p.write_text(E11)
    return str(p)


def test_check(e11_doc):
    # the module entry point, in a new interpreter
    out = run_cli("check", "--input", e11_doc, fresh=True)
    assert out.returncode == 0
    assert "unimodular: True" in out.stdout


def test_check_jacobi_violation(tmp_path):
    p = tmp_path / "broken.lcp"
    p.write_text(BROKEN)
    out = run_cli("check", "--input", str(p))
    assert out.returncode == 1
    assert "jacobi_ok: False" in out.stdout
    assert "jacobi_witness: (0, 1, 2)" in out.stdout


def test_detect(e11_doc):
    out = run_cli("detect", "--input", e11_doc)
    assert out.returncode == 0
    assert "adapted, flat_dim=1" in out.stdout


def test_verify(e11_doc):
    out = run_cli("verify", "--input", e11_doc)
    assert out.returncode == 0
    assert "verification: pass" in out.stdout
    assert "structural audit: pass" in out.stdout


def test_verify_explicit_flat_failure(tmp_path):
    # span(e2) is not a flat subspace for this Lee form: exit 1
    p = tmp_path / "bad_flat.lcp"
    p.write_text(E11 + "flat : 0 1 0\n")
    out = run_cli("verify", "--input", str(p))
    assert out.returncode == 1
    assert "verification: FAIL" in out.stdout


# an almost abelian structure whose maximal flat is span(e3, e4)
HALVES = """dim 4
bracket 1 2 : 0 1 0 0
bracket 1 3 : 0 0 -1/2 0
bracket 1 4 : 0 0 0 -1/2
theta : -1/2 0 0 0
"""


def test_verify_reads_the_flat_directive(tmp_path):
    # a line inside the maximal flat is verified as given, not replaced
    p = tmp_path / "line.lcp"
    p.write_text(HALVES + "flat : 0 0 1 0\n")
    out = run_cli("verify", "--input", str(p))
    assert out.returncode == 0
    assert "verification: pass" in out.stdout and "flat_dim=1" in out.stdout
    p.write_text(HALVES)
    assert "flat_dim=2" in run_cli("verify", "--input", str(p)).stdout


def test_verify_without_theta_exit_code(tmp_path):
    p = tmp_path / "no_theta.lcp"
    p.write_text(HALVES.replace("theta : -1/2 0 0 0\n", ""))
    assert_input_error(run_cli("verify", "--input", str(p)), "theta")


def test_construct_error_exit_code(tmp_path):
    p = tmp_path / "tz.lcp"
    p.write_text("dim 1\nblock A : 0\nblock B : 0\n")
    out = run_cli("construct", "almab", "--input", str(p))
    assert out.returncode == 2
    assert "TraceZero" in out.stderr


def test_oversized_construct_exit_code(tmp_path):
    # h + R^q past the envelope is refused before any q x q block is
    # made; the cap makes an attempt fail at once instead
    p = tmp_path / "huge_q.lcp"
    p.write_text("dim 2\nbracket 1 2 : 0 1\nscalar q 1000000000\n")
    out = run_cli("construct", "semidirect", "--input", str(p), max_bytes=4 * 2**30)
    assert_input_error(out, "EnvelopeExceeded", "dim <= 16")


def test_construct_past_the_envelope_is_refused_first(tmp_path, monkeypatch, capsys):
    from lcplab import construct

    def no_assembly(*args):
        raise AssertionError("assembled past the envelope")

    monkeypatch.setattr(construct, "_semidirect_c", no_assembly)
    p = tmp_path / "q15.lcp"
    p.write_text("dim 2\nbracket 1 2 : 0 1\nscalar q 15\n")
    assert cli.main(["construct", "semidirect", "--input", str(p)]) == 2
    assert "EnvelopeExceeded" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "bad.lcp"
    p.write_text("dim 3\nbracket 1 2 : 0 2/4 0\n")
    out = run_cli("check", "--input", str(p))
    assert out.returncode == 2
    assert "line 2" in out.stderr


def test_oversized_dim_exit_code(tmp_path):
    p = tmp_path / "big.lcp"
    p.write_text("dim 17\n")
    out = run_cli("check", "--input", str(p))
    assert out.returncode == 2
    assert "envelope" in out.stderr


@pytest.mark.parametrize("spec", ["3", "a:b", "nan:nan", "5:1", "-5:-6"])
def test_bad_t_range_exit_code(e11_doc, spec):
    # not A:B, not numbers, or an empty range; a negative start is read
    # as the range's value in either form, not as a flag
    for args in (["--t-range", spec], [f"--t-range={spec}"]):
        assert_input_error(run_cli("lattice", "search", "--input", e11_doc, *args), "t-range")
        assert_input_error(run_cli("tables", *args), "t-range")


def test_a_negative_t_range_start_is_read_in_both_forms(e11_doc):
    outs = {}
    for cmd in (("lattice", "search", "--input", e11_doc, "--format", "machine"), ("tables",)):
        spaced, joined = run_cli(*cmd, "--t-range", "-2:2"), run_cli(*cmd, "--t-range=-2:2")
        assert spaced.returncode == joined.returncode == 0
        assert spaced.stdout == joined.stdout
        outs[cmd[0]] = spaced.stdout
    t0s = [w["t0"] for w in json.loads(outs["lattice"])["witnesses"]]
    assert min(t0s) < 0 < max(t0s)


def test_flags_have_one_spelling(e11_doc):
    # no abbreviation is accepted, so --t-ran cannot take a value that
    # --t-range would join
    for flag in (("--t-ran", "-2:2"), ("--form", "machine")):
        out = run_cli("lattice", "search", "--input", e11_doc, *flag)
        assert out.returncode == 2 and "unrecognized arguments" in out.stderr
    for flag in (("--t-range", "-2:2"), ("--t-range=-2:2",)):
        assert run_cli("lattice", "search", "--input", e11_doc, *flag).returncode == 0


NO_BLOCK_A = "dim 1\nblock B : 0 -1 ; 1 0\n"
# construct flag with one block of the wrong shape
FLAG = "dim 1\nblock A : {}\nblock B1 : {}\nblock B2 : 0 -1 ; 1 0\n"
# a non-unimodular h for construct semidirect, with the size q of R^q
SEMIDIRECT_Q = "dim 2\nbracket 1 2 : 0 1\nscalar q {}\n"


@pytest.mark.parametrize(
    "doc, args, words",
    [
        (NO_BLOCK_A, ["construct", "almab"], ["block 'A'"]),
        (NO_BLOCK_A, ["construct", "flag"], ["block 'A'"]),
        (FLAG.format("1 0 ; 0 1 ; 0 0", "0 0 ; 0 0"), ["construct", "flag"], ["DimensionMismatch"]),
        (FLAG.format("1 0 0 ; 0 1 0", "0 0 ; 0 0"), ["construct", "flag"], ["DimensionMismatch"]),
        (FLAG.format("2", "0 0 0 ; 0 0 0"), ["construct", "flag"], ["DimensionMismatch"]),
        (E11, ["construct", "modify", "--lam", "abc"], ["--lam"]),
        (SEMIDIRECT_Q.format("0"), ["construct", "semidirect"], ["scalar q"]),
        (SEMIDIRECT_Q.format("-2"), ["construct", "semidirect"], ["scalar q"]),
        (SEMIDIRECT_Q.format("3/2"), ["construct", "semidirect"], ["scalar q"]),
        (E11, ["lattice", "certify", "--t0", "0.96", "--poly", "1,x,1"], ["--poly"]),
        (E11, ["lattice", "certify", "--t0", "0.96", "--poly", ","], ["--poly"]),
        (E11, ["lattice", "certify", "--t0", "nan", "--poly", "1,-3,1"], ["--t0"]),
        (E11, ["lattice", "certify", "--t0", "0", "--poly", "1,-2,1"], ["--t0"]),
    ],
    ids=[
        "almab-no-A", "flag-no-A", "flag-A-3x2", "flag-A-2x3", "flag-B1-2x3", "lam-abc",
        "q-0", "q-neg", "q-3/2", "poly-x", "poly-comma", "t0-nan",
        "t0-zero",
    ],
)
def test_malformed_values_exit_code(tmp_path, doc, args, words):
    p = tmp_path / "doc.lcp"
    p.write_text(doc)
    assert_input_error(run_cli(*args, "--input", str(p)), *words)


def test_unreadable_input_exit_code(tmp_path):
    latin1 = tmp_path / "latin1.lcp"
    latin1.write_bytes(b"dim 3\nlabel caf\xe9\n")
    for path in (tmp_path, latin1):  # a directory, a file that is not UTF-8
        assert_input_error(run_cli("check", "--input", str(path)), "cannot read")


def test_oversized_scan_grid_exit_code(tmp_path):
    # C a rotation of frequency 1/100 (rho = 1/100), so the range is
    # clamped to 0:5000 only: at step 1e-3 that is a 5 * 10^6-point grid,
    # refused before it is allocated (the cap makes an attempt fail at
    # once instead).  A nilpotent C would get no grid at all
    p = tmp_path / "slow_rotation.lcp"
    p.write_text("dim 3\nbracket 1 2 : 0 0 1/100\nbracket 1 3 : 0 -1/100 0\n")
    out = run_cli(
        "lattice", "search", "--input", str(p), "--t-range", "0:1e6", max_bytes=4 * 2**30
    )
    assert_input_error(out, "EnvelopeExceeded", "scan points")


def test_an_off_axis_c_on_a_long_range_is_inconclusive(tmp_path):
    # 1/100 +- i/100 and -1/50: 0:3000 is clamped to 0:2500, past the grid
    # size, but an off-axis C gets no grid, so it is not refused
    p = tmp_path / "slow_off_axis.lcp"
    p.write_text("dim 4\nbracket 1 2 : 0 1/100 1/100 0\nbracket 1 3 : 0 -1/100 1/100 0\n"
                 "bracket 1 4 : 0 0 0 -1/50\n")
    out = run_cli("lattice", "search", "--input", str(p), "--t-range", "0:3000", "--format", "machine")
    assert out.returncode == 1 and out.stderr == ""
    got = json.loads(out.stdout)
    assert (got["status"], got["rule"], got["inconclusive_ranges"]) == ("inconclusive", "scan", [[0.0, 2500.0]])


def test_dropped_flags_are_refused(e11_doc):
    # --seed seeded only the Krylov probes, and --tol is gone
    assert run_cli("check", "--input", e11_doc, "--seed", "1").returncode == 2
    assert run_cli("tables", "--seed", "1").returncode == 2
    assert run_cli("lattice", "search", "--input", e11_doc, "--seed", "1").returncode == 2
    assert run_cli("lattice", "search", "--input", e11_doc, "--tol", "1e-6").returncode == 2


def test_entries_past_the_float_range_exit_code(tmp_path):
    # e(1,1) scaled by 2^1100: C holds integers no float can, refused
    big = 2**1100
    p = tmp_path / "e11_huge.lcp"
    p.write_text(f"dim 3\nbracket 1 2 : 0 {big} 0\nbracket 1 3 : 0 0 -{big}\n")
    out = run_cli("lattice", "search", "--input", str(p))
    assert_input_error(out, "EnvelopeExceeded", "float range")


def test_hostile_number_exit_code(tmp_path):
    p = tmp_path / "hostile.lcp"
    p.write_text("dim 3\nbracket 1 2 : 0 \u00b2 0\n", encoding="utf-8")
    out = run_cli("check", "--input", str(p))
    assert out.returncode == 2
    assert "line 2" in out.stderr


def test_lattice_search_big_denominator_metric(tmp_path):
    # a metric entry past int64: the presentation's primitive vector is
    # computed on Python integers, so the search ends with a verdict
    q = "1/36472996377170786403"
    p = tmp_path / "e11_big.lcp"
    p.write_text(
        "dim 3\nbracket 1 2 : 0 1 0\nbracket 1 3 : 0 0 -1\n"
        f"metric : 1 {q} 0 ; {q} 1 0 ; 0 0 1\n"
    )
    out = run_cli("lattice", "search", "--input", str(p), "--t-range", "0:2", "--format", "machine")
    assert "Traceback" not in out.stderr
    status = json.loads(out.stdout)["status"]
    assert out.returncode == (1 if status == "inconclusive" else 0)


def test_missing_file():
    assert run_cli("check", "--input", "/nonexistent.lcp").returncode == 2


def test_construct_almab(tmp_path):
    p = tmp_path / "almab.lcp"
    p.write_text(ALMAB)
    out = run_cli("construct", "almab", "--input", str(p))
    assert out.returncode == 0
    assert "flat_dim=2" in out.stdout


def test_construct_amalgam(e11_doc):
    out = run_cli("construct", "amalgam", "--input", e11_doc, "--with", e11_doc)
    assert out.returncode == 0
    assert "dim 5" in out.stdout and "flat_dim=2" in out.stdout


def test_lattice_search_machine_roundtrip(e11_doc):
    out = run_cli(
        "lattice", "search", "--input", e11_doc, "--t-range", "0:2", "--format", "machine"
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["status"] == "yes"
    assert payload["witnesses"][0]["integral_matrix"] == [[0, -1], [1, 3]]
    assert payload["witnesses"][0]["exact"] is True
    assert payload["input_fingerprint"]["almost_abelian"] is True
    # determinism: a second run yields the identical report
    out2 = run_cli(
        "lattice", "search", "--input", e11_doc, "--t-range", "0:2", "--format", "machine"
    )
    assert out2.stdout == out.stdout


def test_text_lattice_search_says_how_each_witness_was_reached(tmp_path, e11_doc):
    # e(1,1) is decided exactly; a rotation's witnesses come from the scan
    # and read numerical, with their residual
    out = run_cli("lattice", "search", "--input", e11_doc, "--t-range", "0:2")
    assert out.returncode == 0
    status, *witnesses = out.stdout.splitlines()
    assert status == "status: yes" and witnesses
    assert all(re.fullmatch(r"witness t0=\S+ poly .+ exact", line) for line in witnesses)
    p = tmp_path / "rotation.lcp"
    p.write_text(ROTATION)
    out = run_cli("lattice", "search", "--input", str(p), "--t-range", "0:7")
    assert out.returncode == 0
    status, *witnesses = out.stdout.splitlines()
    assert status == "status: yes" and len(witnesses) == 8
    assert all(
        re.fullmatch(r"witness t0=\S+ poly .+ numerical \(residual \S+\)", line) for line in witnesses
    )
    assert witnesses[1].startswith("witness t0=1.570796 poly x^2 + 1 numerical (residual ")


def test_lattice_search_refuses_an_exact_nonzero_trace(tmp_path):
    # C = diag(1, -1 + 10^-12) exactly: its trace is judged on the exact
    # values, so the scan's float tolerance no longer lets it through
    p = tmp_path / "near_e11.lcp"
    p.write_text("dim 3\nbracket 1 2 : 0 1 0\nbracket 1 3 : 0 0 -999999999999/1000000000000\n")
    out = run_cli("lattice", "search", "--input", str(p), "--t-range", "0:3")
    assert_input_error(out, "NonTraceFree")


def test_lattice_certify(e11_doc):
    out = run_cli(
        "lattice", "certify", "--input", e11_doc,
        "--t0", "0.9624236501192069", "--poly", "1,-3,1",
    )
    assert out.returncode == 0
    assert out.stdout.startswith("certified: Z=[[0, -1], [1, 3]] defect ")


def test_lattice_certify_refuses_a_polynomial_off_the_exponential(e11_doc):
    # at the m = 3 level charpoly(exp(t0 C)) is x^2 - 3x + 1, not x^2 - 4x + 1
    out = run_cli(
        "lattice", "certify", "--input", e11_doc,
        "--t0", "0.9624236501192069", "--poly", "1,-4,1", "--format", "machine",
    )
    assert out.returncode == 1
    assert json.loads(out.stdout) == {"certified": False}


def test_tables_matches_golden():
    out = run_cli("tables")
    assert out.returncode == 0
    golden = (DATA / "golden_tables.txt").read_text()
    assert out.stdout == golden


def test_tables_machine_deterministic():
    a = run_cli("tables", "--format", "machine")
    b = run_cli("tables", "--format", "machine")
    assert a.returncode == 0 and a.stdout == b.stdout
    rows = json.loads(a.stdout)
    assert all(r["witnesses_ok"] for r in rows)


def test_fixture_dir_override(tmp_path):
    import shutil

    # a populated override works; an empty one is an input error
    from lcplab.fixtures import fixture_dir

    alt = tmp_path / "corpus"
    shutil.copytree(fixture_dir(), alt)
    env = dict(os.environ, LCPLAB_FIXTURES=str(alt))
    out = subprocess.run(
        [sys.executable, "-m", "lcplab.cli", "tables"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert out.stdout == (DATA / "golden_tables.txt").read_text()
    env["LCPLAB_FIXTURES"] = str(tmp_path / "empty")
    out2 = subprocess.run(
        [sys.executable, "-m", "lcplab.cli", "tables"],
        capture_output=True, text=True, env=env,
    )
    assert out2.returncode == 2


def test_import_does_not_load_sympy():
    # sympy costs about half a second to import, and lcplab does not use it
    src = Path(__file__).parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import lcplab, sys; assert 'sympy' not in sys.modules"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 0, out.stderr


def test_text_lattice_search_does_not_load_sympy(e11_doc):
    src = Path(__file__).parent.parent / "src"
    code = (
        "import sys; from lcplab.cli import main; "
        f"rc = main(['lattice', 'search', '--input', {e11_doc!r}, '--t-range', '0:2']); "
        "assert 'sympy' not in sys.modules; sys.exit(rc)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("status: yes")


def test_machine_lattice_search_runs_without_sympy(e11_doc):
    # the input fingerprint reads the exact spectrum of lcplab.intpoly;
    # with sympy made unimportable the machine output still carries it
    src = Path(__file__).parent.parent / "src"
    code = (
        "import sys; sys.modules['sympy'] = None; from lcplab.cli import main; "
        f"sys.exit(main(['lattice', 'search', '--input', {e11_doc!r}, '--t-range', '0:2', "
        "'--format', 'machine']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 0, out.stderr
    fp = json.loads(out.stdout)["input_fingerprint"]
    assert fp["almost_abelian"] and fp["ad_eigen_ratios"] == ["-1", "1"]
