"""Command-line front door.

Subcommands::

    check      algebraic audit (Jacobi, solvability, unimodularity)
    detect     maximal flat parallel subspace and classification
    verify     three-condition verification plus the structural audit
    construct  semidirect | almab | flag | direct | amalgam | modify
    tables     reproduce the low-dimensional catalog with lattice verdicts
    lattice    search | certify on the almost abelian presentation

Exit codes: 0 success (all checks pass), 1 verification failure,
2 input or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import exact as ex
from .algebra import almost_abelian_presentation, audit_algebra, check_envelope
from .construct import (
    OrthoRep,
    almab_lcp,
    amalgamated_product,
    direct_product,
    flag_lcp,
    metric_modification,
    semidirect_lcp,
)
from .detect import (
    LCPStructure,
    classify,
    maximal_flat_parallel,
    structural_audit,
)
from .docfmt import parse_file, render_document
from .errors import DocumentError, LcpError
from .intpoly import IntPoly
from .lattice import certify_witness, lattice_verdict
from .lowdim import fingerprint, render_tables_text, reproduce_tables

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(payload, fmt: str, text_render):
    if fmt == "machine":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(text_render)


def _t_range(spec: str):
    """The scan range ``A:B``, numbers with A < B."""
    lo, sep, hi = spec.partition(":")
    try:
        t = (float(lo), float(hi))
    except ValueError:
        t = None
    if not sep or t is None or not t[0] < t[1]:
        raise DocumentError(f"--t-range must be A:B with numbers A < B, not {spec!r}")
    return t


def cmd_check(args) -> int:
    doc = parse_file(args.input)
    L = doc.algebra(check=False)
    rep = audit_algebra(L)
    payload = {
        "label": doc.label,
        "jacobi_ok": rep.jacobi_ok,
        "solvable": rep.solvable,
        "nilpotent": rep.nilpotent,
        "unimodular": rep.unimodular,
        "derived_series_dims": list(rep.derived_series_dims),
        "lower_central_dims": list(rep.lower_central_dims),
        "jacobi_witness": rep.jacobi_witness,
    }
    lines = [f"{k}: {v}" for k, v in payload.items()]
    _emit(payload, args.format, "\n".join(lines))
    return EXIT_OK if rep.jacobi_ok else EXIT_FAIL


def cmd_detect(args) -> int:
    doc = parse_file(args.input)
    L, G, theta = doc.algebra(), doc.metric(), doc.one_form()
    if theta is None:
        raise DocumentError("detect requires a theta directive")
    cls = classify(L, G, theta)
    payload = {
        "label": doc.label,
        "kind": cls.kind,
        "flat_dim": cls.flat_dim,
        "flat_basis": [[str(x) for x in cls.flat.basis[:, a]] for a in range(cls.flat_dim)],
    }
    _emit(
        payload,
        args.format,
        f"{cls.kind}, flat_dim={cls.flat_dim}",
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = parse_file(args.input)
    s = _structure_from_doc(doc)
    rep = s.verify()
    payload = {"label": doc.label, "verification": rep.as_dict(), "audit": None}
    ok = rep.passed
    audit_line = ""
    aud_rep = audit_algebra(s.algebra)
    if ok and s.flat_dim >= 1 and aud_rep.solvable and aud_rep.unimodular:
        audit = structural_audit(s)
        payload["audit"] = audit.as_dict()
        ok = ok and audit.passed
        audit_line = f"\nstructural audit: {'pass' if audit.passed else 'FAIL'}"
    _emit(
        payload,
        args.format,
        f"verification: {'pass' if rep.passed else 'FAIL'} "
        f"(subalgebras={rep.subalgebras_ok}, bilinear={rep.bilinear_ok}, "
        f"curvature={rep.curvature_ok}, flat_dim={s.flat_dim})" + audit_line,
    )
    return EXIT_OK if ok else EXIT_FAIL


def _structure_from_doc(doc) -> LCPStructure:
    L, G, theta = doc.algebra(), doc.metric(), doc.one_form()
    if theta is None:
        raise DocumentError("document needs a theta directive")
    flat = doc.flat()
    if flat is None:
        flat = maximal_flat_parallel(L, G, theta)
    return LCPStructure(L, G, theta, flat)


def _emit_structure(s: LCPStructure, fmt: str, label: str) -> int:
    text = render_document(s.algebra, s.metric, s.theta, s.flat, label=label)
    cls = classify(s.algebra, s.metric, s.theta)
    payload = {"document": text, "kind": cls.kind, "flat_dim": cls.flat_dim}
    _emit(payload, fmt, text + f"# {cls.kind}, flat_dim={cls.flat_dim}")
    return EXIT_OK


def cmd_construct(args) -> int:
    doc = parse_file(args.input)
    recipe = args.recipe
    if recipe == "semidirect":
        h = doc.algebra()
        q = doc.scalars.get("q", 1)
        if q.denominator != 1 or q < 1:
            raise DocumentError(f"scalar q must be a positive integer, not {q}")
        q = int(q)
        check_envelope(h.dim + q)
        mats = []
        for i in range(h.dim):
            name = f"beta{i+1}"
            mats.append(doc.block(name) if name in doc.blocks else ex.rzeros((q, q)))
        s = semidirect_lcp(h, doc.metric(), OrthoRep.from_matrices(q, mats))
    elif recipe == "almab":
        s = almab_lcp(doc.block("A"), doc.block("B"))
    elif recipe == "flag":
        v = doc.block("v")[0] if "v" in doc.blocks else ex.rzeros(doc.block("A").shape[0])
        s = flag_lcp(doc.block("A"), doc.block("B1"), doc.block("B2"), v)
    elif recipe == "direct":
        if not args.with_input:
            raise DocumentError("construct direct needs --with")
        s1 = _structure_from_doc(doc)
        kdoc = parse_file(args.with_input)
        s = direct_product(s1, kdoc.algebra(), kdoc.metric())
    elif recipe == "amalgam":
        if not args.with_input:
            raise DocumentError("construct amalgam needs --with")
        s = amalgamated_product(_structure_from_doc(doc), _structure_from_doc(parse_file(args.with_input)))
    elif recipe == "modify":
        if args.lam is None:
            raise DocumentError("construct modify needs --lam")
        try:
            lam = ex.rat(args.lam)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"--lam must be a rational number, not {args.lam!r}") from None
        s = metric_modification(_structure_from_doc(doc), lam)
    else:  # pragma: no cover
        raise DocumentError(f"unknown recipe {recipe!r}")
    return _emit_structure(s, args.format, f"constructed by {recipe}")


def cmd_tables(args) -> int:
    rows = reproduce_tables(t_range=_t_range(args.t_range))
    ok = all(r["witnesses_ok"] for r in rows)
    _emit(rows, args.format, render_tables_text(rows).rstrip("\n"))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_lattice(args) -> int:
    doc = parse_file(args.input)
    L, G = doc.algebra(), doc.metric()
    pres = almost_abelian_presentation(L, G)
    if pres is None:
        print("input is not almost abelian: Bock scan does not apply", file=sys.stderr)
        return EXIT_FAIL
    if args.action == "search":
        verdict = lattice_verdict(pres.matrix, label=doc.label or "input", t_range=_t_range(args.t_range))
        payload = verdict.as_dict()
        if args.format == "machine":
            payload["input_fingerprint"] = fingerprint(L).as_dict()
        lines = [f"status: {verdict.status}"]
        for w in verdict.witnesses:
            how = "exact" if w.exact else f"numerical (residual {w.residual:.2e})"
            lines.append(f"witness t0={w.t0:.6f} poly {w.poly} {how}")
        for cert in verdict.certificates:
            lines.append(f"certificate {cert.rule}")
        _emit(payload, args.format, "\n".join(lines))
        return EXIT_OK if verdict.status != "inconclusive" else EXIT_FAIL
    # certify
    if args.t0 is None or args.poly is None:
        raise DocumentError("lattice certify needs --t0 and --poly")
    if not math.isfinite(args.t0) or args.t0 == 0:
        raise DocumentError(f"--t0 must be a finite nonzero number, not {args.t0}")
    try:
        poly = IntPoly(tuple(int(x) for x in args.poly.split(",")))
    except ValueError:
        raise DocumentError(f"--poly must be comma-separated integers, not {args.poly!r}") from None
    w = certify_witness(pres.matrix, args.t0, poly)
    if w is None:
        _emit({"certified": False}, args.format, "not certified (inconclusive)")
        return EXIT_FAIL
    _emit(
        {"certified": True, "witness": w.as_dict()},
        args.format,
        f"certified: Z={[list(map(int, r)) for r in w.integral_matrix]} defect {w.residual:.2e}",
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lcplab",
        description="Exact LCP structures on metric Lie algebras: audits, "
        "detection, constructions, the dimension <= 5 catalog, and lattice search.",
        epilog="Environment: LCPLAB_FIXTURES overrides the witness fixture directory.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def command(name, help):  # flags in full: the one spelling _joined_t_range reads
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="definition document path")
        sp.add_argument("--format", choices=("text", "machine"), default="text")

    sp = command("check", "algebraic audit")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = command("detect", "classify and find the maximal flat subspace")
    common(sp)
    sp.set_defaults(func=cmd_detect)

    sp = command("verify", "verify an LCP structure and run the audit")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = command("construct", "build verified LCP structures")
    sp.add_argument("recipe", choices=("semidirect", "almab", "flag", "direct", "amalgam", "modify"))
    common(sp)
    sp.add_argument("--with", dest="with_input", help="second document (direct/amalgam)")
    sp.add_argument("--lam", help="metric modification amount (rational)")
    sp.set_defaults(func=cmd_construct)

    sp = command("tables", "reproduce the low-dimensional catalog")
    common(sp, needs_input=False)
    sp.add_argument("--t-range", default="0:3", help="lattice scan range A:B (A may be negative)")
    sp.set_defaults(func=cmd_tables)

    sp = command("lattice", "lattice search / certification")
    sp.add_argument("action", choices=("search", "certify"))
    common(sp)
    sp.add_argument("--t-range", default="0:20", help="scan range A:B (A may be negative)")
    sp.add_argument("--t0", type=float, help="candidate parameter (certify)")
    sp.add_argument("--poly", help="comma-separated descending integer coefficients")
    sp.set_defaults(func=cmd_lattice)
    return p


def _joined_t_range(argv: list) -> list:
    """``argv`` with ``--t-range A:B`` as ``--t-range=A:B``: argparse takes
    a value such as -2:2, not a plain number, for a flag."""
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--t-range":
            argv[i:i + 2] = [f"--t-range={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_t_range(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except DocumentError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except LcpError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
