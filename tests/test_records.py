"""Every record of lcplab is a ``typing.NamedTuple``: immutable, equal
to (and hashing as) a copy rebuilt from its own fields, and shown as
``Name(field=value, ...)``.  One instance of each record is made here by
the code that makes it in use; ``test_every_record_is_checked`` keeps the
list complete."""

import inspect
import pkgutil
from importlib import import_module

import pytest

import lcplab
from lcplab import exact as ex
from lcplab.algebra import Metric, OneForm, Subspace, almost_abelian_presentation, audit_algebra, subspace_predicates
from lcplab.construct import decompose
from lcplab.detect import LCPStructure, classify, structural_audit, verify_lcp
from lcplab.fixtures import witness_specs_from_fixtures
from lcplab.intpoly import IntPoly, int_spectrum
from lcplab.lattice import ScanCandidate, e11_lattice, lattice_verdict, no_lattice_double_root
from lcplab.lowdim import NONUNIMODULAR_4D, ROWS, SAMPLES, fingerprint, verify_table
from support import e11


def records() -> dict:
    """One instance of each record type, keyed by its qualified name."""
    L, G, theta = e11(), Metric.identity(3), OneForm([-1, 0, 0])
    line = Subspace.spanned_by([[0, 0, 1]])
    S = LCPStructure(L, G, theta, line)
    failed = verify_lcp(L, G, theta, Subspace.spanned_by([[0, 1, 0]]))
    witness, abelianization = e11_lattice(3)
    table = verify_table("e(1,1)")
    found = [
        audit_algebra(L),
        subspace_predicates(L, G, line),
        almost_abelian_presentation(L, G),
        decompose(S),
        failed.witnesses[0],
        failed,
        classify(L, G, theta),
        S,
        structural_audit(S),
        IntPoly((1, -3, 1)),
        int_spectrum((1, -3, 1)),
        ScanCandidate(0.96, IntPoly((1, -3, 1)), 1e-12),
        witness,
        no_lattice_double_root(ex.rmat([[2, 0, 0], [0, -1, 0], [0, 0, -1]])),
        abelianization,
        lattice_verdict(ex.rmat([[1, 0], [0, -1]]), t_range=(0.0, 3.0)),
        NONUNIMODULAR_4D["rr3_lam"],
        ROWS["e(1,1)"],
        SAMPLES[0],
        fingerprint(L),
        table.witness_results[0],
        table,
        witness_specs_from_fixtures(SAMPLES[0])[0],
    ]
    return {f"{type(r).__module__}.{type(r).__name__}": r for r in found}


RECORDS = records()


def test_every_record_is_checked():
    # every public NamedTuple class defined in an lcplab module
    defined = set()
    for info in pkgutil.iter_modules(lcplab.__path__):
        module = import_module(f"lcplab.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and hasattr(obj, "_fields") and not name.startswith("_"):
                defined.add(f"{module.__name__}.{name}")
    assert defined == set(RECORDS)


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_a_record_is_an_immutable_value_with_a_named_repr(record):
    kind, fields = type(record), record._fields
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    with pytest.raises(AttributeError):
        record.extra = None
    for copy in (kind(*record), kind(**record._asdict()), record._replace()):
        assert type(copy) is kind and copy == record
        try:
            expected = hash(record)
        except TypeError:  # a dict or an array among the fields
            continue
        assert hash(copy) == expected
    assert repr(record).startswith(f"{kind.__name__}({fields[0]}=")
    # being tuples, records iterate over their fields
    assert all(x is getattr(record, f) for x, f in zip(record, fields))
