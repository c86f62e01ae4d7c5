"""lcplab: exact locally conformally product structures on metric Lie
algebras, their low-dimensional classification, and lattice search for
the associated simply connected solvable Lie groups.

The exact layers (algebra, weyl, detect, construct, lowdim) run entirely
over rational arithmetic.  A lattice verdict reads the matrix C of the
almost abelian presentation and the t-range alone.  It decides rational
real spectra (nilpotent C too) and those of flat codimension 2 exactly;
for the rest it scans t in floats with numpy kernels and certifies each
candidate by the Frobenius form of exp(t0 C), read from the exact
Jordan layers of C.
"""

from .algebra import (
    AlmostAbelianPresentation,
    AuditReport,
    LieAlgebra,
    Metric,
    OneForm,
    Subspace,
    almost_abelian_presentation,
    audit_algebra,
    is_closed,
    is_unimodular,
    subspace_predicates,
    trace_form,
)
from .construct import (
    OrthoRep,
    almab_lcp,
    amalgamated_product,
    decompose,
    direct_product,
    flag_lcp,
    metric_modification,
    semidirect_lcp,
)
from .detect import (
    LCPClass,
    LCPStructure,
    VerificationReport,
    classify,
    maximal_flat_parallel,
    structural_audit,
    verify_lcp,
)
from .lattice import (
    LatticeWitness,
    NoLatticeCertificate,
    certify_witness,
    e11_lattice,
    integer_charpoly_scan,
    lattice_verdict,
    no_lattice_codim2,
    no_lattice_double_root,
)
from .lowdim import (
    Fingerprint,
    check_isomorphism_witness,
    fingerprint,
    nonunimodular_4d,
    reproduce_tables,
    table_algebra,
    verify_table,
)
from .weyl import Connection, Curvature, curvature, levi_civita, weyl_connection, weyl_geometry

# everything imported above, and no submodule
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and type(value).__name__ != "module"
)
