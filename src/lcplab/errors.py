"""Exception taxonomy shared by all lcplab modules."""


class LcpError(Exception):
    """Base class for all lcplab errors."""


class DimensionMismatch(LcpError):
    pass


class DimensionTooSmall(LcpError):
    """Raised by the LCP layers for algebras of dimension < 3."""


class InvalidStructure(LcpError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class NotSymmetric(LcpError):
    pass


class NotPositiveDefinite(LcpError):
    pass


class SingularMatrix(LcpError):
    pass


class ZeroLeeForm(LcpError):
    pass


class NonClosedLeeForm(LcpError):
    """The 1-form does not vanish on the derived algebra."""


class PreconditionViolated(LcpError):
    """A structural audit ran on inputs outside its hypotheses."""


class UnimodularInput(LcpError):
    """Semidirect construction requires a non-unimodular factor."""


class RepNotVanishingOnDerived(LcpError):
    pass


class RepNotSkew(LcpError):
    pass


class NonCommutingPair(LcpError):
    pass


class TraceZero(LcpError):
    pass


class NotSkew(LcpError):
    pass


class B2Zero(LcpError):
    pass


class NotAdapted(LcpError):
    """Operation requires the Lee form to vanish on the flat subspace."""


class UnknownName(LcpError):
    pass


class ParamOutOfRange(LcpError):
    pass


class EnvelopeExceeded(LcpError):
    """Input outside the supported envelope: dimension, entries, the bit
    size of a lattice plan's integer form, a t0 to certify past the
    spectral envelope, a t-range end the clamp leaves infinite, or a scan
    grid past MAX_SCAN_POINTS (only a C that gets a grid has one)."""


class NonTraceFree(LcpError):
    pass


class MTooSmall(LcpError):
    pass


class DocumentError(LcpError):
    """Definition-document parse error, tagged with a source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
