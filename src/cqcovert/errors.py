"""Exception taxonomy shared by all cqcovert modules.

The CLI maps these onto its exit-code contract: input problems exit 2,
regime mismatches exit 3, resource caps exit 4.
"""


class CqcError(Exception):
    """Base class for all cqcovert errors."""


class InputError(CqcError):
    """Malformed or invalid user-supplied data (CLI exit 2)."""


class RegimeError(CqcError):
    """Operation applied to a channel outside its scaling regime (CLI exit 3)."""


class ResourceError(CqcError):
    """A configured resource limit would be exceeded (CLI exit 4)."""


# --- input checks that also stay ValueErrors for library callers ---

class InvalidDistribution(InputError, ValueError):
    """A probability vector or prior pair that is not a distribution."""


class InvalidParameter(InputError, ValueError):
    """A scalar parameter or option outside its allowed values."""


# --- operator construction / algebra ---

class NotHermitian(InputError):
    pass


class NotPSD(InputError):
    pass


class TraceNotOne(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class DimensionCapExceeded(ResourceError):
    pass


# --- divergences ---

class SupportViolation(InputError):
    """Support-containment precondition failed where a finite value is required."""


# --- channel model ---

class ParseError(InputError):
    pass


class ValidationError(InputError):
    pass


class InvalidPovm(InputError):
    pass


# --- coding simulation ---

class AlphaOutOfRange(InputError):
    pass


class IndexMismatch(InputError):
    pass


# --- scaling laws ---

class WrongRegime(RegimeError):
    pass


class ZeroChiSquared(RegimeError):
    """Denominator chi-squared divergence vanished (mixture hypothesis violated)."""


class SupportViolationClassical(InputError):
    """Induced classical channel row not absolutely continuous w.r.t. innocent row."""
