"""Exception classes with stable CLI exit codes.

Every error class carries a distinct exit code so scripted callers can
tell failure modes apart without parsing messages.
"""


class PdmphError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(PdmphError):
    """Malformed or unknown configuration (strict schema violation)."""

    exit_code = 2


class InvalidDomainError(PdmphError):
    """Grid preconditions violated (ordering, point count)."""

    exit_code = 3


class NonpositiveMassError(PdmphError):
    """Mass profile is not strictly positive on the grid."""

    exit_code = 4


class GeneratingFunctionZeroError(PdmphError):
    """The generating function vanishes somewhere on the grid."""

    exit_code = 5


class DomainViolationError(PdmphError):
    """A family is evaluated on a grid that hits one of its singularities."""

    exit_code = 6


class CheckFailureError(PdmphError):
    """One or more non-reported-only verification checks failed."""

    exit_code = 7


class BudgetExceededError(PdmphError):
    """Requested problem size exceeds the dense-solve budget."""

    exit_code = 8


class EigensolverError(PdmphError):
    """Dense eigendecomposition did not converge or failed its backward-error contract."""

    exit_code = 9


class IOFormatError(PdmphError):
    """Input file (CSV table, config) could not be parsed.

    Exit 10 also covers an output that cannot be written: the CLI refuses an
    --out in a missing directory or a --trace-dir that is not a directory
    before building anything, and maps any other OSError a command raises.
    """

    exit_code = 10
