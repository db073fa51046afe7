"""Exception types shared across the package.

The short lowercase codes in the messages ("dim_mismatch", "dt_mismatch",
"eta_missing", "pathsum_budget", ...) are stable identifiers; the CLI maps
ValidationError to exit code 1 and NumericalError to exit code 2, reports
an OSError (a file that cannot be read or written) as ``error: io: ...``
with exit code 1, and a MemoryError (an allocation the machine cannot
make) as ``error: memory: ...`` with exit code 2.  "non_finite" is raised
as a ValidationError for inputs (exit 1: a system, a kernel file) and as a
NumericalError for computed results (exit 2: eta coefficients, influence
factors, a path sum, solved kernels); a config or kernel file that is not
UTF-8 text is a ParseError (exit 1).
"""


class ValidationError(ValueError):
    """Malformed or inconsistent input data."""


class NumericalError(RuntimeError):
    """A computation could not be carried out at the requested accuracy/scale."""


class PathSumBudgetError(NumericalError):
    """Path enumeration would exceed the configured budget ("pathsum_budget")."""


class Aux0SingularError(NumericalError):
    """The terminal auxiliary matrix is numerically singular ("aux0_singular")."""


class PropagationDivergedError(NumericalError):
    """A propagated map is not finite: the kernel set grows without bound ("propagation_diverged")."""


class EtaMissingError(ValidationError):
    """An eta table does not reach the separations a path sum needs ("eta_missing")."""


class DimMismatchError(ValidationError):
    """Operands have incompatible dimensions ("dim_mismatch")."""


class SeqShortError(ValidationError):
    """A trajectory does not cover all requested indices ("seq_short")."""


class SplittingMismatchError(ValidationError):
    """An operation received a table built for a different splitting ("splitting_mismatch")."""


class RangeError(ValidationError):
    """Argument outside the supported exact-arithmetic/enumeration range ("range")."""


class ParseError(ValidationError):
    """A persisted file is malformed ("parse")."""


class VersionError(ValidationError):
    """A persisted file declares an unsupported format version ("version")."""
