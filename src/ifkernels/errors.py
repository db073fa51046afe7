"""Exception types shared across the package.

The short lowercase codes in the messages ("dim_mismatch", "eta_missing",
"pathsum_budget", ...) are stable identifiers; the CLI maps ValidationError
to exit code 1 and NumericalError to exit code 2, and reports a MemoryError
(an allocation the machine cannot make) as ``error: memory: ...`` with exit
code 2.
"""


class ValidationError(ValueError):
    """Malformed or inconsistent input data."""


class NumericalError(RuntimeError):
    """A computation could not be carried out at the requested accuracy/scale."""


class QuadratureError(NumericalError):
    """Quadrature failed to converge ("quadrature_failed")."""


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
