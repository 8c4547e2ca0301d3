"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation/parse problems exit 2,
bad solver configuration exits 3, infeasible constraint constructions exit 4.
"""


class OcotError(Exception):
    """Base class for all package errors."""


class ValidationError(OcotError):
    """Bad input data (exit code 2 at the CLI)."""


class NegativeEntry(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class NonFiniteCost(ValidationError):
    pass


class RepeatedIndices(ValidationError):
    pass


class EmptyTable(ValidationError):
    pass


class WeightSumZero(ValidationError):
    pass


class ParseError(ValidationError):
    pass


class InvalidConfig(OcotError):
    """Bad solver/search configuration (exit code 3 at the CLI)."""


class ConstructionError(OcotError):
    """A feasible construction failed (exit code 4 at the CLI)."""


class CapacityViolated(ConstructionError):
    pass


class OrderCheckFailed(ConstructionError):
    pass


class UnequalMass(ValidationError):
    pass


class NumericalUnderflow(OcotError):
    """Entropic kernel entries fell below the representable range."""


class Infeasible(ConstructionError):
    """A packing instance or LP has no feasible point."""
