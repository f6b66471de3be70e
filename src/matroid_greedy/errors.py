"""Exception types shared across the package."""


class MatroidGreedyError(Exception):
    """Base class for all library-specific errors."""


class NonMonotoneError(MatroidGreedyError):
    """An operation that requires an increasing set function got a non-increasing one."""


class NotStrictlyIncreasingError(MatroidGreedyError):
    """An operation that requires strictly positive marginals got a flat one."""


class InvalidSpecError(MatroidGreedyError):
    """A matroid spec violates its structural invariants."""


class GroundSetTooLargeError(MatroidGreedyError):
    """The ground set exceeds the cap of an exhaustive operation."""


class InfeasibleError(MatroidGreedyError):
    """No base of the requested cardinality exists."""


class InfeasibleInstanceError(InfeasibleError):
    """An instance file asks for a cardinality above the matroid rank."""


class WitnessFailureError(MatroidGreedyError):
    """The ordering-witness construction failed; signals an implementation bug."""


class TraceMismatchError(MatroidGreedyError):
    """A greedy trace does not match the instance it is checked against."""


class SchemaError(MatroidGreedyError):
    """An instance file does not conform to the JSON schema, or a file cannot be read or written."""
