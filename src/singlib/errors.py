"""Exception types shared across the package.

Outcomes that a batch pipeline must survive (a non-isolated singularity, an
undecided nondegeneracy test) are reported as result values, not exceptions;
only genuine precondition violations and malformed inputs raise.
"""


class SingError(Exception):
    """Base class for all package errors."""


class PolyParseError(SingError):
    """Syntax error in polynomial text input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityMismatchError(SingError):
    """Arithmetic between polynomials over different variable tuples."""


class PreconditionError(SingError):
    """An operation was called outside its documented domain."""


class NotWeightedHomogeneousError(PreconditionError):
    pass


class UnsupportedDimensionError(PreconditionError):
    """Newton-polyhedron machinery is limited to at most three variables."""


class NotConvenientError(PreconditionError):
    """The support misses a coordinate axis."""


class SpectrumCountMismatchError(SingError):
    """The lattice-point spectrum realization produced the wrong cardinality.

    Raised instead of returning a wrong multiset; signals that the
    realization is invalid for the given input.
    """


class ConsistencyCheckError(SingError):
    """A computed result failed a check that guards it (an ``assert`` would
    vanish under ``python -O``)."""


class InvalidFNMError(SingError):
    """A filtered nilpotent module violates its structural invariants."""


class NotARootError(PreconditionError):
    """Queried a graded piece that vanishes (the value is not a root)."""


class ConstraintViolationError(SingError):
    """Family parameters violate the defining constraints."""

    def __init__(self, violations: list[str]):
        super().__init__("constraint violation: " + "; ".join(violations))
        self.violations = list(violations)
