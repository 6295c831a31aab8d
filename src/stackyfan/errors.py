"""Exception hierarchy shared by all modules."""


class StackyFanError(Exception):
    """Base class for all domain errors raised by this package."""


class OutsideSupport(StackyFanError):
    """A point does not lie in the support of the fan."""


class NotMaximalCone(StackyFanError):
    """Operation requires a full-dimensional cone."""


class DivisionByZero(StackyFanError):
    """Division by the zero rational function."""


class NoExpansionAtZero(StackyFanError):
    """Rational function has no ascending power-series expansion at t = 0."""


class LambdaNotKLT(StackyFanError):
    """A weight functional violates lambda(b_i) > -1."""


class NotComplete(StackyFanError):
    """Operation requires a complete fan."""


class NegativeMu(StackyFanError):
    """A bucketing functional takes a negative value on the support."""


class NotKLT(StackyFanError):
    """A stack divisor violates the Kawamata log terminal bound beta_i < 1."""


class InvariantViolation(StackyFanError):
    """A computed invariant breaks a property the theory guarantees."""


class RankMismatch(StackyFanError):
    """Two fans live in lattices of different rank."""


class NotInSupport(StackyFanError):
    """Subdivision point lies outside the fan support."""


class IntegralityFailure(StackyFanError):
    """A refinement ray is not an integer combination of coarse lattice points."""


class NotARefinement(StackyFanError):
    """The candidate fine fan does not refine the coarse fan."""


class TransferNotKLT(StackyFanError):
    """The transferred functional violates the admissibility bound on the fine fan."""


class BudgetExceeded(StackyFanError):
    """An a-priori count puts a computation over its fixed size budget."""


def admit(count: int, limit: int, before: str, after: str) -> int:
    """The a-priori count if it is within limit, else a BudgetExceeded that
    reads '<before> <count> <after> over the limit of <limit>'."""
    if count > limit:
        raise BudgetExceeded(f"{before} {count} {after} over the limit of "
                             f"{limit}")
    return count


class ParseError(StackyFanError):
    """Malformed fan document."""


class ValidationError(StackyFanError):
    """Fan document parsed but the fan violates structural invariants."""

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(report.violations))
