"""Exception hierarchy shared across the package.

Precondition violations (bad arguments, malformed brackets) are kept
distinct from numerical failures (divisor breakdown, exhausted budgets)
so the CLI can map them to different exit codes.
"""

from __future__ import annotations

import copyreg
import operator

__all__ = [
    "SiegelnumError",
    "PreconditionError",
    "NumericalError",
    "DivisorBreakdownError",
    "CoefficientOverflowError",
    "PoleError",
    "NoConvergenceError",
    "EntryRadiusError",
    "UnreliableRadiusError",
    "EstimateUnavailableError",
    "BracketFailureError",
    "ConstructionStallError",
]


class SiegelnumError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # Exception's default rebuilds with cls(*args), but args holds only
        # the message, not what a subclass's __init__ takes; rebuild without
        # __init__ and restore the attributes instead
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


def outcome(fn, *args):
    """fn(*args), or the SiegelnumError it raised, as one row's or one
    probe's outcome; any other exception propagates."""
    try:
        return fn(*args)
    except SiegelnumError as exc:
        return exc


def single(outcomes: list):
    """The one outcome of a batch of one, raised if it is an error (outcome's inverse)."""
    if isinstance(outcomes[0], SiegelnumError):
        raise outcomes[0]
    return outcomes[0]


def check_count(value, name: str, least: int) -> int:
    """A count argument (degree, budget, samples, ...) as an int, if it is an
    integer (by operator.index) >= least; else a PreconditionError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise PreconditionError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise PreconditionError(f"{name} must be >= {least}")
    return value


class PreconditionError(SiegelnumError, ValueError):
    """An argument violates a documented precondition."""


class NumericalError(SiegelnumError):
    """A computation failed for numerical reasons (not caller error)."""


class DivisorBreakdownError(NumericalError):
    """A small divisor lambda^k - lambda fell below the safety floor.

    Carries the offending index and the divisor magnitude so callers can
    distinguish an exact resonance from a near-resonance.
    """

    def __init__(self, k: int, magnitude: float, floor: float):
        self.k = k
        self.magnitude = magnitude
        self.floor = floor
        super().__init__(f"divisor breakdown at k={k}: |lambda^k - lambda| = {magnitude:.3e} < {floor:.1e}")


class CoefficientOverflowError(NumericalError):
    """Koenigs or Siegel coefficients outgrew binary64 below the truncation degree."""


class PoleError(NumericalError):
    """Closed-form evaluation hit (or came numerically too close to) a pole."""


class NoConvergenceError(NumericalError):
    """An orbit failed to reach the target region within the iteration budget."""

    def __init__(self, budget: int, message: str | None = None):
        self.budget = budget
        super().__init__(message or f"iteration budget {budget} exhausted")


class EntryRadiusError(NumericalError):
    """No radius in the fixed grid passed the truncation self-consistency check."""


class UnreliableRadiusError(NumericalError):
    """Requested evaluation radius exceeds the series' reliable radius."""


class EstimateUnavailableError(NumericalError):
    """No usable sample could be produced for a radius estimate."""


class BracketFailureError(NumericalError):
    """Bisection could not locate a target value within its retry budget."""


class ConstructionStallError(NumericalError):
    """A construction step exhausted its retry budget.

    ``partial_report`` holds everything built up to the stall so callers
    can inspect (and serialize) the completed steps.
    """

    def __init__(self, message: str, partial_report=None):
        self.partial_report = partial_report
        super().__init__(message)
