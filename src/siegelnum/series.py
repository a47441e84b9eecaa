"""Truncated power series over complex coefficients.

A :class:`TruncatedSeries` holds the coefficients ``c_0 .. c_N`` of a formal
power series truncated at a fixed degree ``N``.  All arithmetic is exact on
the retained coefficients: adding, multiplying, composing, or reverting two
degree-``N`` series yields the degree-``N`` truncation of the exact result.
Nothing here is an approximation scheme *except* :func:`evaluate`, which sums
the retained terms by Horner's rule and reports an advisory geometric tail
estimate for what the truncation cannot see.

Conventions used throughout the package:

* "normalized" means ``c_0 = 0`` and ``c_1 = 1`` exactly (tangent to the
  identity), the form linearizers and reverted series come in;
* composition requires the inner series to have zero constant term, so the
  result is again a polynomial in the retained degrees;
* reversion is Newton iteration on ``a(b(w)) = w``, doubling the number of
  correct coefficients per step.

The serialized form of a series is a JSON array of ``[re, im]`` pairs,
index = power.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import PreconditionError

__all__ = [
    "TruncatedSeries",
    "EvalResult",
    "identity",
    "zero",
    "compose",
    "revert",
    "evaluate",
    "derivative",
    "reciprocal",
]


def _as_array(coeffs, degree: int | None) -> np.ndarray:
    arr = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs)
    if arr.ndim != 1 or arr.size == 0:
        raise PreconditionError("coefficients must be a non-empty 1-d sequence")
    arr = arr.astype(np.complex128)
    if degree is not None:
        if degree < 0:
            raise PreconditionError("degree must be >= 0")
        if arr.size > degree + 1:
            arr = arr[: degree + 1]
        elif arr.size < degree + 1:
            arr = np.concatenate([arr, np.zeros(degree + 1 - arr.size)])
    if not np.all(np.isfinite(arr)):
        raise PreconditionError("non-finite coefficient")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients ``c_0 .. c_N`` of a power series truncated at degree N."""

    coeffs: np.ndarray = field(repr=False)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, degree: int | None = None):
        return cls(_as_array(coeffs, degree))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_normalized(self) -> bool:
        """True when c_0 == 0 and c_1 == 1 exactly."""
        return self.degree >= 1 and self.coeffs[0] == 0 and self.coeffs[1] == 1

    def padded(self, degree: int) -> "TruncatedSeries":
        """Same series viewed at a (weakly) larger truncation degree."""
        if degree < self.degree:
            raise PreconditionError("padded() cannot lower the degree; slice instead")
        return TruncatedSeries.from_coeffs(self.coeffs, degree)

    def truncated(self, degree: int) -> "TruncatedSeries":
        """Drop coefficients above ``degree``."""
        return TruncatedSeries.from_coeffs(self.coeffs[: degree + 1], degree)

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.degree > 3 else ""
        return f"TruncatedSeries(degree={self.degree}, [{head}{tail}])"

    # -- arithmetic ---------------------------------------------------------

    def _paired(self, other):
        if not isinstance(other, TruncatedSeries):
            raise PreconditionError("operands must both be TruncatedSeries")
        n = max(self.degree, other.degree)
        return self.padded(n).coeffs, other.padded(n).coeffs, n

    def __add__(self, other):
        a, b, n = self._paired(other)
        return TruncatedSeries.from_coeffs(a + b, n)

    def __sub__(self, other):
        a, b, n = self._paired(other)
        return TruncatedSeries.from_coeffs(a - b, n)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return TruncatedSeries.from_coeffs(self.coeffs * other, self.degree)
        a, b, n = self._paired(other)
        return TruncatedSeries.from_coeffs(np.convolve(a, b)[: n + 1], n)

    __rmul__ = __mul__

    def __neg__(self):
        return TruncatedSeries.from_coeffs(-self.coeffs, self.degree)

    # -- serialization ------------------------------------------------------

    def to_pairs(self) -> list[list[float]]:
        """JSON-ready form: array of [re, im] pairs, index = power."""
        return [[float(c.real), float(c.imag)] for c in self.coeffs]

    @classmethod
    def from_pairs(cls, pairs, degree: int | None = None):
        try:
            vals = [complex(re, im) for re, im in pairs]
        except (TypeError, ValueError):
            raise PreconditionError("expected an array of [re, im] pairs") from None
        return cls.from_coeffs(vals, degree)


def identity(degree: int) -> TruncatedSeries:
    """The series of f(z) = z at the given truncation degree."""
    c = np.zeros(degree + 1)
    if degree >= 1:
        c[1] = 1
    return TruncatedSeries.from_coeffs(c, degree)


def zero(degree: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs(np.zeros(degree + 1), degree)


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Truncation of outer(inner(z)); inner must have zero constant term.

    Computed by power accumulation: powers of the inner series are built by
    repeated truncated multiplication and combined with the outer
    coefficients.  Exact on the retained degrees because inner has no
    constant term.
    """
    if inner.coeffs[0] != 0:
        raise PreconditionError("compose requires inner constant term 0")
    a, b, n = outer._paired(inner)
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = a[0]
    power = np.zeros(n + 1, dtype=np.complex128)
    power[0] = 1
    for k in range(1, n + 1):
        power = np.convolve(power, b)[: n + 1]
        if a[k] != 0:
            out += a[k] * power
        # inner^k has valuation >= k, so once k > n every term is truncated
        if not power.any():
            break
    return TruncatedSeries.from_coeffs(out, n)


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Truncation of 1/a(z); requires a nonzero constant term."""
    c = a.coeffs
    if c[0] == 0:
        raise PreconditionError("reciprocal requires nonzero constant term")
    n = a.degree
    r = np.zeros(n + 1, dtype=np.complex128)
    r[0] = 1 / c[0]
    for k in range(1, n + 1):
        r[k] = -np.dot(c[1 : k + 1], r[k - 1 :: -1][: k]) / c[0]
    return TruncatedSeries.from_coeffs(r, n)


def revert(a: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse b with a(b(w)) = w through the retained degree.

    Requires a normalized (c_0 = 0, c_1 = 1).  Newton iteration
    b <- b - (a(b) - id) / a'(b) doubles the count of correct coefficients
    each step, so ceil(log2(N)) + 1 steps suffice at degree N.
    """
    if not a.is_normalized:
        raise PreconditionError("revert requires a normalized series (c0=0, c1=1)")
    n = a.degree
    ident = identity(n)
    b = ident
    a_prime = derivative(a, 1).padded(n)
    steps = max(1, math.ceil(math.log2(max(n, 2))) + 1)
    for _ in range(steps):
        residual = compose(a, b) - ident
        if not residual.coeffs.any():
            break
        b = b - residual * reciprocal(compose(a_prime, b))
    return b


class EvalResult(NamedTuple):
    value: complex
    tail_bound: float
    tail_reliable: bool


def evaluate(a: TruncatedSeries, z: complex) -> EvalResult:
    """Horner evaluation of the retained terms, with an advisory tail estimate.

    The tail estimate extrapolates the trailing coefficient ratios
    geometrically: with q = |z| * max |c_k / c_{k-1}| over the window
    N/2 < k <= N, the first omitted terms are majorized by
    |c_N| |z|^(N+1) / (1 - q) when q < 1.  The estimate is flagged
    unreliable when q >= 1 or when a zero coefficient is followed by a
    nonzero one inside the window (the ratio trend is then meaningless).
    Ratios between consecutive zero coefficients carry no information and
    are skipped, so padded polynomials report a zero, reliable tail.
    """
    c = a.coeffs.tolist()
    n = a.degree
    acc = c[n]
    zz = complex(z)
    for k in range(n - 1, -1, -1):
        acc = acc * zz + c[k]

    az = abs(zz)
    reliable = True
    max_ratio = 0.0
    for k in range(n // 2 + 1, n + 1):
        prev, cur = abs(c[k - 1]), abs(c[k])
        if prev == 0.0:
            if cur != 0.0:
                reliable = False
                break
            continue  # zero run: no trend information
        max_ratio = max(max_ratio, cur / prev)
    q = az * max_ratio
    if reliable and q < 1.0:
        tail = abs(c[n]) * az ** (n + 1) / (1.0 - q)
    else:
        reliable = False
        tail = math.inf
    return EvalResult(acc, tail, reliable)


def derivative(a: TruncatedSeries, order: int = 1) -> TruncatedSeries:
    """Formal derivative of the given order; result has degree N - order.

    An order beyond the truncation degree zeroes every retained
    coefficient; that case returns the zero series and emits a warning
    rather than raising, since it is well defined (just degenerate).
    """
    if order < 0:
        raise PreconditionError("derivative order must be >= 0")
    if order == 0:
        return a
    n = a.degree
    if order > n:
        warnings.warn(
            f"derivative order {order} exceeds truncation degree {n}; returning zero series",
            stacklevel=2,
        )
        return zero(0)
    # factor m! / (m - order)! for the coefficient that lands at index m - order,
    # rounded once from the exact integer
    factor = np.array([_int_to_float(math.perm(m, order)) for m in range(order, n + 1)])
    return TruncatedSeries.from_coeffs(a.coeffs[order:] * factor, n - order)


def _int_to_float(k: int) -> float:
    """Nearest binary64 to a non-negative integer; inf beyond its range."""
    try:
        return float(k)
    except OverflowError:
        return math.inf
