"""Truncated power series over complex coefficients.

A :class:`TruncatedSeries` holds the coefficients ``c_0 .. c_N`` of a formal
power series truncated at a fixed degree ``N``.  All arithmetic is exact on
the retained coefficients: adding, multiplying or composing two degree-``N``
series yields the degree-``N`` truncation of the exact result.
:func:`power_table` forms the truncated powers f^j behind composition and
the Koenigs solve (:func:`compose` multiplies the inner series' table, up
to the outer degree, by the outer coefficients), and :func:`evaluate` sums
by Horner's rule.

Conventions used throughout the package:

* "normalized" means ``c_0 = 0`` and ``c_1 = 1`` exactly (tangent to the
  identity), the form linearizers come in;
* composition requires the inner series to have zero constant term, so the
  result is again a polynomial in the retained degrees.

The serialized form of a series is a JSON array of ``[re, im]`` pairs,
index = power; a bare real entry ``x`` reads as ``[x, 0]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import PreconditionError, check_count

__all__ = [
    "TruncatedSeries",
    "compose",
    "power_table",
    "evaluate",
]


def _as_array(coeffs, degree: int | None) -> np.ndarray:
    arr = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs)
    if arr.ndim != 1 or arr.size == 0:
        raise PreconditionError("coefficients must be a non-empty 1-d sequence")
    arr = arr.astype(np.complex128)
    if degree is not None:
        degree = check_count(degree, "degree", 0)
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

    def padded(self, degree: int) -> "TruncatedSeries":
        """Same series viewed at a (weakly) larger truncation degree."""
        if degree < self.degree:
            raise PreconditionError("padded() cannot lower the degree; slice instead")
        return TruncatedSeries.from_coeffs(self.coeffs, degree)

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

    # -- serialization ------------------------------------------------------

    def to_pairs(self) -> list[list[float]]:
        """JSON-ready form: array of [re, im] pairs, index = power."""
        return [[float(c.real), float(c.imag)] for c in self.coeffs]

    @classmethod
    def from_pairs(cls, pairs, degree: int | None = None):
        """Inverse of :meth:`to_pairs`; a bare real entry x stands for [x, 0]."""
        vals = []
        try:
            for entry in pairs:
                re, im = (entry, 0.0) if isinstance(entry, (int, float)) else entry
                vals.append(complex(re, im))
        except (TypeError, ValueError):
            raise PreconditionError("expected an array of reals or [re, im] pairs") from None
        return cls.from_coeffs(vals, degree)


def power_table(f: np.ndarray, top: int | None = None) -> np.ndarray:
    """C[k, j] = [z^k] f^j for k <= n = f.size - 1 and j <= top (default n).

    f has f_0 = 0, so f^j has valuation j (zero for j > n) and is one
    convolution of f^(j-1) with f_1..f_deg f.  Row k is contiguous: the
    Koenigs recurrence reads one per degree, and C @ a is sum_j a_j f^j.
    """
    n = f.size - 1
    top = n if top is None else top
    tail = f[1 : max(2, np.trim_zeros(f, "b").size)]  # f_1 kept when f = 0
    pows = np.zeros((top + 1, n + 1), dtype=np.complex128)
    pows[0, 0] = 1
    pows[1:2] = f  # no row when top = 0
    for j in range(2, min(top, n) + 1):
        pows[j, j:] = np.convolve(pows[j - 1, j - 1 : n], tail[: n + 1 - j])[: n + 1 - j]
    return np.ascontiguousarray(pows.T)


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Truncation of outer(inner(z)); inner must have zero constant term.

    power_table(inner) times the outer coefficients, with no power above
    the degree of outer: into a degree-d polynomial it costs O(d n^2).
    """
    if inner.coeffs[0] != 0:
        raise PreconditionError("compose requires inner constant term 0")
    a, b, n = outer._paired(inner)
    top = max(np.trim_zeros(a, "b").size - 1, 0)
    return TruncatedSeries.from_coeffs(power_table(b, top) @ a[: top + 1], n)


def evaluate(a: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the retained terms at z."""
    c = a.coeffs.tolist()
    acc = c[-1]
    zz = complex(z)
    for k in range(a.degree - 1, -1, -1):
        acc = acc * zz + c[k]
    return acc
