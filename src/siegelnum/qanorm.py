"""Weighted sup-norm over derivative orders, on circles |w| = r.

The norm of g at radius r is

    max_{0 <= k <= K}  sup_{|w| = r} |g^(k)(w)| / ((k+2) ln(k+2))^k

with natural logs; the k = 0 denominator is 1 by the empty product.  The
weight sequence grows slightly faster than k! . C^k for every C, which is
what makes smallness of the norm meaningful on a shrinking disc family.

Everything is computed from truncated series, so the result is only
trusted when the tail beyond the truncation is provably negligible at the
requested radius.  The gate projects the tail geometrically from the
median per-index decay of the stored coefficients over the outer window;
series whose window is all zero are taken to be exact polynomials (that is
what padding produces).  When the projection says the circle lies at or
beyond the disc of convergence, or leaves more than TAIL_TOL of possible
tail, qa_norm refuses with UnreliableRadiusError rather than return a
number that silently ignores the truncation.

All values on a circle come from :func:`circle_values`, one inverse FFT
per series at the S-th roots of unity.  It is the package's single circle
evaluator: the norm takes the modulus of its output, and the boundary
report of the construction and the ``siegelnum boundary`` curve use it for
g and g'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, UnreliableRadiusError
from .series import TruncatedSeries

__all__ = ["NormResult", "circle_values", "qa_norm", "qa_distance", "TAIL_TOL"]

TAIL_TOL = 1e-6


@dataclass(frozen=True)
class NormResult:
    value: float
    k_at_max: int
    sample_at_max: int
    r: float
    order_cap: int
    circle_samples: int
    term_values: tuple  # per-derivative-order maxima, already weighted
    tail_ratio: float  # projected per-index geometric factor at radius r
    tail_bound: float


def _weights(order_cap: int) -> np.ndarray:
    ks = np.arange(order_cap + 1, dtype=np.float64)
    return ((ks + 2.0) * np.log(ks + 2.0)) ** ks


def circle_values(coeffs: np.ndarray, r: float, samples: int) -> np.ndarray:
    """Complex values sum_m c_m (r w_j)^m at w_j = e^{2 pi i j / S}, j < S,
    with S = ``samples``.

    Exact evaluation via the inverse FFT convention sum b_m e^{+2 pi i mj/S}
    with b_m = c_m r^m; coefficients beyond the sample count fold onto
    m mod S, which is exact at these nodes.
    """
    scaled = coeffs * r ** np.arange(coeffs.size, dtype=np.float64)
    if scaled.size > samples:
        scaled = np.pad(scaled, (0, -scaled.size % samples)).reshape(-1, samples).sum(axis=0)
    return np.fft.ifft(scaled, n=samples) * samples


def _tail_ratio(mags: np.ndarray, r: float) -> float | None:
    """Median geometric decay factor (per index, at radius r) over the
    outer coefficient window, or None when the window is all zero."""
    n = mags.size - 1
    lo = n // 2 + 1
    idx = np.flatnonzero(mags[lo:] > 0.0) + lo
    if idx.size < 2:
        return None
    steps = np.diff(idx)
    factors = (mags[idx[1:]] / mags[idx[:-1]]) ** (1.0 / steps)
    return float(np.median(factors)) * r


def _log_tail_sum(n: int, k: int, log_q: float, log_1mq: float) -> float:
    """log of sum_{m > n} m!/(m-k)! q^m, exactly, via
    d^k/dq^k [q^{n+1}/(1-q)] and a log-sum-exp over its k+1 Leibniz terms."""
    terms = [
        math.lgamma(k + 1) - math.lgamma(i + 1)
        + math.lgamma(n + 2) - math.lgamma(n + 2 - i)
        + (n + 1 - i) * log_q - (k - i + 1) * log_1mq
        for i in range(k + 1)
    ]
    peak = max(terms)
    return k * log_q + peak + math.log(sum(math.exp(t - peak) for t in terms))


def qa_norm(
    g: TruncatedSeries,
    r: float,
    order_cap: int | None = None,
    circle_samples: int = 512,
) -> NormResult:
    """Weighted derivative sup-norm of g on |w| = r (see module docstring).

    order_cap defaults to min(degree, 40).  Ties in the maximum break
    deterministically to the smallest derivative order, then the smallest
    circle-sample index.
    """
    if r <= 0.0:
        raise PreconditionError("norm radius must be positive")
    if circle_samples < 8:
        raise PreconditionError("need at least 8 circle samples")
    n = g.degree
    if n < 1:
        raise PreconditionError("series must carry at least degree 1")
    if order_cap is None:
        order_cap = min(n, 40)
    if not 0 <= order_cap <= n:
        raise PreconditionError("derivative order cap must lie in [0, degree]")

    mags = np.abs(g.coeffs)
    scaled = g.coeffs * r ** np.arange(n + 1, dtype=np.float64)

    q = _tail_ratio(mags, r)
    weights = _weights(order_cap)
    if not np.all(np.isfinite(weights)):
        raise PreconditionError("derivative order cap too large for float weights")

    log_head = None
    if q is not None:
        if q >= 1.0 - 1e-9:
            raise UnreliableRadiusError(
                f"coefficients do not decay at r = {r} "
                f"(projected per-index factor {q:.4f})"
            )
        # anchor the geometric model |c_m| r^m ~ H q^{m-n} at every nonzero
        # window coefficient and keep the most pessimistic head H
        lo = n // 2 + 1
        idx = np.flatnonzero(mags[lo:] > 0.0) + lo
        log_head = float(np.max(np.log(np.abs(scaled[idx])) + (n - idx) * math.log(q)))

    best = -1.0
    best_k = 0
    best_j = 0
    terms = []
    tail_bound = 0.0
    m_idx = np.arange(n + 1, dtype=np.float64)
    work = scaled.copy()
    for k in range(order_cap + 1):
        if k > 0:
            # b_m <- b_m * (m - k + 1) / r turns order k-1 into order k
            work *= np.maximum(m_idx - k + 1, 0.0) / r
        if q is not None:
            log_tail_k = (
                log_head - n * math.log(q)
                + _log_tail_sum(n, k, math.log(q), math.log1p(-q))
                - k * math.log(r) - math.log(weights[k])
            )
            tail_bound = max(tail_bound, math.exp(min(log_tail_k, 700.0)))
        vals = np.abs(circle_values(work[k:], 1.0, circle_samples)) / weights[k]
        j = int(np.argmax(vals))
        terms.append(float(vals[j]))
        if vals[j] > best:
            best = float(vals[j])
            best_k, best_j = k, j
    if tail_bound > TAIL_TOL:
        raise UnreliableRadiusError(
            f"truncation tail at r = {r} may reach {tail_bound:.3e} "
            f"(> {TAIL_TOL}); increase the series degree"
        )
    return NormResult(
        value=best,
        k_at_max=best_k,
        sample_at_max=best_j,
        r=r,
        order_cap=order_cap,
        circle_samples=circle_samples,
        term_values=tuple(terms),
        tail_ratio=0.0 if q is None else q,
        tail_bound=tail_bound,
    )


def qa_distance(
    a: TruncatedSeries,
    b: TruncatedSeries,
    r: float,
    order_cap: int | None = None,
    circle_samples: int = 512,
) -> NormResult:
    """qa_norm of a - b, with the order cap defaulting from the larger degree."""
    if order_cap is None:
        order_cap = min(max(a.degree, b.degree), 40)
    return qa_norm(a - b, r, order_cap=order_cap, circle_samples=circle_samples)
