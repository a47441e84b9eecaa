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
per derivative order at the S-th roots of unity.  It is the package's
single evaluator of g and its derivatives on a circle: the norm takes the
moduli of its table, and the boundary report of the construction and the
``siegelnum boundary`` curve read g and g' from one call, whose table
also gives their norm and tail gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, UnreliableRadiusError
from .series import TruncatedSeries

__all__ = ["NormResult", "circle_values", "qa_norm", "TAIL_TOL"]

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


def circle_values(coeffs: np.ndarray, r: float, samples: int, order_cap: int = 0) -> np.ndarray:
    """Row k, k <= order_cap, holds g^(k)(r w_j) for g(w) = sum_m c_m w^m
    at w_j = e^{2 pi i j / S}, j < S = ``samples``.

    Row 0 is the inverse FFT (convention sum b_m e^{+2 pi i mj/S}) of
    b_m = c_m r^m, scaled only through the last nonzero coefficient (above
    it r^m can overflow, and 0 * inf is NaN); b_m <- b_m (m - k + 1) / r
    gives row k from b_k on.  Coefficients beyond S fold onto m mod S,
    which is exact at these nodes.  A value past binary64 is non-finite.
    r must be positive and finite.
    """
    if not 0.0 < r < math.inf:
        raise PreconditionError(f"circle radius must be positive and finite, got {r}")
    nonzero = np.flatnonzero(coeffs)
    m_idx = np.arange(nonzero[-1] + 1 if nonzero.size else 1, dtype=np.float64)
    table = np.empty((order_cap + 1, samples), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        work = _scaled(coeffs[: m_idx.size], r, m_idx)
        for k in range(order_cap + 1):
            if k > 0:
                work *= np.maximum(m_idx - k + 1, 0.0) / r
            row = work[k:]
            if row.size > samples:
                row = np.pad(row, (0, -row.size % samples)).reshape(-1, samples).sum(axis=0)
            table[k] = np.fft.ifft(row, n=samples) * samples
    return table


def _scaled(coeffs: np.ndarray, r: float, m_idx: np.ndarray) -> np.ndarray:
    """c_m r^m; where r^m alone overflows, taken in logs (a zero coefficient
    stays 0), so a term that binary64 holds is not lost."""
    powers = r**m_idx
    if np.isfinite(powers[-1]):  # r^m is monotone in m
        return coeffs * powers
    over = ~np.isfinite(powers)
    out = coeffs * np.where(over, 0.0, powers)
    big = np.flatnonzero(over & (coeffs != 0))
    mags = np.abs(coeffs[big])
    out[big] = coeffs[big] / mags * np.exp(np.log(mags) + m_idx[big] * math.log(r))
    return out


def _tail_ratio(mags: np.ndarray, r: float) -> tuple[float | None, np.ndarray]:
    """Median geometric decay factor (per index, at radius r) over the
    outer coefficient window, or None when the window has fewer than two
    nonzero coefficients; also the indices of those nonzero coefficients."""
    n = mags.size - 1
    lo = n // 2 + 1
    idx = np.flatnonzero(mags[lo:] > 0.0) + lo
    if idx.size < 2:
        return None, idx
    steps = np.diff(idx)
    with np.errstate(over="ignore"):  # a ratio past binary64 is inf: no decay there
        factors = (mags[idx[1:]] / mags[idx[:-1]]) ** (1.0 / steps)
    return float(np.median(factors)) * r, idx


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

    r must be positive and finite.  order_cap defaults to min(degree, 40).
    Ties in the maximum break deterministically to the smallest derivative
    order, then the smallest circle-sample index.  A weighted circle value
    that overflows binary64 raises UnreliableRadiusError.
    """
    if circle_samples < 8:
        raise PreconditionError("need at least 8 circle samples")
    n = g.degree
    if n < 1:
        raise PreconditionError("series must carry at least degree 1")
    if order_cap is None:
        order_cap = min(n, 40)
    if not 0 <= order_cap <= n:
        raise PreconditionError("derivative order cap must lie in [0, degree]")
    return _table_norm(g, r, circle_values(g.coeffs, r, circle_samples, order_cap))


def _table_norm(g: TruncatedSeries, r: float, table: np.ndarray) -> NormResult:
    """qa_norm of g on |w| = r, read off table = circle_values(g.coeffs, r,
    S, K) for the caller's S samples and order cap K: the tail gate, the
    overflow check and the weighted maximum."""
    order_cap, circle_samples = table.shape[0] - 1, table.shape[1]
    n = g.degree
    mags = np.abs(g.coeffs)
    q, idx = _tail_ratio(mags, r)
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
        # window coefficient and keep the most pessimistic head H; taken in
        # logs, since c_m r^m itself may underflow to 0
        log_head = float(np.max(
            np.log(mags[idx]) + idx * math.log(r) + (n - idx) * math.log(q)
        ))

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        vals = np.abs(table) / weights[:, None]
    terms = vals.max(axis=1)  # NaN where a row holds one
    if not np.isfinite(terms).all():
        raise UnreliableRadiusError(
            f"derivative order {int(np.argmax(~np.isfinite(terms)))} of the series "
            f"overflows binary64 on |w| = {r}"
        )
    tail_bound = 0.0
    if q is not None:
        for k in range(order_cap + 1):
            log_tail_k = (
                log_head - n * math.log(q)
                + _log_tail_sum(n, k, math.log(q), math.log1p(-q))
                - k * math.log(r) - math.log(weights[k])
            )
            tail_bound = max(tail_bound, math.exp(min(log_tail_k, 700.0)))
    if tail_bound > TAIL_TOL:
        raise UnreliableRadiusError(
            f"truncation tail at r = {r} may reach {tail_bound:.3e} "
            f"(> {TAIL_TOL}); increase the series degree"
        )
    best_k = int(np.argmax(terms))
    return NormResult(
        value=float(terms[best_k]),
        k_at_max=best_k,
        sample_at_max=int(np.argmax(vals[best_k])),
        r=r,
        order_cap=order_cap,
        circle_samples=circle_samples,
        term_values=tuple(terms.tolist()),
        tail_ratio=0.0 if q is None else q,
        tail_bound=tail_bound,
    )

