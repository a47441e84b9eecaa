"""Catalog of one-singular-value function families f with f(0)=0, f'(0)=1.

Each entry pairs a closed-form evaluator with a series generator for the
same map, plus the data the rest of the package keys on: the distinguished
non-zero singular value ``v`` (critical or asymptotic) and the rotational
symmetry order ``n`` (f(omega z) = omega f(z) for omega an n-th root of
unity).  The parametrized map under study is always f_lambda = lambda * f.

Families with n > 1 can be folded to a symmetry-reduced map
F(w) = f(w^{1/n})^n, a genuine power series in w; see
:func:`symmetry_reduce`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import PoleError, PreconditionError
from .series import TruncatedSeries, reciprocal

__all__ = [
    "FamilySpec",
    "family_catalog",
    "get_family",
    "base_series",
    "family_series",
    "family_eval",
    "symmetry_reduce",
    "custom_family",
]

TAN_POLE_THRESHOLD = 1e-12


@dataclass(frozen=True)
class FamilySpec:
    """One catalog entry: the base map f, its singular value, its symmetry."""

    family_id: str
    v: complex
    symmetry_order: int
    degree_param: int | None = None  # d for the polynomial family
    user_defined: bool = False
    reduced_from: str | None = None
    _coeff_gen: Callable = field(default=None, repr=False, compare=False)
    _point_eval: Callable = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.v == 0:
            raise PreconditionError("distinguished singular value must be nonzero")
        if self.symmetry_order < 1:
            raise PreconditionError("symmetry order must be >= 1")

    def describe(self) -> dict:
        out = {
            "id": self.family_id,
            "v": [float(self.v.real), float(self.v.imag)],
            "symmetry_order": self.symmetry_order,
        }
        if self.degree_param is not None:
            out["d"] = self.degree_param
        if self.reduced_from is not None:
            out["reduced_from"] = self.reduced_from
        if self.user_defined:
            out["user_defined"] = True
        return out


# -- coefficient generators (c_0 .. c_N of the base map, c_1 = 1) ------------


def _quadratic_coeffs(n):
    c = np.zeros(n + 1, dtype=np.complex128)
    c[1] = 1
    if n >= 2:
        c[2] = -1
    return c


def _poly_coeffs(d):
    def gen(n):
        c = np.zeros(n + 1, dtype=np.complex128)
        for k in range(1, min(n, d) + 1):
            c[k] = np.complex128(math.comb(d, k)) / np.complex128(d) ** k
        return c

    return gen


def _exp_coeffs(n):
    # 1/k! built by iterated division so large n underflows instead of
    # overflowing an intermediate factorial
    c = np.zeros(n + 1, dtype=np.complex128)
    inv = np.complex128(1)
    for k in range(1, n + 1):
        inv = inv / k
        c[k] = inv
    return c


def _zexp_coeffs(n):
    c = np.zeros(n + 1, dtype=np.complex128)
    if n >= 1:
        c[1] = 1
    inv = np.complex128(1)
    for k in range(2, n + 1):
        inv = inv / (k - 1)
        c[k] = inv
    return c


def _sin_coeffs(n):
    c = np.zeros(n + 1, dtype=np.complex128)
    term = np.complex128(1)
    k = 1
    sign = 1
    while k <= n:
        c[k] = sign * term
        sign = -sign
        if k + 2 > n:
            break
        term = term / ((k + 1) * (k + 2))
        k += 2
    return c


def _cos_coeffs(n):
    c = np.zeros(n + 1, dtype=np.complex128)
    term = np.complex128(1)
    k = 0
    sign = 1
    while k <= n:
        c[k] = sign * term
        sign = -sign
        if k + 2 > n:
            break
        term = term / ((k + 1) * (k + 2))
        k += 2
    return c


def _tan_coeffs(n):
    s = TruncatedSeries.from_coeffs(_sin_coeffs(n), n)
    inv_cos = reciprocal(TruncatedSeries.from_coeffs(_cos_coeffs(n), n))
    return (s * inv_cos).coeffs


def _tan_eval(z):
    z = complex(z)
    c = cmath.cos(z)
    if abs(c) < TAN_POLE_THRESHOLD:
        raise PoleError(f"tan evaluation too close to a pole at z={z!r}")
    return cmath.sin(z) / c


def _make_reduced(inner: "FamilySpec") -> "FamilySpec":
    n = inner.symmetry_order

    def gen(m):
        # f(z) = z * phi(z^n) with phi_j = c_{n j + 1}; then
        # F(w) = f(w^{1/n})^n = w * phi(w)^n, needing inner coefficients
        # through degree n*m.
        c = inner._coeff_gen(n * m)
        phi = np.zeros(m + 1, dtype=np.complex128)
        for j in range(m + 1):
            if n * j + 1 <= n * m:
                phi[j] = c[n * j + 1]
        acc = phi.copy()
        for _ in range(n - 1):
            acc = np.convolve(acc, phi)[: m + 1]
        out = np.zeros(m + 1, dtype=np.complex128)
        out[1:] = acc[:m]
        return out

    def pe(w):
        # branch-independent: f(omega z)^n = f(z)^n for the symmetry root omega
        w = complex(w)
        if w == 0:
            return 0j
        z = w ** (1.0 / n)
        return inner._point_eval(z) ** n

    return FamilySpec(
        family_id=f"reduced({inner.family_id})",
        v=inner.v**n,
        symmetry_order=1,
        reduced_from=inner.family_id,
        _coeff_gen=gen,
        _point_eval=pe,
    )


def _build_catalog() -> dict[str, FamilySpec]:
    entries = [
        FamilySpec("quadratic", 0.25, 1, _coeff_gen=_quadratic_coeffs,
                   _point_eval=lambda z: z * (1 - z)),
        FamilySpec("poly_3", -1.0, 1, degree_param=3, _coeff_gen=_poly_coeffs(3),
                   _point_eval=lambda z: (1 + z / 3) ** 3 - 1),
        FamilySpec("exp", -1.0, 1, _coeff_gen=_exp_coeffs,
                   _point_eval=lambda z: cmath.exp(z) - 1),
        FamilySpec("zexp", -math.exp(-1.0), 1, _coeff_gen=_zexp_coeffs,
                   _point_eval=lambda z: z * cmath.exp(z)),
        FamilySpec("sin", 1.0, 2, _coeff_gen=_sin_coeffs,
                   _point_eval=lambda z: cmath.sin(z)),
        # of the symmetric pair +-i of asymptotic values, +i is the recorded one
        FamilySpec("tan", 1j, 2, _coeff_gen=_tan_coeffs, _point_eval=_tan_eval),
    ]
    return {e.family_id: e for e in entries}


_CATALOG = _build_catalog()


def family_catalog() -> list[FamilySpec]:
    """The six built-in families, in catalog order."""
    return list(_CATALOG.values())


def get_family(family_id: str) -> FamilySpec:
    """Look up a family by id.

    Accepts catalog ids, ``poly_<d>`` for any polynomial degree d >= 2, and
    ``reduced(<id>)`` for the symmetry reduction of a folded family.
    """
    if family_id in _CATALOG:
        return _CATALOG[family_id]
    if family_id.startswith("reduced(") and family_id.endswith(")"):
        return symmetry_reduce(get_family(family_id[len("reduced(") : -1]))
    if family_id.startswith("poly_"):
        try:
            d = int(family_id[len("poly_") :])
        except ValueError:
            raise PreconditionError(f"bad polynomial family id {family_id!r}") from None
        if d < 2:
            raise PreconditionError("polynomial family needs degree >= 2")
        return FamilySpec(
            f"poly_{d}", -1.0, 1, degree_param=d, _coeff_gen=_poly_coeffs(d),
            _point_eval=lambda z, d=d: (1 + z / d) ** d - 1,
        )
    raise PreconditionError(
        f"unknown family {family_id!r}; known: {', '.join(_CATALOG)}, poly_<d>, reduced(sin), reduced(tan)"
    )


def base_series(spec: FamilySpec, n: int) -> TruncatedSeries:
    """Degree-n truncation of the base map f (parameter lambda = 1)."""
    if n < 2:
        raise PreconditionError("series degree must be >= 2")
    return TruncatedSeries.from_coeffs(spec._coeff_gen(n), n)


def family_series(spec: FamilySpec, lam: complex, n: int) -> TruncatedSeries:
    """Degree-n truncation of f_lambda = lambda * f, so c_1 = lambda."""
    return base_series(spec, n) * np.complex128(lam)


def family_eval(spec: FamilySpec, lam: complex, z: complex) -> complex:
    """lambda * f(z) by closed form (no truncation)."""
    return complex(lam) * spec._point_eval(z)


def symmetry_reduce(spec: FamilySpec) -> FamilySpec:
    """Fold an n-symmetric family to F(w) = f(w^{1/n})^n with v_F = v^n.

    The parameter correspondence is lambda -> lambda^n: the reduced map under
    study is w -> lambda^n F(w) when the original is z -> lambda f(z).
    """
    if spec.symmetry_order == 1:
        raise PreconditionError(f"{spec.family_id} has no symmetry to reduce (n=1)")
    return _make_reduced(spec)


def custom_family(family_id, v, symmetry_order, coeff_gen, point_eval) -> FamilySpec:
    """Register-free constructor for user-supplied maps.

    ``coeff_gen(n)`` returns the coefficients c_0 .. c_n of f (c_0 = 0,
    c_1 = 1) as a length n + 1 sequence, which is taken as complex128;
    ``point_eval(z)`` returns f(z) for a Python complex z.

    The one-singular-value hypothesis is *not* checked for custom maps; the
    spec is flagged user_defined and a warning is emitted once at build time.
    """
    warnings.warn(
        "custom family: the single-singular-value hypothesis is not verified",
        stacklevel=2,
    )
    return FamilySpec(
        family_id=str(family_id),
        v=complex(v),
        symmetry_order=int(symmetry_order),
        user_defined=True,
        _coeff_gen=coeff_gen,
        _point_eval=point_eval,
    )
