"""Catalog of one-singular-value function families f with f(0)=0, f'(0)=1.

Each entry pairs a closed-form evaluator with a series generator for the
same map, plus the data the rest of the package keys on: the distinguished
non-zero singular value ``v`` (critical or asymptotic), the rotational
symmetry order ``n`` (f(omega z) = omega f(z) for omega an n-th root of
unity) and, for exp, zexp, sin and tan, the first-order ODE the map
satisfies (``ode``), by which its Siegel series is solved.  The parametrized map under study is always f_lambda = lambda * f.

Families with n > 1 can be folded to a symmetry-reduced map
F(w) = f(w^{1/n})^n, a genuine power series in w; see
:func:`symmetry_reduce`.

A spec is its map: specs are equal only when they hold the same generator
and evaluator, and every per-map memo keys on the spec.  An orbit step of
sin or tan is one cmath call (_tan_eval), of their folds one more.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import PoleError, PreconditionError, check_count
from .series import TruncatedSeries

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
_TAN_POLE_BOUND = 1 / TAN_POLE_THRESHOLD


@dataclass(frozen=True)
class FamilySpec:
    """One catalog entry: the base map f, its singular value, its symmetry."""

    family_id: str
    v: complex
    symmetry_order: int
    degree_param: int | None = None  # d for the polynomial family
    user_defined: bool = False
    reduced_from: str | None = None
    # the first-order ODE that f satisfies, by name (exp, zexp, sin, tan),
    # which linearize solves the Siegel series by; a reduction keeps its base
    # map's, solved at half the rotation number and folded.  None: the Siegel
    # series comes from the composition solve.
    ode: str | None = None
    _coeff_gen: Callable = field(default=None, repr=False)
    _point_eval: Callable = field(default=None, repr=False)

    def __post_init__(self):
        if not (cmath.isfinite(self.v) and self.v != 0):
            raise PreconditionError(
                f"distinguished singular value must be finite and nonzero, got {self.v!r}")
        # stored as the int check_count returns, so describe() stays JSON-safe
        object.__setattr__(self, "symmetry_order", check_count(self.symmetry_order, "symmetry order", 1))

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


@functools.lru_cache(maxsize=64)
def _poly_family(d: int) -> "FamilySpec":
    """poly_d: f(z) = (1 + z/d)^d - 1, critical value -1.  One spec per d
    (memoized, 64 degrees), since each call's fresh closures are a new map."""

    def gen(n):
        c = np.zeros(n + 1, dtype=np.complex128)
        for k in range(1, min(n, d) + 1):
            c[k] = math.comb(d, k) / d**k  # correctly rounded, for any d
        return c

    return FamilySpec(f"poly_{d}", -1.0, 1, degree_param=d, _coeff_gen=gen,
                      _point_eval=lambda z: (1 + z / d) ** d - 1)


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
    # z e^z = sum_k z^k / (k-1)!: the exp coefficients shifted up one degree
    return np.array([0, 1, *_exp_coeffs(n - 1)[1:]], dtype=np.complex128)


def _sin_coeffs(n):
    """c_k = (-1)^j / k! at k = 2j + 1, each term from the last by one
    division so that no factorial overflows."""
    c = np.zeros(n + 1, dtype=np.complex128)
    term = np.complex128(1)
    sign = 1
    for k in range(1, n + 1, 2):
        c[k] = sign * term
        sign = -sign
        term = term / ((k + 1) * (k + 2))
    return c


def _tan_coeffs(n):
    # tan' = 1 + tan^2: t_1 = 1 and k t_k = [z^(k-1)] t^2 at odd k, one dot
    # of the odd coefficients below k, all positive, so nothing cancels
    c = np.zeros(n + 1, dtype=np.complex128)
    c[1] = 1
    for k in range(3, n + 1, 2):
        c[k] = np.dot(c[1 : k - 1 : 2], c[k - 2 : 0 : -2]) / k
    return c


def _tan_eval(z):
    """tan z by one cmath call; PoleError where |tan z| > 1 / TAN_POLE_THRESHOLD,
    which is |cos z| < TAN_POLE_THRESHOLD to ~1e-15 relative (the poles are
    real, |sin z| = 1 + O(|cos z|^2) there).  tan(800j) == 1j: no overflow."""
    t = cmath.tan(z)
    if abs(t) > _TAN_POLE_BOUND:
        raise PoleError(f"tan evaluation too close to a pole at z={complex(z)!r}")
    return t


def _build_catalog() -> dict[str, FamilySpec]:
    entries = [
        FamilySpec("quadratic", 0.25, 1, _coeff_gen=_quadratic_coeffs,
                   _point_eval=lambda z: z * (1 - z)),
        _poly_family(3),
        FamilySpec("exp", -1.0, 1, ode="exp", _coeff_gen=_exp_coeffs,
                   _point_eval=lambda z: cmath.exp(z) - 1),
        FamilySpec("zexp", -math.exp(-1.0), 1, ode="zexp", _coeff_gen=_zexp_coeffs,
                   _point_eval=lambda z: z * cmath.exp(z)),
        FamilySpec("sin", 1.0, 2, ode="sin", _coeff_gen=_sin_coeffs, _point_eval=cmath.sin),
        # of the symmetric pair +-i of asymptotic values, +i is the recorded one
        FamilySpec("tan", 1j, 2, ode="tan", _coeff_gen=_tan_coeffs, _point_eval=_tan_eval),
    ]
    return {e.family_id: e for e in entries}


_CATALOG = _build_catalog()


def family_catalog() -> list[FamilySpec]:
    """The six built-in families, in catalog order."""
    return list(_CATALOG.values())


def get_family(family_id: str) -> FamilySpec:
    """Look up a family by id.

    Accepts catalog ids, ``poly_<d>`` for any polynomial degree d >= 2
    written in canonical decimal (no sign, space or leading zero), and
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
            d = None
        if d is None or family_id != f"poly_{d}":  # int() also reads " 3", "+3", "03", "0_3"
            raise PreconditionError(f"bad polynomial family id {family_id!r}")
        if d < 2:
            raise PreconditionError("polynomial family needs degree >= 2")
        return _poly_family(d)
    raise PreconditionError(
        f"unknown family {family_id!r}; known: {', '.join(_CATALOG)}, poly_<d>, reduced(sin), reduced(tan)"
    )


@functools.lru_cache(maxsize=64, typed=True)
def base_series(spec: FamilySpec, n: int) -> TruncatedSeries:
    """Degree-n truncation of the base map f (parameter lambda = 1).

    Built once per (spec, n) and shared (memoized by n's type too, 64
    series, read-only).  A degree other than an integer >= 2 (check_count),
    or a generator output that is not c_0 = 0, c_1 = 1 with n + 1 terms, is
    a PreconditionError.
    """
    n = check_count(n, "series degree", 2)
    c = np.asarray(spec._coeff_gen(n), dtype=np.complex128)
    if c.shape != (n + 1,) or c[0] != 0 or c[1] != 1:
        raise PreconditionError(
            f"{spec.family_id}: coefficients must be c_0 = 0, c_1 = 1 with n + 1 = {n + 1} terms")
    return TruncatedSeries.from_coeffs(c, n)


def family_series(spec: FamilySpec, lam: complex, n: int) -> TruncatedSeries:
    """Degree-n truncation of f_lambda = lambda * f, so c_1 = lambda."""
    return base_series(spec, n) * np.complex128(lam)


def family_eval(spec: FamilySpec, lam: complex, z: complex) -> complex:
    """lambda * f(z) by closed form (no truncation)."""
    return complex(lam) * spec._point_eval(z)


@functools.lru_cache(maxsize=64)
def symmetry_reduce(spec: FamilySpec) -> FamilySpec:
    """Fold an n-symmetric family to F(w) = f(w^{1/n})^n with v_F = v^n.

    The parameter correspondence is lambda -> lambda^n: the reduced map under
    study is w -> lambda^n F(w) when the original is z -> lambda f(z).
    At n = 2 (every catalog reduction) F is evaluated as
    s = f(sqrt(w)); s * s, with cmath.sqrt bound in the closure: a square
    root and a product in place of two complex powers on every basin-orbit
    step, a few ulps from the general f(w ** (1/n)) ** n.  reduced(tan)
    keeps tan's pole rule on |tan sqrt(w)| and its bound off the real axis:
    F(-640000) == tan(800j)**2 == -1.

    Every reduction of one base spec is one shared spec (memoized, 64 maps).
    """
    n = spec.symmetry_order
    if n == 1:
        raise PreconditionError(f"{spec.family_id} has no symmetry to reduce (n=1)")
    inner_gen, inner_eval = spec._coeff_gen, spec._point_eval

    def gen(m):
        # f(z) = z * phi(z^n) with phi_j = c_{n j + 1}; then
        # F(w) = f(w^{1/n})^n = w * phi(w)^n, needing inner coefficients
        # through degree n*m.
        phi = np.zeros(m + 1, dtype=np.complex128)
        phi[:m] = inner_gen(n * m)[1 : n * m : n]
        acc = phi.copy()
        for _ in range(n - 1):
            acc = np.convolve(acc, phi)[: m + 1]
        out = np.zeros(m + 1, dtype=np.complex128)
        out[1:] = acc[:m]
        return out

    # branch-independent: f(omega z)^n = f(z)^n for the symmetry root omega
    if n == 2:
        sqrt = cmath.sqrt

        def pe(w):
            s = inner_eval(sqrt(w))
            return s * s

    else:
        root = 1.0 / n

        def pe(w):
            w = complex(w)
            if w == 0:
                return 0j
            return inner_eval(w ** root) ** n

    return FamilySpec(f"reduced({spec.family_id})", spec.v**n, 1, reduced_from=spec.family_id,
                      ode=spec.ode if n == 2 else None, _coeff_gen=gen, _point_eval=pe)


def custom_family(family_id, v, symmetry_order, coeff_gen, point_eval) -> FamilySpec:
    """Register-free constructor for user-supplied maps.

    ``coeff_gen(n)`` returns the coefficients c_0 .. c_n of f (c_0 = 0,
    c_1 = 1) as a length n + 1 sequence, which is taken as complex128;
    ``point_eval(z)`` returns f(z) for a Python complex z.  The two
    callables are the map's identity: specs built from the same callables
    (and the same id, v and symmetry) are equal and share memo entries, so
    both must be hashable.

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
        symmetry_order=symmetry_order,
        user_defined=True,
        _coeff_gen=coeff_gen,
        _point_eval=point_eval,
    )
