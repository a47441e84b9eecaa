import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from siegelnum import (
    base_series,
    family_catalog,
    family_eval,
    family_series,
    get_family,
    siegel_series_many,
    symmetry_reduce,
    u_values,
    yoccoz_w,
)
from siegelnum import families, linearize
from siegelnum.errors import PoleError, PreconditionError
from siegelnum.families import custom_family
from siegelnum.series import TruncatedSeries, evaluate

CATALOG_IDS = ["quadratic", "poly_3", "exp", "zexp", "sin", "tan"]


def test_catalog_has_six_entries():
    assert [f.family_id for f in family_catalog()] == CATALOG_IDS


def test_pointwise_examples():
    assert family_eval(get_family("quadratic"), 0.5, 0.5) == pytest.approx(0.125)
    assert family_eval(get_family("exp"), 1.0, 0.0) == 0
    with pytest.raises(PoleError):
        family_eval(get_family("tan"), 1.0, math.pi / 2)


def test_series_matches_closed_form_near_zero():
    rng = np.random.default_rng(7)
    for fam in family_catalog():
        ser = family_series(fam, 1.0, 48)
        for _ in range(20):
            z = 0.1 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            direct = family_eval(fam, 1.0, complex(z))
            viaser = evaluate(ser, complex(z))
            assert abs(direct - viaser) <= 1e-10, fam.family_id


def test_odd_families_have_zero_even_coefficients():
    for fid in ("sin", "tan"):
        c = base_series(get_family(fid), 33).coeffs
        assert np.all(c[0::2] == 0), fid


def test_reduced_sine_series_oracle():
    # squaring the sine series and substituting w = z^2 gives
    # w - w^2/3 + 2 w^3/45 - ...
    red = symmetry_reduce(get_family("sin"))
    c = base_series(red, 3).coeffs
    assert c[0] == 0
    assert c[1] == pytest.approx(1.0, abs=1e-15)
    assert c[2] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert c[3] == pytest.approx(2.0 / 45.0, abs=1e-12)
    assert red.v == pytest.approx(1.0)


def test_reduced_matches_formal_square():
    sin_c = base_series(get_family("sin"), 41).coeffs
    odd = sin_c[1::2]  # a_1, a_3, ... as a series in w
    square = np.convolve(odd, odd)[:20]
    red_c = base_series(get_family("reduced(sin)"), 20).coeffs
    # G(w) = w * (sum a_{2j+1} w^j)^2 has coefficient square[k-1] at w^k
    assert np.allclose(red_c[1:], square, atol=1e-12)


def test_reduced_tan_value():
    red = symmetry_reduce(get_family("tan"))
    assert red.v == pytest.approx(-1.0)  # i^2


@pytest.mark.parametrize("inner_id", ["sin", "tan"])
def test_reduced_point_eval_folds_the_inner_map(inner_id):
    inner = get_family(inner_id)
    red = get_family(f"reduced({inner_id})")
    n = inner.symmetry_order
    rng = np.random.default_rng(7)
    # |w| <= 2 keeps w^{1/2} inside |z| < pi/2, clear of the tan poles
    ws = 2 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    for w in [*ws.tolist(), 0.3, 0]:
        s = inner._point_eval(cmath.sqrt(w))
        assert repr(red._point_eval(w)) == repr(s * s), w
        # the general w ** (1/n) fold agrees to a few ulps of |F(w)|
        # (measured on this sample: 4.3 for sin, 10.9 for tan)
        general = inner._point_eval(complex(w) ** (1.0 / n)) ** n
        assert abs(s * s - general) <= 16 * np.finfo(float).eps * abs(general), w
    if inner_id == "tan":
        with pytest.raises(PoleError):
            red._point_eval((math.pi / 2) ** 2)


def test_reduced_order_three_folds_by_the_cube_root():
    # f(z) = z - z^4/4 has f(omega z) = omega f(z) for omega^3 = 1, so
    # F(w) = f(w^{1/3})^3 = w (1 - w/4)^3 exactly
    with pytest.warns(UserWarning, match="single-singular-value"):
        cubic = custom_family(
            "cubic", 0.75, 3,
            lambda n: np.r_[0, 1, 0, 0, -0.25, np.zeros(n - 4)],
            lambda z: z - z**4 / 4,
        )
    red = symmetry_reduce(cubic)
    for w in (0, 0.3, -0.5 + 0.2j, 1.5j):
        expected = w * (1 - w / 4) ** 3
        assert abs(red._point_eval(w) - expected) <= 1e-15 * max(1.0, abs(expected)), w
    assert np.allclose(base_series(red, 6).coeffs, [0, 1, -0.75, 3 / 16, -1 / 64, 0, 0])


def test_symmetry_reduce_rejects_trivial_symmetry():
    with pytest.raises(PreconditionError):
        symmetry_reduce(get_family("quadratic"))


def test_poly2_matches_quadratic_linearization():
    """poly_2 is affinely conjugate to the quadratic entry, so the
    log-modulus of the Yoccoz function must agree once v is accounted for."""
    quad = get_family("quadratic")
    p2 = get_family("poly_2")
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = complex(0.1 + 0.7 * rng.uniform(), 0) * np.exp(2j * np.pi * rng.uniform())
        a = yoccoz_w(quad, complex(lam), n=64)
        b = yoccoz_w(p2, complex(lam), n=64)
        shift = math.log(abs(p2.v)) - math.log(abs(quad.v))
        assert abs((b.u - a.u) - shift) <= 1e-8


def test_unknown_family_rejected():
    with pytest.raises(PreconditionError):
        get_family("cubic_but_wrong")


@pytest.mark.parametrize(
    "family_id, match",
    [("poly_x", "bad polynomial family id"), ("poly_1", "degree >= 2")]
    # int() reads each of these as 3; only the canonical poly_3 names that map
    + [(bad, "bad polynomial family id")
       for bad in ("poly_ 3", "poly_+3", "poly_03", "poly_0_3", "poly_3 ", "poly_\u0663")],
    ids=["poly_x", "poly_1", "space", "plus", "leading-zero", "underscore", "trailing-space", "arabic-indic"],
)
def test_malformed_polynomial_id_rejected(family_id, match):
    with pytest.raises(PreconditionError, match=match):
        get_family(family_id)


@pytest.mark.parametrize("d", [2, 3, 20000])
def test_canonical_polynomial_id_accepted(d):
    fam = get_family(f"poly_{d}")
    assert fam.family_id == f"poly_{d}" and fam.degree_param == d


def test_get_family_shares_one_spec_per_id():
    for family_id in ("reduced(tan)", "poly_5"):
        assert get_family(family_id) is get_family(family_id)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            get_family("cubic_but_wrong")


def test_symmetry_reduce_shares_one_spec_per_map():
    # each reduction of sin is the spec get_family('reduced(sin)') returns,
    # so every u_values call after the first hits the Koenigs-table memo,
    # and the base series behind that table is built once
    sin = get_family("sin")
    specs = [symmetry_reduce(sin) for _ in range(3)]
    assert all(spec is get_family("reduced(sin)") for spec in specs)
    families.base_series.cache_clear()
    linearize._koenigs_table.cache_clear()
    for spec in specs:
        u_values(spec, [0.5], 128)
    info = linearize._koenigs_table.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    # a table hit needs no base series, so its memo is asked only once
    info = families.base_series.cache_info()
    assert (info.hits, info.misses) == (0, 1)


def test_equal_custom_specs_reduce_to_their_own_maps():
    # same id, v and symmetry but different maps: the specs differ, and
    # each reduces to its own map
    with pytest.warns(UserWarning, match="single-singular-value"):
        odd = custom_family("mine", 0.5, 2, lambda n: np.r_[0, 1, 0, -1, np.zeros(n - 3)],
                            lambda z: z - z**3)
        half = custom_family("mine", 0.5, 2, lambda n: np.r_[0, 1, 0, -0.5, np.zeros(n - 3)],
                             lambda z: z - 0.5 * z**3)
    assert odd != half
    red_odd, red_half = symmetry_reduce(odd), symmetry_reduce(half)
    assert red_odd is symmetry_reduce(odd) and red_odd is not red_half
    assert base_series(red_odd, 4).coeffs[2] == -2
    assert base_series(red_half, 4).coeffs[2] == -1
    assert red_odd._point_eval(0.25) == 0.25 * (1 - 0.25) ** 2


def test_equal_custom_specs_keep_their_own_series():
    # same id, v and symmetry but different maps: the specs differ, and
    # base_series' memo hands each its own coefficients.  At lambda v =
    # 0.125 neither orbit moves (m = 0), so u is h(0.125) from the series
    # alone
    with pytest.warns(UserWarning, match="single-singular-value"):
        full = custom_family("mine", 0.25, 1, lambda n: np.r_[0, 1, -1, np.zeros(n - 2)],
                             lambda z: z - z * z)
        half = custom_family("mine", 0.25, 1, lambda n: np.r_[0, 1, -0.5, np.zeros(n - 2)],
                             lambda z: z - 0.5 * z * z)
    assert full != half
    assert base_series(full, 16).coeffs[2] == -1
    assert base_series(half, 16).coeffs[2] == -0.5
    a, b = yoccoz_w(full, 0.5, 64), yoccoz_w(half, 0.5, 64)
    assert a.iterations_used == b.iterations_used == 0
    assert a.u != b.u


def test_custom_specs_from_the_same_callables_share_memo_entries():
    def gen(n):
        return np.r_[0, 1, 0, -1 / 6, np.zeros(n - 3)]

    def pe(z):
        return z - z**3 / 6

    with pytest.warns(UserWarning, match="single-singular-value"):
        a = custom_family("cubic", 0.5, 2, gen, pe)
        b = custom_family("cubic", 0.5, 2, gen, pe)
    assert a == b and a is not b
    families.base_series.cache_clear()
    linearize._koenigs_table.cache_clear()
    for spec in (a, b, a):
        u_values(spec, [0.5], 64)
    for memo in (families.base_series, linearize._koenigs_table):
        info = memo.cache_info()
        assert info.misses == 1, memo
    assert linearize._koenigs_table.cache_info().hits == 2
    assert base_series(a, 64) is base_series(b, 64)
    assert symmetry_reduce(a) is symmetry_reduce(b)


def _bad_gen(n, c0=0, c1=1, extra=0):
    return np.r_[c0, c1, -1, np.zeros(n - 2 + extra)]


@pytest.mark.parametrize(
    "gen",
    [lambda n: _bad_gen(n, c1=2), lambda n: _bad_gen(n, c0=0.1),
     lambda n: _bad_gen(n, extra=1), lambda n: _bad_gen(n, extra=-1)],
    ids=["c1=2", "c0=0.1", "long", "short"],
)
def test_custom_coefficients_must_be_normalized(gen):
    with pytest.warns(UserWarning, match="single-singular-value"):
        fam = custom_family("bad", 0.25, 1, gen, lambda z: z - z * z)
    match = "bad: coefficients must be c_0 = 0, c_1 = 1"
    with pytest.raises(PreconditionError, match=match):
        base_series(fam, 16)
    with pytest.raises(PreconditionError, match=match):
        yoccoz_w(fam, 0.3)
    with pytest.raises(PreconditionError, match=match):
        siegel_series_many(fam, [0.618])


@pytest.mark.parametrize("v", [0, float("nan"), complex(math.inf, 0), complex(0, math.nan)])
def test_singular_value_must_be_finite_and_nonzero(v):
    with pytest.warns(UserWarning, match="single-singular-value"):
        with pytest.raises(PreconditionError, match="finite and nonzero"):
            custom_family("bad", v, 1, _bad_gen, lambda z: z - z * z)


def test_symmetry_order_must_be_positive():
    with pytest.warns(UserWarning, match="single-singular-value"):
        with pytest.raises(PreconditionError, match="symmetry order must be >= 1"):
            custom_family("bad", 0.25, 0, _bad_gen, lambda z: z - z * z)


def test_custom_family_flagged():
    with pytest.warns(UserWarning, match="single-singular-value"):
        fam = custom_family(
            "mine", 0.5, 1,
            lambda n: np.r_[0, 1, 0.25, np.zeros(n - 2)],
            lambda z: z + 0.25 * z * z,
        )
    assert fam.user_defined
    assert fam.describe()["user_defined"] is True


# -- parity with the generators the shared ones replaced ---------------------
# The oracles are the earlier per-family generators, kept verbatim.

PARITY_DEGREES = (2, 3, 7, 64, 128, 257)


def _oracle_sin(n):
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


def _oracle_zexp(n):
    c = np.zeros(n + 1, dtype=np.complex128)
    if n >= 1:
        c[1] = 1
    inv = np.complex128(1)
    for k in range(2, n + 1):
        inv = inv / (k - 1)
        c[k] = inv
    return c


def _oracle_reduced(inner_gen, n, m):
    c = inner_gen(n * m)
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


@pytest.mark.parametrize("n", PARITY_DEGREES)
def test_generators_match_their_oracles_bytewise(n):
    assert families._sin_coeffs(n).tobytes() == _oracle_sin(n).tobytes()
    assert get_family("zexp")._coeff_gen(n).tobytes() == _oracle_zexp(n).tobytes()
    for inner_id, oracle in (("sin", _oracle_sin), ("tan", families._tan_coeffs)):
        got = get_family(f"reduced({inner_id})")._coeff_gen(n)
        assert got.tobytes() == _oracle_reduced(oracle, 2, n).tobytes(), inner_id


def test_tan_coefficients_are_the_tangent_numbers():
    # against exact rationals from tan' = 1 + tan^2: every term is positive,
    # so the error only grows with the degree (measured: 29 ulp at k = 257)
    n = 257
    exact = [Fraction(0)] * (n + 1)
    exact[1] = Fraction(1)
    for k in range(3, n + 1, 2):
        exact[k] = sum(exact[i] * exact[k - 1 - i] for i in range(1, k - 1, 2)) / k
    c = families._tan_coeffs(n)
    assert not c.imag.any() and not c.real[::2].any()
    for k in range(1, n + 1, 2):
        assert abs(Fraction(c.real[k]) - exact[k]) <= k * EPS * exact[k], k


def test_poly_family_is_one_constructor():
    catalog = get_family("poly_3")
    built = families._poly_family(3)
    assert built.describe() == catalog.describe() == {
        "id": "poly_3", "v": [-1.0, 0.0], "symmetry_order": 1, "d": 3,
    }
    for n in PARITY_DEGREES:
        assert built._coeff_gen(n).tobytes() == catalog._coeff_gen(n).tobytes()
    assert get_family("poly_7").describe()["d"] == 7
    z = 0.3 - 0.2j
    assert get_family("poly_7")._point_eval(z) == (1 + z / 7) ** 7 - 1


# -- parity with the point evaluators the one-call ones replaced -------------
# The oracles are the earlier expressions: sin through a lambda, tan as
# sin(z) / cos(z) behind |cos z| < TAN_POLE_THRESHOLD, and the n = 2 fold
# through the module's cmath.sqrt.

EPS = np.finfo(float).eps


def _seeded_points(count, half_width):
    rng = np.random.default_rng(11)
    return (half_width * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))).tolist()


def test_sin_and_the_folds_match_the_old_expressions_bitwise():
    sin, tan = get_family("sin")._point_eval, get_family("tan")._point_eval

    def old_sin(z):
        return cmath.sin(z)

    for z in _seeded_points(2000, 3.0):
        assert repr(sin(z)) == repr(old_sin(z)), z
    # reduced(tan) folds over today's tan, whose own distance from sin / cos
    # is the next test's
    for w in _seeded_points(2000, 9.0):
        for inner, red_id in ((old_sin, "reduced(sin)"), (tan, "reduced(tan)")):
            s = inner(cmath.sqrt(w))
            assert repr(get_family(red_id)._point_eval(w)) == repr(s * s), (red_id, w)


def test_tan_is_within_a_few_ulps_of_sin_over_cos():
    # measured on these points: at most 3.7 ulps of |tan z|
    tan = get_family("tan")._point_eval
    worst = 0.0
    for z in _seeded_points(20000, 3.0):
        ref = cmath.sin(z) / cmath.cos(z)
        worst = max(worst, abs(tan(z) - ref) / (EPS * abs(ref)))
    assert worst <= 8


@pytest.mark.parametrize("k", range(-3, 4))
def test_tan_pole_rule_is_the_cosine_rule(k):
    # z = pi/2 + k pi + delta e^{i theta}: |tan z| > 1 / TAN_POLE_THRESHOLD
    # raises exactly where |cos z| < TAN_POLE_THRESHOLD, here for the two
    # deltas below the threshold
    tan = get_family("tan")._point_eval
    raised = set()
    for delta in (1e-13, 5e-13, 2e-12, 1e-11):
        for theta in (0.0, 0.4, math.pi / 2, 2.0, math.pi, 4.0, 5.5):
            z = math.pi / 2 + k * math.pi + delta * cmath.exp(1j * theta)
            if abs(cmath.cos(z)) < families.TAN_POLE_THRESHOLD:
                with pytest.raises(PoleError):
                    tan(z)
                raised.add(delta)
            else:
                assert abs(tan(z)) <= 1 / families.TAN_POLE_THRESHOLD, (delta, theta)
    assert raised == {1e-13, 5e-13}
