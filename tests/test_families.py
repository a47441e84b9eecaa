import math

import numpy as np
import pytest

from siegelnum import (
    base_series,
    family_catalog,
    family_eval,
    family_series,
    get_family,
    symmetry_reduce,
    yoccoz_w,
)
from siegelnum.errors import PoleError, PreconditionError
from siegelnum.families import custom_family
from siegelnum.series import evaluate

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
            viaser = evaluate(ser, complex(z)).value
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
        expected = inner._point_eval(complex(w) ** (1.0 / n)) ** n
        assert repr(red._point_eval(w)) == repr(expected), w
    if inner_id == "tan":
        with pytest.raises(PoleError):
            red._point_eval((math.pi / 2) ** 2)


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


def test_custom_family_flagged():
    fam = custom_family(
        "mine", 0.5, 1,
        lambda n: np.r_[0, 1, 0.25, np.zeros(n - 2)],
        lambda z: z + 0.25 * z * z,
    )
    assert fam.user_defined
    assert fam.describe()["user_defined"] is True
