import dataclasses
import pickle
import re
import warnings

import numpy as np
import pytest

from siegelnum import (
    ConstructionConfig, TruncatedSeries, base_series, cf_expand, errors, get_family, golden_rotation,
    harmonic_check, koenigs_series, poisson_bound_check, qa_norm, rational_rotation, rho_coefficient,
    rho_coefficients, rho_radial, rotation_from_cf, siegel_series_many, u_values,
)
from siegelnum.families import custom_family
from siegelnum.qanorm import circle_values

# constructor arguments per class; every other class takes a bare message
SAMPLE_ARGS = {
    "DivisorBreakdownError": (3, 1e-15, 1e-14),
    "NoConvergenceError": (10, "orbit escaped"),
    "ConstructionStallError": ("step 2 stalled", {"steps": [1, 2]}),
}
ATTRIBUTES = ("k", "magnitude", "floor", "budget", "partial_report")


@pytest.mark.parametrize("name", errors.__all__)
def test_error_survives_pickle_round_trip(name):
    cls = getattr(errors, name)
    exc = cls(*SAMPLE_ARGS.get(name, ("something failed",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    for attr in ATTRIBUTES:
        assert getattr(back, attr, None) == getattr(exc, attr, None)


def _bits(obj):
    """obj's numbers as binary64 bits, through dataclasses, sequences and
    arrays; anything else as its type and repr (exact for a float)."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, [(f.name, _bits(getattr(obj, f.name))) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__, [_bits(x) for x in obj]
    return type(obj).__name__, repr(obj)


def _custom(symmetry_order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # custom_family warns by design
        return custom_family("mine", -0.5, symmetry_order, _QUAD._coeff_gen, _QUAD._point_eval)


_QUAD = get_family("quadratic")
_G = base_series(_QUAD, 64)

# every count argument: (call at the count, a good count, its floor, its name)
COUNTS = {
    "base_series-n": (lambda v: base_series(_QUAD, v), 64, 2, "series degree"),
    "koenigs_series-n": (lambda v: koenigs_series(_QUAD, 0.5, v), 64, 2, "series degree"),
    "siegel_series_many-n": (lambda v: siegel_series_many(_QUAD, [golden_rotation()], v), 64, 2, "series degree"),
    "u_values-n": (lambda v: u_values(_QUAD, [0.5, 0.3j], v), 64, 2, "series degree"),
    "rho_coefficient-n": (lambda v: rho_coefficient(_QUAD, golden_rotation(), v), 64, 32, "series degree"),
    "rho_coefficients-n": (lambda v: rho_coefficients(_QUAD, [golden_rotation(), 0.3], v), 64, 32, "series degree"),
    "config-n_series": (lambda v: ConstructionConfig(n_series=v), 64, 64, "series degree"),
    "u_values-budget": (lambda v: u_values(_QUAD, [0.5, 0.3j], 64, v), 64, 1, "iteration budget"),
    "rho_radial-depth": (lambda v: rho_radial(_QUAD, golden_rotation(), depth=v, n=64), 5, 4, "depth"),
    "config-depth": (lambda v: ConstructionConfig(depth=v), 2, 1, "depth"),
    "poisson_bound_check-ray_samples": (
        lambda v: poisson_bound_check(_QUAD, golden_rotation(), 0.01, -1.1, -1.1, ray_samples=v),
        4, 1, "ray samples"),
    "harmonic_check-nodes": (lambda v: harmonic_check(lambda z: z.real, nodes=v), 8, 8, "nodes"),
    "qa_norm-circle_samples": (lambda v: qa_norm(_G, 0.5, circle_samples=v), 64, 8, "circle samples"),
    "qa_norm-order_cap": (lambda v: qa_norm(_G, 0.5, order_cap=v), 2, 0, "derivative order cap"),
    "circle_values-samples": (lambda v: circle_values(_G.coeffs, 0.5, v), 8, 1, "samples"),
    "circle_values-order_cap": (lambda v: circle_values(_G.coeffs, 0.5, 8, order_cap=v), 1, 0,
                                "derivative order cap"),
    "rotation_from_cf-quotient": (lambda v: rotation_from_cf([v]), 64, 1, "partial quotient"),
    "rational_rotation-p": (lambda v: rational_rotation(v, 127), 64, 1, "p"),
    "rational_rotation-q": (lambda v: rational_rotation(1, v), 64, 2, "q"),
    "cf_expand-terms": (lambda v: cf_expand(0.3, v), 64, 1, "terms"),
    "custom_family-symmetry_order": (_custom, 64, 1, "symmetry order"),
    "from_coeffs-degree": (lambda v: TruncatedSeries.from_coeffs([0, 1, 0.5], v), 64, 0, "degree"),
}


@pytest.mark.parametrize("entry", list(COUNTS))
def test_every_count_is_an_integer_at_or_above_its_floor(entry):
    # a numpy integer gives the int's output bit for bit; a float, a whole
    # one too, and a value below the floor are refused by the argument's name
    call, good, floor, name = COUNTS[entry]
    assert _bits(call(np.int64(good))) == _bits(call(good))
    for bad in (2.5, 64.0):
        with pytest.raises(errors.PreconditionError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            call(bad)
    with pytest.raises(errors.PreconditionError, match=re.escape(f"{name} must be >= {floor}")):
        call(floor - 1)
