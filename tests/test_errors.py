import pickle

import pytest

from siegelnum import errors

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
