import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levyup import growth as gr
from levyup.errors import InverseFailure


def step_like():
    return gr.from_callable(lambda t: np.where(t < 0.5, 0.25, 1.0))


class TestConstruction:
    def test_power_values(self):
        f = gr.power(0.8)
        t = np.array([0.25, 1.0])
        assert np.allclose(f(t), t**0.8)
        assert f.descriptor == ("power", 0.8)
        assert f.regularly_varying

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            gr.from_callable(lambda t: 1.0 / (t + 0.1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            gr.from_callable(lambda t: t - 0.5)

    def test_constant_allowed(self):
        f = gr.constant(2.0)
        assert float(f(1e-9)) == 2.0

    def test_sqrt_loglog_domain(self):
        f = gr.sqrt_loglog()
        t = np.logspace(-9, 0, 30)
        v = f(t)
        assert np.all(np.isfinite(v)) and np.all(v > 0)
        assert np.all(np.diff(v) >= -1e-15)


class TestGeneralizedInverse:
    @pytest.mark.parametrize("kappa", [0.5, 0.7, 1.3])
    def test_power_inverse_closed_form(self, kappa):
        f = gr.power(kappa)
        for r in (1e-6, 1e-3, 0.3):
            assert f.inverse(r) == pytest.approx(r ** (1.0 / kappa), rel=1e-9)

    def test_inverse_above_range_returns_one(self):
        f = gr.power(1.0)
        assert f.inverse(5.0) == 1.0

    def test_galois_consistency(self):
        f = gr.power(0.7)
        for r in np.logspace(-6, -0.5, 12):
            t_star = f.inverse(r)
            if t_star < 1.0:
                assert float(f(t_star)) >= r * (1 - 1e-9)
        for t in np.logspace(-6, -0.5, 12):
            assert f.inverse(float(f(t))) <= t * (1 + 1e-9)

    def test_flat_function_inverse_failure(self):
        f = gr.constant(1.0)
        with pytest.raises(InverseFailure):
            f.inverse(0.5)

    def test_step_like_function(self):
        # piecewise-flat f: generalized inverse lands on the jump location,
        # and a level below the flat part collapses to zero (reported as such)
        f = step_like()
        assert f.inverse(0.5) == pytest.approx(0.5, abs=1e-9)
        with pytest.raises(InverseFailure):
            f.inverse(0.1)


# ---------------------------------------------------------------------------
# the array contract of GrowthFunction.inverse
# ---------------------------------------------------------------------------


def loop_inverse(f, r):
    """The per-level bisection that preceded the array inverse."""
    if float(f(1.0)) < r:
        return 1.0
    lo, hi = np.log(1e-18), 0.0
    if float(f(np.exp(lo))) >= r:
        raise InverseFailure(f"r={r}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if float(f(np.exp(mid))) >= r:
            hi = mid
        else:
            lo = mid
    return float(np.exp(hi))


ARRAY_CASES = {
    "power(0.7)": lambda: gr.power(0.7),
    "power(1.3)": lambda: gr.power(1.3),
    "sqrt_loglog": gr.sqrt_loglog,
    "step_like": step_like,
}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(r=hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4),
                    elements=st.floats(1e-5, 2.0)))
def test_array_inverse_matches_scalar_calls(name, r):
    f = ARRAY_CASES[name]()
    if name == "step_like":
        r = np.maximum(r, 0.26)  # levels below the flat part collapse
    out = f.inverse(r)
    if r.ndim == 0:
        assert type(out) is float
    else:
        assert out.shape == r.shape
    scalar = [f.inverse(float(x)) for x in r.ravel()]
    assert np.asarray(out).ravel().tolist() == scalar
    assert scalar == [loop_inverse(f, float(x)) for x in r.ravel()]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(r=hnp.arrays(float, st.integers(1, 8), elements=st.floats(0.26, 2.0)),
       bad=st.floats(1e-3, 0.25), at=st.integers(0, 8))
def test_array_inverse_names_first_collapse(r, bad, at):
    # a level at or below the flat part anywhere in the array fails the call
    # and the message names the first such level
    r = np.insert(r, min(at, r.size), [bad, bad / 2])
    with pytest.raises(InverseFailure, match=re.escape(f"r={bad} is")):
        step_like().inverse(r)


def test_array_inverse_of_empty_and_high_levels():
    f = gr.power(0.5)
    assert f.inverse(np.array([])).shape == (0,)
    np.testing.assert_array_equal(f.inverse(np.array([[2.0, 5.0]])), [[1.0, 1.0]])


def test_inverse_rejects_nan_levels_before_calling_f():
    # a NaN level once read as 1.0 (NaN <= f(1) is False); inf keeps its 1.0
    # and finite levels keep their bits
    calls = []
    f = gr.from_callable(lambda t: calls.append(1) or np.sqrt(t))
    calls.clear()
    for bad in (np.nan, [0.5, np.nan], [[0.25], [np.nan]]):
        with pytest.raises(ValueError, match="NaN at index 1" if np.size(bad) > 1 else "NaN"):
            f.inverse(bad)
    assert not calls
    p = gr.power(0.5)
    assert p.inverse(np.inf) == 1.0
    finite = np.array([0.5, 0.01, 1e-4])
    assert p.inverse(finite).tobytes() == np.array([p.inverse(v) for v in finite]).tobytes()
