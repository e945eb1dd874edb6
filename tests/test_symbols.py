import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levyup import measures as ms
from levyup import processes as pr
from levyup.errors import DegenerateSymbol
from levyup.symbols import (
    LevyTriplet,
    eval_exponent,
    psi_star,
    psi_star_h_constant,
    sector_check,
    symbol_extremum,
    validate_symbol,
)


def riemann_exponent(alpha, xi, n=10**6, lo=1e-13, window=400.0):
    """Brute-force log-grid Riemann sum of 2 int (1-cos(y xi)) y^{-1-alpha} dy.

    The grid stops at y = window/xi, where the grid still resolves every
    oscillation; beyond it the oscillating part averages out and the
    remaining mass 2 hi^{-alpha}/alpha is added in closed form.
    """
    hi = window / xi
    u = np.linspace(np.log(lo), np.log(hi), n)
    y = np.exp(u)
    du = u[1] - u[0]
    # 1 - cos(w) written as 2 sin^2(w/2): no cancellation at tiny w
    integrand = 4.0 * np.sin(y * xi / 2.0) ** 2 * y ** (-alpha)
    return float(np.trapezoid(integrand, dx=du) + 2.0 * hi**-alpha / alpha)


class TestEvalExponent:
    def test_cauchy_at_two(self):
        cau = pr.cauchy_process()
        assert eval_exponent(cau.levy, 2.0) == pytest.approx(2.0, rel=1e-9)

    def test_zero_frequency(self):
        for spec in (pr.cauchy_process(), pr.one_sided_stable_process(0.5)):
            assert eval_exponent(spec.levy, 0.0) == 0.0

    @pytest.mark.parametrize("xi", [0.5, 1.0, 4.0])
    def test_raw_stable_against_riemann_oracle(self, xi):
        # brute-force oracle on a 10^6-point log grid, itself checked against
        # the dilation of the normalized exponent
        oracle = riemann_exponent(1.5, xi)
        closed = xi**1.5 / ms.stable_normalization(1.5)
        assert oracle == pytest.approx(closed, rel=2e-6)
        m = ms.stable_measure(1.5, scale=1.0)
        tri = LevyTriplet(b=np.zeros(1), Q=None, measure=m)
        val = eval_exponent(tri, xi)
        assert abs(val.imag) < 1e-10
        assert val.real == pytest.approx(oracle, rel=1e-5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_stable_closed_form_across_frequencies(self, alpha):
        spec = pr.stable_process(alpha)
        for xi in np.logspace(-1, 2, 7):
            val = eval_exponent(spec.levy, float(xi))
            assert val.real == pytest.approx(xi**alpha, rel=1e-5)
            assert abs(val.imag) <= 1e-8 * max(1.0, xi**alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_one_sided_matches_skewed_closed_form(self, alpha):
        spec = pr.one_sided_stable_process(alpha)
        for xi in (0.7, 3.0, -3.0, 40.0):
            num = eval_exponent(spec.levy, xi)
            ref = spec.q(0.0, np.array([xi]))[0]
            assert num == pytest.approx(ref, rel=1e-6)

    def test_gaussian_and_drift_terms(self):
        m = ms.null_measure()
        tri = LevyTriplet(b=np.array([2.0]), Q=np.array([[3.0]]), measure=m)
        val = eval_exponent(tri, 1.5)
        assert val == pytest.approx(-1j * 3.0 + 0.5 * 3.0 * 2.25)

    def test_atom_exponent(self):
        spec = pr.atom_process(radius=2.0, mass=1.0)
        val = eval_exponent(spec.levy, 0.9)
        assert val == pytest.approx(1.0 - np.cos(1.8), rel=1e-12)

    def test_isotropic_2d(self):
        m = ms.stable_measure(1.0, dim=2)
        tri = LevyTriplet(b=np.zeros(2), Q=None, measure=m)
        xi = np.array([[0.6, 0.8]])  # |xi| = 1
        val = eval_exponent(tri, xi)
        assert val[0].real == pytest.approx(1.0, rel=1e-4)


class TestPsiStar:
    def test_cauchy_boundary(self):
        assert psi_star(pr.cauchy_process(), 0.0, 3.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_stable_power(self, alpha):
        spec = pr.stable_process(alpha)
        for r in (0.3, 2.0, 50.0):
            assert psi_star(spec, 0.0, r) == pytest.approx(r**alpha, rel=1e-12)

    def test_monotone_in_radius(self):
        spec = pr.slow_variation_process()
        vals = [psi_star(spec, 0.0, r) for r in np.logspace(0, 4, 9)]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_slow_variation_comparable_to_h(self):
        # cross-check of the symbol sup against the concentration h
        spec = pr.slow_variation_process()
        m = spec.levy.measure
        for r in np.logspace(-3, -1, 5):
            h = m.concentration(r).h
            p = psi_star(spec, 0.0, 1.0 / r)
            assert 1.0 / 100 <= p / h <= 100


class TestSectorCheck:
    def test_symmetric_stable_holds_with_zero(self):
        rep = sector_check(pr.stable_process(1.2))
        assert rep.holds and rep.witness == 0.0

    def test_drift_half_stable_fails(self):
        rep = sector_check(pr.drift_half_stable_process())
        assert rep.fails

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_one_sided_constant_ratio(self, alpha):
        rep = sector_check(pr.one_sided_stable_process(alpha))
        assert rep.holds
        assert rep.witness == pytest.approx(abs(np.tan(np.pi * alpha / 2)), rel=1e-9)

    def test_zero_process_degenerate(self):
        with pytest.raises(DegenerateSymbol):
            sector_check(pr.zero_process())

    def test_state_dependent_ball(self):
        rep = sector_check(pr.variable_order_process(), x_ball=(0.0, 0.5))
        assert rep.holds and rep.witness == 0.0


class TestSymbolExtremum:
    def test_variable_order_supsup(self):
        vo = pr.variable_order_process()
        val = symbol_extremum(vo, 0.0, 0.5, 4.0, "sup_sup")
        assert val == pytest.approx(4.0**1.7, rel=1e-12)

    def test_variable_order_infsup(self):
        vo = pr.variable_order_process()
        val = symbol_extremum(vo, 0.0, 0.5, 4.0, "inf_sup")
        assert val == pytest.approx(4.0**1.3, rel=1e-12)

    def test_levy_sup_equals_inf(self):
        cau = pr.cauchy_process()
        for R in (0.0, 1.0, 5.0):
            a = symbol_extremum(cau, 0.0, R, 2.0, "sup_sup")
            b = symbol_extremum(cau, 0.0, R, 2.0, "inf_sup")
            assert a == b == pytest.approx(2.0)

    def test_swapped_order_re(self):
        vo = pr.variable_order_process()
        # sup_xi inf_z Re q = (xi_max)^{alpha_min} for monotone powers
        val = symbol_extremum(vo, 0.0, 0.5, 4.0, "sup_inf_re")
        assert val == pytest.approx(4.0**1.3, rel=1e-12)


class TestStructuralInvariants:
    @pytest.mark.parametrize("factory", [
        pr.cauchy_process,
        lambda: pr.stable_process(0.7),
        lambda: pr.raw_stable_process(1.5),
        lambda: pr.one_sided_stable_process(1.5),
        pr.drift_half_stable_process,
        pr.atom_process,
        pr.variable_order_process,
        lambda: pr.stable_type_process(1.2),
        pr.sde_process,
    ])
    def test_symbol_axioms_and_doubling(self, factory):
        validate_symbol(factory())

    @pytest.mark.parametrize("factory", [
        pr.cauchy_process,
        lambda: pr.raw_stable_process(0.5),
        lambda: pr.raw_stable_process(1.5),
        pr.slow_variation_process,
        pr.log_smooth_process,
        pr.atom_process,
    ])
    def test_h_psi_star_equivalence_constant_below_100(self, factory):
        spec = factory()
        c = psi_star_h_constant(spec, spec.levy.measure)
        assert 1.0 <= c < 100.0


# ---------------------------------------------------------------------------
# equivalence with the per-state evaluation that preceded the batched layer
# ---------------------------------------------------------------------------

GOLDEN_EXTREMUM = Path(__file__).parent / "data" / "symbol_extremum_golden.json"
EQUIV_SPECS = {
    "variable_order": pr.variable_order_process,
    "stable_type": lambda: pr.stable_type_process(1.2),
    "sde_cauchy": pr.sde_process,
    "cauchy": pr.cauchy_process,
    "one_sided": lambda: pr.one_sided_stable_process(1.4),
}
EXTREMUM_MODES = ("sup_sup", "inf_sup", "inf_sup_re", "sup_inf_re")
EQUIV_X = 0.8                 # the ball crosses variable_order's clamp at 1
EQUIV_BALL_RADII = (0.0, 0.3)
EQUIV_XI_CAPS = (0.5, 7.0, 3e4)


def extremum_table(name):
    """symbol_extremum over every mode x ball radius x frequency cap."""
    spec = EQUIV_SPECS[name]()
    return [symbol_extremum(spec, EQUIV_X, b, c, mode)
            for mode in EXTREMUM_MODES for b in EQUIV_BALL_RADII
            for c in EQUIV_XI_CAPS]


@pytest.mark.parametrize("name", sorted(EQUIV_SPECS))
def test_extremum_matches_recorded_values(name):
    # recorded from the per-state loop; the batched evaluation is bit-identical
    golden = json.loads(GOLDEN_EXTREMUM.read_text())
    assert extremum_table(name) == golden[name]


@pytest.mark.parametrize("mode", EXTREMUM_MODES)
@pytest.mark.parametrize("name", sorted(EQUIV_SPECS))
def test_batched_extremum_matches_scalar_calls(name, mode):
    spec = EQUIV_SPECS[name]()
    balls = np.array([[0.0], [0.05], [0.3]])
    caps = np.array(EQUIV_XI_CAPS)
    batch = symbol_extremum(spec, EQUIV_X, balls, caps, mode)
    assert batch.shape == (3, 3)
    scalar = [[symbol_extremum(spec, EQUIV_X, b, c, mode) for c in caps]
              for b in balls[:, 0]]
    np.testing.assert_array_equal(batch, scalar)


def test_extremum_rejects_bad_radii_in_arrays():
    vo = pr.variable_order_process()
    with pytest.raises(ValueError):
        symbol_extremum(vo, 0.0, np.array([0.1, -0.1]), 4.0)
    with pytest.raises(ValueError):
        symbol_extremum(vo, 0.0, 0.1, np.array([4.0, 0.0]))


# ---------------------------------------------------------------------------
# the broadcasting contract of ProcessSpec.q / tail_at / trunc2_at
# ---------------------------------------------------------------------------


def builtin(name):
    factory, params = pr.BUILTIN_PROCESSES[name]
    return factory(**({"alpha": 1.3} if "alpha" in params else {}))


STATES = hnp.arrays(float, st.tuples(st.integers(1, 5), st.just(1)),
                    elements=st.floats(-3.0, 3.0))
FREQS = hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(1)),
                   elements=st.floats(-1e4, 1e4))
RADII = hnp.arrays(float, st.integers(1, 5), elements=st.floats(1e-4, 10.0))


@pytest.mark.parametrize("name", sorted(pr.BUILTIN_PROCESSES))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(z=STATES, xi=FREQS)
def test_q_broadcasts_states_against_frequencies(name, z, xi):
    spec = builtin(name)
    table = spec.q(z[:, None, :], xi[None, :, :])
    assert table.shape == (z.shape[0], xi.shape[0])
    for i in range(z.shape[0]):
        np.testing.assert_array_equal(table[i], spec.q(z[i], xi))


@pytest.mark.parametrize("name", ["variable_order", "stable_type", "sde_cauchy"])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(z=STATES, r=RADII)
def test_tail_and_trunc2_broadcast_states_against_radii(name, z, r):
    spec = builtin(name)
    states = z[:, 0]
    for method in (spec.tail_at, spec.trunc2_at):
        table = method(states, r[:, None])
        assert table.shape == (r.size, states.size)
        np.testing.assert_array_equal(table, [method(states, ri) for ri in r])


def test_q_rejects_symbol_that_ignores_state_axes():
    vo = pr.variable_order_process()
    frozen = dataclasses.replace(vo, symbol=lambda x, xi: np.abs(xi[..., 0]) ** 1.5 + 0j)
    with pytest.raises(ValueError, match="broadcast"):
        frozen.q(np.zeros((3, 1, 1)), np.ones((4, 1)))
