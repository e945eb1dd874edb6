import dataclasses
import json
import tracemalloc
import warnings
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from levyup import growth as gr
from levyup import measures as ms
from levyup import processes as pr
from levyup.criteria import classify_levy
from levyup.errors import DegenerateSymbol, QuadratureFailure
from levyup.measures import LevyMeasureModel
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

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.5, 1.8])
    def test_stable_closed_form_across_frequencies(self, alpha):
        # up to 1e12, past the symbol route's frequency caps; one QUADPACK
        # Fourier-weight call per shell read stable(0.5) 1e-3 off at 1e9
        spec = pr.stable_process(alpha)
        xi = np.logspace(-2, 12, 57)
        val = eval_exponent(spec.levy, xi)
        np.testing.assert_allclose(val.real, xi**alpha, rtol=1e-10, atol=0)
        assert np.all(np.abs(val.imag) <= 1e-10 * xi**alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_one_sided_matches_skewed_closed_form(self, alpha):
        spec = pr.one_sided_stable_process(alpha)
        for xi in (0.7, 3.0, -3.0, 40.0):
            num = eval_exponent(spec.levy, xi)
            ref = spec.q(0.0, np.array([xi]))[0]
            assert num == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.6, 1.4])
    def test_one_sided_closed_form_up_to_1e12(self, alpha):
        # one QUADPACK Fourier-weight call per shell raised QuadratureFailure
        # at 1e8.  The drift b xi and the compensation cancel to psi, so
        # rounding alone costs ~eps |b| xi: 1e-11 relatively at alpha 0.6
        spec = pr.one_sided_stable_process(alpha)
        xi = np.concatenate([np.logspace(-2, 12, 57), -np.logspace(-2, 12, 8)])
        np.testing.assert_allclose(eval_exponent(spec.levy, xi), spec.q(0.0, xi),
                                   rtol=1e-10, atol=0)

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

    @pytest.mark.parametrize("dim, alpha", [(2, 1.9), (2, 1.99), (3, 1.9), (2, 1.5)])
    def test_isotropic_counts_the_jumps_below_the_window(self, dim, alpha):
        # near alpha = 2 the integrand decays only like s^(2 - alpha) below
        # the log-radius window; its remainder |xi|^2 trunc2(s_lo)/(2d) is
        # added in closed form (without it stable(1.9) in d = 2 read ~1e-6 low)
        tri = LevyTriplet(b=np.zeros(dim), Q=None,
                          measure=ms.stable_measure(alpha, dim=dim))
        mags = np.logspace(-2, 3, 11)
        direction = np.arange(1.0, dim + 1.0) / np.linalg.norm(np.arange(1.0, dim + 1.0))
        val = eval_exponent(tri, mags[:, None] * direction)
        np.testing.assert_allclose(val.real, mags**alpha, rtol=1e-10, atol=0)
        assert np.all(val.imag == 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_isotropic_shell_runs_to_its_tail_cut(self, alpha):
        # for small alpha the shell's oscillations decay slowly; a cap of
        # 5000 half periods read stable(0.3) 4.9e-9 high in d = 2
        tri = LevyTriplet(b=np.zeros(2), Q=None, measure=ms.stable_measure(alpha, dim=2))
        mags = np.logspace(-2, 3, 11)
        val = eval_exponent(tri, mags[:, None] * np.array([0.6, 0.8]))
        np.testing.assert_allclose(val.real, mags**alpha, rtol=1e-10, atol=0)

    def test_infinite_tail_above_the_qawf_cycle_limit(self):
        # above xi ~ 1.07e9, where QUADPACK's infinite-range Fourier rule
        # wrapped its cycle count; the density is real only at positive
        # radii (s^-2.5), and the shell starts at its support edge s = 1
        m = LevyMeasureModel(
            tail=lambda r: np.maximum(np.asarray(r, float), 1.0) ** -1.5,
            trunc2=lambda r: 3.0 * (np.sqrt(np.maximum(r, 1.0)) - 1.0),
            radial_density=lambda s: np.where(s >= 1.0, 1.5 * s**-2.5, 0.0),
            support=(1.0, np.inf))
        tri = LevyTriplet(b=np.zeros(1), Q=None, measure=m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = eval_exponent(tri, np.array([2e9, 5e11]))
        # psi = G(1) - int_1^inf rho(s) cos(xi s) ds = 1 + O(1/xi)
        np.testing.assert_allclose(vals, 1.0, rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# the whole-array exponent quadrature
# ---------------------------------------------------------------------------

CONTRACT_MEASURES = {
    "stable": lambda: ms.stable_measure(1.3),
    "one_sided": lambda: ms.one_sided_stable_measure(0.7),
    "atom": ms.atom_measure,
    "log_smooth": ms.log_smooth_measure,
    "slow_variation": ms.slow_variation_measure,
}
# a 1-d stack of frequencies or a stack of 1-vectors
CONTRACT_FREQS = hnp.arrays(
    float, st.one_of(st.tuples(st.integers(1, 6)),
                     st.tuples(st.integers(1, 4), st.just(1))),
    elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3)))


@pytest.mark.parametrize("name", sorted(CONTRACT_MEASURES))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(xi=CONTRACT_FREQS)
def test_eval_exponent_array_contract(name, xi):
    tri = LevyTriplet(b=np.array([0.3]), Q=None, measure=CONTRACT_MEASURES[name]())
    out = eval_exponent(tri, xi)
    assert out.shape == xi.shape and out.dtype == complex
    scalar = [eval_exponent(tri, float(v)) for v in xi.ravel()]
    assert all(type(v) is complex for v in scalar)
    np.testing.assert_allclose(out.ravel(), scalar, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(eval_exponent(tri, -xi), np.conj(out))
    assert (out[xi == 0.0] == 0.0).all()


def test_panel_check_rejects_a_step_in_trunc2():
    # a step of trunc2 inside the log-radius window, where the fixed panel
    # rule cannot resolve it: the 32/64-panel check must fire
    base = ms.log_smooth_measure()
    m = dataclasses.replace(
        base, trunc2=lambda r: base.trunc2(r) + (np.asarray(r, float) >= 1e-2))
    tri = LevyTriplet(b=np.zeros(1), Q=None, measure=m)
    with pytest.raises(QuadratureFailure, match="panels disagree"):
        eval_exponent(tri, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_filon_check_rejects_a_step_in_the_density(dim):
    # a step of the radial density inside an oscillatory shell, where no
    # Legendre series of a panel resolves it: the coefficient check must fire
    base = ms.stable_measure(0.8, dim=dim)
    m = dataclasses.replace(
        base, radial_density=lambda s: base.radial_density(s) * (1.0 + (s >= 0.3)))
    tri = LevyTriplet(b=np.zeros(dim), Q=None, measure=m)
    xi = 100.0 if dim == 1 else np.array([[100.0, 0.0]])
    with pytest.raises(QuadratureFailure, match="Filon panels"):
        eval_exponent(tri, xi)


def test_exponent_memory_stays_per_panel():
    # one panel of frequencies x nodes at a time: evaluating every panel of
    # 140 frequencies at once peaks above 10 MB
    tri = LevyTriplet(b=np.zeros(1), Q=None, measure=ms.log_smooth_measure())
    grid = np.logspace(-3, 8, 140)
    eval_exponent(tri, grid[:2])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        eval_exponent(tri, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


GOLDEN_INTERPOLATED = Path(__file__).parent / "data" / "interpolated_symbol_golden.json"
INTERPOLATED = {
    "log_smooth": pr.log_smooth_process,
    "slow_variation": pr.slow_variation_process,
    "from_stable(1.3)": lambda: pr.levy_process_from_measure(ms.stable_measure(1.3)),
}
VERDICT_GROWTHS = {"t^0.3": gr.power(0.3), "t^0.5": gr.power(0.5),
                   "t^0.7": gr.power(0.7), "t^1": gr.power(1.0),
                   "sqrt_loglog": gr.sqrt_loglog()}


@pytest.mark.parametrize("name", sorted(INTERPOLATED))
def test_interpolated_symbol_matches_recorded_tables(name):
    # recorded from per-frequency adaptive quadrature (QUADPACK Fourier
    # weights on the shells).  The entries that the Filon shells moved beyond
    # 1e-8 (log_smooth 6, slow_variation 25, from_stable(1.3) 20, all at
    # xi >= 2.3e7) were re-recorded after an independent check: xi^1.3 for
    # from_stable(1.3), QUADPACK on four geometric sub-ranges per octave for
    # the other two.  So were log_smooth's entries at xi = 3.35e7 and 1e8,
    # which that oracle put 7.7e-9 and 9.8e-9 off.
    ref = json.loads(GOLDEN_INTERPOLATED.read_text())[name]
    table = INTERPOLATED[name]().q(0.0, np.array(ref["xi"]))
    np.testing.assert_allclose(table.real, ref["psi"], rtol=1e-8, atol=0)


def quadpack_exponent(measure, xi):
    """psi(xi) = int_0^hi (1 - cos xi s) rho(s) ds of a symmetric 1-d measure
    by QUADPACK on four geometric sub-ranges per octave: plain rules in log
    radius below a = 4 pi / xi, the cos-weight rule (QAWO) and plain rules
    above, QAWO to 1e-14 of the sub-range's mass where its value cancels;
    the jumps below 1e-8 a add xi^2 trunc2(1e-8 a) / 2."""
    rho, hi = measure.radial_density, measure.support[1]
    a = min(4.0 * np.pi / xi, hi)
    total = 0.5 * xi**2 * float(measure.trunc2(1e-8 * a))

    def inner(u):
        s = np.exp(u)
        return 2.0 * np.sin(xi * s / 2.0) ** 2 * rho(s) * s

    for lo, up in pairwise(np.geomspace(1e-8 * a, a, 108)):
        total += integrate.quad(inner, np.log(lo), np.log(up), epsabs=0, epsrel=1e-12)[0]
    for lo, up in pairwise(np.geomspace(a, hi, int(np.ceil(4 * np.log2(hi / a))) + 1)):
        mass = integrate.quad(rho, lo, up, epsabs=0, epsrel=1e-12)[0]
        total += mass - integrate.quad(rho, lo, up, weight="cos", wvar=xi,
                                       epsabs=1e-14 * mass, epsrel=1e-12)[0]
    return total


@pytest.mark.parametrize("name", ["log_smooth", "slow_variation"])
def test_interpolated_top_frequencies_match_a_quadpack_oracle(name):
    # the top of each table, where the Filon shells re-recorded it, against
    # a rule that shares nothing with the panel and Filon rules
    xi = json.loads(GOLDEN_INTERPOLATED.read_text())[name]["xi"][-2:]
    spec = INTERPOLATED[name]()
    oracle = [quadpack_exponent(spec.levy.measure, v) for v in xi]
    np.testing.assert_allclose(spec.q(0.0, np.array(xi)).real, oracle, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", ["log_smooth", "slow_variation"])
def test_interpolated_models_keep_their_verdicts(name):
    ref = json.loads(GOLDEN_INTERPOLATED.read_text())["verdicts"][name]
    spec = INTERPOLATED[name]()
    rep = sector_check(spec)
    assert [rep.verdict, rep.witness] == ref["sector"]
    for label, growth in VERDICT_GROWTHS.items():
        assert classify_levy(spec, growth).outcome == ref[label], label


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
