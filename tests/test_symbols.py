import dataclasses
import itertools
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
from levyup import symbols as sy
from levyup.criteria import classify_levy
from levyup.errors import QuadratureFailure
from levyup.measures import LevyMeasureModel
from levyup.symbols import (
    LevyTriplet,
    ProcessSpec,
    ball_grid,
    eval_exponent,
    sector_check,
    symbol_extremum,
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
        tri = LevyTriplet(b=np.zeros(1), measure=m)
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

    def test_drift_term(self):
        tri = LevyTriplet(b=np.array([2.0]), measure=ms.null_measure())
        assert eval_exponent(tri, 1.5) == pytest.approx(-1j * 3.0)

    def test_atom_exponent(self):
        spec = pr.atom_process(radius=2.0, mass=1.0)
        val = eval_exponent(spec.levy, 0.9)
        assert val == pytest.approx(1.0 - np.cos(1.8), rel=1e-12)

    def test_isotropic_2d(self):
        m = ms.stable_measure(1.0, dim=2)
        tri = LevyTriplet(b=np.zeros(2), measure=m)
        xi = np.array([[0.6, 0.8]])  # |xi| = 1
        val = eval_exponent(tri, xi)
        assert val[0].real == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("dim, alpha", [(2, 1.9), (2, 1.99), (3, 1.9), (2, 1.5)])
    def test_isotropic_counts_the_jumps_below_the_window(self, dim, alpha):
        # near alpha = 2 the integrand decays only like s^(2 - alpha) below
        # the log-radius window; its remainder |xi|^2 trunc2(s_lo)/(2d) is
        # added in closed form (without it stable(1.9) in d = 2 read ~1e-6 low)
        tri = LevyTriplet(b=np.zeros(dim), measure=ms.stable_measure(alpha, dim=dim))
        mags = np.logspace(-2, 3, 11)
        direction = np.arange(1.0, dim + 1.0) / np.linalg.norm(np.arange(1.0, dim + 1.0))
        val = eval_exponent(tri, mags[:, None] * direction)
        np.testing.assert_allclose(val.real, mags**alpha, rtol=1e-10, atol=0)
        assert np.all(val.imag == 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_isotropic_shell_runs_to_its_tail_cut(self, alpha):
        # for small alpha the shell's oscillations decay slowly; a cap of
        # 5000 half periods read stable(0.3) 4.9e-9 high in d = 2
        tri = LevyTriplet(b=np.zeros(2), measure=ms.stable_measure(alpha, dim=2))
        mags = np.logspace(-2, 3, 11)
        val = eval_exponent(tri, mags[:, None] * np.array([0.6, 0.8]))
        np.testing.assert_allclose(val.real, mags**alpha, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("alpha", [0.02, 0.04])
    def test_heavy_tail_shells_cut_per_frequency(self, alpha):
        # the tail G(S) ~ S^-alpha stays above 1e-14 of the shell's mass up
        # to 2^1023; the Fourier integral above S is cut by 2 rho(S)/xi instead
        spec = pr.stable_process(alpha)
        xi = np.array([0.1, 1.0, 1e3])
        val = eval_exponent(spec.levy, xi)
        np.testing.assert_allclose(val.real, xi**alpha, rtol=1e-12, atol=0)
        assert np.all(val.imag == 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_isotropic_heavy_tail_shells(self, dim):
        tri = LevyTriplet(b=np.zeros(dim), measure=ms.stable_measure(0.04, dim=dim))
        mags = np.array([0.1, 1.0, 1e3])
        val = eval_exponent(tri, mags[:, None] * np.eye(dim)[0])
        np.testing.assert_allclose(val.real, mags**0.04, rtol=1e-10, atol=0)

    def test_infinite_tail_above_the_qawf_cycle_limit(self):
        # above xi ~ 1.07e9, where QUADPACK's infinite-range Fourier rule
        # wrapped its cycle count; the density is real only at positive
        # radii (s^-2.5), and the shell starts at its support edge s = 1
        m = LevyMeasureModel(
            tail=lambda r: np.maximum(np.asarray(r, float), 1.0) ** -1.5,
            trunc2=lambda r: 3.0 * (np.sqrt(np.maximum(r, 1.0)) - 1.0),
            radial_density=lambda s: np.where(s >= 1.0, 1.5 * s**-2.5, 0.0),
            support=(1.0, np.inf))
        tri = LevyTriplet(b=np.zeros(1), measure=m)
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
    tri = LevyTriplet(b=np.array([0.3]), measure=CONTRACT_MEASURES[name]())
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
    tri = LevyTriplet(b=np.zeros(1), measure=m)
    with pytest.raises(QuadratureFailure, match="panels disagree"):
        eval_exponent(tri, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_filon_check_rejects_a_step_in_the_density(dim):
    # a step of the radial density inside an oscillatory shell, where no
    # Legendre series of a panel resolves it: the coefficient check must fire
    base = ms.stable_measure(0.8, dim=dim)
    m = dataclasses.replace(
        base, radial_density=lambda s: base.radial_density(s) * (1.0 + (s >= 0.3)))
    tri = LevyTriplet(b=np.zeros(dim), measure=m)
    xi = 100.0 if dim == 1 else np.array([[100.0, 0.0]])
    with pytest.raises(QuadratureFailure, match="Filon panels"):
        eval_exponent(tri, xi)


def test_exponent_memory_stays_per_panel():
    # one panel of frequencies x nodes at a time: evaluating every panel of
    # 140 frequencies at once peaks above 10 MB
    tri = LevyTriplet(b=np.zeros(1), measure=ms.log_smooth_measure())
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


def test_interpolated_process_keeps_its_drift():
    # the interpolated symbol once dropped -i b xi: the drifted 1/2-stable
    # measure then read zero at kappa = 1.2, where X_t ~ t gives infinity
    # and the closed form, whose sector condition fails, reads indeterminate
    spec = pr.levy_process_from_measure(ms.stable_measure(0.5), b=-1.0)
    xi = np.logspace(-2, 8, 61)
    np.testing.assert_allclose(spec.q(0.0, xi), pr.drift_half_stable_process().q(0.0, xi),
                               rtol=1e-9, atol=0)
    assert classify_levy(spec, gr.power(1.2)).outcome == "indeterminate"
    # a skewed measure's Im psi is not in the radial table
    with pytest.raises(ValueError, match="symbol"):
        pr.levy_process_from_measure(ms.one_sided_stable_measure(0.5))


def test_interpolated_process_in_the_plane():
    # the table once read xi_1 alone, in a process of dimension 1
    spec = pr.levy_process_from_measure(ms.stable_measure(1.3, dim=2))
    assert spec.levy.dim == spec.dim == 2
    xi = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 4.0]])
    np.testing.assert_allclose(spec.q(None, xi), [1.0, 1.0, 5.0**1.3], rtol=1e-9, atol=0)


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
    # the verdicts of the route that reads the interpolated symbol (sector
    # and side conditions, then the tail integrals); log_smooth's finite mass
    # decides before that route, so it runs here with its mass unstated
    ref = json.loads(GOLDEN_INTERPOLATED.read_text())["verdicts"][name]
    spec = INTERPOLATED[name]()
    measure = dataclasses.replace(spec.levy.measure, total_mass=np.inf)
    spec = dataclasses.replace(spec, levy=dataclasses.replace(spec.levy, measure=measure))
    rep = sector_check(spec)
    assert [rep.verdict, rep.witness] == ref["sector"]
    for label, growth in VERDICT_GROWTHS.items():
        assert classify_levy(spec, growth).outcome == ref[label], label


def psi_star(spec, r):
    """psi*(r) = sup_{|xi| <= r} Re q(0, xi): the kernel's inf_sup_re over the
    one-point ball at 0."""
    return symbol_extremum(spec, 0.0, 0.0, r, "inf_sup_re")


def concentration_h(measure, r):
    """The concentration function h(r) = G(r) + trunc2(r) / r^2."""
    return measure.tail(r) + measure.trunc2(r) / r**2


def h_psi_star_constant(spec):
    """The least c with h(r)/c <= psi*(1/r) <= c h(r) at 13 radii r from 1e-4
    to 0.1."""
    r = np.logspace(-4, -1, 13)
    h, psi = concentration_h(spec.levy.measure, r), psi_star(spec, 1.0 / r)
    return float(np.max(np.maximum(psi / h, h / psi)))


def assert_symbol_axioms(spec):
    """q(x, 0) = 0, Hermitian symmetry, Re q >= 0 and the doubling bound
    |q(x, 2 xi)| <= 4 |q(x, xi)| at the states 0 and (0.3, ..., 0.3), on 12
    geometric radii from 1e-3 to |xi| = 10 times 8 ``_directions``."""
    radii = np.logspace(-3.0, 1.0, 12)
    xi = (radii[:, None, None] * sy._directions(spec.dim, 8)).reshape(-1, spec.dim)
    for x in (np.zeros(spec.dim), np.full(spec.dim, 0.3)):
        assert abs(spec.q(x, np.zeros((1, spec.dim)))[0]) <= 1e-9
        q = spec.q(x, xi)
        np.testing.assert_allclose(spec.q(x, -xi), np.conj(q), rtol=1e-7, atol=1e-9)
        assert np.all(np.real(q) >= -1e-10)
        assert np.all(np.abs(spec.q(x, 2 * xi)) <= 4 * np.abs(q) + 1e-12)


class TestPsiStar:
    def test_cauchy_boundary(self):
        assert psi_star(pr.cauchy_process(), 3.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_stable_power(self, alpha):
        spec = pr.stable_process(alpha)
        for r in (0.3, 2.0, 50.0):
            assert psi_star(spec, r) == pytest.approx(r**alpha, rel=1e-12)

    def test_monotone_in_radius(self):
        vals = psi_star(pr.slow_variation_process(), np.logspace(0, 4, 9))
        assert np.all(np.diff(vals) >= -1e-12)

    def test_slow_variation_comparable_to_h(self):
        # cross-check of the symbol sup against the concentration h
        spec = pr.slow_variation_process()
        r = np.logspace(-3, -1, 5)
        ratio = psi_star(spec, 1.0 / r) / concentration_h(spec.levy.measure, r)
        assert np.all((1.0 / 100 <= ratio) & (ratio <= 100))


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

    def test_zero_process_holds(self):
        # |Im q| <= C Re q holds with C = 0 on a symbol that vanishes everywhere
        rep = sector_check(pr.zero_process())
        assert (rep.verdict, rep.witness, rep.reason) == (
            "holds", 0.0, "symbol vanishes on the grid")
        assert rep.grid is sy.SECTOR_RADII

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
        assert_symbol_axioms(factory())

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
        c = h_psi_star_constant(spec)
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
    # non-finite radii raise a ValueError, not numpy's RuntimeWarning, and a
    # Levy spec does not skip the ball radius it collapses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, bad in itertools.product([vo, pr.cauchy_process()], [np.nan, np.inf]):
            for ball, cap, name in [(np.array([0.1, bad]), 4.0, "ball_radius"),
                                    (bad, 4.0, "ball_radius"),
                                    (0.1, np.array([4.0, bad]), "xi_radius"),
                                    (0.0, bad, "xi_radius")]:
                with pytest.raises(ValueError, match=name):
                    symbol_extremum(spec, 0.0, ball, cap)


def _order_2d(x, xi):
    return np.linalg.norm(xi, axis=-1) ** pr.default_order_fn(x[..., 0]) + 0j


D2_SPECS = {
    "d2_variable_order": lambda: ProcessSpec(kind="state_dependent", dim=2,
                                             symbol=_order_2d, name="d2_variable_order"),
    "d2_sde_stable": lambda: pr.sde_process(pr.levy_process_from_measure(
        ms.stable_measure(1.3, dim=2),
        symbol=lambda x, xi: np.linalg.norm(xi, axis=-1) ** 1.3 + 0j)),
}


def oracle_extremum(spec, x, ball, cap, mode):
    """The extremum on a grid ten times finer than the one the lattice
    replaced: 480 radii over XI_DECADES decades up to the exact cap and, in
    1-d, 170 states spread evenly over the exact ball."""
    radii = np.logspace(np.log10(cap) - sy.XI_DECADES, np.log10(cap), 480)
    z = np.full((1, 1), float(x)) if ball == 0 or spec.kind == "levy" else (
        x + ball * np.linspace(-1.0, 1.0, 170))[:, None]
    table = spec.q(z[:, None, :], radii[:, None])
    table = np.real(table) if mode.endswith("_re") else np.abs(table)
    if mode == "sup_inf_re":
        return float(table.min(axis=0).max())
    per_z = table.max(axis=1)
    return float(per_z.max() if mode == "sup_sup" else per_z.min())


def test_extremum_matches_a_finer_grid():
    # every recorded extremum (the golden table's 5 specs x 4 modes x 2 balls
    # x 3 caps) and the symbol-table values of the recorded symbol integrals'
    # specs lie within 1e-2 of the finer grid at the exact (ball, cap); a
    # lattice read at its floor level instead of interpolated is 5% off at
    # cap 7 on variable_order
    worst = 0.0
    for name in sorted(EQUIV_SPECS):
        spec = EQUIV_SPECS[name]()
        for mode, ball, cap in itertools.product(EXTREMUM_MODES, EQUIV_BALL_RADII,
                                                 EQUIV_XI_CAPS):
            got = symbol_extremum(spec, EQUIV_X, ball, cap, mode)
            want = oracle_extremum(spec, EQUIV_X, ball, cap, mode)
            worst = max(worst, abs(got / want - 1.0))
    for name, x in [("variable_order", 0.2), ("stable_type", -0.5), ("sde_cauchy", 0.45)]:
        spec = EQUIV_SPECS[name]()
        for mode, t in itertools.product(("sup_sup", "inf_sup", "inf_sup_re"),
                                         np.logspace(-17, -0.1, 7)):
            ball, cap = 2.0 * t**0.8, 1.0 / (0.5 * t**0.8)
            got = symbol_extremum(spec, x, ball, cap, mode)
            worst = max(worst, abs(got / oracle_extremum(spec, x, ball, cap, mode) - 1.0))
    print(f"largest relative deviation from the finer grid: {worst:.3e}")
    assert worst <= 1e-2


BUILTIN_SPECS = {name: pr.BUILTIN_PROCESSES[name][0](
    **({"alpha": 1.3} if "alpha" in pr.BUILTIN_PROCESSES[name][1] else {}))
    for name in sorted(pr.BUILTIN_PROCESSES)}


@pytest.mark.parametrize("factory", [pr.atom_process, pr.log_smooth_process])
def test_schilling_factor_never_rises_with_r(factory):
    # the sup over |xi| <= 1/r falls as r grows: each radius level's window
    # is its own, so the lattice sup is monotone in the cap (the per-row
    # grids rose at 142 and 92 of these 399 steps, by up to 0.97%)
    from levyup.criteria import exit_bounds
    spec = factory()
    s = np.array([exit_bounds(spec, 0.0, 0.1, r).schilling_factor
                  for r in np.geomspace(0.01, 3.0, 400)])
    assert np.all(np.diff(s) <= 0.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(BUILTIN_SPECS)), mode=st.sampled_from(EXTREMUM_MODES),
       x=st.floats(-1.0, 1.0), ball=st.floats(0.0, 1.0), cap=st.floats(-3.0, 8.0),
       ratio=st.floats(0.0, 2.0))
def test_extremum_monotone_in_cap_and_ball(name, mode, x, ball, cap, ratio):
    # sup over a larger frequency ball never falls, in every mode; over a
    # larger state ball the sup over the states never falls and an inf never rises
    spec = BUILTIN_SPECS[name]
    caps = 10.0 ** np.array([cap, cap + ratio])
    by_cap = symbol_extremum(spec, x, ball, caps, mode)
    assert by_cap[0] <= by_cap[1]
    balls = np.array([ball, ball * 10.0**ratio])
    by_ball = symbol_extremum(spec, x, balls, caps[0], mode)
    if mode == "sup_sup":
        assert by_ball[0] <= by_ball[1]
    else:
        assert by_ball[0] >= by_ball[1]


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


@pytest.mark.parametrize("name", ["variable_order", "stable_type", "sde_cauchy", "d2_sde_stable"])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(z=hnp.arrays(float, st.tuples(st.integers(1, 5), st.just(2)),
                    elements=st.floats(-3.0, 3.0)), r=RADII)
def test_tail_and_trunc2_broadcast_states_against_radii(name, z, r):
    # states are (..., d) in every dimension: (k, d) against radii (m, 1) give (m, k)
    spec = D2_SPECS[name]() if name in D2_SPECS else builtin(name)
    states = z[:, :spec.dim]
    for method in (spec.tail_at, spec.trunc2_at):
        table = method(states, r[:, None])
        assert table.shape == (r.size, len(states))
        np.testing.assert_array_equal(table, [method(states, ri) for ri in r])
        np.testing.assert_array_equal(table[:, 0], method(states[0], r))  # one state, a row's bits


@pytest.mark.parametrize("name", ["variable_order", "sde_cauchy", "d2_sde_stable"])
def test_tail_at_rejects_a_wrong_trailing_axis(name):
    # three 1-d states in the (n,) layout these calls once took read as one
    # state of three coordinates; they raise, as q does
    spec = D2_SPECS[name]() if name in D2_SPECS else builtin(name)
    for method in (spec.tail_at, spec.trunc2_at):
        with pytest.raises(ValueError, match=f"last axis of length {spec.dim}"):
            method(np.zeros(3), 1.0)


def test_d2_sde_tail_reads_the_driver_tail_at_sigma_of_the_first_coordinate():
    # the sde's tail is G(r / |sigma(x_1)|) of its driver to the bit, in
    # d = 2 as in d = 1, from the coefficient its symbol reads
    spec = D2_SPECS["d2_sde_stable"]()
    assert spec.tail_at(np.zeros((3, 2)), 1.0).shape == (3,)
    z = np.array([[0.0, 0.0], [0.3, -1.0], [1.2, 0.5]])
    sigma = np.abs(pr.default_sde_coefficient(z[:, 0]))
    got = spec.tail_at(z, 1.0)
    assert got.tobytes() == np.asarray(spec.driver.measure.tail(1.0 / sigma), float).tobytes()
    np.testing.assert_allclose(got, [0.8705, 1.0413, 1.4313], atol=1e-4)
    np.testing.assert_array_equal(spec.sigma(z), pr.default_sde_coefficient(z[:, 0]))
    xi = np.array([[2.0, 1.0]])
    for zi, si in zip(z, sigma):  # the symbol psi(sigma(x) xi) reads the same sigma
        assert spec.q(zi, xi)[0] == np.linalg.norm(si * xi) ** 1.3


# the symmetric built-ins are real and stay float; the skewed ones are complex
COMPLEX_BUILTINS = {"one_sided_stable", "drift_half_stable"}


@pytest.mark.parametrize("name", sorted(pr.BUILTIN_PROCESSES))
def test_q_keeps_the_symbol_kind(name):
    spec = builtin(name)
    want = np.complex128 if name in COMPLEX_BUILTINS else np.float64
    xi = np.array([[-3.0], [0.0], [0.5], [1e4]])
    assert spec.q(0.2, xi).dtype == want
    assert spec.q(np.array([[[0.2]], [[-0.7]]]), xi).dtype == want


def test_q_casts_ints_to_float_and_keeps_complex():
    vo = pr.variable_order_process()
    counts = dataclasses.replace(vo, symbol=lambda x, xi: np.ones(
        np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]), int))
    assert counts.q(0.0, np.ones((4, 1))).dtype == np.float64
    single = dataclasses.replace(vo, symbol=lambda x, xi: np.ones(
        np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]), np.complex64))
    assert single.q(0.0, np.ones((4, 1))).dtype == np.complex128


def test_q_rejects_a_wrong_trailing_axis():
    # q once read xi[..., 0] of three 2-d frequencies in dimension 1
    with pytest.raises(ValueError, match="last axis of length 1"):
        pr.stable_process(1.5).q(0.0, np.ones((3, 2)))
    with pytest.raises(ValueError, match="last axis of length 1"):
        pr.variable_order_process().q(np.zeros((3, 2)), np.ones((4, 1)))
    d2 = D2_SPECS["d2_variable_order"]()
    with pytest.raises(ValueError, match="last axis of length 2"):
        d2.q(np.zeros(2), np.ones((4, 3)))
    with pytest.raises(ValueError, match="last axis of length 2"):
        d2.q(np.zeros(1), np.ones((4, 2)))
    # a Levy symbol never reads x: only xi's axis is checked there
    plane = pr.levy_process_from_measure(ms.stable_measure(1.3, dim=2))
    assert plane.q(0.0, np.ones((4, 2))).shape == (4,)
    assert plane.q(None, np.ones((4, 2))).shape == (4,)
    with pytest.raises(ValueError, match="last axis of length 2"):
        plane.q(0.0, np.ones((4, 3)))


def test_q_rejects_symbol_that_ignores_state_axes():
    vo = pr.variable_order_process()
    frozen = dataclasses.replace(vo, symbol=lambda x, xi: np.abs(xi[..., 0]) ** 1.5 + 0j)
    with pytest.raises(ValueError, match="broadcast"):
        frozen.q(np.zeros((3, 1, 1)), np.ones((4, 1)))
