import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levyup import criteria
from levyup import growth as gr
from levyup import measures as ms
from levyup import processes as pr
from levyup.criteria import (
    C_EXPONENTS,
    T_GRID,
    IntegralVerdict,
    _a2_direct_witness,
    ball_tail_intensity,
    bg_index,
    check_A1,
    check_A2,
    check_C1,
    check_C2,
    classify_levy,
    classify_ltp_lower,
    classify_ltp_upper,
    classify_power,
    dyadic_integral,
    exit_bounds,
    fit_symbol_growth,
    majorization_holds,
    symbol_integral_criterion,
    tail_integral_criterion,
)
from levyup.errors import BracketIndeterminate, EvaluationFailure, InverseFailure
from levyup.symbols import (
    ConditionReport,
    ProcessSpec,
    sector_check,
    symbol_extremum,
    tail_trend,
)
from test_symbols import D2_SPECS, EQUIV_SPECS, EQUIV_X


class TestDyadicIntegral:
    def test_inverse_sqrt_converges_to_two(self):
        v = dyadic_integral(lambda t: t**-0.5)
        assert v.converges
        assert v.value == pytest.approx(2.0, abs=1e-6)

    def test_harmonic_diverges_with_constant_blocks(self):
        v = dyadic_integral(lambda t: 1.0 / t)
        assert v.diverges
        assert np.allclose(v.block_sums, np.log(2.0))

    def test_log_squared_weight_converges_near_one(self):
        # antiderivative of 1/(t log^2(e/t)) is 1/log(e/t); the full integral is 1
        v = dyadic_integral(lambda t: 1.0 / (t * np.log(np.e / t) ** 2))
        assert v.converges
        assert v.value == pytest.approx(1.0, abs=0.03)
        # partial sums telescope exactly against the antiderivative
        n = v.n_max
        partial_exact = 1.0 - 1.0 / (1.0 + (n + 1) * np.log(2.0))
        assert float(v.block_sums.sum()) == pytest.approx(partial_exact, abs=1e-9)

    def test_growing_integrand_diverges(self):
        v = dyadic_integral(lambda t: t**-1.3)
        assert v.diverges

    def test_constant_integrand_value_exact(self):
        v = dyadic_integral(lambda t: np.full_like(np.asarray(t, float), 3.0))
        assert v.converges
        assert v.value == pytest.approx(3.0, rel=1e-12)

    def test_all_zero_blocks(self):
        v = dyadic_integral(lambda t: np.zeros_like(np.asarray(t, float)))
        assert v.converges and v.value == 0.0

    def test_min_depth_rejected(self):
        with pytest.raises(ValueError):
            dyadic_integral(lambda t: t, n_max=4)

    def test_raising_integrand_maps_to_evaluation_failure(self):
        def bad(t):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationFailure):
            dyadic_integral(bad)

    @pytest.mark.parametrize("g", [lambda t: 1.0, lambda t: t[:3],
                                   lambda t: np.outer(t, t)])
    def test_wrong_shaped_integrand_maps_to_evaluation_failure(self, g):
        with pytest.raises(EvaluationFailure, match="on block 0"):
            dyadic_integral(g)

    def test_rows_give_one_verdict_per_row(self):
        vs = dyadic_integral(lambda t: np.stack([t**-0.5, 1.0 / t, 3.0 + 0 * t]),
                             rows=3)
        assert [v.state for v in vs] == ["converges", "diverges", "converges"]
        assert vs[0].value == pytest.approx(2.0, abs=1e-6)
        assert vs[2].value == pytest.approx(3.0, rel=1e-12)
        one = dyadic_integral(lambda t: t**-0.5)
        assert np.array_equal(vs[0].block_sums, one.block_sums)

    def test_table_reduces_like_its_integrand(self):
        # a finished blocks x [rows x] nodes table on the engine's nodes gives
        # the callable's verdicts to the bit; a non-finite value names its block
        t = criteria._block_nodes(60, 16)[0]

        def g(t):
            return np.stack([t**-0.5, 1.0 / t])

        for v, ref in zip(dyadic_integral(g(t).swapaxes(0, 1), rows=2),
                          dyadic_integral(g, rows=2)):
            assert_bitwise_same(v, ref)
        assert_bitwise_same(dyadic_integral(t**-0.5), dyadic_integral(lambda t: t**-0.5))
        bad = t**-0.5
        bad[7, 3] = np.nan
        with pytest.raises(EvaluationFailure, match="not finite on block 7"):
            dyadic_integral(bad)
        with pytest.raises(EvaluationFailure, match="table has shape"):
            dyadic_integral(t[:-1])

    @pytest.mark.parametrize("rows, g", [
        (2, lambda t: t),                          # rows declared, none given
        (3, lambda t: np.stack([t, t])),           # too few rows
        (2, lambda t: np.stack([t, t]).T),         # axes swapped
        (None, lambda t: np.stack([t, t])),        # rows given, none declared
    ])
    def test_rows_mismatch_maps_to_evaluation_failure(self, rows, g):
        with pytest.raises(EvaluationFailure, match="on block 0"):
            dyadic_integral(g, rows=rows)


class TestTailIntegralCriterion:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_stable_dichotomy_around_reciprocal_index(self, alpha):
        spec = pr.raw_stable_process(alpha)
        assert tail_integral_criterion(spec, None, gr.power(1 / alpha - 0.2), 1.0).converges
        assert tail_integral_criterion(spec, None, gr.power(1 / alpha + 0.2), 1.0).diverges

    def test_constant_growth_value(self):
        spec = pr.cauchy_process()
        v = tail_integral_criterion(spec, None, gr.constant(1.0), 2.0)
        assert v.converges
        # integrand is the constant G(2) = 1/pi
        assert v.value == pytest.approx(float(spec.levy.measure.tail(2.0)), rel=1e-10)

    def test_scale_coherence_in_c(self):
        spec = pr.raw_stable_process(1.5)
        f = gr.power(0.5)
        v1 = tail_integral_criterion(spec, None, f, 1.0)
        v2 = tail_integral_criterion(spec, None, f, 2.0)
        assert v1.converges and v2.converges

    def test_state_dependent_sup_vs_inf(self):
        spec = pr.stable_type_process(1.2)
        f = gr.power(0.5)
        v_sup = tail_integral_criterion(spec, 0.0, f, 1.0, ball_mode="sup")
        v_inf = tail_integral_criterion(spec, 0.0, f, 1.0, ball_mode="inf")
        assert v_sup.converges and v_inf.converges

    @pytest.mark.parametrize("mode", ["sup", "inf"])
    @pytest.mark.parametrize("shift", [-0.1, 0.1])
    def test_stable_type_matches_constant_kernel(self, mode, shift):
        # bounded kernel: verdict identical to the constant-intensity case
        alpha = 1.2
        spec = pr.stable_type_process(alpha)
        f = gr.power(1 / alpha + shift)
        v = tail_integral_criterion(spec, 0.0, f, 1.0, ball_mode=mode)
        ref = tail_integral_criterion(pr.stable_process(alpha), None, f, 1.0)
        assert v.state == ref.state

    def test_ball_mode_contract(self):
        with pytest.raises(ValueError):
            tail_integral_criterion(pr.cauchy_process(), None, gr.power(0.8), 1.0,
                                    ball_mode="sup")
        with pytest.raises(ValueError):
            tail_integral_criterion(pr.variable_order_process(), 0.0,
                                    gr.power(0.8), 1.0, ball_mode=None)

    def test_misspelled_ball_mode_rejected(self):
        with pytest.raises(ValueError, match="ball_mode"):
            tail_integral_criterion(pr.variable_order_process(), 0.0,
                                    gr.power(0.8), 1.0, ball_mode="supremum")

    @pytest.mark.parametrize("ball_mode", [
        None,         # once an alias of "sup"
        "infimum",    # misspelled
        "inf_sup",    # an extremum mode, not a ball mode
    ])
    def test_symbol_mode_contract(self, ball_mode):
        with pytest.raises(ValueError, match="ball_mode"):
            symbol_integral_criterion(pr.variable_order_process(), 0.0,
                                      gr.power(0.8), ball_mode=ball_mode)


def one_eps_verdict(spec, x, f, eps, ball_mode="sup", ball_scale=1.0):
    """The dyadic verdict of the symbol integral at the single cap 1/(eps f(t)): one
    eps row of the table that symbol_integral_criterion reads at eps and eps/2."""
    ft = criteria._growth_on_nodes(f, 60)
    table = criteria._symbol_table(spec, x, ft, np.array([[eps]]), ball_scale,
                                   f"{ball_mode}_sup")
    return dyadic_integral(table[:, 0])


class TestSymbolIntegralCriterion:
    def test_cauchy_power_integral_value(self):
        v = symbol_integral_criterion(pr.cauchy_process(), 0.0, gr.power(0.8))
        assert v.converges
        assert v.value == pytest.approx(5.0, abs=1e-5)

    def test_cauchy_divergent(self):
        v = symbol_integral_criterion(pr.cauchy_process(), 0.0, gr.power(1.2))
        assert v.diverges

    @pytest.mark.parametrize("name, kw", [("stable_levy", {}),
                                          ("variable_order", {"ball_mode": "sup"})])
    def test_eps_inconsistency_is_indeterminate(self, monkeypatch, name, kw):
        # the eps/2 row forced to the opposite definite verdict
        real = criteria.dyadic_integral

        def flipped(g, n_max=60, nodes=16, rows=None):
            v, check = real(g, n_max, nodes, rows)
            state = "diverges" if v.converges else "converges"
            return [v, IntegralVerdict(state, None, check.block_sums, check.n_max)]

        monkeypatch.setattr(criteria, "dyadic_integral", flipped)
        spec, x = scan_spec(name)
        v = symbol_integral_criterion(spec, x, gr.power(0.5), **kw)
        assert (v.state, v.value) == ("indeterminate", None)
        assert v.note == "eps-inconsistency: converges at 1.0, diverges at 0.5"

    @pytest.mark.parametrize("kappa", [0.5, 0.9, 1.1, 2.0])
    def test_eps_insensitivity_on_stable_family(self, kappa):
        spec = pr.stable_process(1.0)
        f = gr.power(kappa)
        v1 = one_eps_verdict(spec, 0.0, f, 1.0)
        v2 = one_eps_verdict(spec, 0.0, f, 0.5)
        assert v1.state == v2.state


class TestConditionA1:
    @pytest.mark.parametrize("alpha,expect", [(0.5, 1 / 3), (1.0, 1.0), (1.5, 3.0)])
    def test_stable_witness_closed_form(self, alpha, expect):
        rep = check_A1(pr.raw_stable_process(alpha))
        assert rep.holds
        assert rep.witness == pytest.approx(expect, rel=0.05)

    def test_slow_variation_fails(self):
        rep = check_A1(pr.slow_variation_process())
        assert rep.fails

    def test_atom_measure_holds_with_zero_witness(self):
        rep = check_A1(pr.atom_process())
        assert rep.holds and rep.witness == 0.0

    def test_ball_version_on_variable_order(self):
        rep = check_A1(pr.variable_order_process(), x=0.0, ball_radius=0.5)
        assert rep.holds
        # sup over the ball of alpha/(2-alpha) at alpha = 1.7
        assert rep.witness == pytest.approx(1.7 / 0.3, rel=0.05)

    def test_sde_family_inherits_driver_balance(self):
        rep = check_A1(pr.sde_process(), x=0.0, ball_radius=0.5)
        assert rep.holds

    def test_vanishing_tail_fails_with_reason(self):
        rep = check_A1(pr.zero_process())
        assert rep.fails and "vanishes" in rep.reason


A2_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "a2_witness_golden.json").read_text())
A2_GRID = np.array(A2_GOLDEN["r_grid"])


def a2_case(name):
    """"power(k)" or "<sqrt_t|sqrt_loglog> x<scale>", as the workload scales f."""
    if name.startswith("power("):
        return gr.power(float(name[len("power("):-1]))
    base, scale = name.split(" x")
    base, scale = getattr(gr, base)(), float(scale)
    return gr.from_callable(lambda t: scale * base(t), descriptor=("scaled", scale),
                            regularly_varying=True)


def a2_direct_report(f):
    """check_A2's report from the direct witness alone, without its shortcut."""
    return criteria._trend_report(criteria.A2_RADII, _a2_direct_witness(f, criteria.A2_RADII),
                                  "witness grows as r -> 0", "unstable witness")


class TestConditionA2:
    def test_power_07_holds_via_shortcut(self):
        rep = check_A2(gr.power(0.7))
        assert rep.holds and rep.shortcut

    def test_sqrt_fails(self):
        rep = check_A2(gr.sqrt_t())
        assert rep.fails

    def test_direct_witness_matches_closed_form(self):
        # r^2 int_{r^{10/7}}^1 t^{-1.4} dt / r^{10/7} = (1 - r^{4/7}) / 0.4
        rep_direct = a2_direct_report(gr.power(0.7))
        r = np.asarray(rep_direct.grid, float)
        expected = np.max((1.0 - r ** (4.0 / 7.0)) / 0.4)
        assert rep_direct.holds
        assert rep_direct.witness == pytest.approx(expected, rel=1e-4)

    def test_shortcut_agrees_with_direct(self):
        f = gr.power(0.7)
        a = check_A2(f)
        b = a2_direct_report(f)
        assert criteria._a2_shortcut(f) and a.shortcut
        assert a.verdict == b.verdict == "holds"

    @pytest.mark.parametrize("case", [c["name"] for c in A2_GOLDEN["cases"]])
    def test_witness_matches_recorded_scalar_quadrature(self, case):
        # recorded from one adaptive quad per radius; sqrt_loglog's clamp at
        # e^{-e} is a kink that a fixed-node panel resolves to ~2e-7
        rec = next(c for c in A2_GOLDEN["cases"] if c["name"] == case)
        f = a2_case(case)
        rtol = 1e-5 if case.startswith("sqrt_loglog") else 1e-12
        np.testing.assert_allclose(_a2_direct_witness(f, A2_GRID), rec["witness"],
                                   rtol=rtol, atol=0)
        rep = check_A2(f)
        assert (rep.verdict, rep.shortcut) == (rec["verdict"], rec["shortcut"])

    def test_too_flat_power_raises_inverse_failure(self):
        with pytest.raises(InverseFailure):
            check_A2(gr.power(0.3))


class TestBgIndex:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_stable_index_recovered(self, alpha):
        m = pr.raw_stable_process(alpha).levy.measure
        assert bg_index(m) == pytest.approx(alpha, abs=0.02)

    def test_atom_measure_index_zero(self):
        assert bg_index(pr.atom_process().levy.measure) == pytest.approx(0.0, abs=0.02)

    def test_log_density_index_zero(self):
        # every positive moment converges by comparison with y^{a-1}/log^2
        m = pr.log_smooth_process().levy.measure
        assert bg_index(m) == pytest.approx(0.0, abs=0.02)

    def test_slow_variation_index_near_two(self):
        # the true index is 2, but its moment integrals diverge only through
        # log factors, invisible within the dyadic depth; the estimate lands
        # just below
        m = pr.slow_variation_process().levy.measure
        beta = bg_index(m, n_max=60)
        assert 1.9 <= beta <= 2.0

    def test_monotone_under_small_jump_thickening(self):
        b1 = bg_index(pr.raw_stable_process(1.0).levy.measure)
        b2 = bg_index(pr.raw_stable_process(1.3).levy.measure)
        assert b2 > b1

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            bg_index(pr.cauchy_process().levy.measure, tol=0.5)

    def test_indeterminate_midpoint_is_nudged(self, monkeypatch):
        # the first bisection point a = 1 reads indeterminate; the nudge to
        # a = 1.25 converges and the bisection goes on from there
        calls = force_states(monkeypatch, ["indeterminate"])
        m = pr.stable_process(1.3).levy.measure
        assert bg_index(m) == 1.314453125
        assert len(calls) == 8

    def test_indeterminate_nudge_raises(self, monkeypatch):
        force_states(monkeypatch, ["indeterminate", "indeterminate"])
        with pytest.raises(BracketIndeterminate,
                           match=r"^moment test indeterminate at a=1.0 and a=1.25$"):
            bg_index(pr.stable_process(1.3).levy.measure)


# ---------------------------------------------------------------------------
# the moment integrals read one tail table per call
# ---------------------------------------------------------------------------

MOMENT_SPECS = {
    "stable": lambda: pr.stable_process(1.3),
    "raw_stable": lambda: pr.raw_stable_process(0.7),
    "one_sided_stable": lambda: pr.one_sided_stable_process(1.5),
    "atom": pr.atom_process,
    "log_smooth": pr.log_smooth_process,
    "slow_variation": pr.slow_variation_process,
    "zero": pr.zero_process,
}


def per_block_moment(measure, a):
    """The per-block closure that ``criteria._moment_table`` replaced, kept as
    its oracle: G(1-) once, then one tail call per block of nodes."""
    g1 = float(measure.tail(1.0 - 1e-12))

    def g(t):
        t = np.asarray(t, float)
        return a * t ** (a - 1.0) * np.maximum(np.asarray(measure.tail(t), float) - g1, 0.0)

    return g


def per_block_bg_index(measure, tol):
    """``bg_index``'s bisection with a fresh per-block closure at every step."""
    lo, hi = 0.0, 2.0
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        v = dyadic_integral(per_block_moment(measure, mid))
        if v.state == "indeterminate":
            nudged = mid + (hi - lo) / 8.0
            v = dyadic_integral(per_block_moment(measure, nudged))
            assert v.state != "indeterminate"
            mid = nudged
        lo, hi = (lo, mid) if v.converges else (mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("name", sorted(MOMENT_SPECS))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(a=st.floats(0.0, 2.0, exclude_min=True))
def test_moment_table_matches_per_block_closure(name, a):
    # the table gives the closure's verdict to the bit, and classify_power's
    # moment evidence at kappa = 1/a is that verdict
    spec = MOMENT_SPECS[name]()
    table = criteria._moment_table(spec.levy.measure, 60)
    assert_bitwise_same(dyadic_integral(table(a)),
                        dyadic_integral(per_block_moment(spec.levy.measure, a)))
    kappa = 1.0 / a
    if 0.5 + 1e-12 < kappa < np.inf:
        got = classify_power(spec, kappa).evidence["moment_integral"]
        assert_bitwise_same(got, dyadic_integral(per_block_moment(spec.levy.measure, 1.0 / kappa)))


@pytest.mark.parametrize("tol", [0.005, 0.02])
@pytest.mark.parametrize("name", sorted(MOMENT_SPECS))
def test_bg_index_matches_per_block_bisection(name, tol):
    measure = MOMENT_SPECS[name]().levy.measure
    assert bg_index(measure, tol) == per_block_bg_index(measure, tol)


def counted_tail(spec, tail=None):
    """``spec`` on a hand-built measure whose tail (``tail`` or the spec's own)
    records the shape of every argument it is called on."""
    calls, base = [], spec.levy.measure

    def counting(r):
        calls.append(np.shape(r))
        return (tail or base.tail)(r)

    measure = ms.LevyMeasureModel(tail=counting, trunc2=base.trunc2, name="counted")
    levy = dataclasses.replace(spec.levy, measure=measure)
    return dataclasses.replace(spec, levy=levy), calls


@pytest.mark.parametrize("tol", [0.005, 0.02, 0.1])
@pytest.mark.parametrize("name", ["stable", "atom", "slow_variation"])
def test_moment_integrals_call_the_tail_twice(monkeypatch, name, tol):
    # one call on every dyadic node and one at G(1-), however many bisection
    # steps run; the per-block closure made 61 calls per step
    spec, calls = counted_tail(MOMENT_SPECS[name]())
    passes = count_passes(monkeypatch)
    bg_index(spec.levy.measure, tol)
    assert len(passes) >= 5
    assert calls == [(), (61, 16)]
    calls.clear()
    classify_power(spec, 0.8)
    assert calls == [(), (61, 16)]


@pytest.mark.parametrize("run", [lambda spec: bg_index(spec.levy.measure),
                                 lambda spec: classify_power(spec, 0.8)],
                         ids=["bg_index", "classify_power"])
def test_moment_integral_failures_are_evaluation_failures(run):
    def raising(r):
        raise RuntimeError("boom")

    def nan_below(r):  # G is nan on the nodes of block 8, [2^-9, 2^-8], and deeper
        r = np.asarray(r, float)
        return np.where(r < 2.0**-8, np.nan, 1.0 / r)

    with pytest.raises(EvaluationFailure, match="moment integrand failed: boom"):
        run(counted_tail(pr.stable_process(1.3), raising)[0])
    with pytest.raises(EvaluationFailure, match="integrand not finite on block 8$"):
        run(counted_tail(pr.stable_process(1.3), nan_below)[0])


class TestClassifyLevy:
    def test_cauchy_zero(self):
        res = classify_levy(pr.cauchy_process(), gr.power(0.8))
        assert res.outcome == "zero"
        assert "A1" in res.assumptions_used and "Sector" in res.assumptions_used

    def test_cauchy_infinity(self):
        res = classify_levy(pr.cauchy_process(), gr.power(1.2))
        assert res.outcome == "infinity"

    def test_slow_variation_honest_indeterminate(self):
        res = classify_levy(pr.slow_variation_process(), gr.sqrt_t())
        assert res.outcome == "indeterminate"
        assert "A1 and A2" in res.reason

    def test_constant_growth_is_upper(self):
        res = classify_levy(pr.cauchy_process(), gr.constant(0.5))
        assert res.outcome == "zero"

    def test_mixed_integral_evidence(self, monkeypatch):
        # kappa alpha = 1.3: every c diverges but the first, forced indeterminate
        force_states(monkeypatch, ["indeterminate"])
        res = classify_levy(pr.stable_process(1.3), gr.power(1.0))
        assert (res.outcome, res.reason) == ("indeterminate", "mixed integral evidence")
        assert res.assumptions_used == ["A1", "Sector"]
        assert list(res.evidence) == ["sector", "A1", "tail_integrals"]
        states = [v.state for v in res.evidence["tail_integrals"].values()]
        assert states == ["indeterminate"] + ["diverges"] * (len(C_EXPONENTS) - 1)

    @pytest.mark.parametrize("b, weights, route", [
        (0.0, (0.5, 0.5), "finite"),  # the atom process itself
        (0.5, (0.25, 0.75), "finite"),  # b equals int_{0<|y|<1} y nu(dy) = 0.5 * 2 * 0.5
        (0.3, (0.5, 0.5), "integrals"),
        (0.0, (0.25, 0.75), "integrals")])
    def test_finite_mass_needs_no_effective_drift(self, b, weights, route):
        # atoms at 0.5 (mass 2) and 2 (mass 1): the one above 1 is not compensated
        atoms = ((0.5, 2.0), (2.0, 1.0))
        m = ms.LevyMeasureModel(
            tail=lambda r: sum(w * (np.asarray(r, float) < s) for s, w in atoms),
            trunc2=lambda r: sum(w * s**2 * (np.asarray(r, float) >= s) for s, w in atoms),
            side_weights=weights, atoms=atoms, total_mass=3.0)
        spec = pr.levy_process_from_measure(m, b=b, symbol=lambda x, xi: np.zeros(xi.shape[:-1]))
        res = classify_levy(spec, gr.power(1.2))
        if route == "finite":
            assert (res.outcome, res.reason, res.evidence) == (
                "zero", "finite jump mass", {"total_mass": 3.0})
        else:
            assert res.reason != "finite jump mass" and "sector" in res.evidence

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("gap", [-0.3, -0.1, 0.1, 0.3])
    def test_full_dichotomy_matrix(self, alpha, gap):
        res = classify_levy(pr.raw_stable_process(alpha), gr.power(1 / alpha + gap))
        assert res.outcome == ("infinity" if gap > 0 else "zero")


class TestClassifyPower:
    def test_below_half_unconditional(self):
        res = classify_power(pr.slow_variation_process(), 0.3)
        assert res.outcome == "zero"

    def test_at_half_with_balance(self):
        res = classify_power(pr.raw_stable_process(1.2), 0.5)
        assert res.outcome == "zero" and res.assumptions_used == ["A1"]

    def test_at_half_without_balance(self):
        res = classify_power(pr.slow_variation_process(), 0.5)
        assert res.outcome == "indeterminate"

    @pytest.mark.parametrize("kappa", [0.6, 0.77, 0.9])
    def test_indeterminate_moment_integral_gives_indeterminate(self, monkeypatch, kappa):
        # the moment integral is the only decision above kappa = 1/2: forced
        # indeterminate, it gives indeterminate after exactly one dyadic pass,
        # with no activity index and no small-jump balance check
        calls = force_states(monkeypatch, ["indeterminate"])
        unwanted = []
        monkeypatch.setattr(criteria, "bg_index", lambda *a, **k: unwanted.append("bg_index"))
        monkeypatch.setattr(criteria, "check_A1", lambda *a, **k: unwanted.append("check_A1"))
        res = classify_power(pr.stable_process(1.3), kappa)
        assert (res.outcome, res.reason, res.assumptions_used) == (
            "indeterminate", "moment integral indeterminate", [])
        assert list(res.evidence) == ["sector", "moment_integral"]
        assert len(calls) == 1 and unwanted == []

    def test_moment_route(self):
        spec = pr.raw_stable_process(1.5)
        assert classify_power(spec, 0.6).outcome == "zero"
        assert classify_power(spec, 0.8).outcome == "infinity"


class TestLtpUpper:
    def test_variable_order(self):
        res = classify_ltp_upper(pr.variable_order_process(), 0.0, gr.power(0.6))
        assert res.outcome == "zero"

    def test_stable_type(self):
        alpha = 1.5
        res = classify_ltp_upper(pr.stable_type_process(alpha), 0.0,
                                 gr.power(1 / alpha - 0.05))
        assert res.outcome == "zero"

    def test_sde(self):
        res = classify_ltp_upper(pr.sde_process(), 0.0, gr.power(0.8))
        assert res.outcome == "zero"

    def test_too_slow_growth_indeterminate(self):
        res = classify_ltp_upper(pr.variable_order_process(), 0.0, gr.power(1.2))
        assert res.outcome == "indeterminate"

    def test_majorization_route_flag(self):
        res = classify_ltp_upper(pr.variable_order_process(), 0.0, gr.power(0.6),
                                 use_majorization_route=True)
        assert res.outcome == "zero"

    def test_levy_kind_rejected(self):
        with pytest.raises(ValueError):
            classify_ltp_upper(pr.cauchy_process(), 0.0, gr.power(0.8))


class TestLtpLower:
    def test_variable_order_blowup(self):
        res = classify_ltp_lower(pr.variable_order_process(), 0.0, gr.power(0.8))
        assert res.outcome == "infinity"

    def test_cauchy_fast_growth(self):
        res = classify_ltp_lower(pr.cauchy_process(), 0.0, gr.power(1.2))
        assert res.outcome == "infinity"

    def test_cauchy_linear_growth_lower_bound(self):
        res = classify_ltp_lower(pr.cauchy_process(), 0.0, gr.power(1.0), C=1.0)
        assert res.outcome == "lower_bound"
        assert res.c_over_5 == pytest.approx(0.2)

    def test_upper_regime_stays_indeterminate(self):
        res = classify_ltp_lower(pr.cauchy_process(), 0.0, gr.power(0.8))
        assert res.outcome == "indeterminate"

    def test_comparability_and_growth_conditions(self):
        vo = pr.variable_order_process()
        assert check_C1(vo, 0.0, gr.power(0.8)).holds
        assert check_C1(pr.cauchy_process(), 0.0, gr.power(1.0)).holds
        rep = check_C2(pr.cauchy_process(), 0.0, gr.power(1.0))
        assert rep.holds
        assert rep.witness == pytest.approx(1.0, abs=0.05)  # fitted growth order

    def test_fitted_growth_exponent(self):
        assert fit_symbol_growth(pr.stable_process(1.5), 0.0, 0.0) == pytest.approx(
            1.5, abs=0.01
        )


class TestChainConsistency:
    MODELS = [
        pr.cauchy_process,
        lambda: pr.raw_stable_process(0.5),
        lambda: pr.raw_stable_process(1.5),
        lambda: pr.stable_process(1.2),
    ]

    @pytest.mark.parametrize("factory", MODELS)
    @pytest.mark.parametrize("gap", [-0.2, 0.2])
    def test_tail_and_symbol_verdicts_agree(self, factory, gap):
        spec = factory()
        alpha = spec.stable_family[0]
        f = gr.power(1 / alpha + gap)
        assert check_A1(spec).holds
        tail_states = {
            tail_integral_criterion(spec, None, f, 2.0**k).state for k in (-2, 0, 2)
        }
        sym = symbol_integral_criterion(spec, 0.0, f)
        if sym.converges:
            assert "converges" in tail_states
        else:
            assert sym.diverges and tail_states == {"diverges"}

    @pytest.mark.parametrize("factory", [
        pr.variable_order_process,
        lambda: pr.stable_type_process(1.2),
        pr.sde_process,
    ])
    def test_converse_consistency_inf_ball(self, factory):
        # wherever the ball balance holds and the inf-ball tail integral
        # converges, the inf-ball symbol integral converges as well
        spec = factory()
        f = gr.power(0.5)
        assert check_A1(spec, x=0.0, ball_radius=0.5).holds
        v_tail = tail_integral_criterion(spec, 0.0, f, 10.0, ball_mode="inf",
                                         ball_scale=10.0)
        assert v_tail.converges
        v_sym = symbol_integral_criterion(spec, 0.0, f, ball_mode="inf",
                                          ball_scale=10.0)
        assert v_sym.converges


class TestExitBounds:
    def test_raw_cauchy_anchors(self):
        spec = pr.raw_stable_process(1.0)
        eb = exit_bounds(spec, 0.0, 0.1, 0.5)
        assert eb.tail_intensity == pytest.approx(2.0)
        assert eb.survival_bound == pytest.approx(1.0 / 1.2)
        assert eb.expected_exit == pytest.approx(0.5)
        assert eb.exponential_shape == pytest.approx(np.exp(-0.2))

    def test_degenerate_time(self):
        eb = exit_bounds(pr.raw_stable_process(1.0), 0.0, 0.0, 0.5)
        assert eb.survival_bound == 1.0
        assert eb.lower == 0.0

    def test_bounds_ranges(self):
        eb = exit_bounds(pr.variable_order_process(), 0.0, 0.3, 0.4)
        assert 0.0 < eb.survival_bound <= 1.0
        assert eb.expected_exit > 0
        assert 0.0 <= eb.lower <= 1.0
        assert eb.schilling_factor > 0
        assert 0.0 < eb.symbol_survival_factor <= 1.0


# ---------------------------------------------------------------------------
# equivalence with the per-node evaluation that preceded the batched layer
# ---------------------------------------------------------------------------

GOLDEN_CRITERIA = Path(__file__).parent / "data" / "criteria_golden.json"
# (criterion, keyword arguments) for state-dependent specs; Levy specs run
# each criterion once with ball_mode=None
EQUIV_CASES = (
    ("symbol", {"ball_mode": "sup"}),
    ("symbol", {"ball_mode": "inf"}),
    ("tail", {"ball_mode": "sup"}),
    ("tail", {"ball_mode": "inf", "ball_scale": 2.0}),
    ("tail", {"ball_mode": "sup", "fixed_ball_radius": 0.5}),
)


def criteria_table(name):
    """(state, block sums) of the symbol and tail criteria at f(t) = t^kappa,
    kappa on both sides of the dichotomy."""
    spec = EQUIV_SPECS[name]()
    if spec.kind == "levy":
        cases = (("symbol", {}), ("tail", {}))
    else:
        cases = EQUIV_CASES
    out = []
    for kappa in (0.7, 1.0):
        f = gr.power(kappa)
        for kind, kw in cases:
            if kind == "symbol":
                v = symbol_integral_criterion(spec, EQUIV_X, f, **kw)
            else:
                v = tail_integral_criterion(spec, EQUIV_X, f, 1.0, **kw)
            out.append({"case": f"t^{kappa} {kind} {sorted(kw.items())}",
                        "state": v.state,
                        "block_sums": [float(s) for s in v.block_sums]})
    return out


@pytest.mark.parametrize("name", sorted(EQUIV_SPECS))
def test_criteria_match_recorded_values(name):
    # recorded from the per-node loops; batching reorders no sum but may move
    # the last bit of a tail through numpy's vector power
    golden = json.loads(GOLDEN_CRITERIA.read_text())[name]
    table = criteria_table(name)
    assert [r["case"] for r in table] == [r["case"] for r in golden]
    for row, ref in zip(table, golden):
        assert row["state"] == ref["state"], row["case"]
        np.testing.assert_allclose(row["block_sums"], ref["block_sums"],
                                   rtol=1e-14, atol=0, err_msg=row["case"])


# ---------------------------------------------------------------------------
# the parameter axis: one dyadic pass for a c-scan or an eps pair
# ---------------------------------------------------------------------------

C_SCAN = np.array([2.0**k for k in C_EXPONENTS])
STATE_SPECS = {
    "variable_order": pr.variable_order_process,
    "stable_type": lambda: pr.stable_type_process(1.2),
    "sde_process": pr.sde_process,
}
BALL_CASES = (
    {"ball_mode": "sup"},
    {"ball_mode": "inf", "ball_scale": 2.0},
    {"ball_mode": "sup", "fixed_ball_radius": 0.5},
)
SCAN_CASES = ([(name, kw) for name in sorted(STATE_SPECS) for kw in BALL_CASES]
              + [("stable_levy", {})])


def assert_same_verdict(v, ref):
    assert v.state == ref.state
    if ref.value is None:
        assert v.value is None
    else:
        assert v.value == pytest.approx(ref.value, rel=1e-12, abs=0)
    np.testing.assert_allclose(v.block_sums, ref.block_sums, rtol=1e-12, atol=0)


def scan_spec(name):
    if name == "stable_levy":
        return pr.stable_process(1.3), None
    return STATE_SPECS[name](), EQUIV_X


@pytest.mark.parametrize("kappa", [0.7, 1.0])
@pytest.mark.parametrize("name, kw", SCAN_CASES)
def test_batched_c_scan_matches_one_call_per_c(name, kw, kappa):
    spec, x = scan_spec(name)
    f = gr.power(kappa)
    batch = tail_integral_criterion(spec, x, f, C_SCAN, **kw)
    assert isinstance(batch, list) and len(batch) == C_SCAN.size
    for c, v in zip(C_SCAN, batch):
        assert_same_verdict(v, tail_integral_criterion(spec, x, f, float(c), **kw))


@pytest.mark.parametrize("c", [np.inf, np.array([1.0, np.inf])])
@pytest.mark.parametrize("name", ["stable", "variable_order"])
def test_infinite_c_rejected_before_any_integrand(no_integral, name, c):
    # c = inf once read a vacuous `converges` with value 0 (all blocks vanish)
    spec, x, kw = {"stable": (pr.stable_process(1.5), None, {}),
                   "variable_order": (pr.variable_order_process(), 0.0,
                                      {"ball_mode": "sup"})}[name]
    calls = []
    f = gr.from_callable(lambda t: calls.append(t) or t**0.9)
    calls.clear()  # the calls of the growth function's own checks
    with pytest.raises(ValueError, match="c must be positive and finite"):
        tail_integral_criterion(spec, x, f, c, **kw)
    assert not calls


def test_tail_criterion_c_contract():
    spec = pr.variable_order_process()
    f = gr.power(0.8)
    single = tail_integral_criterion(spec, 0.0, f, np.float64(2.0), ball_mode="sup")
    assert not isinstance(single, list)
    with pytest.raises(ValueError, match="positive"):
        tail_integral_criterion(spec, 0.0, f, np.array([1.0, 0.0]), ball_mode="sup")
    with pytest.raises(ValueError, match="1-d"):
        tail_integral_criterion(spec, 0.0, f, np.ones((2, 2)), ball_mode="sup")


@pytest.mark.parametrize("kappa", [0.7, 1.0])
@pytest.mark.parametrize("name, kw", [
    (name, kw) for name in sorted(STATE_SPECS)
    for kw in ({"ball_mode": "sup"}, {"ball_mode": "inf"})
] + [("stable_levy", {})])
def test_eps_pair_pass_matches_two_passes(name, kw, kappa):
    spec, x = scan_spec(name)
    f = gr.power(kappa)
    v = symbol_integral_criterion(spec, x, f, **kw)
    first = one_eps_verdict(spec, x, f, 1.0, **kw)
    check = one_eps_verdict(spec, x, f, 0.5, **kw)
    if {first.state, check.state} == {"converges", "diverges"}:
        assert v.state == "indeterminate" and "eps-inconsistency" in v.note
        np.testing.assert_allclose(v.block_sums, first.block_sums, rtol=1e-12, atol=0)
    else:
        assert_same_verdict(v, first)


def assert_bitwise_same(v, ref):
    assert (v.state, v.value, v.note) == (ref.state, ref.value, ref.note)
    assert np.array_equal(v.block_sums, ref.block_sums)


def record_passes(monkeypatch):
    """Record what every dyadic pass of the criteria module returns."""
    real, passes = criteria.dyadic_integral, []

    def recording(*args, **kwargs):
        passes.append(real(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(criteria, "dyadic_integral", recording)
    return passes


@pytest.mark.parametrize("kappa", [0.7, 1.0])
@pytest.mark.parametrize("name", ["stable_levy"] + sorted(STATE_SPECS))
def test_rows_equal_one_row_calls_to_the_bit(monkeypatch, name, kappa):
    # a pass reduces each row of its blocks x rows x nodes table as a one-row
    # call reduces its own: the c-scan and eps-pair rows match to the bit
    spec, x = scan_spec(name)
    kw = {} if x is None else {"ball_mode": "sup"}
    f = gr.power(kappa)
    for c, v in zip(C_SCAN, tail_integral_criterion(spec, x, f, C_SCAN, **kw)):
        assert_bitwise_same(v, tail_integral_criterion(spec, x, f, float(c), **kw))
    singles = [one_eps_verdict(spec, x, f, eps, **kw) for eps in (1.0, 0.5)]
    passes = record_passes(monkeypatch)
    symbol_integral_criterion(spec, x, f, **kw)
    assert len(passes) == 1 and len(passes[0]) == 2
    for v, ref in zip(passes[0], singles):
        assert_bitwise_same(v, ref)


# ---------------------------------------------------------------------------
# the symbol integrand: one table per chunk of blocks
# ---------------------------------------------------------------------------

TABLE_MODES = ("inf_sup", "inf_sup_re", "sup_sup")  # the lower and upper routes' modes
READ_LEVEL = 29  # _classify_blocks reads the block ratios from level 29 on


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(STATE_SPECS)), x=st.floats(-0.6, 0.9),
       kappa=st.floats(0.5, 1.3), mode=st.sampled_from(TABLE_MODES),
       ball_scale=st.sampled_from([1.0, 2.0]))
def test_symbol_table_errs_on_the_safe_side(name, x, kappa, mode, ball_scale):
    # on every level the verdict reads, the table is at least the per-node
    # grid's value in sup mode (which can yield zero) and at most it in the
    # inf modes (which can yield a lower bound): each block's ball is rounded
    # up and each cap is read exactly
    spec, f = STATE_SPECS[name](), gr.power(kappa)
    eps = np.array([[1.0], [0.5]])
    table = criteria._symbol_table(spec, x, criteria._growth_on_nodes(f, 60), eps,
                                   ball_scale, mode)[READ_LEVEL:]
    ft = f(criteria._block_nodes(60, 16)[0][READ_LEVEL:])[:, None, :]
    ref = symbol_extremum(spec, x, ball_scale * ft, 1.0 / (eps * ft), mode)
    slack = 1e-12 * np.abs(ref)
    if mode == "sup_sup":
        assert np.all(table >= ref - slack)
    else:
        assert np.all(table <= ref + slack)


@pytest.mark.parametrize("mode", ["sup_sup", "inf_sup", "inf_sup_re"])
@pytest.mark.parametrize("name", ["stable_levy"] + sorted(STATE_SPECS) + sorted(D2_SPECS))
def test_one_cap_table_row_is_symbol_extremum(name, mode):
    # the symbol table and symbol_extremum share one grid: a row of one cap
    # gives symbol_extremum's value at that cap to the bit, in every mode of
    # the symbol integrals; the caps 20, 40, 3e4 and 6e4 differ from
    # 10**log10(cap), so a cap merged into its own row would move them
    if name in D2_SPECS:
        spec, x = D2_SPECS[name](), np.full(2, EQUIV_X)
    else:
        spec, x = scan_spec(name)
    ft = np.concatenate([[1 / 20, 1 / 3e4],
                         10.0 ** np.random.default_rng(3).uniform(-9.0, 0.0, 30)])[:, None]
    eps = np.array([[1.0], [0.5]])
    table = criteria._symbol_table(spec, x, ft, eps, 2.0, mode)
    want = symbol_extremum(spec, x, 2.0 * ft[:, None, :], 1.0 / (eps * ft[:, None, :]), mode)
    assert table.shape == want.shape == (32, 2, 1)
    assert table.tobytes() == want.tobytes()


def test_d2_sde_runs_the_state_ball_routes():
    # the sde's tail and symbol read one coefficient sigma(x_1) in d = 2,
    # where the state-ball tail calls below once raised a raw ValueError;
    # the verdicts follow the dichotomy at kappa alpha = 0.65 and 1.3
    spec, x = D2_SPECS["d2_sde_stable"](), np.zeros(2)
    assert check_A1(spec, x=x, ball_radius=0.5).holds
    assert ball_tail_intensity(spec, x, 0.5) > 0
    assert classify_ltp_upper(spec, x, gr.power(1.0)).outcome == "indeterminate"
    assert classify_ltp_upper(spec, x, gr.power(0.5)).outcome == "zero"
    assert classify_ltp_lower(spec, x, gr.power(1.0)).outcome == "infinity"


@pytest.mark.parametrize("name", ["stable_levy"] + sorted(STATE_SPECS))
def test_symbol_integral_cost_and_memory(monkeypatch, name):
    # one q call per chunk of blocks (the sde's symbol calls its driver's q
    # inside, not counted), and the chunk's arrays stay small (a table over
    # all 61 blocks at once would take ~25 MB)
    spec, x = scan_spec(name)
    kw = {} if x is None else {"ball_mode": "inf", "ball_scale": 2.0}
    real_q, calls = ProcessSpec.q, []

    def counting(self, *args):
        if self is spec:
            calls.append(args)
        return real_q(self, *args)

    monkeypatch.setattr(ProcessSpec, "q", counting)
    f = gr.power(0.8)
    symbol_integral_criterion(spec, x, f, **kw)
    assert 0 < len(calls) <= -(-61 // 16)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        symbol_integral_criterion(spec, x, f, **kw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# ---------------------------------------------------------------------------
# the state-ball tail integrand: one table per chunk of blocks
# ---------------------------------------------------------------------------

BALL_TAIL_SPECS = {
    "variable_order": pr.variable_order_process,
    "stable_type": lambda: pr.stable_type_process(1.5),
    "sde_process": pr.sde_process,
}


def per_block_ball_tail(spec, x, f, c, ball_mode, ball_scale=1.0, fixed_ball_radius=None):
    """The state-ball tail integral as a per-block closure through the
    engine's callable path: one f call, one ball and one tail_at call per
    block of nodes."""
    scale, rows = (c, None) if np.ndim(c) == 0 else (c[:, None], c.size)
    extremum = np.max if ball_mode == "sup" else np.min

    def g(t):
        ft = np.asarray(f(t), float)
        radius = ball_scale * ft if fixed_ball_radius is None else fixed_ball_radius
        z = criteria._ball_states(spec, x, radius)
        return extremum(spec.tail_at(z, (scale * ft)[..., None]), axis=-1)

    return dyadic_integral(g, rows=rows)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BALL_TAIL_SPECS)), ball_mode=st.sampled_from(["sup", "inf"]),
       c=st.one_of(st.floats(2.0**-4, 2.0**8), st.just(C_SCAN)),
       ball_scale=st.floats(0.0, 2.0),
       fixed=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)),
       x=st.floats(-1.0, 1.0), kappa=st.floats(0.3, 1.2))
def test_ball_tail_table_matches_per_block_closure(name, ball_mode, c, ball_scale,
                                                   fixed, x, kappa):
    # the chunked table gives the per-block closure's verdicts to the bit,
    # for a float c and for a c-scan's rows: the closure reduces each block's
    # rows x nodes x states table over its trailing states, the order the
    # chunks used before their states moved to the leading axis
    spec, f = BALL_TAIL_SPECS[name](), gr.power(kappa)
    kw = {"ball_mode": ball_mode, "ball_scale": ball_scale, "fixed_ball_radius": fixed}
    got = tail_integral_criterion(spec, x, f, c, **kw)
    want = per_block_ball_tail(spec, x, f, c, **kw)
    if np.ndim(c) == 0:
        got, want = [got], [want]
    assert len(got) == len(want) == np.size(c)
    for v, ref in zip(got, want):
        assert_bitwise_same(v, ref)


@pytest.mark.parametrize("fixed", [None, 0.5])
@pytest.mark.parametrize("name", sorted(BALL_TAIL_SPECS))
def test_ball_tail_cost_and_memory(monkeypatch, name, fixed):
    # a whole c-scan makes one tail_at call per chunk of blocks, and a chunk's
    # arrays stay small (the sde's 13-row table over all 61 blocks at once
    # would take ~7 MB)
    spec, f = BALL_TAIL_SPECS[name](), gr.power(0.8)
    kw = {"ball_mode": "sup", "fixed_ball_radius": fixed}
    real_tail_at, calls = ProcessSpec.tail_at, []

    def counting(self, *args):
        calls.append(args)
        return real_tail_at(self, *args)

    monkeypatch.setattr(ProcessSpec, "tail_at", counting)
    tail_integral_criterion(spec, EQUIV_X, f, C_SCAN, **kw)
    assert len(calls) == -(-61 // criteria.SYMBOL_CHUNK)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        tail_integral_criterion(spec, EQUIV_X, f, C_SCAN, **kw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def with_tail(spec, tail):
    return dataclasses.replace(spec, family=dataclasses.replace(spec.family, tail=tail))


@pytest.mark.parametrize("ball_mode", ["sup", "inf"])
def test_ball_tail_table_failures_map_to_evaluation_failure(ball_mode):
    # a raising family tail is an EvaluationFailure naming its chunk, as the
    # engine's per-block loop named its block; a tail that turns NaN below
    # f(2^-20) names block 20, the first whose nodes all lie below 2^-20
    vo, f = pr.variable_order_process(), gr.power(0.8)

    def raising(z, r):
        raise RuntimeError("boom")

    with pytest.raises(EvaluationFailure, match="failed on blocks from 0: boom"):
        tail_integral_criterion(with_tail(vo, raising), 0.0, f, 1.0, ball_mode=ball_mode)
    r_nan = float(f(2.0**-20))

    def nan_below(z, r):
        return np.where(np.asarray(r) < r_nan, np.nan, vo.family.tail(z, r))

    for c in (1.0, np.array([1.0, 1.0])):
        with pytest.raises(EvaluationFailure, match="not finite on block 20$"):
            tail_integral_criterion(with_tail(vo, nan_below), 0.0, f, c, ball_mode=ball_mode)


def growth_raising_below(t_min):
    """t^0.8 through ``from_callable``, raising on any t below t_min once built
    (its construction checks a grid down to 1e-12)."""
    armed = []

    def fn(t):
        if armed and np.any(t < t_min):
            raise ArithmeticError(f"t below {t_min}")
        return t**0.8

    f = gr.from_callable(fn)
    armed.append(True)
    return f


def test_raising_growth_function_is_an_evaluation_failure_on_every_route():
    # the Levy tail's per-block closure names the first block below 1e-10;
    # the table integrands evaluate f once on every node and say so
    f, vo = growth_raising_below(1e-10), pr.variable_order_process()
    with pytest.raises(EvaluationFailure, match="failed on block 33: t below 1e-10"):
        tail_integral_criterion(pr.stable_process(1.5), None, f, 1.0)
    for ball_mode in ("sup", "inf"):
        with pytest.raises(EvaluationFailure, match="growth function failed .*: t below 1e-10"):
            tail_integral_criterion(vo, 0.0, f, 1.0, ball_mode=ball_mode)
    for ball_mode in ("sup", "inf"):
        with pytest.raises(EvaluationFailure, match="growth function failed .*: t below 1e-10"):
            symbol_integral_criterion(vo, 0.0, f, ball_mode=ball_mode)


LEVY_BALL_SPECS = {
    "cauchy": pr.cauchy_process,
    "one_sided_stable": lambda: pr.one_sided_stable_process(1.4),
    "atom": pr.atom_process,
    "log_smooth": pr.log_smooth_process,
}


@pytest.mark.parametrize("name", sorted(LEVY_BALL_SPECS))
def test_levy_state_ball_collapses_to_the_measure(name):
    # a Levy process is state-free: its state ball collapses to the centre,
    # so the ball forms of A1, G(x, r) and the lower route read its centre,
    # and a ball's symbol extrema and sector check give radius 0's bits
    spec = LEVY_BALL_SPECS[name]()
    measure = spec.levy.measure
    ref = check_A1(spec)
    caps = np.array([0.5, 20.0, 3e4])
    for x, r in ((0.0, 0.5), (0.3, 2.0)):
        rep = check_A1(spec, x=x, ball_radius=r)
        assert (rep.verdict, rep.witness, rep.reason) == (ref.verdict, ref.witness,
                                                         ref.reason)
        assert np.array_equal(rep.grid, ref.grid)
        assert ball_tail_intensity(spec, x, r) == float(measure.tail(r))
        for mode in ("sup_sup", "inf_sup", "inf_sup_re", "sup_inf_re"):
            assert (symbol_extremum(spec, x, r, caps, mode).tobytes()
                    == symbol_extremum(spec, x, 0.0, caps, mode).tobytes())
        sec, sec0 = sector_check(spec, (x, r)), sector_check(spec, (x, 0.0))
        assert (sec.verdict, sec.reason) == (sec0.verdict, sec0.reason)
        assert np.float64(sec.witness).tobytes() == np.float64(sec0.witness).tobytes()
    f = gr.power(0.7)
    res = classify_ltp_lower(spec, 0.3, f)
    assert (res.outcome, res.reason, res.assumptions_used) == (
        "indeterminate", "no divergent inf-ball integral", ["C1"])
    a1p = res.evidence["A1'"]
    assert (a1p.verdict, a1p.witness, a1p.reason) == (ref.verdict, ref.witness, ref.reason)
    # the inf-ball symbol integral runs where A1' holds, and equals the plain one
    assert ("inf_symbol_integral" in res.evidence) == ref.holds
    if ref.holds:
        assert_bitwise_same(res.evidence["inf_symbol_integral"],
                            symbol_integral_criterion(spec, 0.3, f))


@pytest.mark.parametrize("name", sorted(STATE_SPECS))
def test_lower_blowup_witness_matches_one_cap_call(name):
    # the witnesses at both caps come from one stacked call; every ball
    # scale's evidence equals a one-cap call's to the bit (f is not
    # regularly varying, so R runs over 1, 2 and 4)
    spec, x = scan_spec(name)
    f = gr.from_callable(lambda t: t**1.2)
    res = classify_ltp_lower(spec, x, f, C=2.0)
    ft = f(T_GRID)
    keys = [k for k in res.evidence if k.startswith("blowup_witness_R=")]
    assert keys == ["blowup_witness_R=1", "blowup_witness_R=2", "blowup_witness_R=4"]
    for key in keys:
        R = float(key.split("=")[1])
        want = T_GRID * symbol_extremum(spec, x, R * ft, 1.0 / (2.0 * ft), "inf_sup_re")
        assert np.array_equal(res.evidence[key], want)


# 1/alpha = 0.77, 1.0 and 0.71: kappa in (0.3, 1.5) lies on both sides
LEVY_SCAN_SPECS = {
    "stable": lambda: pr.stable_process(1.3),
    "raw_stable": lambda: pr.raw_stable_process(1.0),
    "one_sided_stable": lambda: pr.one_sided_stable_process(1.4),
}


MONOTONE_CASES = ([(name, kw) for name in sorted(STATE_SPECS)
                   for kw in ({}, {"fixed_ball_radius": 0.5})]
                  + [(name, None) for name in sorted(LEVY_SCAN_SPECS)])


@pytest.mark.parametrize("name, kw", MONOTONE_CASES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(x=st.floats(-0.6, 0.9), kappa=st.floats(0.3, 1.5))
@example(x=0.0, kappa=0.5).via("below every 1/alpha")
@example(x=0.0, kappa=1.4).via("above every 1/alpha")
def test_c_scan_states_monotone_in_c(name, kw, x, kappa):
    # the (sup-ball) tail nu(z, |y| >= c f(t)) decreases in c: once the scan
    # converges at some c it converges at every larger c, and once it
    # diverges at some c it diverges at every smaller c; so the largest c
    # decides whether any c converges, which is what _c_scan reads
    f = gr.power(kappa)
    if kw is None:
        spec, x, kw = LEVY_SCAN_SPECS[name](), None, {}
    else:
        spec, kw = STATE_SPECS[name](), {"ball_mode": "sup", **kw}
    states = [v.state for v in tail_integral_criterion(spec, x, f, C_SCAN, **kw)]
    if "converges" in states:
        first = states.index("converges")
        assert set(states[first:]) == {"converges"}, states
    if "diverges" in states:
        last = len(states) - 1 - states[::-1].index("diverges")
        assert set(states[:last + 1]) == {"diverges"}, states
    if spec.kind != "levy":
        assert criteria._c_scan(spec, x, f, kw.get("fixed_ball_radius"), {}, "scan",
                                60) == ("converges" in states)


def decline_symbol_route(monkeypatch):
    """Make classify_ltp_upper's symbol route decline, so its c-scans run."""
    real = criteria.symbol_integral_criterion

    def declining(*args, **kwargs):
        v = real(*args, **kwargs)
        return IntegralVerdict("indeterminate", None, v.block_sums, v.n_max)

    monkeypatch.setattr(criteria, "symbol_integral_criterion", declining)


def force_states(monkeypatch, states):
    """Make the criteria module's first one-row dyadic passes report
    ``states`` in call order; later passes run as they are.  Returns the
    ``rows`` of every pass made."""
    real, calls = criteria.dyadic_integral, []

    def forced(g, n_max=60, nodes=16, rows=None):
        v = real(g, n_max, nodes, rows)
        if len(calls) < len(states):
            v = IntegralVerdict(states[len(calls)], None, v.block_sums, v.n_max)
        calls.append(rows)
        return v

    monkeypatch.setattr(criteria, "dyadic_integral", forced)
    return calls


def count_passes(monkeypatch):
    """Record the ``rows`` of every dyadic pass the criteria module makes."""
    return force_states(monkeypatch, [])


def scan_route(monkeypatch, route):
    """Make classify_ltp_upper's symbol route decline and, for the fixed-ball
    route, its tail route too, so that the scan of ``route`` runs; the fixed
    ball's radius, or None."""
    decline_symbol_route(monkeypatch)
    if route == "tail_integrals":
        return None
    monkeypatch.setattr(criteria, "sector_check", lambda *a, **k: ConditionReport(
        "fails", np.inf, reason="forced"))
    return criteria.BALL_RADIUS


@pytest.mark.parametrize("route", ["tail_integrals", "fixed_ball_tail"])
@pytest.mark.parametrize("kappa, n_c", [(0.6, 1), (1.2, 2)])
@pytest.mark.parametrize("name", sorted(STATE_SPECS))
def test_c_scan_stops_at_a_converging_first_c(monkeypatch, name, kappa, n_c, route):
    # a scan runs c_min and c_max as one 2-row pass; where both converge it
    # keeps c_min, where neither does it keeps both ends and stops
    spec, x = scan_spec(name)
    f = gr.power(kappa)
    fixed = scan_route(monkeypatch, route)
    passes = count_passes(monkeypatch)
    res = classify_ltp_upper(spec, x, f, use_majorization_route=fixed is not None)
    scan_passes = passes[1:]  # the first pass is the symbol route's
    assert res.outcome == ("zero" if n_c == 1 else "indeterminate")
    scan = res.evidence[route]
    assert list(scan) == [C_SCAN[0], C_SCAN[-1]][:n_c]
    assert scan_passes == [2]
    for c, v in scan.items():
        assert_bitwise_same(v, tail_integral_criterion(
            spec, x, f, c, ball_mode="sup", fixed_ball_radius=fixed))


def force_c_states(monkeypatch, states):
    """Make the criteria module's tail integrals at c = C_SCAN[i] report
    ``states[i]`` (the value of a forced state is None, unless it converges);
    one-row and many-row calls alike.  Returns the c of every call made."""
    real, calls = criteria.tail_integral_criterion, []
    forced_state = dict(zip(C_SCAN, states))

    def force(c, v):
        state = forced_state[c]
        if state == v.state:
            return v
        value = v.value if state == "converges" else None
        return IntegralVerdict(state, value, v.block_sums, v.n_max, note="forced")

    def forced(spec, x, f, c, **kw):
        out = real(spec, x, f, c, **kw)
        calls.append(np.atleast_1d(c).tolist())
        if isinstance(out, list):
            return [force(ci, v) for ci, v in zip(c, out)]
        return force(c, out)

    monkeypatch.setattr(criteria, "tail_integral_criterion", forced)
    return calls


def one_call_per_c_scan(spec, x, f, fixed):
    """The reference scan: one call per c, stopping at the first that converges."""
    evidence = {}
    for c in C_SCAN:
        evidence[c] = criteria.tail_integral_criterion(
            spec, x, f, float(c), ball_mode="sup", fixed_ball_radius=fixed)
        if evidence[c].converges:
            break
    return evidence


N_C = C_SCAN.size
FORCED_SCANS = {
    # c_max decides: a middle c that converges cannot make a zero
    "middle_converges_c_max_diverges":
        ["diverges"] * 6 + ["converges"] + ["diverges"] * (N_C - 7),
    "c_min_converges_c_max_not": ["converges"] + ["indeterminate"] * (N_C - 1),
    "first_converges_in_the_middle":
        ["diverges"] * 3 + ["indeterminate"] * 2 + ["converges"] * (N_C - 5),
}


@pytest.mark.parametrize("route", ["tail_integrals", "fixed_ball_tail"])
@pytest.mark.parametrize("pattern", sorted(FORCED_SCANS))
@pytest.mark.parametrize("name", sorted(STATE_SPECS))
def test_c_scan_decides_from_its_two_ends(monkeypatch, name, pattern, route):
    # only a converging c_max can make a zero; then the other c run as one
    # 11-row pass, and the scan keeps what a one-call-per-c loop would keep
    spec, x = scan_spec(name)
    f = gr.power(1.2)
    states = FORCED_SCANS[pattern]
    fixed = scan_route(monkeypatch, route)
    calls = force_c_states(monkeypatch, states)
    res = classify_ltp_upper(spec, x, f, use_majorization_route=fixed is not None)
    scan = res.evidence[route]
    ends = [C_SCAN[0], C_SCAN[-1]]
    if states[-1] != "converges":
        assert res.outcome == "indeterminate"
        assert calls == [ends] and list(scan) == ends
        for c, v in scan.items():
            assert v.state == states[list(C_SCAN).index(c)]
        return
    assert res.outcome == "zero"
    assert calls == [ends, C_SCAN[1:-1].tolist()]
    calls.clear()
    ref = one_call_per_c_scan(spec, x, f, fixed)
    assert len(calls) == len(ref)
    assert list(scan) == list(ref) == list(C_SCAN[:states.index("converges") + 1])
    for c, v in scan.items():
        assert_bitwise_same(v, ref[c])


@pytest.mark.parametrize("failing", [None, "C", "C/2"])
@pytest.mark.parametrize("name", sorted(STATE_SPECS))
def test_lower_blowup_needs_both_witnesses(monkeypatch, name, failing):
    # the blow-up decision reads the witness at cap 1/(C f) and at 1/((C/2) f),
    # the two rows of one call; a witness forced flat must stop it whichever
    # of the two it is
    spec, x = scan_spec(name)
    f, C = gr.power(1.2), 3.0
    t_grid = T_GRID
    ft = f(t_grid)
    real, caps, rows = criteria.symbol_extremum, [], []
    level = {"C": 1.0 / C, "C/2": 2.0 / C}

    def forced(spec_, x_, radius, xi_radius, mode, **kw):
        out = real(spec_, x_, radius, xi_radius, mode, **kw)
        if mode != "inf_sup_re":
            return out
        keys = [[k for k, v in level.items() if np.allclose(row * ft, v)]
                for row in np.atleast_2d(xi_radius)]
        caps.append(keys)
        rows.append(out)
        return np.where([[key == [failing]] for key in keys], 0.0, out)

    def reference_blows_up():
        for R in (1.0,):  # a power f is regularly varying: one ball scale
            for key, C_loc in (("C", C), ("C/2", C / 2.0)):
                w = t_grid * real(spec, x, R * ft, 1.0 / (C_loc * ft), "inf_sup_re")
                label, _ = tail_trend(t_grid, 0.0 * w if key == failing else w,
                                      blowup=1e6)
                if label != "diverging":
                    return False
        return True

    monkeypatch.setattr(criteria, "symbol_extremum", forced)
    res = classify_ltp_lower(spec, x, f, C=C)
    assert caps[0] == [["C"], ["C/2"]]
    for row, C_loc in zip(rows[0], (C, C / 2.0)):
        assert np.array_equal(row, real(spec, x, ft, 1.0 / (C_loc * ft), "inf_sup_re"))
    assert (res.outcome == "infinity") == reference_blows_up()
    assert (res.outcome == "infinity") == (failing is None)


# ---------------------------------------------------------------------------
# properties the paper implies, over drawn parameters
# ---------------------------------------------------------------------------

STABLE_BUILDERS = {"stable": pr.stable_process, "raw_stable": pr.raw_stable_process}


@pytest.mark.parametrize("name", sorted(STABLE_BUILDERS))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(alpha=st.floats(0.3, 1.9),
       kappa_alpha=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 1.6)))
def test_stable_power_dichotomy(name, alpha, kappa_alpha):
    # sup_{s<=t} |X_s| / t^kappa tends to 0 when kappa alpha < 1 and blows up
    # when kappa alpha > 1; the bands keep 0.1 away from the boundary
    res = classify_levy(STABLE_BUILDERS[name](alpha), gr.power(kappa_alpha / alpha))
    assert res.outcome == ("zero" if kappa_alpha < 1.0 else "infinity"), res.reason


EXIT_SPECS = {
    "stable": lambda: pr.stable_process(1.3),
    "variable_order": pr.variable_order_process,
    "stable_type": lambda: pr.stable_type_process(1.3),
    "sde": pr.sde_process,
}


@pytest.mark.parametrize("name", sorted(EXIT_SPECS))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(x=st.floats(-1.0, 1.0), t=st.floats(0.0, 1.0), r=st.floats(0.01, 1.0),
       grow=st.floats(1.0, 4.0))
def test_survival_bound_monotone_in_t_and_r(name, x, t, r, grow):
    # 1/(1 + t G(x, 2r)), with G(x, 2r) the infimum of the tail at 2r over a
    # state ball that grows with r: non-increasing in t, non-decreasing in r
    spec = EXIT_SPECS[name]()
    base = exit_bounds(spec, x, t, r).survival_bound
    assert exit_bounds(spec, x, t * grow, r).survival_bound <= base
    assert exit_bounds(spec, x, t, r * grow).survival_bound >= base


LEVY_POWER_BUILDERS = {
    "stable": pr.stable_process,
    "raw_stable": pr.raw_stable_process,
    "one_sided_stable": pr.one_sided_stable_process,
}


@pytest.mark.parametrize("name", sorted(LEVY_POWER_BUILDERS))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(alpha=st.floats(0.3, 1.9), r=st.floats(0.01, 1.0), grow=st.floats(1.0, 4.0))
def test_schilling_factor_non_increasing_in_r(name, alpha, r, grow):
    # t sup_{|xi| <= 1/r} |psi(xi)| of a Levy law: the frequency ball shrinks
    # as r grows.  A state-dependent law's state ball B(x, r) grows with r,
    # so the property is not claimed there
    assume(name != "one_sided_stable" or abs(alpha - 1.0) > 1e-6)  # no alpha = 1
    spec = LEVY_POWER_BUILDERS[name](alpha)
    base = exit_bounds(spec, 0.0, 0.1, r).schilling_factor
    assert exit_bounds(spec, 0.0, 0.1, r * grow).schilling_factor <= base


# ---------------------------------------------------------------------------
# non-finite states, ball radii and parameters raise before any integral
# ---------------------------------------------------------------------------


@pytest.fixture
def no_integral(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an integral ran before the argument check")

    monkeypatch.setattr(criteria, "dyadic_integral", forbidden)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, np.array([np.nan])])
def test_non_finite_state_rejected_at_every_entry(no_integral, x):
    vo, f = pr.variable_order_process(), gr.power(0.8)
    entries = [
        lambda: sector_check(vo, x_ball=(x, 0.5)),   # NaN once read `holds`
        lambda: exit_bounds(vo, x, 0.1, 0.1),        # NaN once gave NaN bounds
        lambda: symbol_extremum(vo, x, 0.1, 4.0),    # NaN once returned nan
        lambda: check_A1(vo, x=x, ball_radius=0.5),
        lambda: majorization_holds(vo, x, 0.5),
        lambda: classify_ltp_upper(vo, x, f),
        lambda: classify_ltp_lower(vo, x, f),
        lambda: symbol_integral_criterion(vo, x, f, ball_mode="sup"),
        lambda: tail_integral_criterion(vo, x, f, 1.0, ball_mode="sup"),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="x must be finite"):
            entry()


@pytest.mark.parametrize("name,x", [
    ("variable_order", np.array([0.3, 0.9])),  # 0.9 was once dropped: a `zero` at 0.3
    ("variable_order", np.zeros((1, 1))),
    ("d2_variable_order", np.zeros(3)),        # once a raw numpy broadcast error
    ("d2_variable_order", 0.0),                # a scalar is one coordinate
])
def test_state_of_the_wrong_length_rejected_at_every_entry(no_integral, name, x):
    spec = D2_SPECS[name]() if name in D2_SPECS else pr.variable_order_process()
    f = gr.power(0.5)
    entries = [
        lambda: classify_ltp_upper(spec, x, f),
        lambda: classify_ltp_lower(spec, x, f),
        lambda: exit_bounds(spec, x, 0.1, 0.1),
        lambda: check_A1(spec, x=x, ball_radius=0.5),
        lambda: symbol_extremum(spec, x, 0.1, 4.0),
        lambda: sector_check(spec, x_ball=(x, 0.5)),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match=f"with {spec.dim} coordinate"):
            entry()


@pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf])
def test_bad_ball_radius_rejected_before_any_integral(no_integral, radius):
    vo, f = pr.variable_order_process(), gr.power(0.8)
    cases = [
        (lambda: sector_check(vo, x_ball=(0.0, radius)), "ball_radius"),
        (lambda: check_A1(vo, x=0.0, ball_radius=radius), "ball_radius"),
        (lambda: majorization_holds(vo, 0.0, radius), "ball_radius"),
        (lambda: symbol_integral_criterion(vo, 0.0, f, ball_mode="sup",
                                           ball_scale=radius), "ball_scale"),
        (lambda: tail_integral_criterion(vo, 0.0, f, 1.0, ball_mode="sup",
                                         fixed_ball_radius=radius),
         "fixed_ball_radius"),
    ]
    for entry, name in cases:
        with pytest.raises(ValueError, match=name):
            entry()


def test_levy_entries_ignore_the_state():
    # a Levy process has no state: x may be None, as classify_levy passes it
    cauchy, f = pr.cauchy_process(), gr.power(0.8)
    assert symbol_extremum(cauchy, None, 0.3, 4.0) == symbol_extremum(cauchy, 0.0, 0.3, 4.0)
    assert tail_integral_criterion(cauchy, None, f, 1.0).converges
    # in d = 2 too: a scalar or None state once failed q's trailing-axis check
    plane = pr.levy_process_from_measure(ms.stable_measure(1.3, dim=2))
    peak = symbol_extremum(plane, np.zeros(2), 0.3, 4.0)
    assert symbol_extremum(plane, 0.0, 0.3, 4.0) == peak
    assert symbol_extremum(plane, None, 0.3, 4.0) == peak
    assert exit_bounds(plane, 0.0, 0.1, 0.1) == exit_bounds(plane, np.zeros(2), 0.1, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_nan_parameters_name_their_argument(no_integral, bad):
    with pytest.raises(ValueError, match="kappa"):  # NaN once failed in block 0
        classify_power(pr.stable_process(1.5), bad)
    with pytest.raises(ValueError, match="C must"):  # NaN once blamed xi_radius
        classify_ltp_lower(pr.variable_order_process(), 0.0, gr.power(0.8), C=bad)
