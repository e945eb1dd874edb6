"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from levyup import growth as gr
from levyup import processes as pr
from levyup.criteria import (
    bg_index,
    check_A1,
    check_A2,
    classify_levy,
    classify_ltp_lower,
    classify_ltp_upper,
    exit_bounds,
    tail_integral_criterion,
)
from levyup.limsup import reproduce_example
from levyup.simulate import SimConfig, simulate_batch, verify_bound_table
from test_criteria import one_eps_verdict
from test_limsup import series_max
from test_simulate import estimates_at
from test_symbols import assert_symbol_axioms, h_psi_star_constant


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.name}] {status} ({elapsed:.1f} s, budget {self.seconds:.0f} s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {elapsed:.1f} s"
            )
        return False


def test_01_stable_dichotomy_analytic():
    with Budget("1 stable dichotomy, analytic", 10):
        for alpha in (0.5, 1.0, 1.5):
            spec = pr.raw_stable_process(alpha)
            for gap in (-0.3, -0.1, 0.1, 0.3):
                kappa = 1.0 / alpha + gap
                res = classify_levy(spec, gr.power(kappa))
                expected = "zero" if kappa < 1.0 / alpha else "infinity"
                assert res.outcome == expected, (alpha, kappa, res.outcome)


def test_02_stable_dichotomy_empirical():
    with Budget("2 stable dichotomy, empirical", 120):
        rep = reproduce_example("StableDichotomy", n_paths=500, n_min=4,
                                n_max=16, seed=0)
        assert rep.empirical["kappa=0.8"].label == "tends_zero"
        assert rep.empirical["kappa=1.25"].label == "grows"
        assert rep.agree


def test_03_bg_index():
    with Budget("3 small-jump activity index", 5):
        for alpha in (0.5, 1.0, 1.5):
            beta = bg_index(pr.raw_stable_process(alpha).levy.measure)
            assert beta == pytest.approx(alpha, abs=0.02)
        beta0 = bg_index(pr.atom_process().levy.measure)
        assert beta0 == pytest.approx(0.0, abs=0.02)


def test_04_side_conditions():
    with Budget("4 side conditions", 5):
        for alpha in (0.5, 1.0, 1.5):
            rep = check_A1(pr.raw_stable_process(alpha))
            assert rep.holds
            assert rep.witness == pytest.approx(alpha / (2 - alpha), rel=0.05)
        assert check_A1(pr.slow_variation_process()).fails
        assert check_A2(gr.power(0.7)).holds
        assert check_A2(gr.sqrt_t()).fails


def test_05_constant_free_maximal_bounds():
    with Budget("5 constant-free exit bounds", 60):
        spec = pr.raw_stable_process(1.0)
        cfg = SimConfig(dt=1e-3, n_paths=10_000, seed=5)
        grid = [(t, r) for t in (0.01, 0.05, 0.1) for r in (0.25, 0.5, 1.0)]
        anchor = exit_bounds(spec, 0.0, 0.1, 0.5)
        assert anchor.survival_bound == pytest.approx(5.0 / 6.0, abs=1e-12)
        for kind in ("exit_survival", "expected_exit", "lower_max"):
            rows = verify_bound_table(spec, 0.0, kind, grid, cfg)
            assert rows, kind
            bad = [r for r in rows if r.violated]
            assert not bad, (kind, bad)


def test_06_etemadi_comparison():
    with Budget("6 running-max vs endpoint comparison", 90):
        spec = pr.raw_stable_process(1.0)
        cfg = SimConfig(dt=1e-3, n_paths=10_000, seed=6)
        for t in (0.01, 0.05, 0.1):
            for r in (0.25, 0.5, 1.0):
                a, = estimates_at(spec, t, cfg, lambda v, m: m >= 3 * r)
                b, = estimates_at(spec, t, cfg, lambda v, m: np.abs(v) >= r)
                assert a.p_hat <= 3 * b.p_hat + 3 * b.ci_half_width, (t, r)


def test_07_closed_form_law_anchor():
    with Budget("7 endpoint law anchor", 30):
        target = 1.0 - (2.0 / np.pi) * np.arctan(5.0)
        assert target == pytest.approx(0.1257, abs=5e-5)
        est, = estimates_at(pr.cauchy_process(), 0.1,
                            SimConfig(dt=1e-3, n_paths=10_000, seed=7),
                            lambda v, m: np.abs(v) >= 0.5)
        assert abs(est.p_hat - target) <= est.ci_half_width


def test_08_levy_type_pipelines():
    with Budget("8 state-dependent pipelines", 30):
        vo = pr.variable_order_process()
        assert classify_ltp_upper(vo, 0.0, gr.power(0.6)).outcome == "zero"
        for alpha in (0.8, 1.5):
            st = pr.stable_type_process(alpha)
            res = classify_ltp_upper(st, 0.0, gr.power(1.0 / alpha - 0.05))
            assert res.outcome == "zero", alpha
        # order 1.5 at the start point: kappa * order = 1.2 > 1
        res = classify_ltp_lower(vo, 0.0, gr.power(0.8))
        assert res.outcome == "infinity"


def test_09_intermediate_case_honesty(tmp_path):
    with Budget("9 intermediate case", 120):
        from levyup.cli import parse_config, run_command

        cfg = parse_config(
            "[process]\nkind = slow_variation\n\n[growth]\nform = sqrt\n"
        )
        cfg.run["out"] = str(tmp_path / "out")
        code = run_command("classify", cfg, quiet=True)
        assert code == 2
        rep = reproduce_example("SlowVariation", n_paths=500, n_min=4,
                                n_max=16, seed=9)
        assert rep.empirical["sqrt"].label == "flat"
        last_median = rep.stats["sqrt"].median[-1]
        assert np.sqrt(2) / 2 <= last_median <= 2 * np.sqrt(2)


def test_10_series_bound():
    with Budget("10 subsampling series bound", 1):
        assert series_max() <= 2.0 + 1e-9


def test_11_implication_chain_suite():
    with Budget("11 implication-chain properties", 180):
        # tailik and symbol verdicts agree under the verified side conditions
        for factory, alpha in ((pr.cauchy_process, 1.0),
                               (lambda: pr.raw_stable_process(0.5), 0.5),
                               (lambda: pr.raw_stable_process(1.5), 1.5)):
            spec = factory()
            assert check_A1(spec).holds
            for gap in (-0.2, 0.2):
                f = gr.power(1.0 / alpha + gap)
                sym = one_eps_verdict(spec, 0.0, f, 1.0)
                tails = {tail_integral_criterion(spec, None, f, 2.0**k).state
                         for k in (-2, 0, 2)}
                if gap < 0:
                    assert sym.converges and "converges" in tails
                else:
                    assert sym.diverges and tails == {"diverges"}

        # eps-insensitivity
        for kappa in (0.5, 0.9, 1.1, 2.0):
            f = gr.power(kappa)
            v1 = one_eps_verdict(pr.stable_process(1.0), 0.0, f, 1.0)
            v2 = one_eps_verdict(pr.stable_process(1.0), 0.0, f, 0.5)
            assert v1.state == v2.state

        # doubling and symbol axioms on the model matrix
        for factory in (pr.cauchy_process, lambda: pr.raw_stable_process(1.5),
                        pr.variable_order_process,
                        lambda: pr.stable_type_process(1.2), pr.sde_process):
            assert_symbol_axioms(factory())

        # symbol sup psi*(1/r) comparable to the concentration h(r), fitted
        # constant small
        for factory in (pr.cauchy_process, lambda: pr.raw_stable_process(0.5),
                        pr.slow_variation_process, pr.log_smooth_process):
            spec = factory()
            assert h_psi_star_constant(spec) < 100.0, spec.name

        # frozen-coefficient scheme reduces to the stable process in law
        from scipy import stats

        const_order = pr.variable_order_process(
            order_fn=lambda z: 1.2 * np.ones_like(np.asarray(z, float))
        )
        times = np.linspace(0.0, 0.2, 201)
        v1, _ = simulate_batch(const_order, 0.0, times,
                               SimConfig(n_paths=1200, seed=111))
        v2, _ = simulate_batch(pr.stable_process(1.2), 0.0, times,
                               SimConfig(n_paths=1200, seed=112))
        assert stats.ks_2samp(v1[:, -1], v2[:, -1]).pvalue > 0.01
