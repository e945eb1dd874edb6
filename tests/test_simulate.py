import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from levyup import processes as pr
from levyup import simulate
from levyup.criteria import CriteriaSettings
from levyup.errors import RateOverflow
from levyup.symbols import StateFamily, symbol_extremum
from levyup.simulate import (
    SimConfig,
    estimate_exit_survival,
    mc_event_probability,
    path_rng,
    proportion_estimate,
    sample_increment,
    simulate_batch,
    simulate_path,
    stable_draws,
    verify_bound_table,
)

GRID_01 = np.linspace(0.0, 0.1, 101)

# short irregular grid: per-step sizes differ, so every dts-dependent
# coefficient of a scheme is exercised
GRID_IRREGULAR = np.concatenate([[0.0], np.cumsum(np.linspace(5e-4, 2e-3, 40))])


def _stable_with_drift():
    spec = pr.stable_process(1.5)
    return dataclasses.replace(
        spec, levy=dataclasses.replace(spec.levy, b=np.array([0.3])),
        name="stable_drift")


# one spec per scheme and sampler: (builder, scheme)
SCHEME_CASES = {
    "exact_stable-drift": (_stable_with_drift, "exact_stable"),
    "cpg-one_sided_1.4": (lambda: pr.one_sided_stable_process(1.4),
                          "compound_poisson_gauss"),
    "cpg-atom": (lambda: pr.atom_process(radius=0.5, mass=40.0),
                 "compound_poisson_gauss"),
    "euler_sde-cauchy": (pr.sde_process, "euler_sde"),
    "euler_sde-one_sided_1.4": (
        lambda: pr.sde_process(driver=pr.one_sided_stable_process(1.4)),
        "euler_sde"),
    "freeze-variable_order": (pr.variable_order_process, "freeze_symbol"),
    "freeze-stable_type_1.3": (lambda: pr.stable_type_process(1.3),
                               "freeze_symbol"),
}

# SHA-256 of the (values, runmax) bytes of simulate_batch(spec, 0.25,
# GRID_IRREGULAR, SimConfig(n_paths=6, seed=17, path_offset=5)); any change
# to the engine's arithmetic or stream use shows here
GOLDEN_DIGESTS = {
    "cpg-atom": "37b62074bdb09e276d2e91aad3a8caea04783651bd9ba98c9be7969a5dda77ec",
    "cpg-one_sided_1.4": "81132a38010144c57e57ca272ac1e46e7e916858eb515030f8a11cb56f832d5c",
    "euler_sde-cauchy": "79d4f3e6e95fb242b0597ab34792a5928686d1e89f5266c840765f55f68787f5",
    "euler_sde-one_sided_1.4": "d6b12bd4ef41efd8442340705652899beb422132b7d9681aaad6d35fe53d24f5",
    "exact_stable-drift": "2e959436d245ceb30e3229d9f2de0d1e4678dc4d474dbd0294a7284dd3cd0f0f",
    "freeze-stable_type_1.3": "5c4879521e7f2adbafd28836a94251b6812abfc90fb5a8f6f6132971e484ec39",
    "freeze-variable_order": "f8445997d81c66aff9f8183a86faa5cad384e6b67339dbfbcbec70beac47ebe1",
}


def _batch_digest(values, runmax):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(values, np.float64).tobytes())
    h.update(np.ascontiguousarray(runmax, np.float64).tobytes())
    return h.hexdigest()


class TestIncrements:
    def test_cauchy_unit_median(self):
        # |standard Cauchy| has median tan(pi/4) = 1
        d = stable_draws(path_rng(7, 0), 1.0, 200_000)
        assert np.median(np.abs(d)) == pytest.approx(1.0, rel=0.03)

    def test_symmetry_of_draws(self):
        d = stable_draws(path_rng(8, 0), 1.5, 100_000)
        assert np.mean(d > 0) == pytest.approx(0.5, abs=0.01)

    def test_stable_law_matches_scipy(self):
        d = stable_draws(path_rng(9, 0), 1.5, 30_000)
        # scipy's standard parametrization at beta=0 matches exponent |xi|^1.5
        ks = stats.kstest(d, stats.levy_stable(alpha=1.5, beta=0.0).cdf)
        assert ks.pvalue > 0.01

    def test_small_jump_surrogate_variance(self):
        # variance of the Gaussian surrogate is dt * trunc2(delta) = 0.4 dt;
        # dt small enough that steps containing a jump (rate 0.0013) are rare
        # and clearly separated from the 8-sigma Gaussian bulk
        raw = pr.raw_stable_process(1.5)
        assert float(raw.levy.measure.trunc2(0.01)) == pytest.approx(0.4)
        rng = path_rng(10, 0)
        dt = 1e-6
        incs = np.array([
            sample_increment(raw.levy, dt, 0.01, rng) for _ in range(4000)
        ])
        small = incs[np.abs(incs) < 0.005]
        assert small.var() == pytest.approx(0.4 * dt, rel=0.1)

    def test_symmetric_increment_mean_zero(self):
        rng = path_rng(11, 0)
        incs = np.array([
            sample_increment(pr.cauchy_process().levy, 1e-3, 0.05, rng)
            for _ in range(2000)
        ])
        med = np.median(incs)
        assert abs(med) < 0.005

    def test_rate_overflow(self):
        raw = pr.raw_stable_process(1.0)
        with pytest.raises(RateOverflow):
            sample_increment(raw.levy, 10_000.0, 1e-4, path_rng(0, 0))


class TestPaths:
    def test_zero_process_constant(self):
        sample = simulate_path(pr.zero_process(), 0.7, 1.0, SimConfig(n_paths=1))
        assert np.all(sample.values == 0.7)
        assert np.all(sample.runmax == 0.0)

    def test_path_sample_invariants(self):
        sample = simulate_path(pr.cauchy_process(), 0.0, 0.5,
                               SimConfig(n_paths=1, seed=3))
        assert sample.times[0] == 0.0
        assert sample.values[0] == 0.0
        assert np.all(np.diff(sample.times) > 0)
        assert np.all(np.diff(sample.runmax) >= 0)
        # runmax dominates the endpoint deviation at every index
        assert np.all(sample.runmax >= np.abs(sample.values - 0.0) - 1e-12)

    def test_reproducibility_bit_identical(self):
        cfg = SimConfig(n_paths=8, seed=123)
        v1, r1 = simulate_batch(pr.cauchy_process(), 0.0, GRID_01, cfg)
        v2, r2 = simulate_batch(pr.cauchy_process(), 0.0, GRID_01, cfg)
        assert np.array_equal(v1, v2) and np.array_equal(r1, r2)

    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_golden_output(self, case):
        build, scheme = SCHEME_CASES[case]
        cfg = SimConfig(n_paths=6, seed=17, path_offset=5, scheme=scheme)
        values, runmax = simulate_batch(build(), 0.25, GRID_IRREGULAR, cfg)
        assert values.shape == runmax.shape == (6, len(GRID_IRREGULAR))
        assert _batch_digest(values, runmax) == GOLDEN_DIGESTS[case]

    @pytest.mark.parametrize("seed,offset", [(0, 0), (17, 5), (3, 2**40), (2**50, 2**64 - 2)])
    def test_rekeyed_streams_match_path_rng(self, seed, offset):
        cfg = SimConfig(n_paths=4, seed=seed, path_offset=offset)
        for p, rng in enumerate(cfg.path_rngs()):
            ref = path_rng(seed, offset + p)
            # normal draws leave a buffered word that the next key must clear
            assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(rng.integers(0, 2**31, 3, dtype=np.int32),
                                  ref.integers(0, 2**31, 3, dtype=np.int32))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("case", ["cauchy"] + sorted(SCHEME_CASES))
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), offset=st.integers(0, 2**65),
           cuts=st.tuples(st.floats(0, 1), st.floats(0, 1)))
    def test_chunking_matches_unchunked(self, case, n, offset, cuts):
        # one call against the calls for the (possibly empty) pieces that two
        # split points cut, each starting at its own path_offset
        build, scheme = SCHEME_CASES.get(case, (pr.cauchy_process, "auto"))
        spec = build()
        cfg = SimConfig(n_paths=n, seed=5, scheme=scheme, path_offset=offset)
        whole = simulate_batch(spec, 0.0, GRID_IRREGULAR, cfg)
        bounds = [0, *sorted(int(c * n) for c in cuts), n]
        parts = [simulate_batch(spec, 0.0, GRID_IRREGULAR, dataclasses.replace(
                     cfg, n_paths=hi - lo, path_offset=offset + lo))
                 for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        for out, split in zip(whole, zip(*parts)):
            assert np.array_equal(out, np.vstack(split))

    def test_endpoint_law_cauchy(self):
        # P(|X_1| > 1) = 1/2 for the standard Cauchy law at t = 1
        est = mc_event_probability(pr.cauchy_process(), 0.0,
                                   ("abs_at_least", 1.0, 1.0),
                                   SimConfig(dt=1e-3, n_paths=4000, seed=11))
        assert abs(est.p_hat - 0.5) <= max(est.ci_half_width, 0.025)

    def test_cpg_vs_exact_same_law(self):
        # compound-Poisson + Gaussian surrogate approximates the exact law
        cfg_e = SimConfig(dt=1e-3, n_paths=1500, seed=21, scheme="exact_stable")
        cfg_c = SimConfig(dt=1e-3, n_paths=1500, seed=22,
                          scheme="compound_poisson_gauss")
        spec = pr.cauchy_process()
        v1, _ = simulate_batch(spec, 0.0, GRID_01, cfg_e)
        v2, _ = simulate_batch(spec, 0.0, GRID_01, cfg_c)
        ks = stats.ks_2samp(v1[:, -1], v2[:, -1])
        assert ks.pvalue > 0.01

    def test_sign_flip_symmetry(self):
        spec = pr.stable_process(1.3)
        v1, _ = simulate_batch(spec, 0.0, GRID_01, SimConfig(n_paths=1500, seed=31))
        v2, _ = simulate_batch(spec, 0.0, GRID_01, SimConfig(n_paths=1500, seed=32))
        ks = stats.ks_2samp(v1[:, -1], -v2[:, -1])
        assert ks.pvalue > 0.01

    def test_halving_dt_stays_within_ci(self):
        spec = pr.cauchy_process()
        e1 = mc_event_probability(spec, 0.0, ("abs_at_least", 0.1, 0.5),
                                  SimConfig(dt=1e-3, n_paths=4000, seed=41))
        e2 = mc_event_probability(spec, 0.0, ("abs_at_least", 0.1, 0.5),
                                  SimConfig(dt=5e-4, n_paths=4000, seed=41))
        assert abs(e1.p_hat - e2.p_hat) <= e1.ci_half_width + e2.ci_half_width

    def test_freeze_symbol_reduces_to_levy(self):
        # constant order: frozen increments have exactly the stable law
        const_order = pr.variable_order_process(order_fn=lambda z: 1.2 * np.ones_like(np.asarray(z, float)))
        times = np.linspace(0.0, 0.2, 201)
        v1, _ = simulate_batch(const_order, 0.0, times, SimConfig(n_paths=1200, seed=51))
        v2, _ = simulate_batch(pr.stable_process(1.2), 0.0, times,
                               SimConfig(n_paths=1200, seed=52))
        ks = stats.ks_2samp(v1[:, -1], v2[:, -1])
        assert ks.pvalue > 0.01

    def test_family_without_stable_params_is_not_simulated(self):
        vo = pr.variable_order_process()
        bare = dataclasses.replace(
            vo, family=StateFamily(tail=vo.family.tail, trunc2=vo.family.trunc2))
        with pytest.raises(NotImplementedError, match="stable_params"):
            simulate_batch(bare, 0.0, GRID_01, SimConfig(n_paths=2))

    def test_sde_with_unit_coefficient_matches_driver(self):
        sde = pr.sde_process(coefficient=lambda z: np.ones_like(np.asarray(z, float)))
        times = np.linspace(0.0, 0.2, 201)
        v1, _ = simulate_batch(sde, 0.0, times, SimConfig(n_paths=1200, seed=61))
        v2, _ = simulate_batch(pr.cauchy_process(), 0.0, times,
                               SimConfig(n_paths=1200, seed=62))
        ks = stats.ks_2samp(v1[:, -1], v2[:, -1])
        assert ks.pvalue > 0.01

    def test_slow_variation_cpg_runs(self):
        spec = pr.slow_variation_process()
        cfg = SimConfig(dt=1e-4, n_paths=50, seed=71)
        times = np.linspace(0.0, 0.01, 101)
        values, runmax = simulate_batch(spec, 0.0, times, cfg)
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(runmax, axis=1) >= 0)


class TestEstimators:
    def test_survival_at_zero_is_one(self):
        ests = estimate_exit_survival(pr.cauchy_process(), 0.0, 0.5, [0.0, 0.05],
                                      SimConfig(n_paths=400, seed=81))
        assert ests[0].p_hat == 1.0 and ests[0].ci_half_width == 0.0

    def test_survival_monotone_in_t(self):
        ests = estimate_exit_survival(pr.cauchy_process(), 0.0, 0.5,
                                      [0.02, 0.05, 0.1],
                                      SimConfig(n_paths=800, seed=82))
        vals = [e.p_hat for e in ests]
        assert vals == sorted(vals, reverse=True)

    def test_survival_respects_bound(self):
        spec = pr.raw_stable_process(1.0)
        est = estimate_exit_survival(spec, 0.0, 0.5, [0.1],
                                     SimConfig(n_paths=3000, seed=83))[0]
        bound = 1.0 / (1.0 + 0.1 * 2.0)  # G(1) = 2
        assert est.p_hat <= bound + 3 * est.ci_half_width

    def test_runmax_dominates_endpoint_probability(self):
        spec = pr.cauchy_process()
        cfg = SimConfig(n_paths=1500, seed=84)
        a = mc_event_probability(spec, 0.0, ("runmax_at_least", 0.1, 0.5), cfg)
        b = mc_event_probability(spec, 0.0, ("abs_at_least", 0.1, 0.5), cfg)
        assert a.p_hat >= b.p_hat

    def test_unknown_event_kind_raises_before_simulating(self, no_simulation):
        with pytest.raises(ValueError, match="unknown event kind"):
            mc_event_probability(pr.cauchy_process(), 0.0, ("bogus", 1.0, 0.5),
                                 SimConfig(n_paths=2000))

    @pytest.mark.parametrize("t_grid, r", [([-0.1, 0.05], 0.5),
                                           ([0.02, float("nan")], 0.5),
                                           ([0.02, 0.05], float("nan")),
                                           ([0.02, 0.05], 0.0)])
    def test_survival_rejects_bad_input_before_simulating(self, no_simulation,
                                                         t_grid, r):
        with pytest.raises(ValueError, match="t_grid|r must"):
            estimate_exit_survival(pr.cauchy_process(), 0.0, r, t_grid,
                                   SimConfig(n_paths=200))

    @pytest.mark.parametrize("t, r", [(float("nan"), 0.5), (0.1, float("nan")),
                                      (-0.1, 0.5)])
    def test_event_rejects_nan_before_simulating(self, no_simulation, t, r):
        with pytest.raises(ValueError, match="positive"):
            mc_event_probability(pr.cauchy_process(), 0.0,
                                 ("runmax_at_least", t, r), SimConfig(n_paths=200))

    def test_wilson_fallback_for_rare_events(self):
        est = proportion_estimate(1, 50)
        assert est.ci_half_width > 0
        assert est.lower >= 0.0 and est.upper <= 1.0


@pytest.fixture
def no_simulation(monkeypatch):
    """Make any simulate_batch call fail, so validation must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulate_batch was called")
    monkeypatch.setattr(simulate, "simulate_batch", refuse)


def _peak_bytes(fn):
    """Peak traced allocation of fn() above what was allocated before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_expected_exit_keeps_no_copy_of_runmax(self):
        # simulate_batch's two outputs are the only paths x steps arrays;
        # the estimator adds exceedance flags (1/8 of one array) after the
        # values array is released
        spec, grid = pr.raw_stable_process(1.5), [(0.0, 0.25)]
        verify_bound_table(spec, 0.0, "expected_exit", grid, SimConfig(n_paths=2))
        cfg = SimConfig(n_paths=200, seed=3)
        rows = []
        peak = _peak_bytes(lambda: rows.extend(verify_bound_table(
            spec, 0.0, "expected_exit", grid, cfg)))
        n_times = max(int(np.ceil(rows[0].t / cfg.dt)), 1) + 1
        assert peak <= 2.5 * cfg.n_paths * n_times * 8

    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_stepper_peak_is_the_two_outputs(self, case):
        # every scheme draws its noise into the output rows, so beside
        # values and runmax it keeps O(paths + steps) scratch; a buffer of
        # one draw per path and step would add a whole array
        build, scheme = SCHEME_CASES[case]
        spec, times = build(), np.linspace(0.0, 0.5, 2001)
        # a small run first fills the spec's caches outside the traced call
        simulate_batch(spec, 0.0, GRID_IRREGULAR,
                       SimConfig(n_paths=2, scheme=scheme))
        cfg = SimConfig(n_paths=300, seed=2, scheme=scheme)
        peak = _peak_bytes(lambda: simulate_batch(spec, 0.0, times, cfg))
        assert peak <= 2.1 * cfg.n_paths * len(times) * 8


class TestBoundTables:
    GRID = [(t, r) for t in (0.02, 0.1) for r in (0.25, 0.5)]

    @pytest.mark.parametrize("kind", ["exit_survival", "expected_exit",
                                      "lower_max", "max_ineq"])
    @pytest.mark.parametrize("entry", [(-0.1, 0.5), (0.1, 0.0),
                                       (float("nan"), 0.5)])
    def test_bad_grid_entry_raises_before_simulating(self, no_simulation,
                                                     kind, entry):
        with pytest.raises(ValueError, match="grid entry"):
            verify_bound_table(pr.raw_stable_process(1.0), 0.0, kind,
                               [(0.02, 0.25), entry], SimConfig(n_paths=50))

    def test_exit_survival_zero_violations(self):
        rows = verify_bound_table(pr.raw_stable_process(1.0), 0.0,
                                  "exit_survival", self.GRID,
                                  SimConfig(n_paths=2000, seed=91))
        assert rows and not any(r.violated for r in rows)

    def test_expected_exit_zero_violations(self):
        rows = verify_bound_table(pr.raw_stable_process(1.0), 0.0,
                                  "expected_exit", self.GRID,
                                  SimConfig(n_paths=1000, seed=92))
        assert rows and not any(r.violated for r in rows)

    def test_lower_bound_zero_violations(self):
        rows = verify_bound_table(pr.raw_stable_process(1.0), 0.0, "lower_max",
                                  self.GRID, SimConfig(n_paths=2000, seed=93))
        assert not any(r.violated for r in rows)

    def test_max_ineq_reports_with_standin(self):
        rows = verify_bound_table(pr.raw_stable_process(1.0), 0.0, "max_ineq",
                                  self.GRID, SimConfig(n_paths=500, seed=94),
                                  c_standin=1.0)
        assert len(rows) == len(self.GRID)

    def test_max_ineq_honours_settings(self):
        # near x = pi/2 the intensity 1 + sin(z)/2 peaks inside the state
        # ball, so the ball resolution changes the sup-sup extremum
        spec, x = pr.stable_type_process(1.3), 1.5
        coarse = CriteriaSettings(ball_points=4, xi_radii=8)
        rows = verify_bound_table(spec, x, "max_ineq", self.GRID,
                                  SimConfig(n_paths=50, seed=94),
                                  settings=coarse)
        for row in rows:
            supsup = symbol_extremum(spec, x, row.r, 1.0 / row.r, "sup_sup",
                                     n_z=4, n_radii=8)
            assert supsup != symbol_extremum(spec, x, row.r, 1.0 / row.r,
                                             "sup_sup")
            assert row.bound == row.t * supsup

    def test_etemadi_comparison(self):
        spec = pr.raw_stable_process(1.0)
        cfg = SimConfig(n_paths=2000, seed=95)
        for t, r in [(0.05, 0.25), (0.1, 0.5)]:
            a = mc_event_probability(spec, 0.0, ("runmax_at_least", t, 3 * r), cfg)
            b = mc_event_probability(spec, 0.0, ("abs_at_least", t, r), cfg)
            assert a.p_hat <= 3 * b.p_hat + 3 * b.ci_half_width
