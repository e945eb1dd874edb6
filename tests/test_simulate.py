import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from levyup import measures as ms
from levyup import processes as pr
from levyup import simulate
from levyup.criteria import exit_bounds
from levyup.errors import RateOverflow
from levyup.growth import power
from levyup.limsup import dyadic_limsup_stats, dyadic_time_grid
from levyup.symbols import StateFamily
from levyup.simulate import (
    SimConfig,
    first_exit_times,
    path_rng,
    proportion_estimate,
    simulate_batch,
    verify_bound_table,
)

GRID_01 = np.linspace(0.0, 0.1, 101)

# short irregular grid: per-step sizes differ, so every dts-dependent
# coefficient of a scheme is exercised
GRID_IRREGULAR = np.concatenate([[0.0], np.cumsum(np.linspace(5e-4, 2e-3, 40))])

# long enough that a first-exit run takes windows of 64, 128, 256 and 52 steps
GRID_LONG = np.linspace(0.0, 0.5, 501)

# grids and times read through _paths_at: dyadic_limsup_stats's grid at
# every level, and a uniform grid whose times 16, 20 and 32 an absolute
# slack of 1e-15 would read one step early
COLUMN_CASES = {
    "dyadic": (dyadic_time_grid(4, 16), (0.0, *2.0 ** -np.arange(4.0, 17.0))),
    "grid_to": (simulate._grid_to(32.0, 0.1), (0.0, 16.0, 20.0, 32.0)),
}


def _stable_with_drift():
    spec = pr.stable_process(1.5)
    return dataclasses.replace(
        spec, levy=dataclasses.replace(spec.levy, b=np.array([0.3])),
        name="stable_drift")


# one builder per scheme and sampler, named by the scheme its spec takes
SCHEME_CASES = {
    "exact_stable-drift": _stable_with_drift,
    "cpg-one_sided_1.4": lambda: pr.one_sided_stable_process(1.4),
    "cpg-atom": lambda: pr.atom_process(radius=0.5, mass=40.0),
    "euler_sde-cauchy": pr.sde_process,
    "euler_sde-one_sided_1.4": lambda: pr.sde_process(driver=pr.one_sided_stable_process(1.4)),
    "freeze-variable_order": pr.variable_order_process,
    "freeze-stable_type_1.3": lambda: pr.stable_type_process(1.3),
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


MIXED_ATOMS = ((0.3, 20.0), (0.8, 10.0))


def _mixed_measure():
    """Two atoms above the cutoff over the raw stable(1.2) density, with
    unequal side weights: the one measure whose atom and continuous jumps
    interleave within one path."""
    base = ms.stable_measure(1.2, scale=1.0)

    def tail(r):
        r = np.asarray(r, float)
        return base.tail(r) + sum(m * (r < s) for s, m in MIXED_ATOMS)

    def trunc2(r):
        r = np.asarray(r, float)
        return base.trunc2(r) + sum(m * s**2 * (r >= s) for s, m in MIXED_ATOMS)

    return ms.LevyMeasureModel(tail=tail, trunc2=trunc2,
                               radial_density=base.radial_density,
                               side_weights=(0.35, 0.65), atoms=MIXED_ATOMS,
                               name="mixed")


def _mixed_process():
    # the symbol is never read by the path engine
    return pr.levy_process_from_measure(
        _mixed_measure(), b=0.2, symbol=lambda x, xi: np.zeros(xi.shape[:-1], complex))


# SHA-256 digests recorded before paths were finished a block at a time:
# the bytes of _mixed_measure().sample_jumps(5000, 0.05, path_rng(4, 0)),
# and the (values, runmax) bytes of simulate_batch(_mixed_process(), 0.25,
# GRID_IRREGULAR, SimConfig(n_paths=50, seed=17, path_offset=5))
MIXED_DIGESTS = {
    "sample_jumps": "89c55bae1b1b9175dc9a9fe1df8d36e5c68c72f17137fdea732351bec48b74dc",
    "simulate_batch": "0d3d7e001d8b5bc0966ef326bef103a59646a5c787c4dad95e45ba1bd2dac179",
}

BLOCK_CASES = {**SCHEME_CASES, "cpg-mixed": _mixed_process}


def estimates_at(spec, t, config, hit):
    """99% estimates, one per time in t, of the share of paths from 0 whose
    hit(value, runmax) at t holds, on the grid of step config.dt up to
    max(t): the estimators' numbers, from _paths_at and proportion_estimate."""
    t = np.atleast_1d(np.asarray(t, float))
    grid = simulate._grid_to(float(t.max()), config.dt)
    values, runmax = simulate._paths_at(spec, 0.0, grid, t, config)
    return [proportion_estimate(np.sum(hit(v, m)), config.n_paths)
            for v, m in zip(values.T, runmax.T)]


def stable_sample(seed, alpha, size):
    """size symmetric alpha-stable draws from path 0's stream of seed, parked
    and finished as _stable_sampler does (unit scale, no drift)."""
    u, w = np.empty(size), np.empty(size)
    simulate._park_cms(path_rng(seed, 0), u, w)
    return simulate._cms_symmetric(simulate._angles(u), w, alpha)


def levy_increments(triplet, dt, delta, rng, n):
    """n successive increments over dt with jump cutoff delta, each a one-step
    path of _levy_sampler drawn from rng: its normal, its Poisson count,
    then its jump uniforms."""
    draw, finish = simulate._levy_sampler(triplet, np.array([dt]), delta)
    out = np.empty(n)
    for i in range(n):
        a, b = np.empty((1, 1)), np.empty((1, 1))
        finish(a, b, [draw(rng, a[0], b[0])], slice(None))
        out[i] = a[0, 0] + b[0, 0]
    return out


def _batch_digest(values, runmax):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(values, np.float64).tobytes())
    h.update(np.ascontiguousarray(runmax, np.float64).tobytes())
    return h.hexdigest()


class TestIncrements:
    def test_cauchy_unit_median(self):
        # |standard Cauchy| has median tan(pi/4) = 1
        d = stable_sample(7, 1.0, 200_000)
        assert np.median(np.abs(d)) == pytest.approx(1.0, rel=0.03)

    def test_symmetry_of_draws(self):
        d = stable_sample(8, 1.5, 100_000)
        assert np.mean(d > 0) == pytest.approx(0.5, abs=0.01)

    def test_stable_law_matches_scipy(self):
        d = stable_sample(9, 1.5, 30_000)
        # scipy's standard parametrization at beta=0 matches exponent |xi|^1.5
        ks = stats.kstest(d, stats.levy_stable(alpha=1.5, beta=0.0).cdf)
        assert ks.pvalue > 0.01

    def test_small_jump_surrogate_variance(self):
        # variance of the Gaussian surrogate is dt * trunc2(delta) = 0.4 dt;
        # dt small enough that steps containing a jump (rate 0.0013) are rare
        # and clearly separated from the 8-sigma Gaussian bulk
        raw = pr.raw_stable_process(1.5)
        assert float(raw.levy.measure.trunc2(0.01)) == pytest.approx(0.4)
        dt = 1e-6
        incs = levy_increments(raw.levy, dt, 0.01, path_rng(10, 0), 4000)
        small = incs[np.abs(incs) < 0.005]
        assert small.var() == pytest.approx(0.4 * dt, rel=0.1)

    def test_symmetric_increment_mean_zero(self):
        incs = levy_increments(pr.cauchy_process().levy, 1e-3, 0.05, path_rng(11, 0), 2000)
        med = np.median(incs)
        assert abs(med) < 0.005

    def test_rate_overflow(self):
        raw = pr.raw_stable_process(1.0)
        with pytest.raises(RateOverflow):
            simulate._levy_sampler(raw.levy, np.array([10_000.0]), 1e-4)


class TestPaths:
    def test_zero_process_constant(self):
        values, runmax = simulate_batch(pr.zero_process(), 0.7, simulate._grid_to(1.0, 1e-3),
                                        SimConfig(n_paths=1))
        assert np.all(values == 0.7)
        assert np.all(runmax == 0.0)

    def test_path_sample_invariants(self):
        values, runmax = simulate_batch(pr.cauchy_process(), 0.0, simulate._grid_to(0.5, 1e-3),
                                        SimConfig(n_paths=1, seed=3))
        values, runmax = values[0], runmax[0]
        assert values[0] == 0.0
        assert np.all(np.diff(runmax) >= 0)
        # runmax dominates the endpoint deviation at every index
        assert np.all(runmax >= np.abs(values - 0.0) - 1e-12)

    def test_reproducibility_bit_identical(self):
        cfg = SimConfig(n_paths=8, seed=123)
        v1, r1 = simulate_batch(pr.cauchy_process(), 0.0, GRID_01, cfg)
        v2, r2 = simulate_batch(pr.cauchy_process(), 0.0, GRID_01, cfg)
        assert np.array_equal(v1, v2) and np.array_equal(r1, r2)

    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_golden_output(self, case):
        build = SCHEME_CASES[case]
        cfg = SimConfig(n_paths=6, seed=17, path_offset=5)
        values, runmax = simulate_batch(build(), 0.25, GRID_IRREGULAR, cfg)
        assert values.shape == runmax.shape == (6, len(GRID_IRREGULAR))
        assert _batch_digest(values, runmax) == GOLDEN_DIGESTS[case]

    def test_mixed_measure_pins(self):
        jumps = _mixed_measure().sample_jumps(5000, 0.05, path_rng(4, 0))
        assert hashlib.sha256(jumps.tobytes()).hexdigest() == MIXED_DIGESTS["sample_jumps"]
        cfg = SimConfig(n_paths=50, seed=17, path_offset=5)
        out = simulate_batch(_mixed_process(), 0.25, GRID_IRREGULAR, cfg)
        assert _batch_digest(*out) == MIXED_DIGESTS["simulate_batch"]

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_block_size_changes_nothing(self, monkeypatch, case):
        # one path per block, three (the last block ragged), the default,
        # and every path in one block all give the same bytes
        build = BLOCK_CASES[case]
        spec, k = build(), len(GRID_IRREGULAR) - 1
        cfg = SimConfig(n_paths=110, seed=17, path_offset=5)
        default = _batch_digest(*simulate_batch(spec, 0.25, GRID_IRREGULAR, cfg))
        assert simulate.BLOCK // k < cfg.n_paths
        for block in (1, 3 * k, cfg.n_paths * k):
            monkeypatch.setattr(simulate, "BLOCK", block)
            out = simulate_batch(spec, 0.25, GRID_IRREGULAR, cfg)
            assert _batch_digest(*out) == default, block

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("n", [1, 3, 110])
    @pytest.mark.parametrize("window, times", [(1, GRID_IRREGULAR), (3, GRID_IRREGULAR),
                                               (simulate.EXIT_WINDOW, GRID_LONG)])
    def test_first_exits_match_a_scan_of_runmax(self, monkeypatch, case, n, window, times):
        # windows that start at 1 or 3 steps and double cut the rows at
        # ragged places; the default takes several windows of GRID_LONG only
        build = BLOCK_CASES[case]
        spec = build()
        cfg = SimConfig(n_paths=n, seed=17, path_offset=5)
        runmax = simulate_batch(spec, 0.25, times, cfg)[1]
        monkeypatch.setattr(simulate, "EXIT_WINDOW", window)
        for r in (0.05, 0.3):
            exceed = runmax >= r
            never = ~exceed.any(axis=1)
            want = np.where(never, times[-1], times[exceed.argmax(axis=1)])
            tau, censored = first_exit_times(spec, 0.25, times, r, cfg)
            assert np.array_equal(tau, want), r
            assert np.array_equal(censored, never), r
        if n == 110 and times is GRID_IRREGULAR:
            assert 0 < never.sum() < n  # some paths at r = 0.3 are censored

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("n", [1, 3, 110])
    @pytest.mark.parametrize("per_block", [1, 3])
    @pytest.mark.parametrize("grid", sorted(COLUMN_CASES))
    def test_columns_match_simulate_batch(self, monkeypatch, case, n, per_block, grid):
        # the estimators' reads equal simulate_batch's columns at the grid
        # times they stand for, with one or three paths per block, and with
        # a state-dependent time loop in windows of 1, 3 or the default
        # number of steps (a Levy scheme takes one window whatever the size)
        build = BLOCK_CASES[case]
        spec, (times, ts) = build(), COLUMN_CASES[grid]
        cfg = SimConfig(n_paths=n, seed=17, path_offset=5)
        values, runmax = simulate_batch(spec, 0.25, times, cfg)
        cols = [int(np.flatnonzero(times == t).item()) for t in ts]
        monkeypatch.setattr(simulate, "BLOCK", per_block * (len(times) - 1))
        for window in (1, 3, simulate.COLUMN_WINDOW):
            monkeypatch.setattr(simulate, "COLUMN_WINDOW", window)
            got_values, got_runmax = simulate._paths_at(spec, 0.25, times, ts, cfg)
            assert np.array_equal(got_values, values[:, cols]), window
            assert np.array_equal(got_runmax, runmax[:, cols]), window

    @pytest.mark.parametrize("steps", [41, 42, 43])
    def test_windows_resume_exponentials_at_any_word(self, monkeypatch, steps):
        # a path's exponentials start at word k, part way into a counter
        # step unless 4 divides k; windows of 3 steps resume mid-step too
        times, cfg = np.linspace(0.0, 0.1, steps + 1), SimConfig(n_paths=5, seed=3)
        monkeypatch.setattr(simulate, "COLUMN_WINDOW", 3)
        monkeypatch.setattr(simulate, "EXIT_WINDOW", 3)
        vo = pr.variable_order_process()
        values, runmax = simulate_batch(vo, 0.25, times, cfg)
        got_values, got_runmax = simulate._paths_at(vo, 0.25, times, times, cfg)
        assert np.array_equal(got_values, values) and np.array_equal(got_runmax, runmax)
        runmax = simulate_batch(pr.stable_process(1.5), 0.25, times, cfg)[1]
        exceed = runmax >= 0.1
        tau = first_exit_times(pr.stable_process(1.5), 0.25, times, 0.1, cfg)[0]
        assert np.array_equal(tau, np.where(exceed.any(axis=1), times[exceed.argmax(axis=1)],
                                            times[-1]))

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"seed": 2**64}, {"seed": 1.0}, {"path_offset": -1},
        {"path_offset": 2**64 - 3, "n_paths": 4}, {"path_offset": 0.5},
        {"dt": float("nan")}, {"dt": float("inf")}, {"dt": 0.0}, {"dt": -1e-3},
        {"n_paths": 2.5}, {"n_paths": 0}])
    def test_config_rejects_what_would_fail_later(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_config_accepts_the_edges_of_the_key_space(self):
        cfg = SimConfig(n_paths=2, seed=2**64 - 1, path_offset=2**64 - 2)
        values, runmax = simulate_batch(pr.cauchy_process(), 0.0, GRID_IRREGULAR, cfg)
        assert np.isfinite(values).all() and np.isfinite(runmax).all()
        assert SimConfig(n_paths=np.int64(3), seed=np.uint64(7)).n_paths == 3

    @pytest.mark.parametrize("seed,offset", [(0, 0), (17, 5), (3, 2**40), (2**50, 2**64 - 2)])
    def test_rekeyed_streams_match_path_rng(self, seed, offset):
        # path indices stop at 2^64 - 1: a larger one would share its key
        # with a path of the next seed
        cfg = SimConfig(n_paths=min(4, 2**64 - offset), seed=seed, path_offset=offset)
        streams = simulate._Streams(cfg, None, 1)
        for p in range(cfg.n_paths):
            rng = streams._seek(streams.u, p, 0)  # the whole-horizon re-key
            ref = path_rng(seed, offset + p)
            # normal draws leave a buffered word that the next key must clear
            assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(rng.integers(0, 2**31, 3, dtype=np.int32),
                                  ref.integers(0, 2**31, 3, dtype=np.int32))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("case", ["cauchy"] + sorted(SCHEME_CASES))
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), offset=st.integers(0, 2**64 - 40),
           cuts=st.tuples(st.floats(0, 1), st.floats(0, 1)))
    def test_chunking_matches_unchunked(self, case, n, offset, cuts):
        # one call against the calls for the (possibly empty) pieces that two
        # split points cut, each starting at its own path_offset
        build = SCHEME_CASES.get(case, pr.cauchy_process)
        spec = build()
        cfg = SimConfig(n_paths=n, seed=5, path_offset=offset)
        whole = simulate_batch(spec, 0.0, GRID_IRREGULAR, cfg)
        bounds = [0, *sorted(int(c * n) for c in cuts), n]
        parts = [simulate_batch(spec, 0.0, GRID_IRREGULAR, dataclasses.replace(
                     cfg, n_paths=hi - lo, path_offset=offset + lo))
                 for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        for out, split in zip(whole, zip(*parts)):
            assert np.array_equal(out, np.vstack(split))

    def test_endpoint_law_cauchy(self):
        # P(|X_1| > 1) = 1/2 for the standard Cauchy law at t = 1
        est, = estimates_at(pr.cauchy_process(), 1.0, SimConfig(dt=1e-3, n_paths=4000, seed=11),
                            lambda v, m: np.abs(v) >= 1.0)
        assert abs(est.p_hat - 0.5) <= max(est.ci_half_width, 0.025)

    def test_cpg_vs_exact_same_law(self):
        # compound-Poisson + Gaussian surrogate approximates the exact law;
        # the Cauchy process without its stable_family takes that scheme
        spec = pr.cauchy_process()
        v1, _ = simulate_batch(spec, 0.0, GRID_01, SimConfig(dt=1e-3, n_paths=1500, seed=21))
        v2, _ = simulate_batch(dataclasses.replace(spec, stable_family=None), 0.0, GRID_01,
                               SimConfig(dt=1e-3, n_paths=1500, seed=22))
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
        e1, = estimates_at(spec, 0.1, SimConfig(dt=1e-3, n_paths=4000, seed=41),
                           lambda v, m: np.abs(v) >= 0.5)
        e2, = estimates_at(spec, 0.1, SimConfig(dt=5e-4, n_paths=4000, seed=41),
                           lambda v, m: np.abs(v) >= 0.5)
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
        # every path is in the ball at t = 0, so the t = 0 row reads 1
        # against the bound 1/(1 + 0 G) = 1
        row = verify_bound_table(pr.cauchy_process(), 0.0, "exit_survival",
                                 [(0.0, 0.5), (0.05, 0.5)],
                                 SimConfig(n_paths=400, seed=81))[0]
        assert (row.t, row.empirical, row.bound, row.violated) == (0.0, 1.0, 1.0, False)

    def test_survival_monotone_in_t(self):
        ests = estimates_at(pr.cauchy_process(), [0.02, 0.05, 0.1],
                            SimConfig(n_paths=800, seed=82), lambda v, m: m < 0.5)
        vals = [e.p_hat for e in ests]
        assert vals == sorted(vals, reverse=True)

    def test_survival_respects_bound(self):
        spec = pr.raw_stable_process(1.0)
        est, = estimates_at(spec, 0.1, SimConfig(n_paths=3000, seed=83), lambda v, m: m < 0.5)
        bound = 1.0 / (1.0 + 0.1 * 2.0)  # G(1) = 2
        assert est.p_hat <= bound + 3 * est.ci_half_width

    def test_runmax_dominates_endpoint_probability(self):
        spec = pr.cauchy_process()
        cfg = SimConfig(n_paths=1500, seed=84)
        a, = estimates_at(spec, 0.1, cfg, lambda v, m: m >= 0.5)
        b, = estimates_at(spec, 0.1, cfg, lambda v, m: np.abs(v) >= 0.5)
        assert a.p_hat >= b.p_hat

    def test_unknown_event_kind_raises_before_simulating(self, no_simulation):
        with pytest.raises(ValueError, match="unknown bound kind"):
            verify_bound_table(pr.cauchy_process(), 0.0, "bogus", [(1.0, 0.5)],
                               SimConfig(n_paths=2000))

    @pytest.mark.parametrize("t_grid, r", [([-0.1, 0.05], 0.5),
                                           ([0.02, float("nan")], 0.5),
                                           ([0.02, 0.05], float("nan")),
                                           ([0.02, 0.05], 0.0),
                                           ([0.02, float("inf")], 0.5),
                                           ([0.02, 0.05], float("inf"))])
    def test_survival_rejects_bad_input_before_simulating(self, no_simulation,
                                                         t_grid, r):
        with pytest.raises(ValueError, match="grid entry"):
            verify_bound_table(pr.cauchy_process(), 0.0, "exit_survival",
                               [(t, r) for t in t_grid], SimConfig(n_paths=200))

    @pytest.mark.parametrize("t, r", [(float("nan"), 0.5), (0.1, float("nan")),
                                      (-0.1, 0.5), (float("inf"), 0.5),
                                      (0.1, float("inf"))])
    def test_event_rejects_nan_before_simulating(self, no_simulation, t, r):
        # the running-maximum event tables; t = inf once raised OverflowError
        # from the grid
        for kind in ("lower_max", "max_ineq"):
            with pytest.raises(ValueError, match="grid entry"):
                verify_bound_table(pr.cauchy_process(), 0.0, kind, [(t, r)],
                                   SimConfig(n_paths=200))

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 0.0, -0.1])
    def test_first_exit_rejects_bad_r_before_simulating(self, no_simulation, r):
        # r = nan or inf once censored every path, r <= 0 exited every path
        # at the first step
        with pytest.raises(ValueError, match="r must be positive and finite"):
            first_exit_times(pr.cauchy_process(), 0.0, GRID_01, r, SimConfig(n_paths=20))

    @pytest.mark.parametrize("times", [
        pytest.param(np.append(GRID_01, float("nan")), id="nan"),
        pytest.param(np.append(GRID_01, float("inf")), id="inf"),
        # one time once raised ZeroDivisionError (cauchy and the time loop alike) in
        # the engine, or censored every path at t = 0; no time an IndexError, and a
        # 2-d grid numpy's ambiguous truth value
        pytest.param([0.0], id="one_time"),
        pytest.param([], id="empty"),
        pytest.param(np.stack([GRID_01, GRID_01]), id="2d"),
    ])
    def test_engine_rejects_non_finite_times_before_simulating(self, no_simulation, times):
        for entry in (lambda cfg: simulate_batch(pr.cauchy_process(), 0.0, times, cfg),
                      lambda cfg: first_exit_times(pr.cauchy_process(), 0.0, times, 0.5, cfg),
                      lambda cfg: simulate._paths_at(pr.cauchy_process(), 0.0, times, [0.05], cfg)):
            with pytest.raises(ValueError, match="times must be finite"):
                entry(SimConfig(n_paths=20))
        with pytest.raises(ValueError, match="times must be finite"):
            simulate_batch(pr.variable_order_process(), 0.0, times, SimConfig(n_paths=3))

    def test_wilson_fallback_for_rare_events(self):
        est = proportion_estimate(1, 50)
        # the Wilson half-width covers the interval around its shifted centre,
        # which is wider than the normal approximation's at p = 0.02
        wald = simulate._Z99 * np.sqrt(0.02 * 0.98 / 50)
        assert est.p_hat == 0.02 and est.ci_half_width > wald > 0


@pytest.fixture
def no_simulation(monkeypatch):
    """Make the path engine, which every reducer runs through, fail, so
    validation must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("the path engine was called")
    monkeypatch.setattr(simulate, "_step", refuse)


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


# the state-dependent schemes whose estimators run their time loop in windows
STATE_CASES = ["freeze-variable_order", "freeze-stable_type_1.3", "euler_sde-cauchy"]


class TestMemory:
    def test_expected_exit_keeps_no_copy_of_runmax(self):
        # the exit-time reducer keeps no paths x steps array: its peak stays
        # under a fifth of one such array's bytes (this run needs 0.09)
        spec, grid = pr.raw_stable_process(1.5), [(0.0, 0.25)]
        verify_bound_table(spec, 0.0, "expected_exit", grid, SimConfig(n_paths=2))
        cfg = SimConfig(n_paths=200, seed=3)
        rows = []
        peak = _peak_bytes(lambda: rows.extend(verify_bound_table(
            spec, 0.0, "expected_exit", grid, cfg)))
        n_times = max(int(np.ceil(rows[0].t / cfg.dt)), 1) + 1
        assert peak <= 0.2 * cfg.n_paths * n_times * 8

    @pytest.mark.parametrize("build", [lambda: pr.raw_stable_process(1.5),
                                       pr.variable_order_process],
                             ids=["exact_stable", "freeze_symbol"])
    def test_expected_exit_peak_does_not_grow_with_the_horizon(self, monkeypatch, build):
        # paths stop at their exit, so a horizon four times as long adds at
        # most one window of every path plus the per-step vectors (the grid,
        # its steps and the stable sampler's scale and drift)
        spec, grid = build(), [(0.0, 0.25)]
        verify_bound_table(spec, 0.0, "expected_exit", grid, SimConfig(n_paths=2))
        cfg, peaks, steps = SimConfig(n_paths=200, seed=3), [], []
        for factor in (1, 4):
            monkeypatch.setattr(simulate, "EXIT_HORIZON", 8.0 * factor)
            rows = []
            peaks.append(_peak_bytes(lambda: rows.extend(verify_bound_table(
                spec, 0.0, "expected_exit", grid, cfg))))
            steps.append(int(np.ceil(rows[0].t / cfg.dt)))
        window = 2 * cfg.n_paths * simulate.EXIT_WINDOW * 8
        assert peaks[1] - peaks[0] <= window + 4 * 8 * (steps[1] - steps[0])
        assert peaks[1] < 0.1 * cfg.n_paths * steps[1] * 8

    @pytest.mark.parametrize("build", [lambda: pr.stable_process(1.5),
                                       lambda: pr.one_sided_stable_process(1.4),
                                       *(SCHEME_CASES[case] for case in STATE_CASES)],
                             ids=["exact_stable", "compound_poisson_gauss", *STATE_CASES])
    def test_limsup_stats_keep_columns_only(self, build):
        # the column reducer keeps paths x levels values and finishes each
        # block of paths in scratch rows, and a state-dependent time loop
        # runs in windows of COLUMN_WINDOW steps: the peak stays under a
        # fifth of one paths x steps array (the Levy runs need 0.05, the
        # state-dependent ones 0.86, most of it two paths x window arrays)
        spec, f = build(), power(0.5)
        dyadic_limsup_stats(spec, 0.0, f, 4, 16, SimConfig(n_paths=2))
        cfg = SimConfig(n_paths=300, seed=1)
        peak = _peak_bytes(lambda: dyadic_limsup_stats(spec, 0.0, f, 4, 16, cfg))
        assert peak <= 0.2 * cfg.n_paths * len(dyadic_time_grid(4, 16)) * 8

    def test_exit_survival_table_keeps_columns_only(self):
        # as above for a bound table read at six grid times (this run
        # needs 0.08; its O(BLOCK) scratch is most of that)
        spec, grid = pr.raw_stable_process(1.0), [
            (t, r) for t in (0.1, 0.5, 1.0) for r in (0.25, 0.5)]
        verify_bound_table(spec, 0.0, "exit_survival", grid, SimConfig(n_paths=2))
        cfg = SimConfig(n_paths=500, seed=1)
        peak = _peak_bytes(lambda: verify_bound_table(
            spec, 0.0, "exit_survival", grid, cfg))
        assert peak <= 0.2 * cfg.n_paths * (int(1.0 / cfg.dt) + 1) * 8

    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_stepper_peak_is_the_two_outputs(self, case):
        # every scheme draws its noise into the output rows, so beside
        # values and runmax it keeps O(paths + steps) scratch; a buffer of
        # one draw per path and step would add a whole array
        build = SCHEME_CASES[case]
        spec, times = build(), np.linspace(0.0, 0.5, 2001)
        # a small run first fills the spec's caches outside the traced call
        simulate_batch(spec, 0.0, GRID_IRREGULAR, SimConfig(n_paths=2))
        cfg = SimConfig(n_paths=300, seed=2)
        peak = _peak_bytes(lambda: simulate_batch(spec, 0.0, times, cfg))
        assert peak <= 2.1 * cfg.n_paths * len(times) * 8


class TestBoundTables:
    GRID = [(t, r) for t in (0.02, 0.1) for r in (0.25, 0.5)]

    @pytest.mark.parametrize("kind", ["exit_survival", "expected_exit",
                                      "lower_max", "max_ineq"])
    @pytest.mark.parametrize("entry", [(-0.1, 0.5), (0.1, 0.0),
                                       (float("nan"), 0.5), (float("inf"), 0.5),
                                       (0.1, float("inf"))])
    def test_bad_grid_entry_raises_before_simulating(self, no_simulation,
                                                     kind, entry):
        # t = inf once raised OverflowError from the grid, and r = inf gave
        # rows that could not be violated (bounds 1, 0 and inf)
        with pytest.raises(ValueError, match="grid entry"):
            verify_bound_table(pr.raw_stable_process(1.0), 0.0, kind,
                               [(0.02, 0.25), entry], SimConfig(n_paths=50))

    @pytest.mark.parametrize("kind", ["exit_survival", "expected_exit",
                                      "lower_max", "max_ineq"])
    def test_empty_grid_raises_before_simulating(self, no_simulation, kind):
        # an empty grid once raised "max() arg is an empty sequence", and
        # expected_exit returned no rows
        with pytest.raises(ValueError, match="grid must hold"):
            verify_bound_table(pr.raw_stable_process(1.0), 0.0, kind, [],
                               SimConfig(n_paths=50))

    @pytest.mark.parametrize("kind", ["exit_survival", "expected_exit",
                                      "lower_max", "max_ineq"])
    @pytest.mark.parametrize("c_lower", [-0.1, 1.5, float("nan")])
    def test_bad_c_lower_raises_before_simulating(self, no_simulation, kind,
                                                  c_lower):
        # c_lower = 1.5 once wrote lower_max rows with a negative bound
        with pytest.raises(ValueError, match="c_lower must lie in"):
            verify_bound_table(pr.raw_stable_process(1.0), 0.0, kind, self.GRID,
                               SimConfig(n_paths=50), c_lower=c_lower)

    @pytest.mark.parametrize("t, r", [(float("nan"), 0.5), (0.1, float("nan")),
                                      (-0.1, 0.5), (0.1, 0.0), (float("inf"), 0.5)])
    def test_exit_bounds_reject_bad_t_or_r(self, no_simulation, t, r):
        # NaN once passed the range check and gave NaN factors, and t = inf
        # gave NaN survival, shape and lower factors
        with pytest.raises(ValueError, match="need t >= 0 and r > 0"):
            exit_bounds(pr.raw_stable_process(1.0), 0.0, t, r)

    # x = nan once gave exit_survival rows with bound=nan, violated=False, and
    # x = [0.3, 0.9] the rows and paths of x = 0.3
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), [0.3, 0.9], np.zeros((1, 1))])
    @pytest.mark.parametrize("name", ["variable_order", "raw_stable"])
    def test_non_finite_start_raises_before_simulating(self, no_simulation, monkeypatch,
                                                       name, x):
        def refuse(*args, **kwargs):
            raise AssertionError("G(x, 2r) was computed before the check of x")

        monkeypatch.setattr(simulate, "ball_tail_intensity", refuse)
        spec = {"variable_order": pr.variable_order_process,
                "raw_stable": lambda: pr.raw_stable_process(1.5)}[name]()
        cfg, times = SimConfig(n_paths=50), np.linspace(0.0, 0.1, 11)
        entries = [lambda kind=kind: verify_bound_table(spec, x, kind, [(0.05, 0.1)], cfg)
                   for kind in ("exit_survival", "expected_exit", "lower_max", "max_ineq")]
        entries += [lambda: dyadic_limsup_stats(spec, x, power(0.8), 4, 8, cfg),
                    lambda: simulate_batch(spec, x, times, cfg),
                    lambda: simulate.first_exit_times(spec, x, times, 0.1, cfg),
                    lambda: simulate._paths_at(spec, x, times, [0.05], cfg)]
        for entry in entries:
            with pytest.raises(ValueError, match="x must be finite with 1 coordinate"):
                entry()

    @pytest.mark.parametrize("name", ["variable_order", "raw_stable"])
    def test_one_coordinate_starts_agree(self, name):
        spec = {"variable_order": pr.variable_order_process,
                "raw_stable": lambda: pr.raw_stable_process(1.5)}[name]()
        cfg = SimConfig(n_paths=20, seed=3)
        runs = [simulate_batch(spec, x, GRID_IRREGULAR, cfg)
                for x in (0.3, [0.3], np.array(0.3), np.array([0.3]))]
        assert len({_batch_digest(*run) for run in runs}) == 1

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
                                  self.GRID, SimConfig(n_paths=500, seed=94))
        assert len(rows) == len(self.GRID)

    def test_etemadi_comparison(self):
        spec = pr.raw_stable_process(1.0)
        cfg = SimConfig(n_paths=2000, seed=95)
        for t, r in [(0.05, 0.25), (0.1, 0.5)]:
            a, = estimates_at(spec, t, cfg, lambda v, m: m >= 3 * r)
            b, = estimates_at(spec, t, cfg, lambda v, m: np.abs(v) >= r)
            assert a.p_hat <= 3 * b.p_hat + 3 * b.ci_half_width
