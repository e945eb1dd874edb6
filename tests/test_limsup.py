import numpy as np
import pytest

from levyup import processes as pr
from levyup.growth import power, sqrt_loglog
from levyup.limsup import (
    EXAMPLE_NAMES,
    DyadicStats,
    dyadic_limsup_stats,
    dyadic_time_grid,
    reproduce_example,
    trend_classify,
)
from levyup.simulate import SimConfig

CFG = SimConfig(n_paths=300, seed=3)


def series_max(n_terms=10_000):
    """max over t of the level-subsampling series sum_{n <= n_terms}
    n^{-2} t^{1/n} log(1/t), on 600 log-spaced t in [1e-6, 0.1] and 1400
    evenly spaced ones in [0.1, 0.999], 200 t at a time."""
    t_all = np.concatenate([np.logspace(-6, -1, 600), np.linspace(0.1, 0.999, 1400)])
    n = np.arange(1, n_terms + 1, dtype=float)[:, None]
    return max(float((np.exp(np.log(t) / n) * -np.log(t) / n**2).sum(axis=0).max())
               for t in np.split(t_all, 10))


class TestDyadicGrid:
    def test_grid_structure(self):
        times = dyadic_time_grid(4, 10)
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)
        assert times[-1] == pytest.approx(2.0**-4)
        # every dyadic anchor is on the grid
        for n in range(4, 11):
            assert np.any(np.isclose(times, 2.0**-n))

    def test_resolution_inside_each_level(self):
        times = dyadic_time_grid(4, 10)
        for n in range(4, 11):
            inside = (times > 2.0 ** -(n + 1)) & (times <= 2.0**-n)
            assert inside.sum() == 256


class TestDyadicStats:
    def test_quantiles_ordered(self):
        st = dyadic_limsup_stats(pr.cauchy_process(), 0.0, power(0.8), 4, 12, CFG)
        assert np.all(st.q10 <= st.median) and np.all(st.median <= st.q90)
        assert np.all(np.diff(st.levels) == 1)

    def test_scaling_collapse_for_cauchy(self):
        # sup_{s<=t}|X_s| ~ t S in law: 2^{n(1-kappa)} * median(M_n) is level-free
        st = dyadic_limsup_stats(pr.cauchy_process(), 0.0, power(0.8), 4, 14,
                                 SimConfig(n_paths=800, seed=5))
        rescaled = st.median * 2.0 ** (st.levels * 0.2)
        assert rescaled.max() / rescaled.min() < 1.8

    def test_zero_process(self):
        st = dyadic_limsup_stats(pr.zero_process(), 0.0, power(0.8), 4, 10, CFG)
        assert np.all(st.median == 0.0)

    def test_level_cap(self):
        with pytest.raises(ValueError):
            dyadic_limsup_stats(pr.cauchy_process(), 0.0, power(0.8), 4, 24, CFG)

    def test_levels_stay_in_the_unit_interval(self):
        # n_min = -3 once ran on t up to 8, outside f's domain (0, 1]
        with pytest.raises(ValueError, match="n_min must be non-negative"):
            dyadic_limsup_stats(pr.cauchy_process(), 0.0, sqrt_loglog(), -3, 4,
                                SimConfig(n_paths=20))


class TestTrendClassify:
    def test_cauchy_dichotomy_labels(self):
        st = dyadic_limsup_stats(pr.cauchy_process(), 0.0, power(0.8), 4, 16, CFG)
        assert trend_classify(st).label == "tends_zero"
        st = dyadic_limsup_stats(pr.cauchy_process(), 0.0, power(1.25), 4, 16, CFG)
        assert trend_classify(st).label == "grows"

    def test_slow_variation_flat_near_band(self):
        st = dyadic_limsup_stats(pr.slow_variation_process(), 0.0,
                                 power(0.5), 4, 16, SimConfig(n_paths=300, seed=9))
        v = trend_classify(st)
        assert v.label == "flat"
        assert np.sqrt(2) / 2 <= st.median[-1] <= 2 * np.sqrt(2)

    def test_log_smooth_tends_to_zero(self):
        # finite jump mass: a path sits still until its first jump, so every
        # power is an upper function; the exact compound-Poisson paths show it
        st = dyadic_limsup_stats(pr.log_smooth_process(), 0.0, power(0.6), 4, 16, CFG)
        assert trend_classify(st).label == "tends_zero"

    def test_monotone_response_in_kappa(self):
        # raising kappa never moves the verdict toward tends_zero
        order = {"tends_zero": 0, "flat": 1, "noisy": 1, "grows": 2}
        labels = []
        for kappa in (0.7, 1.0, 1.3):
            st = dyadic_limsup_stats(pr.cauchy_process(), 0.0, power(kappa),
                                     4, 14, CFG)
            labels.append(order[trend_classify(st).label])
        assert labels == sorted(labels)

    def test_needs_six_levels(self):
        st = dyadic_limsup_stats(pr.cauchy_process(), 0.0, power(0.8), 4, 8, CFG)
        with pytest.raises(ValueError):
            trend_classify(st)

    def test_noisy_band(self):
        stats = DyadicStats(
            levels=np.arange(4, 12),
            t_values=2.0 ** -np.arange(4, 12, dtype=float),
            q10=np.full(8, 1e-4),
            median=np.ones(8),
            q90=np.full(8, 15.0),
            mean_log=np.zeros(8),
        )
        assert trend_classify(stats).label == "noisy"


class TestReproduceExamples:
    def test_stable_dichotomy(self):
        rep = reproduce_example("StableDichotomy", n_paths=400, n_max=16, seed=0)
        assert rep.analytic["kappa=0.8"].outcome == "zero"
        assert rep.analytic["kappa=1.25"].outcome == "infinity"
        assert rep.empirical["kappa=0.8"].label == "tends_zero"
        assert rep.empirical["kappa=1.25"].label == "grows"
        assert rep.agree

    def test_slow_variation(self):
        rep = reproduce_example("SlowVariation", n_paths=300, n_max=15, seed=0)
        assert rep.analytic["sqrt"].outcome == "indeterminate"
        assert rep.empirical["sqrt"].label == "flat"
        assert rep.agree

    def test_variable_order(self):
        rep = reproduce_example("VariableOrder", n_paths=300, n_max=16, seed=0)
        assert rep.analytic["kappa=0.6"].outcome == "zero"
        assert rep.empirical["kappa=0.45"].label == "tends_zero"
        assert rep.agree

    def test_sqrt_t_law(self):
        rep = reproduce_example("SqrtTLaw", n_paths=300, n_max=15, seed=0)
        assert rep.analytic["power=1/2"].outcome == "zero"
        assert rep.empirical["power=1/2"].label == "tends_zero"
        assert rep.agree

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            reproduce_example("NoSuchExample")

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_all_examples_report_rows(self, name):
        rep = reproduce_example(name, n_paths=120, n_min=4, n_max=12, seed=2)
        rows = rep.rows()
        assert rows and all(len(r) == 5 for r in rows)


class TestSeriesBound:
    def test_bounded_by_two(self):
        assert series_max() <= 2.0 + 1e-9

    def test_increasing_in_terms(self):
        small = series_max(n_terms=100)
        big = series_max(n_terms=2000)
        assert big >= small - 1e-12
