import json
from pathlib import Path

import numpy as np
import pytest

from levyup import measures as ms
from levyup.errors import ZeroTail
from levyup.simulate import path_rng


class TestStableMeasure:
    def test_concentration_closed_form_alpha1(self):
        # raw measure |y|^{-2} dy: G(r) = 2/r, trunc2(r) = 2r
        m = ms.stable_measure(1.0, scale=1.0)
        c = m.concentration(0.5)
        assert c.G == pytest.approx(4.0)
        assert c.K == pytest.approx(4.0)
        assert c.h == pytest.approx(8.0)
        assert c.I == pytest.approx(0.25 * 8.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_tail_and_trunc2_match_density_integral(self, alpha):
        m = ms.stable_measure(alpha, scale=1.0)
        m.validate()  # includes the density/tail shell consistency check

    def test_identity_I_equals_r2_h(self):
        m = ms.stable_measure(1.3)
        for r in (0.01, 0.3, 2.0):
            c = m.concentration(r)
            assert c.I == pytest.approx(r**2 * c.h, rel=1e-14)

    def test_monotonicity_on_grid(self):
        m = ms.stable_measure(0.7)
        r = np.logspace(-5, 1, 50)
        g = m.tail(r)
        t2 = m.trunc2(r)
        assert np.all(np.diff(g) <= 0)
        assert np.all(np.diff(t2) >= 0)

    def test_normalization_matches_pi_for_cauchy(self):
        assert ms.stable_normalization(1.0) == pytest.approx(1.0 / np.pi)


class TestSlowVariationMeasure:
    def test_trunc2_is_the_slowly_varying_profile(self):
        m = ms.slow_variation_measure()
        for r in (1e-3, 1e-5, 1e-8):
            expected = 1.0 / np.log(np.log(1.0 / r))
            assert float(m.trunc2(r)) == pytest.approx(expected, rel=1e-12)

    def test_levy_integrability(self):
        m = ms.slow_variation_measure()
        assert float(m.trunc2(1.0)) + float(m.tail(1.0)) < np.inf
        m.validate(r_grid=np.logspace(-5, -1.5, 15))

    def test_tail_asymptotic_shape(self):
        # G(r) ~ r^{-2} / (2 log(1/r) (log log(1/r))^2) as r -> 0
        m = ms.slow_variation_measure()
        for r in (1e-6, 1e-8):
            approx = 0.5 * r**-2 / (np.log(1 / r) * np.log(np.log(1 / r)) ** 2)
            assert float(m.tail(r)) == pytest.approx(approx, rel=0.25)


    def test_tail_matches_recorded_values(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "slow_tail_golden.json").read_text())
        m = ms.slow_variation_measure()
        assert m.tail(np.array(golden["r"])).tolist() == golden["tail"]
        assert [m.tail(r) for r in golden["r"]] == golden["tail"]

    def test_tail_takes_arrays_of_any_order_and_shape(self):
        m = ms.slow_variation_measure()
        r = np.concatenate([np.logspace(-14, -1.5, 30), [np.exp(-np.e), 0.07, 0.5, 3.0]])
        r = path_rng(4, 0).permutation(r).reshape(2, 17)
        out = m.tail(r)
        assert out.shape == r.shape
        assert out.ravel().tolist() == [m.tail(ri) for ri in r.ravel()]
        assert all(type(m.tail(ri)) is float for ri in r.ravel())
        assert np.all((out == 0.0) == (r >= np.exp(-np.e)))

    @pytest.mark.parametrize("r", [1e-12, 1e-6, 1e-3, 0.05])
    def test_tail_matches_a_quadpack_oracle(self, r):
        from scipy import integrate

        # G(r) = int_r^edge rho(s) ds = int s rho(s) du over u = log s, on
        # unit sub-ranges of u; s rho(s) = 1 / (s^2 log(1/s) (log log(1/s))^2)
        def s_rho(u):
            v = -u
            return np.exp(2.0 * v) / (v * np.log(v) ** 2)

        edges = np.append(np.arange(np.log(r), -np.e, 1.0), -np.e)
        ref = sum(integrate.quad(s_rho, a, b, epsabs=0.0, epsrel=1e-13)[0]
                  for a, b in zip(edges[:-1], edges[1:]))
        assert ms.slow_variation_measure().tail(r) == pytest.approx(ref, rel=1e-12, abs=0)


class TestAtomAndLogSmooth:
    def test_atom_tail_steps(self):
        m = ms.atom_measure(radius=2.0, mass=1.0)
        assert float(m.tail(1.0)) == 1.0
        assert float(m.tail(2.5)) == 0.0
        assert float(m.trunc2(1.0)) == 0.0
        assert float(m.trunc2(3.0)) == 4.0

    def test_log_smooth_tail_closed_form(self):
        m = ms.log_smooth_measure()
        for r in (0.1, 0.01):
            u = 1.0 + np.log(1.0 / r)
            assert float(m.tail(r)) == pytest.approx(2.0 * (1.0 - 1.0 / u), rel=1e-12)
        assert float(m.tail(1.5)) == 0.0

    def test_log_smooth_trunc2_against_quadrature(self):
        from scipy import integrate

        m = ms.log_smooth_measure()
        for r in (0.05, 0.5):
            ref, _ = integrate.quad(
                lambda s: 2.0 * s / (1.0 + np.log(1.0 / s)) ** 2, 0.0, r
            )
            assert float(m.trunc2(r)) == pytest.approx(ref, rel=1e-6)


class TestSampling:
    def test_pareto_magnitudes_match_tail(self):
        m = ms.stable_measure(1.0, scale=1.0)
        rng = path_rng(0, 0)
        jumps = m.sample_jumps(20000, 0.1, rng)
        # P(|Y| > s) = G(s)/G(0.1) = (s/0.1)^{-1}
        for s in (0.2, 0.5, 1.0):
            frac = np.mean(np.abs(jumps) > s)
            assert frac == pytest.approx(0.1 / s, abs=0.02)
        # symmetric signs
        assert np.mean(jumps > 0) == pytest.approx(0.5, abs=0.02)

    def test_atom_sampling(self):
        m = ms.atom_measure(radius=2.0, mass=3.0)
        rng = path_rng(1, 0)
        jumps = m.sample_jumps(500, 0.5, rng)
        assert np.all(np.abs(jumps) == 2.0)

    def test_one_sided_signs(self):
        m = ms.one_sided_stable_measure(0.7)
        rng = path_rng(2, 0)
        jumps = m.sample_jumps(1000, 0.2, rng)
        assert np.all(jumps > 0)

    def test_zero_tail_raises(self):
        m = ms.atom_measure(radius=2.0)
        with pytest.raises(ZeroTail):
            m.sample_jumps(10, 3.0, path_rng(0, 0))

    def test_slow_variation_sampler_matches_tail(self):
        m = ms.slow_variation_measure()
        rng = path_rng(3, 0)
        delta = 1e-3
        jumps = np.abs(m.sample_jumps(20000, delta, rng))
        g_delta = float(m.tail(delta))
        for s in (2e-3, 1e-2):
            frac = np.mean(jumps > s)
            assert frac == pytest.approx(float(m.tail(s)) / g_delta, abs=0.02)


class TestValidation:
    def test_bad_monotonicity_is_rejected(self):
        bad = ms.LevyMeasureModel(
            tail=lambda r: np.asarray(r, float),  # increasing: invalid
            trunc2=lambda r: np.asarray(r, float),
        )
        with pytest.raises(ValueError, match="non-increasing"):
            bad.validate()

    def test_mean_jump_between_symmetric_is_zero(self):
        m = ms.stable_measure(1.2)
        assert m.mean_jump_between(0.01, 1.0) == 0.0

    def test_mean_jump_between_one_sided(self):
        for alpha in (0.3, 0.6, 1.4, 1.8):
            m = ms.one_sided_stable_measure(alpha)
            for a in (1e-4, 0.0316, 0.25):
                # int_a^1 y * y^{-1-alpha} dy = (1 - a^{1-alpha}) / (1 - alpha)
                exact = (1.0 - a ** (1.0 - alpha)) / (1.0 - alpha)
                assert m.mean_jump_between(a, 1.0) == pytest.approx(exact, rel=1e-14, abs=0)

    def test_inconsistent_density_is_rejected(self):
        m = ms.stable_measure(1.2, scale=1.0)
        bad = ms.LevyMeasureModel(tail=m.tail, trunc2=m.trunc2,
                                  radial_density=lambda s: 1.01 * m.radial_density(s))
        with pytest.raises(ValueError, match="inconsistent with tail"):
            bad.validate()
