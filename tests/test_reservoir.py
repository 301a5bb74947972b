import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from decoshield.errors import ArgumentError, NumericError
from decoshield.reservoir import (discretize_modes, glue_form_factor,
                                  make_form_factor, pv_integral,
                                  spectral_function)

from oracles import dawson_series

rng = np.random.default_rng(23)


def default_ff(beta=1.0):
    return make_form_factor("gaussian-p", beta=beta)


class TestGlueing:
    def test_vanishes_at_origin(self):
        assert glue_form_factor(default_ff(), 0.0) == 0.0

    def test_positive_branch_value(self):
        # |p| (1+e^{-beta p})^{-1/2} f(p) at p=1, beta=1, f(p)=p e^{-p^2/2}
        got = glue_form_factor(default_ff(), 1.0)
        expect = (1.0 + math.e**-1) ** -0.5 * math.e**-0.5
        assert got == pytest.approx(expect, abs=1e-14)

    def test_negative_branch_formula(self):
        ff = default_ff(beta=0.7)
        for p in rng.uniform(0.1, 5.0, size=12):
            g = glue_form_factor(ff, -p)
            expect = p / math.sqrt(1.0 + math.exp(0.7 * p)) * ff.f(p)
            assert np.isfinite(g)
            assert g == pytest.approx(expect, abs=1e-12)

    def test_detailed_balance(self):
        # |g(-p)|^2 = e^{-beta p} |g(p)|^2 for real radial f
        ff = default_ff(beta=1.3)
        for p in rng.uniform(0.05, 6.0, size=100):
            lhs = abs(glue_form_factor(ff, -p)) ** 2
            rhs = math.exp(-1.3 * p) * abs(glue_form_factor(ff, p)) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSpectralFunction:
    def test_zero_at_origin(self):
        sf = spectral_function(default_ff())
        assert sf(0.0) == 0.0

    def test_closed_form_value(self):
        # default family closes to 4 pi p^6 e^{-p^2} / (1+e^{-beta p})^2
        sf = spectral_function(default_ff())
        expect = 4 * math.pi * math.e**-1 / (1 + math.e**-1) ** 2
        assert sf(1.0) == pytest.approx(expect, rel=1e-13)
        for p in rng.uniform(-4, 4, size=20):
            closed = (4 * math.pi * p**6 * math.exp(-p * p)
                      / (1 + math.exp(-p)) ** 2)
            assert sf(float(p)) == pytest.approx(closed, rel=1e-11, abs=1e-300)

    def test_nonnegative(self):
        sf = spectral_function(default_ff())
        ps = rng.uniform(-10, 10, size=1000)
        assert np.all(sf(ps) >= 0.0)

    def test_support_cutoff(self):
        sf = spectral_function(default_ff())
        assert sf(sf.p_max + 1.0) < 1e-15


class TestPrincipalValue:
    def test_even_function_gives_zero(self):
        sf = spectral_function(default_ff())
        x = 2.0
        even = lambda p: np.exp(-((p - x) ** 2))
        even.p_max = 20.0
        assert pv_integral(even, x) == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_matches_dawson_series(self):
        # int e^{-p^2}/(p-x) dp = -2 sqrt(pi) F(x), F the Dawson function
        gauss = lambda p: np.exp(-p * p)
        gauss.p_max = 20.0
        for x in (1.0, 0.5, 2.0):
            expect = -2.0 * math.sqrt(math.pi) * dawson_series(x)
            assert pv_integral(gauss, x) == pytest.approx(expect, abs=1e-7)

    def test_refinement_agreement(self):
        sf = spectral_function(default_ff())
        a = pv_integral(sf, 2.0, epsabs=1e-9)
        b = pv_integral(sf, 2.0, epsabs=1e-11)
        assert abs(a - b) < 1e-8

    def test_linearity(self):
        f1 = lambda p: np.exp(-p * p)
        f2 = lambda p: np.exp(-((p - 1) ** 2))
        combo = lambda p: 2.0 * f1(p) + 0.5 * f2(p)
        for fn in (f1, f2, combo):
            fn.p_max = 20.0
        x = 0.7
        assert pv_integral(combo, x) == pytest.approx(
            2.0 * pv_integral(f1, x) + 0.5 * pv_integral(f2, x), abs=1e-8)

    def test_reflection_antisymmetry(self):
        # reflecting G about the singularity flips the sign
        x = 1.2
        g = lambda p: np.exp(-0.5 * (p - 0.3) ** 2)
        g_ref = lambda p: g(2 * x - p)
        g.p_max = g_ref.p_max = 25.0
        assert pv_integral(g_ref, x) == pytest.approx(-pv_integral(g, x),
                                                      abs=1e-8)

    @staticmethod
    def grid_points(sf):
        return np.array([0.0, sf.p_max, -sf.p_max, 0.3, -1.7, 2.45, -4.1])

    @pytest.mark.parametrize("beta", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("name", ["gaussian-p", "gaussian", "ohmic-exp"])
    def test_matches_cauchy_weight_quadrature(self, name, beta):
        # QUADPACK's Cauchy-weight rule (QAWC) over G's support, widened so
        # that x = +-p_max is inside; G < 1e-16 outside the support
        sf = spectral_function(make_form_factor(name, beta=beta))
        xs = self.grid_points(sf)
        got = pv_integral(sf, xs)
        for x, value in zip(xs, got):
            expect, _ = scipy.integrate.quad(
                sf, -sf.p_max - 5.0, sf.p_max + 5.0, weight="cauchy",
                wvar=x, epsabs=1e-12, epsrel=1e-12, limit=1000)
            assert value == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("name", ["gaussian-p", "ohmic-exp"])
    def test_batched_equals_per_point(self, name):
        sf = spectral_function(make_form_factor(name, beta=1.0))
        xs = self.grid_points(sf)
        batched = pv_integral(sf, xs)
        assert batched.shape == xs.shape
        single = [pv_integral(sf, x) for x in xs]
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-13)
        np.testing.assert_allclose(pv_integral(sf, xs.reshape(7, 1))[:, 0],
                                   single, rtol=0, atol=1e-13)

    def test_kink_at_zero_matches_exponential_integral(self):
        # G = e^{-|p|}: PV = e^x Ei(-x) - e^{-x} Ei(x); G(x - p) has its
        # kink at p = x, the break between the first two intervals
        g = lambda p: np.exp(-np.abs(p))
        g.p_max = 40.0
        xs = np.array([0.5, 2.0, -1.3, 7.0])
        a = np.abs(xs)
        expect = np.sign(xs) * (np.exp(a) * scipy.special.expi(-a)
                                - np.exp(-a) * scipy.special.expi(a))
        np.testing.assert_allclose(pv_integral(g, xs), expect, rtol=0,
                                   atol=1e-9)

    def test_non_decaying_tail_raises(self):
        # (tanh(x + p) - tanh(x - p)) / p -> 2 / p: the tail is 2 ln 10
        g = lambda p: np.tanh(p)
        g.p_max = 5.0
        with pytest.raises(NumericError, match="tail") as err:
            pv_integral(g, 0.5)
        assert err.value.diagnostics["tail"] == pytest.approx(2 * math.log(10),
                                                              rel=1e-6)

    def test_spike_narrower_than_a_panel_raises(self):
        # a Lorentzian of half-width 1e-4 at p = 3: each panel doubling
        # changes its sampled tails by far more than epsabs
        g = lambda p: 1.0 / (1.0 + ((p - 3.0) / 1e-4) ** 2)
        g.p_max = 20.0
        with pytest.raises(NumericError, match="estimate") as err:
            pv_integral(g, np.array([-2.0, 1.0]))
        assert err.value.diagnostics["x"] == -2.0
        assert err.value.diagnostics["estimate"] > 1e-9
        assert "tail" in err.value.diagnostics


class TestModeDiscretization:
    def test_fermi_dirac_occupations(self):
        ff = default_ff(beta=2.0)
        modes = discretize_modes(ff, 16, 6.0)
        for w, n in zip(modes.frequencies, modes.occupations):
            assert n == pytest.approx(1.0 / (1.0 + math.exp(2.0 * w)),
                                      abs=1e-12)

    def test_zero_temperature_limit(self):
        ff = default_ff(beta=1e6)
        modes = discretize_modes(ff, 8, 6.0)
        assert np.all(modes.occupations < 1e-12)

    def test_sum_rule_second_order(self):
        import scipy.integrate

        ff = default_ff()
        target, _ = scipy.integrate.quad(
            lambda p: 4 * math.pi * p * p * ff.f(p) ** 2, 0.0, 6.0)
        defects = []
        for n in (16, 32, 64):
            modes = discretize_modes(ff, n, 6.0)
            defects.append(abs(np.sum(modes.couplings**2) - target))
        # midpoint rule: quartering the defect per doubling (allow slack)
        assert defects[1] < 0.35 * defects[0]
        assert defects[2] < 0.35 * defects[1]

    def test_rejects_empty_grid(self):
        ff = default_ff()
        with pytest.raises(ArgumentError):
            discretize_modes(ff, 0, 6.0)


class TestFormFactorValidation:
    def test_unknown_registry_name(self):
        with pytest.raises(ArgumentError):
            make_form_factor("lorentzian", beta=1.0)
