"""PGF closed forms, backward-ODE solutions, and model construction."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from branchcs.models import (
    ModelSpec,
    RatesBDS,
    RatesHSC,
    bds_phi01,
    hsc_phi2,
    model_from_config,
    pgf,
)
from conftest import BDS_RATES, HSC_RATES


def type1(kind, rates, t):
    """A model started from one type-1 particle: its PGF is phi1."""
    return ModelSpec(kind=kind, rates=rates, t=t, init=(1, 0))


class TestHscClosedForms:
    def test_phi2_pinned_value(self):
        # 1 + (s2 - 1) e^{-mu t} at s2 = -1, t = 1
        got = hsc_phi2(1.0, -1.0, HSC_RATES)
        assert got == pytest.approx(1.0 - 2.0 * math.exp(-0.147), abs=1e-15)

    def test_phi2_at_one_is_one(self):
        assert hsc_phi2(3.7, 1.0, HSC_RATES) == 1.0

    def test_phi1_initial_condition(self):
        # as t -> 0 the PGF approaches its argument
        s1 = 0.3 + 0.4j
        got = pgf(type1("hsc", HSC_RATES, 1e-9), s1, 0.5j)
        assert abs(got - s1) < 1e-8

    def test_phi1_against_fixed_step_rk4(self):
        # independent classical RK4 at fixed step, no shared integrator code
        rho, nu, mu = HSC_RATES.rho, HSC_RATES.nu, HSC_RATES.mu
        s1, s2, t = 0.25 - 0.6j, -0.8 + 0.1j, 1.0

        def rhs(tau, phi):
            return rho * phi * phi - (rho + nu) * phi + nu * (
                1.0 + (s2 - 1.0) * np.exp(-mu * tau))

        steps = 20000
        h = t / steps
        phi = complex(s1)
        for i in range(steps):
            tau = i * h
            k1 = rhs(tau, phi)
            k2 = rhs(tau + h / 2, phi + h * k1 / 2)
            k3 = rhs(tau + h / 2, phi + h * k2 / 2)
            k4 = rhs(tau + h, phi + h * k3)
            phi += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        got = pgf(type1("hsc", HSC_RATES, t), s1, s2)
        assert abs(got - phi) < 1e-9


class TestBdsClosedForms:
    def test_phi01_at_one_is_exactly_one(self):
        assert bds_phi01(0.35, 1.0, BDS_RATES) == 1.0 + 0.0j

    @staticmethod
    def phi01_50_digits(t, s2, gamma, delta):
        """phi01 in 50-digit arithmetic, from the textbook bracket form
        1 + 1 / (g / (d - g) + (1 / (s - 1) + g / (g - d)) e^{(d - g) t}), and from
        its limit 1 + (s - 1) / (1 - g t (s - 1)) at g = d."""
        with mpmath.workdps(50):
            g, d, t, s = mpmath.mpf(gamma), mpmath.mpf(delta), mpmath.mpf(t), mpmath.mpc(s2)
            if g == d:
                return complex(1 + (s - 1) / (1 - g * t * (s - 1)))
            return complex(1 + 1 / (g / (d - g) + (1 / (s - 1) + g / (g - d)) * mpmath.exp((d - g) * t)))

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 0.0])
    def test_phi01_is_accurate_near_and_at_critical_rates(self, gap):
        # the closed form's old bracket lost digits as delta -> gamma (2.7e-12 at a
        # relative gap of 1e-6, 5.8e-9 at 1e-9) and raised at gamma = delta
        gamma = 0.016
        rates = RatesBDS(gamma=gamma, sigma=0.004, delta=gamma * (1 + gap))
        worst = 0.0
        for k in range(1, 16):
            s2 = complex(np.exp(2j * np.pi * k / 16))
            for t in (0.35, 5.0, 100.0):
                want = self.phi01_50_digits(t, s2, rates.gamma, rates.delta)
                worst = max(worst, abs(bds_phi01(t, s2, rates) - want))
            assert bds_phi01(0.35, 1.0 + 0.0j, rates) == 1.0
        assert worst < 2e-15

    def test_phi01_at_critical_rates_is_the_limit(self):
        g, t = 0.02, 0.35
        rates = RatesBDS(gamma=g, sigma=0.004, delta=g)
        for s2 in (0.5, -1.0, 0.3 - 0.7j, 1j):
            assert bds_phi01(t, s2, rates) == pytest.approx(1 + (s2 - 1) / (1 - g * t * (s2 - 1)),
                                                            rel=1e-15)

    def test_phi01_at_critical_rates_satisfies_backward_ode(self):
        g = 0.02
        s2, t = 0.3 - 0.7j, 0.35
        sol = solve_ivp(lambda tau, phi: g * phi * phi - 2 * g * phi + g, (0.0, t),
                        [complex(s2)], rtol=1e-12, atol=1e-12)
        rates = RatesBDS(gamma=g, sigma=0.004, delta=g)
        assert abs(bds_phi01(t, s2, rates) - sol.y[0, -1]) < 1e-9

    def test_phi01_satisfies_backward_ode(self):
        # a new location branches (gamma) or dies (delta):
        # dphi/dtau = gamma phi^2 - (gamma + delta) phi + delta
        g, d = BDS_RATES.gamma, BDS_RATES.delta
        s2, t = 0.3 - 0.7j, 0.35

        def rhs(tau, phi):
            return g * phi * phi - (g + d) * phi + d

        sol = solve_ivp(rhs, (0.0, t), [complex(s2)], rtol=1e-12, atol=1e-12)
        assert abs(bds_phi01(t, s2, BDS_RATES) - sol.y[0, -1]) < 1e-9

    def test_phi10_initial_condition(self):
        s1 = -0.2 + 0.9j
        got = pgf(type1("bds", BDS_RATES, 1e-9), s1, 0.4)
        assert abs(got - s1) < 1e-8


class TestPgfProperties:
    @pytest.mark.parametrize("kind,rates", [("hsc", HSC_RATES), ("bds", BDS_RATES)])
    @pytest.mark.parametrize("init", [(1, 0), (0, 1), (2, 3)])
    def test_normalization(self, kind, rates, init):
        model = ModelSpec(kind=kind, rates=rates, t=0.8, init=init)
        assert abs(pgf(model, 1.0, 1.0) - 1.0) < 1e-8

    @pytest.mark.parametrize("kind,rates", [("hsc", HSC_RATES), ("bds", BDS_RATES)])
    def test_bounded_on_unit_circle(self, kind, rates):
        model = ModelSpec(kind=kind, rates=rates, t=1.0, init=(1, 2))
        rng = np.random.default_rng(7)
        angles = rng.uniform(0, 2 * np.pi, size=(12, 2))
        for a1, a2 in angles:
            val = pgf(model, np.exp(1j * a1), np.exp(1j * a2))
            assert abs(val) <= 1.0 + 1e-9

    def test_particle_independence_power(self):
        # phi_{jk} = phi1^j phi2^k
        base = ModelSpec(kind="hsc", rates=HSC_RATES, t=1.0, init=(1, 0))
        double = ModelSpec(kind="hsc", rates=HSC_RATES, t=1.0, init=(2, 0))
        s1, s2 = 0.6 + 0.2j, -0.5
        assert abs(pgf(double, s1, s2) - pgf(base, s1, s2) ** 2) < 1e-10


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RatesHSC(rho=-0.1, nu=0.1, mu=0.1)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            RatesBDS(gamma=0.0, sigma=0.004, delta=0.019)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="xyz", rates=HSC_RATES, t=1.0, init=(1, 0))

    def test_mismatched_rates_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="bds", rates=HSC_RATES, t=1.0, init=(1, 0))

    def test_empty_init_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="hsc", rates=HSC_RATES, t=1.0, init=(0, 0))

    @pytest.mark.parametrize("init", [(1.5, 0), (True, 0), (1, 0, 0)])
    def test_init_must_be_a_pair_of_integers(self, init):
        # a fractional init gave the PGF a fractional power
        with pytest.raises(ValueError, match="init must be a pair of integers"):
            ModelSpec(kind="hsc", rates=HSC_RATES, t=1.0, init=init)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="hsc", rates=HSC_RATES, t=0.0, init=(1, 0))

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            ModelSpec(kind="hsc", rates=HSC_RATES, t=t, init=(1, 0))

    @pytest.mark.parametrize("t", [True, "1.0"])
    def test_time_must_be_a_number(self, t):
        # a bool or a string t was taken as the number 1.0
        with pytest.raises(ValueError, match="t must be a number"):
            ModelSpec(kind="hsc", rates=HSC_RATES, t=t, init=(1, 0))

    def test_a_rate_must_be_a_number(self):
        with pytest.raises(ValueError, match="rho must be a number"):
            RatesHSC(rho=True, nu=0.104, mu=0.147)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = {
            "model": "hsc",
            "rates": {"rho": 0.125, "nu": 0.104, "mu": 0.147},
            "t": 1.0,
            "init": [1, 0],
        }
        model = model_from_config(cfg)
        assert model.kind == "hsc"
        assert model.rates == HSC_RATES
        assert model.t == 1.0
        assert model.init == (1, 0)

    def test_bds_round_trip(self):
        cfg = {
            "model": "bds",
            "rates": {"gamma": 0.016, "sigma": 0.004, "delta": 0.019},
            "t": 0.35,
            "init": [1, 0],
        }
        assert model_from_config(cfg).rates == BDS_RATES

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_config({"model": "nope", "rates": {}, "t": 1, "init": [1, 0]})
