import numpy as np
import pytest

from levy_multiscale.ergodicity import two_atom_measure
from levy_multiscale.errors import DegenerateVolatilityError, UsageError
from levy_multiscale.finance import (
    CallPayoff,
    PricingSpec,
    bs_oracle,
    effective_vol_harmonic,
    effective_vol_quadratic,
    price_mc,
    price_mc_surface,
)
from levy_multiscale.jump_processes import FastProcessConfig
from levy_multiscale.levy_measures import Family, LevyMeasureModel


def tanh_sigma(y):
    return 0.3 + 0.1 * np.tanh(np.asarray(y, dtype=float))


def pricing_spec(payoff):
    return PricingSpec(r=0.05, sigma_fn=tanh_sigma, payoff=payoff, discount=0.05,
                       horizon=1.0, x0=1.0)


class TestBsOracle:
    @pytest.mark.parametrize("s", [0.1, 0.2, 0.3])
    def test_closed_form_call_matches_lognormal_quadrature(self, s):
        call = CallPayoff(1.1)
        closed = bs_oracle(pricing_spec(call), s)
        # a plain function hides the call tag, so the oracle integrates
        quad = bs_oracle(pricing_spec(lambda x: call(x)), s)
        assert closed == pytest.approx(quad, abs=1e-8)


class TestEffectiveVolatility:
    def test_harmonic_mean_below_quadratic_mean(self, invariant_measure_15):
        harmonic = effective_vol_harmonic(tanh_sigma, invariant_measure_15)
        quadratic = effective_vol_quadratic(tanh_sigma, invariant_measure_15)
        assert 0.0 < harmonic <= quadratic

    def test_vanishing_sigma_on_a_node_is_degenerate(self):
        mu = two_atom_measure(0.0, 1.0)
        with pytest.raises(DegenerateVolatilityError):
            effective_vol_harmonic(lambda y: np.asarray(y, dtype=float), mu)


class TestMonteCarloPricers:
    EPS = 0.05
    FAST = FastProcessConfig(LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5), lam=1.0 / EPS,
                             y0=0.3, horizon=1.0, dt=0.005, seed=17)

    def test_surface_at_maturity_spot_and_start_is_price_mc(self):
        spec = pricing_spec(CallPayoff(1.0))
        price, se = price_mc(spec, self.EPS, self.FAST, 1000)
        est, est_se = price_mc_surface(
            spec, self.EPS, self.FAST, 1000, np.array([spec.horizon]),
            np.array([spec.x0]), np.array([self.FAST.y0]))
        # common random numbers: the same paths, payoffs and reductions
        assert est.shape == (1, 1, 1)
        assert est[0, 0, 0] == price
        assert est_se[0, 0, 0] == se

    @pytest.mark.parametrize("pricer", ["price_mc", "price_mc_surface"])
    def test_fewer_than_1000_paths_are_refused(self, pricer):
        spec = pricing_spec(CallPayoff(1.0))
        with pytest.raises(UsageError, match="1000 paths"):
            if pricer == "price_mc":
                price_mc(spec, self.EPS, self.FAST, 999)
            else:
                price_mc_surface(spec, self.EPS, self.FAST, 1, np.array([1.0]),
                                 np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("tau", [-0.5, 2.0])
    def test_surface_refuses_taus_outside_the_horizon(self, tau):
        spec = pricing_spec(CallPayoff(1.0))
        with pytest.raises(UsageError, match="taus"):
            price_mc_surface(spec, self.EPS, self.FAST, 1000, np.array([0.5, tau]),
                             np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("pricer", ["price_mc", "price_mc_surface"])
    def test_rate_disagreeing_with_epsilon_is_rejected(self, pricer):
        spec = pricing_spec(CallPayoff(1.0))
        fast = FastProcessConfig(self.FAST.model, lam=10.0, y0=0.0, horizon=1.0, seed=3)
        with pytest.raises(UsageError, match="disagree"):
            if pricer == "price_mc":
                price_mc(spec, self.EPS, fast, 1000)
            else:
                price_mc_surface(spec, self.EPS, fast, 1000, np.array([1.0]),
                                 np.array([1.0]), np.array([0.0]))
