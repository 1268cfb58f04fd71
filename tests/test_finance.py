import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from test_jump_processes import _readers

from levy_multiscale.ergodicity import two_atom_measure
from levy_multiscale.errors import DegenerateVolatilityError, UsageError
from levy_multiscale.finance import (
    CallPayoff,
    MertonSpec,
    PricingSpec,
    bs_oracle,
    effective_vol_harmonic,
    effective_vol_quadratic,
    price_mc,
    price_mc_surface,
)
from levy_multiscale.jump_processes import (
    BROWNIAN_STREAM,
    JUMP_STREAM,
    MIXING_STREAM,
    FastProcessConfig,
)
from levy_multiscale.levy_measures import Family, LevyMeasureModel, stable_scale_exponent


def tanh_sigma(y):
    return 0.3 + 0.1 * np.tanh(np.asarray(y, dtype=float))


def bench_sigma(y):
    """The benchmark's volatility; its quadratic mean under the factor's law is 0.216597."""
    return 0.2 + 0.1 * np.tanh(np.asarray(y, dtype=float))


def constant_sigma(y):
    return np.full_like(np.asarray(y, dtype=float), 0.2)


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

    @pytest.mark.parametrize("s, tau", [(-0.2, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                        (0.2, -0.5)])
    def test_bad_volatility_or_maturity_is_refused(self, s, tau):
        with pytest.raises(UsageError):
            bs_oracle(pricing_spec(CallPayoff(1.0)), s, tau=tau)


    @pytest.mark.parametrize("x0, tau", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
                                         (1.0, math.inf)])
    def test_bad_spot_or_infinite_maturity_is_refused(self, x0, tau):
        with pytest.raises(UsageError):
            bs_oracle(pricing_spec(CallPayoff(1.0)), 0.2, tau=tau, x0=x0)


class TestCallPayoff:
    @pytest.mark.parametrize("strike", [math.nan, math.inf])
    def test_bad_strike_is_refused(self, strike):
        # bs_oracle used to return nan for a non-finite strike
        with pytest.raises(UsageError, match="strike"):
            CallPayoff(strike)


class TestPricingSpec:
    @pytest.mark.parametrize("field, value", [
        ("horizon", math.nan), ("horizon", math.inf), ("x0", math.nan), ("x0", math.inf),
        ("r", math.nan), ("discount", math.nan),
    ])
    def test_spec_must_be_finite(self, field, value):
        with pytest.raises(UsageError):
            replace(pricing_spec(CallPayoff(1.0)), **{field: value})


class TestMertonSpec:
    @pytest.mark.parametrize("field, value", [
        ("r", math.nan), ("alpha_drift", math.inf), ("a", math.nan), ("horizon", math.nan),
        ("horizon", math.inf), ("w0", math.nan),
    ])
    def test_spec_must_be_finite(self, field, value):
        spec = MertonSpec(r=0.05, alpha_drift=0.1, sigma_fn=tanh_sigma, R1=0.0, R=1.0,
                          gamma=0.5, a=1.0, horizon=1.0, w0=1.0)
        with pytest.raises(UsageError):
            replace(spec, **{field: value})


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

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0),
                                      (1.0, math.nan)])
    def test_surface_refuses_bad_spots_and_starts(self, x, y):
        # a NaN start used to price at V = 0 with a standard error of 0
        spec = pricing_spec(CallPayoff(1.0))
        with pytest.raises(UsageError):
            price_mc_surface(spec, self.EPS, self.FAST, 1000, np.array([1.0]),
                             np.array([x]), np.array([y]))

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

    def test_surface_rows_follow_the_requested_taus(self):
        spec = pricing_spec(CallPayoff(1.0))
        box = (np.array([0.9, 1.1]), np.array([0.0, 0.5]))
        down, _ = price_mc_surface(spec, self.EPS, self.FAST, 1000, np.array([1.0, 0.1]), *box)
        up, _ = price_mc_surface(spec, self.EPS, self.FAST, 1000, np.array([0.1, 1.0]), *box)
        assert np.array_equal(down, up[::-1])

    def test_taus_on_one_grid_step_give_one_row_each(self):
        spec = pricing_spec(CallPayoff(1.0))
        # 0.5 and 0.501 both round to step 100 at dt = 0.005
        est, se = price_mc_surface(spec, self.EPS, self.FAST, 1000, np.array([0.5, 0.501, 1.0]),
                                   np.array([1.0]), np.array([0.0]))
        assert est.shape == se.shape == (3, 1, 1)
        assert est[0] == est[1] and est[1] != est[2]


class TestConditionalMonteCarlo:
    """The pricers average the price given each factor path's integrated variance."""

    EPS = TestMonteCarloPricers.EPS
    FAST = TestMonteCarloPricers.FAST

    def test_constant_volatility_call_is_the_oracle_with_zero_error(self):
        spec = replace(pricing_spec(CallPayoff(1.1)), sigma_fn=constant_sigma)
        price, se = price_mc(spec, self.EPS, self.FAST, 1000)
        assert price == pytest.approx(bs_oracle(spec, 0.2), abs=1e-12)
        assert se == 0.0

    def test_untagged_call_is_exact_in_law_on_a_coarse_step(self):
        # two steps at sigma = 1: two Euler asset steps would price about 0.1
        # (five standard errors) above the oracle here
        call = CallPayoff(1.0)
        spec = replace(pricing_spec(lambda x: call(x)), sigma_fn=lambda y: 5.0 * constant_sigma(y))
        fast = replace(self.FAST, dt=0.5)
        price, se = price_mc(spec, self.EPS, fast, 20_000)
        assert abs(price - bs_oracle(spec, 1.0)) <= 4.0 * se

    @pytest.mark.parametrize("tagged", [True, False])
    def test_zero_maturity_row_is_the_payoff_and_zero_spot_row_is_zero(self, tagged):
        call = CallPayoff(1.0)
        spec = pricing_spec(call if tagged else lambda x: call(x))
        x = np.array([0.0, 0.9, 1.1])
        est, se = price_mc_surface(spec, self.EPS, self.FAST, 1000, np.array([1.0, 0.0]), x,
                                   np.array([-1.0, 0.0, 1.0]))
        assert np.array_equal(est[1], np.repeat(call(x)[:, None], 3, axis=1))
        assert np.all(se[1] == 0.0)
        # the call at spot 0 is worthless, with no log(0) on the way
        assert np.all(est[0, 0] == 0.0) and np.all(se[0, 0] == 0.0)

    def test_mixing_normal_has_one_reader(self):
        assert MIXING_STREAM == 2 and MIXING_STREAM not in (JUMP_STREAM, BROWNIAN_STREAM)
        assert _readers("MIXING_STREAM") == {"finance.price_mc_surface"}


class TestEpsilonLimit:
    """Pricing half of the end-to-end check: the price tends to Black-Scholes at sigma_bar."""

    EPS = (0.1, 0.05, 0.02)

    def test_price_reaches_the_effective_volatility_oracle(self):
        model = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5)
        a = model.alpha
        stationary = stats.levy_stable(a, 0.0, scale=(stable_scale_exponent(model) / a) ** (1 / a))
        sigma_bar = math.sqrt(stationary.expect(lambda y: bench_sigma(y) ** 2))
        assert sigma_bar == pytest.approx(0.216597, abs=1e-6)
        spec = replace(pricing_spec(CallPayoff(1.0)), sigma_fn=bench_sigma)
        bs = bs_oracle(spec, sigma_bar)
        dev = {}
        for eps in self.EPS:
            # one seed and one step: the three runs share their random numbers
            fast = FastProcessConfig(model, lam=1.0 / eps, y0=0.0, horizon=1.0, seed=1)
            price, se = price_mc(spec, eps, fast, 2000)
            dev[eps] = price - bs
            assert abs(dev[eps]) <= 4.0 * se + 0.03 * eps
        assert abs(dev[0.02]) < abs(dev[0.1])
