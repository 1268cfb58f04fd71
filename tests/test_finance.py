import numpy as np
import pytest

from levy_multiscale.ergodicity import two_atom_measure
from levy_multiscale.errors import DegenerateVolatilityError
from levy_multiscale.finance import (
    CallPayoff,
    PricingSpec,
    bs_oracle,
    effective_vol_harmonic,
    effective_vol_quadratic,
)


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
