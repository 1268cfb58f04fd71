import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from levy_multiscale import levy_measures
from levy_multiscale.ergodicity import stationary_cf_bruteforce
from levy_multiscale.errors import NumericalError, UsageError
from levy_multiscale.levy_measures import (
    INFINITE,
    Family,
    LevyMeasureModel,
    compensator_drift,
    density_eval,
    interval_first_moment,
    interval_mass,
    levy_exponent,
    side_moment,
    small_jump_variance,
    stable_exponent_closed,
    tail_mass,
    tail_moment,
)


def sym(alpha, c=1.0):
    return LevyMeasureModel(Family.SYMMETRIC_STABLE, alpha, c)


def one_sided(alpha, c=1.0):
    return LevyMeasureModel(Family.ONE_SIDED_STABLE, alpha, c)


class TestModelValidation:
    def test_alpha_range_enforced(self):
        for bad in (0.0, 2.0, 2.5, -0.3):
            with pytest.raises(UsageError):
                sym(bad)

    @pytest.mark.parametrize("model, want", [
        (one_sided(0.5), True), (one_sided(1.5), False), (sym(0.5), False)])
    def test_subordinator_is_derived(self, model, want):
        assert model.subordinator is want

    def test_one_sided_alpha_one_rejected(self):
        with pytest.raises(UsageError):
            one_sided(1.0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(UsageError):
            sym(1.5, -1.0)

    @pytest.mark.parametrize("intensity", [math.nan, math.inf])
    def test_non_finite_intensity_rejected(self, intensity):
        # tail_mass used to return nan or inf for these
        with pytest.raises(UsageError, match="finite"):
            sym(1.5, intensity)


class TestDensity:
    def test_symmetric_alpha_one_at_two(self):
        # |2|^(-1-1) = 2^(-2) = 0.25, worked by hand
        assert density_eval(sym(1.0), 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_one_sided_has_no_negative_mass(self):
        assert density_eval(one_sided(1.5), -1.0) == 0.0

    def test_symmetric_half_alpha_at_one(self):
        assert density_eval(sym(0.5), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_origin_rejected(self):
        with pytest.raises(UsageError):
            density_eval(sym(1.5), 0.0)

    def test_null_driver_density_vanishes(self):
        assert density_eval(sym(1.5, 0.0), 0.3) == 0.0

    def test_integrability_functional_is_finite(self):
        # int z^2 1_{|z|<=1} nu + nu(|z|>1) < inf, checked by raw quadrature
        # of the density itself against the closed forms.
        m = sym(1.3)
        inner, _ = integrate.quad(lambda z: 2 * z * z * density_eval(m, z), 0, 1)
        outer, _ = integrate.quad(lambda z: 2 * density_eval(m, z), 1, np.inf)
        assert math.isfinite(inner + outer)
        assert inner == pytest.approx(small_jump_variance(m, 1.0), rel=1e-8)
        assert outer == pytest.approx(tail_mass(m, 1.0), rel=1e-8)


class TestSmallJumpVariance:
    def test_symmetric_alpha_one(self):
        # 2 int_0^1 z^{1-alpha} dz = 2/(2-alpha) = 2
        assert small_jump_variance(sym(1.0), 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_symmetric_alpha_three_halves_half_delta(self):
        # 2 * delta^{1/2} / (1/2) = 4 sqrt(1/2)
        want = 4.0 * math.sqrt(0.5)
        assert small_jump_variance(sym(1.5), 0.5) == pytest.approx(want, rel=1e-14)

    def test_one_sided_alpha_three_halves(self):
        assert small_jump_variance(one_sided(1.5), 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_delta_out_of_range(self):
        with pytest.raises(UsageError):
            small_jump_variance(sym(1.5), 1.5)
        with pytest.raises(UsageError):
            small_jump_variance(sym(1.5), 0.0)

    @given(
        alpha=st.floats(0.1, 1.95),
        intensity=st.floats(0.01, 100.0),
        two_sided=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_singularity_lower_bound_on_dyadic_grid(self, alpha, intensity, two_sided):
        if not two_sided and alpha <= 1.0:
            alpha = 1.0 + alpha / 2.0  # keep the one-sided model a valid driver
        fam = Family.SYMMETRIC_STABLE if two_sided else Family.ONE_SIDED_STABLE
        m = LevyMeasureModel(fam, alpha, intensity)
        # (A1) with p = alpha and C = small_jump_variance(1), shaved by one part
        # in 1e12 so the inequality survives floating point
        c_witness = small_jump_variance(m, 1.0) * (1.0 - 1e-12)
        for k in range(11):
            delta = 2.0 ** (-k)
            lhs = small_jump_variance(m, delta)
            assert lhs >= c_witness * delta ** (2.0 - alpha)


class TestTailMoment:
    def test_symmetric_order_one(self):
        assert tail_moment(sym(1.5), 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_boundary_order_diverges(self):
        assert tail_moment(sym(1.5), 1.5) == INFINITE

    def test_null_driver_has_no_tail(self):
        # the closed form would give 0 * inf at q = alpha
        assert tail_moment(sym(1.5, 0.0), 1.5) == tail_moment(sym(1.5, 0.0), 1.0) == 0.0

    def test_one_sided_nearly_critical(self):
        assert tail_moment(one_sided(1.9), 0.9) == pytest.approx(1.0, rel=1e-14)

    @given(alpha=st.floats(0.1, 1.9), q=st.floats(0.01, 4.0))
    @example(alpha=math.nextafter(0.1, 1.0), q=0.1)
    @settings(max_examples=80, deadline=None)
    def test_finite_iff_below_alpha(self, alpha, q):
        val = tail_moment(sym(alpha), q)
        if q < alpha:
            assert math.isfinite(val) and val > 0.0
        else:
            assert val == INFINITE

    def test_one_ulp_below_alpha_is_finite(self):
        # |q - alpha| < 1e-12 once took the log branch, inf at b = inf, for a finite integral
        m = sym(0.10000000000000002)
        val = tail_moment(m, 0.1)
        assert math.isfinite(val)
        assert val == pytest.approx(m.sides * m.intensity / (m.alpha - 0.1), rel=1e-12)

    def test_quadrature_agrees_with_closed_form(self):
        m = one_sided(1.7, 0.8)
        want = tail_moment(m, 1.2)
        got, _ = integrate.quad(lambda z: z**1.2 * density_eval(m, z), 1, np.inf)
        assert got == pytest.approx(want, rel=1e-9)


class TestTailMass:
    @pytest.mark.parametrize("m", [math.nan, 0.0, -1.0])
    def test_cut_must_be_positive(self, m):
        # nan passed the m <= 0 check and returned nan
        with pytest.raises(UsageError, match="positive"):
            tail_mass(sym(1.5), m)


class TestLevyExponent:
    def test_zero_frequency(self):
        assert levy_exponent(sym(1.5), 0.0) == 0.0

    def test_symmetric_cauchy_value(self):
        # 2 int_0^inf (1 - cos t)/t^2 dt = pi, so psi(1) = -pi for alpha=1, c=1
        psi = levy_exponent(sym(1.0), 1.0)
        assert psi.imag == pytest.approx(0.0, abs=1e-12)
        assert psi.real == pytest.approx(-math.pi, rel=1e-9)

    def test_stable_homogeneity_ratio(self):
        psi1 = levy_exponent(sym(1.5), 1.0).real
        psi2 = levy_exponent(sym(1.5), 2.0).real
        assert psi2 / psi1 == pytest.approx(2.0**1.5, rel=1e-3)

    def test_symmetric_exponent_is_real_even_nonpositive(self):
        m = sym(1.3, 0.7)
        for u in (0.3, 1.0, 2.7, 5.0):
            psi = levy_exponent(m, u)
            assert psi.imag == pytest.approx(0.0, abs=1e-12)
            assert psi.real <= 0.0
            assert levy_exponent(m, -u).real == pytest.approx(psi.real, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.5, 1.9])
    def test_quadrature_matches_closed_form_symmetric(self, alpha):
        m = sym(alpha, 0.9)
        for u in (0.5, 1.0, 3.0):
            got = levy_exponent(m, u)
            want = stable_exponent_closed(m, u)
            assert got.real == pytest.approx(want.real, rel=1e-8)
            assert abs(got.imag - want.imag) < 1e-10

    def test_quadrature_matches_closed_form_one_sided(self):
        m = one_sided(1.5)
        got = levy_exponent(m, 1.0)
        # frozen from the analytic stable exponent with compensator drift 2:
        # -C(1.5) * (1 + i) + 2i with C(1.5) = 1.67108551642067
        assert got.real == pytest.approx(-1.67108551642067, rel=1e-8)
        assert got.imag == pytest.approx(0.32891448357933, rel=1e-6)
        want = stable_exponent_closed(m, 1.0)
        assert abs(got - want) < 1e-8

    def test_conjugate_symmetry_one_sided(self):
        m = one_sided(1.5)
        assert levy_exponent(m, -2.0) == pytest.approx(
            levy_exponent(m, 2.0).conjugate()
        )

    def test_null_driver(self):
        assert levy_exponent(sym(1.5, 0.0), 1.0) == 0.0

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_refused(self, u):
        # inf used to raise "math domain error" from math.cos, nan to return nan
        for m in (sym(1.5), one_sided(1.5)):
            with pytest.raises(UsageError, match="finite"):
                levy_exponent(m, u)


class TestOneSide:
    """The exponent integrates z > 0 once; the symmetric model's z < 0 is its conjugate."""

    @pytest.mark.parametrize("model, calls", [(sym(1.5), 2), (one_sided(1.5), 4)],
                             ids=["sym", "one-sided"])
    def test_quadratures_per_call_above_the_floor(self, monkeypatch, model, calls):
        # the symmetric model ran all four quadratures on each side: 8 per call
        counted = []

        class CountingQuad:
            IntegrationWarning = integrate.IntegrationWarning

            @staticmethod
            def quad(*args, **kwargs):
                counted.append(kwargs.get("weight"))
                return integrate.quad(*args, **kwargs)

        monkeypatch.setattr(levy_measures, "integrate", CountingQuad)
        levy_exponent(model, 1.0)
        assert len(counted) == calls


class TestFloorContinuation:
    """Below the floor the exponent is continued from one quadrature per model."""

    FLOOR = levy_measures._U_SCALING_FLOOR

    @pytest.mark.parametrize("model", [sym(1.5), one_sided(1.5)], ids=["sym", "one-sided"])
    def test_is_the_continuation_of_a_fresh_floor_value(self, model):
        # the first call fills the cache, the rest read it: all equal the formula bit for bit
        levy_measures._floor_exponent.cache_clear()
        drift = compensator_drift(model)
        stable_part = levy_exponent(model, self.FLOOR) - 1j * self.FLOOR * drift
        for u in (1e-3, -1e-3, 5e-3, -5e-3):
            want = stable_part * (abs(u) / self.FLOOR) ** model.alpha + 1j * abs(u) * drift
            assert levy_exponent(model, u) == (want if u > 0.0 else want.conjugate())

    @pytest.mark.parametrize("model", [sym(1.5), one_sided(1.5)], ids=["sym", "one-sided"])
    def test_continuous_across_the_floor(self, model):
        below = levy_exponent(model, math.nextafter(self.FLOOR, 0.0))
        at = levy_exponent(model, self.FLOOR)
        assert abs(below - at) <= 1e-8 * abs(at)

    def test_floor_quadrature_runs_once_per_model(self, monkeypatch):
        levy_measures._floor_exponent.cache_clear()
        floor_calls = []
        inner = levy_measures.levy_exponent

        def counted(model, u):
            if u == self.FLOOR:
                floor_calls.append(model)
            return inner(model, u)

        monkeypatch.setattr(levy_measures, "levy_exponent", counted)
        model = one_sided(1.5)
        for _ in range(2):
            stationary_cf_bruteforce(model, 1.0)
        assert floor_calls == [model]

    def test_a_failed_floor_quadrature_is_not_cached(self, monkeypatch):
        class FailingQuad:
            IntegrationWarning = integrate.IntegrationWarning

            @staticmethod
            def quad(*args, **kwargs):
                return 1.0, 1.0  # an error estimate far above the tolerance

        levy_measures._floor_exponent.cache_clear()
        monkeypatch.setattr(levy_measures, "integrate", FailingQuad)
        for _ in range(2):
            with pytest.raises(NumericalError):
                levy_exponent(sym(1.5), 1e-3)
        assert levy_measures._floor_exponent.cache_info().currsize == 0
        monkeypatch.undo()
        levy_exponent(sym(1.5), 1e-3)
        assert levy_measures._floor_exponent.cache_info().currsize == 1


class TestCompensatorDrift:
    def test_symmetric_drift_vanishes(self):
        assert compensator_drift(sym(1.5)) == 0.0

    def test_one_sided_matches_tail_first_moment(self):
        # for alpha > 1 the leftover drift is int_{z>1} z nu(dz) = c/(alpha-1)
        m = one_sided(1.5, 0.7)
        want, _ = integrate.quad(lambda z: z * density_eval(m, z), 1, np.inf)
        assert compensator_drift(m) == pytest.approx(want, rel=1e-9)

    def test_subordinator_drift_is_minus_small_jump_mean(self):
        m = one_sided(0.5)
        small_mean, _ = integrate.quad(lambda z: z * density_eval(m, z), 0, 1)
        assert compensator_drift(m) == pytest.approx(-small_mean, rel=1e-9)


class TestSideMoment:
    @given(
        alpha=st.floats(0.1, 1.95),
        k=st.sampled_from([0, 1, 2, 3]),
        a=st.floats(1e-3, 10.0),
        r1=st.floats(1.5, 100.0),
        r2=st.floats(1.5, 100.0),
    )
    @example(alpha=1.0, k=1, a=0.5, r1=2.0, r2=3.0)  # the log branch
    @settings(max_examples=100, deadline=None)
    def test_additive_over_adjacent_intervals(self, alpha, k, a, r1, r2):
        # b^e - a^e cancels as e = k - alpha -> 0 outside the log branch
        assume(k == alpha or abs(k - alpha) > 1e-2)
        m = sym(alpha, 0.8)
        b, c = a * r1, a * r1 * r2
        whole = side_moment(m, k, a, c)
        assert whole == pytest.approx(side_moment(m, k, a, b) + side_moment(m, k, b, c), rel=1e-12)

    @pytest.mark.parametrize("model, k, a, b", [
        (sym(1.5, 1.3), 0, 0.2, 3.0),
        (one_sided(1.5, 0.7), 0, 1.0, math.inf),
        (sym(1.0), 1, 0.1, 5.0),  # k = alpha = 1: the log branch
        (one_sided(1.5), 1, 1.0, math.inf),
        (sym(1.5), 2, 0.0, 1.0),
        (sym(0.7, 2.0), 3, 0.0, 2.0),
    ])
    def test_agrees_with_quadrature_of_the_density(self, model, k, a, b):
        want, _ = integrate.quad(lambda z: z**k * density_eval(model, z), a, b,
                                 epsrel=1e-11, limit=200)
        assert side_moment(model, k, a, b) == pytest.approx(want, rel=1e-9)

    def test_keeps_its_digits_just_outside_the_log_branch(self):
        # e = k - alpha = -1e-11 on a short cell, where b^e - a^e errs by 6.4e-4 relative
        m = sym(1.0 + 1e-11)
        want, _ = integrate.quad(lambda z: z * density_eval(m, z), 127 / 64, 2.0, epsrel=1e-13)
        assert side_moment(m, 1, 127 / 64, 2.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k, alpha", [(1, 0.7), (1, 1.0), (2, 1.0), (2, 1.5), (3, 1.9)])
    def test_infinite_where_the_tail_diverges(self, k, alpha):
        assert side_moment(sym(alpha), k, 1.0) == INFINITE


class TestIntervalFunctionals:
    def test_mass_and_moment_against_quadrature(self):
        m = sym(1.5, 1.3)
        got = interval_mass(m, 0.2, 3.0)
        want, _ = integrate.quad(lambda z: density_eval(m, z), 0.2, 3.0)
        assert got == pytest.approx(want, rel=1e-9)
        got1 = interval_first_moment(m, -3.0, -0.2)
        want1, _ = integrate.quad(lambda z: z * density_eval(m, z), -3.0, -0.2)
        assert got1 == pytest.approx(want1, rel=1e-9)

    def test_negative_side_of_one_sided_measure_is_empty(self):
        m = one_sided(1.5)
        assert interval_mass(m, -2.0, -1.0) == 0.0
        assert interval_first_moment(m, -2.0, -1.0) == 0.0

    def test_straddling_interval_rejected(self):
        with pytest.raises(UsageError):
            interval_mass(sym(1.5), -1.0, 1.0)
