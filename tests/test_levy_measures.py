import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from levy_multiscale.errors import UsageError
from levy_multiscale.levy_measures import (
    INFINITE,
    A2Reason,
    Family,
    LevyMeasureModel,
    check_assumptions,
    compensator_drift,
    density_eval,
    interval_first_moment,
    interval_mass,
    levy_exponent,
    small_jump_variance,
    stable_exponent_closed,
    tail_mass,
    tail_moment,
)


def sym(alpha, c=1.0):
    return LevyMeasureModel(Family.SYMMETRIC_STABLE, alpha, c)


def one_sided(alpha, c=1.0, subordinator=False):
    return LevyMeasureModel(Family.ONE_SIDED_STABLE, alpha, c, subordinator)


class TestModelValidation:
    def test_alpha_range_enforced(self):
        for bad in (0.0, 2.0, 2.5, -0.3):
            with pytest.raises(UsageError):
                sym(bad)

    def test_one_sided_small_alpha_needs_subordinator_flag(self):
        with pytest.raises(UsageError):
            one_sided(0.5)
        assert one_sided(0.5, subordinator=True).subordinator

    def test_one_sided_alpha_one_rejected(self):
        with pytest.raises(UsageError):
            one_sided(1.0)
        with pytest.raises(UsageError):
            one_sided(1.0, subordinator=True)

    def test_symmetric_never_subordinator(self):
        with pytest.raises(UsageError):
            LevyMeasureModel(Family.SYMMETRIC_STABLE, 0.5, 1.0, subordinator=True)

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
        rep = check_assumptions(m)
        for k in range(11):
            delta = 2.0 ** (-k)
            lhs = small_jump_variance(m, delta)
            assert lhs >= rep.C_witness * delta ** (2.0 - rep.p_witness)


class TestTailMoment:
    def test_symmetric_order_one(self):
        assert tail_moment(sym(1.5), 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_boundary_order_diverges(self):
        assert tail_moment(sym(1.5), 1.5) == INFINITE

    def test_one_sided_nearly_critical(self):
        assert tail_moment(one_sided(1.9), 0.9) == pytest.approx(1.0, rel=1e-14)

    @given(alpha=st.floats(0.1, 1.9), q=st.floats(0.01, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_finite_iff_below_alpha(self, alpha, q):
        val = tail_moment(sym(alpha), q)
        if q < alpha:
            assert math.isfinite(val) and val > 0.0
        else:
            assert val == INFINITE

    def test_quadrature_agrees_with_closed_form(self):
        m = one_sided(1.7, 0.8)
        want = tail_moment(m, 1.2)
        got, _ = integrate.quad(lambda z: z**1.2 * density_eval(m, z), 1, np.inf)
        assert got == pytest.approx(want, rel=1e-9)


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


class TestCompensatorDrift:
    def test_symmetric_drift_vanishes(self):
        assert compensator_drift(sym(1.5)) == 0.0

    def test_one_sided_matches_tail_first_moment(self):
        # for alpha > 1 the leftover drift is int_{z>1} z nu(dz) = c/(alpha-1)
        m = one_sided(1.5, 0.7)
        want, _ = integrate.quad(lambda z: z * density_eval(m, z), 1, np.inf)
        assert compensator_drift(m) == pytest.approx(want, rel=1e-9)

    def test_subordinator_drift_is_minus_small_jump_mean(self):
        m = one_sided(0.5, subordinator=True)
        small_mean, _ = integrate.quad(lambda z: z * density_eval(m, z), 0, 1)
        assert compensator_drift(m) == pytest.approx(-small_mean, rel=1e-9)


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


class TestCheckAssumptions:
    def test_symmetric_small_alpha(self):
        rep = check_assumptions(sym(0.7))
        assert rep.a2_satisfied and rep.a2_reason is A2Reason.SUPPORT_COVERS
        assert not rep.is_subordinator
        assert rep.p_witness == pytest.approx(0.7)

    def test_one_sided_driver(self):
        rep = check_assumptions(one_sided(1.5))
        assert rep.a2_satisfied and rep.a2_reason is A2Reason.P_GT_1

    def test_one_sided_subordinator(self):
        rep = check_assumptions(one_sided(0.5, subordinator=True))
        assert rep.is_subordinator
        assert not rep.a2_satisfied and rep.a2_reason is A2Reason.NONE

    def test_tail_witness_is_finite(self):
        rep = check_assumptions(sym(1.2))
        assert math.isfinite(tail_moment(sym(1.2), rep.q_witness))

    def test_null_driver_refused(self):
        with pytest.raises(UsageError):
            check_assumptions(sym(1.5, 0.0))
