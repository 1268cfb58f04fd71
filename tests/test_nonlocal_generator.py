import math

import numpy as np
import pytest
from scipy import integrate

from levy_multiscale.errors import UsageError
from levy_multiscale.ergodicity import two_atom_measure
from levy_multiscale.jump_processes import FastProcessConfig
from levy_multiscale.levy_measures import (
    Family,
    LevyMeasureModel,
    density_eval,
    levy_exponent,
)
from levy_multiscale.nonlocal_generator import (
    CorrectorQuery,
    GeneratorQuadrature,
    approximate_corrector,
    counterexample_profile,
    effective_hamiltonian,
    generator_apply,
    lyapunov_drift_check,
    subordinator_counterexample,
)

SYM15 = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5)
SYM10 = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.0)
SUB05 = LevyMeasureModel(Family.ONE_SIDED_STABLE, 0.5, subordinator=True)


def brute_generator(model, f, df, y, inner=1e-6):
    """Independent route: raw quadrature of the full compensated integrand."""
    d2f_fd = (f(y + 1e-5) - 2 * f(y) + f(y - 1e-5)) / 1e-10
    val = -df(y) * y
    # analytic second-moment handling below `inner`
    sides = 2.0 if model.two_sided else 1.0
    m2 = sides * model.intensity * inner ** (2 - model.alpha) / (2 - model.alpha)
    val += 0.5 * d2f_fd * m2
    for s in (1.0, -1.0) if model.two_sided else (1.0,):
        comp, _ = integrate.quad(
            lambda z: (f(y + s * z) - f(y) - df(y) * s * z) * density_eval(model, s * z),
            inner, 1.0, limit=400,
        )
        val += comp
        for lo, hi in [(1.0, 10.0), (10.0, 100.0), (100.0, 1e3), (1e3, np.inf)]:
            plain, _ = integrate.quad(
                lambda z: (f(y + s * z) - f(y)) * density_eval(model, s * z),
                lo, hi, limit=400,
            )
            val += plain
    return val


class TestGeneratorQuadratureType:
    def test_default_outer_cut_tail_mass(self):
        q = GeneratorQuadrature(SYM15)
        from levy_multiscale.levy_measures import tail_mass

        assert tail_mass(SYM15, q.M) / tail_mass(SYM15, 1.0) == pytest.approx(1e-8, rel=1e-6)


class TestGeneratorApply:
    def test_constants_annihilated(self):
        q = GeneratorQuadrature(SYM15)
        for y in (-3.0, 0.0, 2.5):
            val = generator_apply(q, lambda v: 7.0, y, lambda v: 0.0, lambda v: 0.0)
            assert abs(val) < 1e-12

    def test_identity_symmetric_cancellation(self):
        # compensated small jumps cancel by symmetry, big-jump mean vanishes,
        # so only the drift -y survives
        q = GeneratorQuadrature(SYM15)
        val = generator_apply(
            q, lambda v: v, 2.0, lambda v: 1.0, lambda v: 0.0, growth_order=1.0
        )
        assert val == pytest.approx(-2.0, abs=1e-5)

    def test_identity_against_raw_quadrature(self):
        q = GeneratorQuadrature(SYM15)
        f, df = lambda v: v, lambda v: 1.0
        got = generator_apply(q, f, 0.7, df, lambda v: 0.0, growth_order=1.0)
        want = brute_generator(SYM15, f, df, 0.7)
        assert got == pytest.approx(want, abs=1e-4)

    def test_cosine_matches_exponent_real_part(self):
        q = GeneratorQuadrature(SYM10)
        val, err = generator_apply(
            q, math.cos, 0.0, lambda v: -math.sin(v), lambda v: -math.cos(v),
            return_error=True,
        )
        # the achieved error must be both small and honestly reported
        assert abs(val + math.pi) < 1e-5
        assert err < 1e-4
        assert abs(val - levy_exponent(SYM10, 1.0).real) < max(5.0 * err, 1e-8)

    def test_smooth_bump_against_raw_quadrature(self):
        q = GeneratorQuadrature(SYM15)
        f = lambda v: 1.0 / (1.0 + v * v)
        df = lambda v: -2.0 * v / (1.0 + v * v) ** 2
        d2f = lambda v: (6.0 * v * v - 2.0) / (1.0 + v * v) ** 3
        for y in (-1.0, 0.5, 3.0):
            got = generator_apply(q, f, y, df, d2f)
            want = brute_generator(SYM15, f, df, y)
            assert got == pytest.approx(want, abs=5e-5)

    def test_linearity(self):
        q = GeneratorQuadrature(SYM15)
        f = lambda v: math.cos(v)
        g = lambda v: 1.0 / (1.0 + v * v)
        combo = lambda v: 2.0 * f(v) - 3.0 * g(v)
        y = 0.8
        lhs = generator_apply(q, combo, y)
        rhs = 2.0 * generator_apply(q, f, y) - 3.0 * generator_apply(q, g, y)
        assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_finite_difference_fallback_matches_analytic(self):
        q = GeneratorQuadrature(SYM15)
        f = lambda v: math.cos(v)
        with_analytic = generator_apply(q, f, 1.2, lambda v: -math.sin(v), lambda v: -math.cos(v))
        with_fd = generator_apply(q, f, 1.2)
        assert with_fd == pytest.approx(with_analytic, abs=1e-5)

    def test_error_estimate_reported(self):
        q = GeneratorQuadrature(SYM15)
        val, err = generator_apply(q, math.cos, 0.3, return_error=True)
        assert math.isfinite(val)
        assert 0.0 <= err < 1e-4

    def test_growth_order_must_stay_below_alpha(self):
        q = GeneratorQuadrature(SYM15)
        with pytest.raises(UsageError):
            generator_apply(q, lambda v: v, 0.0, growth_order=1.6)

    def test_null_driver_reduces_to_drift(self):
        q = GeneratorQuadrature(LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5, 0.0))
        assert generator_apply(q, lambda v: v, 2.0, lambda v: 1.0, lambda v: 0.0) == -2.0


class TestLyapunovDrift:
    def test_certificate_holds_for_moderate_exponent(self):
        q = GeneratorQuadrature(SYM15)
        a, ok = lyapunov_drift_check(q, 1.0, 5.0, np.array([-20.0, -10.0, -5.0, 5.0, 10.0, 20.0]))
        assert ok and a > 0.0

    def test_exponent_at_or_above_alpha_refused(self):
        q = GeneratorQuadrature(SYM15)
        with pytest.raises(UsageError):
            lyapunov_drift_check(q, 1.5, 5.0, np.array([5.0]))

    def test_samples_inside_ball_refused(self):
        q = GeneratorQuadrature(SYM15)
        with pytest.raises(UsageError):
            lyapunov_drift_check(q, 1.0, 5.0, np.array([3.0, 10.0]))

    def test_witness_nonincreasing_on_nested_sets(self):
        q = GeneratorQuadrature(SYM15)
        a_small, _ = lyapunov_drift_check(q, 1.0, 10.0, np.array([-20.0, -10.0, 10.0, 20.0]))
        a_big, _ = lyapunov_drift_check(
            q, 1.0, 5.0, np.array([-20.0, -10.0, -5.0, 5.0, 10.0, 20.0])
        )
        assert a_big <= a_small + 1e-12


class TestSubordinatorCounterexample:
    def test_plateau_point_closed_form(self):
        # int_0^1 z^{-1/2} dz = 2
        prof = counterexample_profile(SUB05)
        assert prof.c == pytest.approx(2.0, rel=1e-14)

    def test_profile_shape(self):
        prof = counterexample_profile(SUB05)
        assert prof.f(-prof.c) == 0.0
        assert prof.f(5.0) == 0.0
        assert prof.df(-prof.c - 1.0) > 0.0
        assert prof.df(0.0) == 0.0
        ys = np.linspace(-30.0, 5.0, 200)
        vals = [prof.f(y) for y in ys]
        assert np.all(np.diff(vals) >= -1e-15)  # nondecreasing
        assert min(vals) >= -0.25  # bounded below by the ramp mass

    def test_subsolution_property_on_grid(self):
        q = GeneratorQuadrature(SUB05)
        worst = subordinator_counterexample(q)
        assert worst <= 1e-6

    def test_right_of_plateau_sign_argument(self):
        # for y >= -c the drift term vanishes and the jump average of a
        # nondecreasing profile is nonnegative, so -I <= 0 up to quadrature
        q = GeneratorQuadrature(SUB05)
        prof = counterexample_profile(q.model)
        for y in (-2.0, -1.0, 0.0, 4.0):
            gen = generator_apply(q, prof.f, y, prof.df, prof.d2f)
            assert -gen <= 1e-8

    def test_non_subordinator_model_refused(self):
        with pytest.raises(UsageError):
            subordinator_counterexample(GeneratorQuadrature(SYM15))


class TestApproximateCorrector:
    def test_constant_hamiltonian(self):
        cq = CorrectorQuery(
            model=SYM15, frozen_point=(1.0, 1.0, -1.0), delta=0.1,
            y_grid=np.array([-1.0, 0.0, 2.0]), mc_paths=2000, seed=3, dt=0.05,
        )
        k = 3.0
        chi = approximate_corrector(cq, lambda x, y, p, X: np.full(np.shape(y), k))
        assert np.allclose(cq.delta * chi, -k, rtol=1e-3)

    def test_residual_shrinks_with_delta(self):
        h = lambda x, y, p, X: 1.0 / (1.0 + y * y)
        from levy_multiscale.ergodicity import estimate_invariant_measure

        mu = estimate_invariant_measure(
            FastProcessConfig(SYM15, lam=1.0, y0=0.0, horizon=10.0, dt=0.05, seed=11),
            burn_in=10.0, n_samples=20_000,
        )
        h_bar = effective_hamiltonian(mu, h, 1.0, 1.0, -1.0)
        y_grid = np.array([-2.0, 0.0, 2.0])
        residuals = []
        spreads = []
        for delta in (0.2, 0.1, 0.05):
            cq = CorrectorQuery(
                model=SYM15, frozen_point=(1.0, 1.0, -1.0), delta=delta,
                y_grid=y_grid, mc_paths=4000, seed=7, dt=0.05,
            )
            chi = approximate_corrector(cq, h)
            residuals.append(np.max(np.abs(delta * chi + h_bar)))
            spreads.append(np.max(delta * chi) - np.min(delta * chi))
        assert residuals[0] > residuals[1] > residuals[2]
        assert spreads[0] > spreads[2]  # delta*chi flattens in y as delta -> 0

    def test_query_validation(self):
        with pytest.raises(UsageError):
            CorrectorQuery(SYM15, (1.0, 1.0, -1.0), -0.1, np.array([0.0]))
        with pytest.raises(UsageError):
            CorrectorQuery(SYM15, (1.0, 1.0, -1.0), 0.1, np.array([0.0]), mc_paths=10)


def _bellman_min(x, y, p, X, controls, r=0.05, excess=0.05, sigma_fn=None):
    sigma_fn = sigma_fn or (lambda v: 0.2 + 0.1 * np.tanh(v))
    y = np.asarray(y, dtype=float)
    sig2 = sigma_fn(y) ** 2
    vals = np.stack(
        [-(u * u) * sig2 * x * x * X - (r + excess * u) * x * p for u in controls]
    )
    return vals.min(axis=0)


class TestEffectiveHamiltonian:
    def test_constant_coefficient_collapses(self):
        mu = two_atom_measure(-1.0, 1.0)
        h = lambda x, y, p, X: -0.04 * x * x * X - 0.05 * x * p
        got = effective_hamiltonian(mu, h, 1.0, 2.0, -1.0)
        assert got == pytest.approx(h(1.0, 0.0, 2.0, -1.0), rel=1e-14)

    def test_uncontrolled_average_of_coefficients(self):
        # linear Hamiltonian: the average acts on the coefficients directly
        mu = two_atom_measure(0.0, 2.0)
        a = lambda y: 1.0 + np.asarray(y)
        h = lambda x, y, p, X: -a(y) * X - 2.0 * a(y) * p
        got = effective_hamiltonian(mu, h, 1.0, 3.0, -1.0)
        a_bar = 0.5 * (a(0.0) + a(2.0))
        assert got == pytest.approx(-a_bar * (-1.0) - 2.0 * a_bar * 3.0, rel=1e-14)

    def test_two_atom_hand_computed_bellman(self):
        mu = two_atom_measure(-1.0, 1.0)
        controls = np.linspace(0.0, 2.0, 41)
        h = lambda x, y, p, X: _bellman_min(x, y, p, X, controls)
        got = effective_hamiltonian(mu, h, 1.0, 1.0, -1.0)
        want = 0.5 * (
            _bellman_min(1.0, -1.0, 1.0, -1.0, controls)
            + _bellman_min(1.0, 1.0, 1.0, -1.0, controls)
        )
        assert got == pytest.approx(float(want), rel=1e-14)

    def test_elliptic_monotonicity_in_curvature(self):
        mu = two_atom_measure(-0.5, 1.5)
        controls = np.linspace(0.0, 2.0, 21)
        h = lambda x, y, p, X: _bellman_min(x, y, p, X, controls)
        lo = effective_hamiltonian(mu, h, 1.0, 1.0, -2.0)
        hi = effective_hamiltonian(mu, h, 1.0, 1.0, -1.0)
        # X' >= X in the elliptic order pushes the Bellman value down
        assert hi <= lo

    def test_error_inside_the_hamiltonian_is_not_retried(self):
        # H is called once on the node array; its error is not retried node by node
        def h(x, y, p, X):
            if np.ndim(y):
                raise ValueError("array input")
            return float(y) * p

        with pytest.raises(ValueError, match="array input"):
            effective_hamiltonian(two_atom_measure(0.0, 1.0), h, 0.0, 2.0, 0.0)
