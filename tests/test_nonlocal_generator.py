import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from levy_multiscale.errors import UsageError
from levy_multiscale.ergodicity import InvariantMeasure, two_atom_measure
from levy_multiscale.finance import MertonSpec, merton_problem
from levy_multiscale.hjb_solvers import Grids, effective_solve, hamiltonian_eval, pide_solve
from levy_multiscale.jump_processes import FastProcessConfig
from levy_multiscale.levy_measures import (
    Family,
    LevyMeasureModel,
    compensator_drift,
    default_outer_cut,
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
SUB05 = LevyMeasureModel(Family.ONE_SIDED_STABLE, 0.5)


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
        from levy_multiscale.levy_measures import tail_mass

        m_cut = default_outer_cut(SYM15)
        assert tail_mass(SYM15, m_cut) / tail_mass(SYM15, 1.0) == pytest.approx(1e-8, rel=1e-6)


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

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("y", [-3.0, 0.0, 0.7, 2.0])
    def test_identity_one_sided_closed_form(self, alpha, y):
        # I[y, id] = -y + int_{z > 1} z nu(dz): the compensator drift.  The residual,
        # |y| nu(z > M) / (alpha - 1) <= 1.25e-7 here, is the extrapolation beyond M
        model = LevyMeasureModel(Family.ONE_SIDED_STABLE, alpha)
        val = generator_apply(GeneratorQuadrature(model), lambda v: v, y, lambda v: 1.0,
                              lambda v: 0.0, growth_order=1.0)
        assert val == pytest.approx(-y + compensator_drift(model), abs=2e-7)

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
        f, df, d2f = math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)
        g = lambda v: 1.0 / (1.0 + v * v)
        dg = lambda v: -2.0 * v / (1.0 + v * v) ** 2
        d2g = lambda v: (6.0 * v * v - 2.0) / (1.0 + v * v) ** 3
        combo = lambda v: 2.0 * f(v) - 3.0 * g(v)
        dcombo = lambda v: 2.0 * df(v) - 3.0 * dg(v)
        d2combo = lambda v: 2.0 * d2f(v) - 3.0 * d2g(v)
        y = 0.8
        lhs = generator_apply(q, combo, y, dcombo, d2combo)
        rhs = 2.0 * generator_apply(q, f, y, df, d2f) - 3.0 * generator_apply(q, g, y, dg, d2g)
        assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_error_estimate_reported(self):
        q = GeneratorQuadrature(SYM15)
        val, err = generator_apply(q, math.cos, 0.3, lambda v: -math.sin(v),
                                   lambda v: -math.cos(v), return_error=True)
        assert math.isfinite(val)
        assert 0.0 <= err < 1e-4

    def test_growth_order_must_stay_below_alpha(self):
        q = GeneratorQuadrature(SYM15)
        with pytest.raises(UsageError):
            generator_apply(q, lambda v: v, 0.0, lambda v: 1.0, lambda v: 0.0, growth_order=1.6)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_evaluation_point_must_be_finite(self, y):
        q = GeneratorQuadrature(SYM15)
        with pytest.raises(UsageError, match="finite"):
            generator_apply(q, math.cos, y, lambda v: -math.sin(v), lambda v: -math.cos(v))

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

    def test_truncation_is_whole_steps(self):
        # 10 / 0.3 is not on the dt = 0.02 grid: the run takes round(10 / (0.3 * 0.02)) steps
        cq = CorrectorQuery(model=SYM15, frozen_point=(1.0, 1.0, -1.0), delta=0.3,
                            y_grid=np.array([0.0]), mc_paths=1000, seed=3, dt=0.02)
        states = []

        def h(x, y, p, X):
            states.append(len(y))  # one call per state on the one-point grid
            return np.ones(len(y))

        approximate_corrector(cq, h)
        assert len(states) - 1 == round(10.0 / (0.3 * 0.02)) == 1667

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

    def test_query_keeps_its_own_y_grid(self):
        # the query held the caller's array, so g[0] = nan undid the construction check
        g = np.array([-1.0, 0.0, 2.0])
        args = dict(model=SYM15, frozen_point=(1.0, 1.0, -1.0), delta=0.5, mc_paths=1000,
                    seed=3, dt=0.1)
        cq, untouched = CorrectorQuery(y_grid=g, **args), CorrectorQuery(y_grid=g.copy(), **args)
        g[0] = math.nan
        h = lambda x, y, p, X: 1.0 / (1.0 + y * y)
        assert np.array_equal(approximate_corrector(cq, h), approximate_corrector(untouched, h))
        assert not cq.y_grid.flags.writeable

    @pytest.mark.parametrize("field, value", [
        ("delta", -0.1), ("delta", math.nan), ("delta", math.inf),
        ("mc_paths", 10), ("mc_paths", 1000.5),
    ])
    def test_query_validation(self, field, value):
        # nan and inf deltas used to be accepted, 1000.5 paths to fail in numpy as a TypeError
        args = dict(model=SYM15, frozen_point=(1.0, 1.0, -1.0), delta=0.1, y_grid=np.array([0.0]),
                    dt=0.02)
        with pytest.raises(UsageError):
            CorrectorQuery(**{**args, field: value})


SNAPSHOT_MERTON = MertonSpec(r=0.05, alpha_drift=0.1, R1=0.0, R=1.0, gamma=0.5, a=1.0,
                             horizon=1.0, w0=1.0, sigma_fn=lambda y: 0.2 + 0.1 * np.tanh(y))


def snapshot_arrays():
    """Fresh caller arrays for every array field of ``Grids``, the spec and the measure."""
    return dict(x=np.linspace(0.0, 1.0, 31), y=np.linspace(-2.0, 2.0, 9),
                control_grid=np.linspace(0.0, 1.0, 11), nodes=np.linspace(-1.0, 1.0, 5),
                weights=np.array([0.1, 0.2, 0.4, 0.2, 0.1]))


def snapshot_records(x, y, control_grid, nodes, weights):
    """``{field: the record that holds it}`` built from the given arrays."""
    problem = replace(merton_problem(SNAPSHOT_MERTON), control_grid=control_grid)
    grids, mu = Grids(x=x, y=y), InvariantMeasure(nodes, weights)
    return dict(x=grids, y=grids, control_grid=problem, nodes=mu, weights=mu)


def snapshot_solves(records):
    """t grid, x grid and values of both solvers on ``records``."""
    problem, grids, mu = records["control_grid"], records["x"], records["nodes"]
    fields = (effective_solve(problem, mu, grids), pide_solve(problem, SYM15, 0.5, grids))
    return [a for f in fields for a in (f.t_grid, f.x_grid, f.values)]


class TestArraySnapshots:
    """The records keep the guard's read-only float copy, not the caller's array."""

    @pytest.mark.parametrize("field", ["x", "y", "control_grid", "nodes", "weights"])
    def test_caller_edit_changes_no_record_or_solve(self, field):
        # the records held the caller's arrays, so an edit after construction reached the solvers
        caller = snapshot_arrays()
        kept = snapshot_records(**caller)
        untouched = snapshot_records(**{k: v.copy() for k, v in caller.items()})
        caller[field][-1] = 5.0
        assert np.array_equal(getattr(kept[field], field), getattr(untouched[field], field))
        for a, b in zip(snapshot_solves(kept), snapshot_solves(untouched)):
            assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            getattr(kept[field], field)[0] = 0.0

    def test_measure_from_lists(self):
        # cf and coarsen raised TypeError on the stored lists
        listed = InvariantMeasure([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        arrays = InvariantMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
        assert listed.cf(1.0) == arrays.cf(1.0)
        assert listed.mean_of(np.cos) == arrays.mean_of(np.cos)
        a, b = listed.coarsen(2), arrays.coarsen(2)
        assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)

    def test_list_grids_solve_as_arrays(self):
        arrays = snapshot_arrays()
        listed = snapshot_records(**{**arrays, "x": arrays["x"].tolist(),
                                     "control_grid": arrays["control_grid"].tolist()})
        kept = snapshot_records(**arrays)
        for a, b in zip(snapshot_solves(listed), snapshot_solves(kept)):
            assert np.array_equal(a, b)
        assert hamiltonian_eval(listed["control_grid"], 0.5, 0.3, 1.0, -2.0) == hamiltonian_eval(
            kept["control_grid"], 0.5, 0.3, 1.0, -2.0)


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
