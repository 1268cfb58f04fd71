import dataclasses
import math

import numpy as np
import pytest
from scipy import linalg

from levy_multiscale import hjb_solvers
from levy_multiscale.errors import CFLViolation, NumericalError, UsageError
from levy_multiscale.ergodicity import two_atom_measure
from levy_multiscale.finance import MertonSpec, PricingSpec, merton_problem, pricing_problem
from levy_multiscale.hjb_solvers import (
    CompactBox,
    ControlProblemSpec,
    Grids,
    QuadraticControlStructure,
    ValueField,
    _LocalBellman,
    _propagator,
    assemble_factor_generator,
    effective_solve,
    hamiltonian_eval,
    pide_solve,
    sup_norm_gap,
)
from levy_multiscale.levy_measures import (
    Family,
    LevyMeasureModel,
    interval_first_moment,
    interval_mass,
)
from levy_multiscale.nonlocal_generator import GeneratorQuadrature, generator_apply

SYM15 = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5)
ONE15 = LevyMeasureModel(Family.ONE_SIDED_STABLE, 1.5)


def const_sigma(s):
    return lambda y: np.full_like(np.asarray(y, dtype=float), s)


def tanh_sigma(base, amp):
    return lambda y: base + amp * np.tanh(np.asarray(y, dtype=float))


def merton_spec(sigma_fn=None, R=2.0, T=1.0, R1=0.0):
    return MertonSpec(
        r=0.05, alpha_drift=0.1, sigma_fn=sigma_fn or const_sigma(0.2),
        R1=R1, R=R, gamma=0.5, a=1.0, horizon=T, w0=1.0,
    )


def pricing_spec(payoff, sigma_fn=None, c=0.05, T=1.0):
    return PricingSpec(
        r=0.05, sigma_fn=sigma_fn or tanh_sigma(0.3, 0.1),
        payoff=payoff, discount=c, horizon=T, x0=1.0,
    )


class TestHamiltonianEval:
    def test_zero_gradient_and_curvature(self):
        prob = merton_problem(merton_spec())
        val, u = hamiltonian_eval(prob, 1.0, 0.0, 0.0, 0.0)
        assert val == 0.0
        assert u == prob.control_grid[0]  # ties break to the first grid point

    def test_merton_interior_parabola_value(self):
        # grid minimum of the concave-parabola objective vs the vertex value
        prob = merton_problem(merton_spec())
        w, p, X, sig = 1.0, 1.0, -1.0, 0.2
        val, u = hamiltonian_eval(prob, w, 0.0, p, X)
        excess = 0.1 - 0.05
        want = excess**2 * p**2 / (4.0 * sig**2 * X) - 0.05 * w * p
        du = prob.control_grid[1] - prob.control_grid[0]
        resolution = sig**2 * w * w * abs(X) * du * du / 4.0
        assert abs(val - want) <= resolution + 1e-12
        assert abs(u - excess / (2.0 * sig**2)) <= du

    def test_single_control_no_minimization(self):
        prob = pricing_problem(pricing_spec(lambda x: np.asarray(x, dtype=float)))
        val, u = hamiltonian_eval(prob, 2.0, 0.5, 1.0, -0.5)
        sig = 0.3 + 0.1 * math.tanh(0.5)
        want = -0.5 * (math.sqrt(2) * 2.0 * sig) ** 2 * (-0.5) - 0.05 * 2.0 * 1.0
        assert val == pytest.approx(want, rel=1e-12)
        assert u == 0.0


class TestSignChangingDrift:
    """Merton with shorting: r + (alpha - r) u changes sign on [-2, 2]."""

    prob = merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1), R1=-2.0, R=2.0))
    x = np.linspace(0.0, 3.0, 13)

    def upwinded_scan(self, x, y, fwd, bwd, d2):
        """Brute-force minimum: forward difference where the coefficient is >= 0."""
        st = self.prob.structure
        controls = np.asarray(self.prob.control_grid)
        forward = st.beta0 + st.beta1 * controls >= 0.0
        runs = [
            hamiltonian_eval(dataclasses.replace(self.prob, control_grid=controls[sel]), x, y, p, d2)[0]
            for sel, p in ((forward, fwd), (~forward, bwd))
        ]
        return min(runs), runs[1] < runs[0]

    def differences(self, v):
        dx = self.x[1] - self.x[0]
        fwd = (v[2:] - v[1:-1]) / dx
        bwd = (v[1:-1] - v[:-2]) / dx
        d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
        return fwd, bwd, d2

    def test_factor_grid_shape_matches_upwinded_scan(self):
        y = np.linspace(-2.0, 2.0, 5)
        v = np.sin(2.0 * self.x)[:, None] * (1.0 + 0.3 * np.tanh(y))[None, :]
        h = _LocalBellman(self.prob, self.x, y, None).hamiltonian(v)
        fwd, bwd, d2 = self.differences(v)
        backward_wins = 0
        for i in range(len(self.x) - 2):
            for j, yj in enumerate(y):
                want, bwd_won = self.upwinded_scan(self.x[i + 1], yj, fwd[i, j], bwd[i, j], d2[i, j])
                backward_wins += bwd_won
                assert h[i + 1, j] == pytest.approx(want, abs=1e-12)
        assert 0 < backward_wins < (len(self.x) - 2) * len(y)

    def test_weighted_shape_matches_upwinded_scan(self):
        atoms, weights = np.array([-1.0, 0.5, 2.0]), np.array([0.2, 0.5, 0.3])
        v = np.sin(2.0 * self.x)
        h = _LocalBellman(self.prob, self.x, atoms, weights).hamiltonian(v)
        fwd, bwd, d2 = self.differences(v)
        for i in range(len(self.x) - 2):
            want = sum(
                w * self.upwinded_scan(self.x[i + 1], a, fwd[i], bwd[i], d2[i])[0]
                for a, w in zip(atoms, weights)
            )
            assert h[i + 1] == pytest.approx(want, abs=1e-12)


class TestEffectiveSolve:
    def test_constant_payoff_is_preserved(self):
        prob = pricing_problem(pricing_spec(lambda x: np.full_like(np.asarray(x, float), 5.0), c=0.0))
        mu = two_atom_measure(-1.0, 1.0)
        field = effective_solve(prob, mu, Grids(x=np.linspace(0.0, 4.0, 101)))
        assert np.max(np.abs(field.values - 5.0)) < 1e-10

    def test_merton_matches_closed_form_coarse(self, invariant_measure_15):
        spec = merton_spec()
        prob = merton_problem(spec)
        field = effective_solve(prob, invariant_measure_15, Grids(x=np.linspace(0.0, 6.0, 151)))
        from levy_multiscale.finance import merton_hara_closed_form

        sel = (field.x_grid >= 0.5) & (field.x_grid <= 2.0)
        xs = field.x_grid[sel]
        worst = 0.0
        for i, t in enumerate(field.t_grid):
            want = merton_hara_closed_form(spec, invariant_measure_15, min(t, 1.0), xs)
            worst = max(worst, float(np.max(np.abs(field.values[i, sel] - want) / want)))
        assert worst < 5e-3

    def test_pricing_martingale_identity(self, invariant_measure_15):
        # g(x) = x with discount equal to the rate: the price surface is x itself
        prob = pricing_problem(pricing_spec(lambda x: np.asarray(x, dtype=float), c=0.05))
        field = effective_solve(prob, invariant_measure_15, Grids(x=np.linspace(0.0, 6.0, 201)))
        sel = (field.x_grid >= 0.5) & (field.x_grid <= 2.0)
        xs = field.x_grid[sel]
        err = np.max(np.abs(field.values[:, sel] - xs[None, :]) / xs[None, :])
        assert err < 1e-2

    def test_terminal_slice_exact(self, invariant_measure_15):
        payoff = lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0)
        prob = pricing_problem(pricing_spec(payoff))
        field = effective_solve(prob, invariant_measure_15, Grids(x=np.linspace(0.0, 4.0, 81)))
        assert field.t_grid[-1] == pytest.approx(1.0)
        assert np.array_equal(field.values[-1], payoff(field.x_grid))

    def test_comparison_monotone_in_payoff(self, invariant_measure_15):
        lo = lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0)
        hi = lambda x: np.maximum(np.asarray(x, float) - 0.8, 0.0)
        grids = Grids(x=np.linspace(0.0, 4.0, 81))
        f_lo = effective_solve(pricing_problem(pricing_spec(lo)), invariant_measure_15, grids)
        f_hi = effective_solve(pricing_problem(pricing_spec(hi)), invariant_measure_15, grids)
        assert np.all(f_hi.values >= f_lo.values - 1e-12)

    def test_discount_scales_linear_pricing(self, invariant_measure_15):
        payoff = lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0)
        grids = Grids(x=np.linspace(0.0, 4.0, 81))
        f0 = effective_solve(pricing_problem(pricing_spec(payoff, c=0.0)), invariant_measure_15, grids)
        fc = effective_solve(pricing_problem(pricing_spec(payoff, c=0.08)), invariant_measure_15, grids)
        for i, t in enumerate(f0.t_grid):
            scale = math.exp(0.08 * (min(t, 1.0) - 1.0))
            assert np.allclose(fc.values[i], scale * f0.values[i], atol=2e-4)

    def test_cfl_violation_reports_suggestion(self, invariant_measure_15):
        prob = pricing_problem(pricing_spec(lambda x: np.asarray(x, float)))
        with pytest.raises(CFLViolation) as exc:
            effective_solve(prob, invariant_measure_15, Grids(x=np.linspace(0.0, 4.0, 81), dt=0.1))
        assert exc.value.suggested_dt < 0.1


# every jump branch of the assembly: alpha < 1, the alpha = 1 log moment, alpha > 1, one-sided
GENERATOR_MODELS = [LevyMeasureModel(Family.SYMMETRIC_STABLE, a) for a in (0.7, 1.0, 1.5)] + [
    LevyMeasureModel(Family.ONE_SIDED_STABLE, a) for a in (1.2, 1.5)
]
each_generator_model = pytest.mark.parametrize(
    "model", GENERATOR_MODELS, ids=lambda m: f"{m.family.value}-{m.alpha}"
)


class TestFactorGeneratorMatrix:
    def test_rows_annihilate_constants(self):
        y = np.linspace(-8.0, 8.0, 65)
        L, diag = assemble_factor_generator(SYM15, y)
        assert np.max(np.abs(L.sum(axis=1))) < 1e-10
        assert diag["extrapolated_tail_mass"] < 1e-6

    def test_matches_continuous_generator_on_smooth_function(self):
        y = np.linspace(-12.0, 12.0, 193)
        L, _ = assemble_factor_generator(SYM15, y)
        f = lambda v: np.cos(v)
        vals = L @ f(y)
        q = GeneratorQuadrature(SYM15)
        for idx in (80, 96, 112):
            want = generator_apply(
                q, math.cos, float(y[idx]), lambda v: -math.sin(v), lambda v: -math.cos(v)
            )
            assert vals[idx] == pytest.approx(want, abs=0.05)

    def test_offdiagonal_sign_structure(self):
        y = np.linspace(-6.0, 6.0, 49)
        L, _ = assemble_factor_generator(SYM15, y)
        neg_offdiag = 0
        for i in range(49):
            for j in range(49):
                if i != j and L[i, j] < -1e-13:
                    neg_offdiag += 1
        # edge-value closure and monotone drift: no off-diagonal entry is negative
        assert neg_offdiag == 0

    def test_matches_continuous_generator_one_sided(self):
        # one-sided jumps and a large compensator drift, where the choice
        # between central and upwind drift matters most
        model = LevyMeasureModel(Family.ONE_SIDED_STABLE, 1.5)
        y = np.linspace(-12.0, 12.0, 193)
        L, _ = assemble_factor_generator(model, y)
        vals = L @ np.cos(y)
        q = GeneratorQuadrature(model)
        for idx in (80, 96, 112):
            want = generator_apply(
                q, math.cos, float(y[idx]), lambda v: -math.sin(v), lambda v: -math.cos(v)
            )
            assert vals[idx] == pytest.approx(want, abs=0.05)

    @each_generator_model
    def test_monotonicity_margin_is_the_smallest_offdiagonal_entry(self, model):
        y = np.linspace(-6.0, 6.0, 49)
        L, diag = assemble_factor_generator(model, y)
        offdiag = L[~np.eye(len(y), dtype=bool)]
        assert diag["monotonicity_margin"] >= 0.0
        assert diag["monotonicity_margin"] == np.min(offdiag)
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-12 * np.max(np.abs(L))

    @each_generator_model
    def test_jump_weights_depend_on_the_offset_alone(self, model):
        # away from the edge column, offsets k >= 2 carry only the jump
        # weights, which on a uniform grid do not depend on the row
        ny = 49
        L, _ = assemble_factor_generator(model, np.linspace(-6.0, 6.0, ny))
        for k in range(2, ny - 1):
            band = np.array([L[i, i + k] for i in range(ny - 1 - k)])
            assert np.ptp(band) <= 1e-15 * np.max(np.abs(L))

    @each_generator_model
    def test_exact_on_the_identity_clamped_at_the_edges(self, model):
        # f(y) = y, held at its edge value beyond the grid: cell splitting is
        # exact for linear functions, so each interior row equals the drift
        # plus the jump integral of the clamped increment, in closed form;
        # this pins the edge column, which the Toeplitz tests leave out
        y = np.linspace(-6.0, 6.0, 49)
        dy = y[1] - y[0]
        L, diag = assemble_factor_generator(model, y)
        m_cut = diag["outer_cut"]
        comp = interval_first_moment(model, dy, 1.0) + interval_first_moment(model, -1.0, -dy)
        for i in range(2, len(y) - 2):  # rows reaching at least two cells each way
            up, down = (len(y) - 1 - i) * dy, i * dy
            want = -(y[i] + comp)
            want += interval_first_moment(model, dy, up) + up * interval_mass(model, up, m_cut)
            want += interval_first_moment(model, -down, -dy) - down * interval_mass(model, -m_cut, -down)
            assert (L @ y)[i] == pytest.approx(want, abs=1e-12 * np.max(np.abs(L)))

    def test_symmetric_model_on_symmetric_grid_is_centrosymmetric(self):
        for y in (np.linspace(-6.0, 6.0, 49), np.linspace(-8.0, 8.0, 33)):
            L, _ = assemble_factor_generator(SYM15, y)
            assert np.max(np.abs(L - L[::-1, ::-1])) <= 1e-14 * np.max(np.abs(L))


class TestPideSolve:
    def grids(self, nx=81, ny=41, x_max=4.0, y_max=6.0):
        return Grids(x=np.linspace(0.0, x_max, nx), y=np.linspace(-y_max, y_max, ny))

    def test_constant_payoff_no_discount(self):
        prob = pricing_problem(pricing_spec(lambda x: np.full_like(np.asarray(x, float), 3.0), c=0.0))
        field = pide_solve(prob, SYM15, epsilon=0.5, grids=self.grids())
        assert np.max(np.abs(field.values - 3.0)) < 1e-9

    def test_constant_payoff_discounts_exponentially(self):
        prob = pricing_problem(pricing_spec(lambda x: np.full_like(np.asarray(x, float), 2.0), c=0.1))
        field = pide_solve(prob, SYM15, epsilon=0.5, grids=self.grids(nx=41, ny=21))
        for i, t in enumerate(field.t_grid):
            want = 2.0 * math.exp(0.1 * (min(t, 1.0) - 1.0))
            assert np.max(np.abs(field.values[i] - want)) < 1e-5 * want

    def test_terminal_condition_exact(self):
        payoff = lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0)
        prob = pricing_problem(pricing_spec(payoff))
        field = pide_solve(prob, SYM15, epsilon=1.0, grids=self.grids(nx=41, ny=21))
        want = np.repeat(payoff(field.x_grid)[:, None], len(field.y_grid), axis=1)
        assert np.array_equal(field.values[-1], want)

    def test_assumption_gate(self):
        sub = LevyMeasureModel(Family.ONE_SIDED_STABLE, 0.5, subordinator=True)
        prob = pricing_problem(pricing_spec(lambda x: np.asarray(x, float)))
        from levy_multiscale.errors import AssumptionError

        with pytest.raises(AssumptionError):
            pide_solve(prob, sub, epsilon=0.5, grids=self.grids(nx=41, ny=21))

    def test_approaches_effective_solution_as_epsilon_shrinks(self, invariant_measure_15):
        payoff = lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0)
        prob = pricing_problem(pricing_spec(payoff))
        grids = self.grids(nx=101, ny=41, x_max=5.0)
        eff = effective_solve(prob, invariant_measure_15, Grids(x=grids.x))
        box = CompactBox(t=(0.0, 1.0), x=(0.5, 2.0), y=(-2.0, 2.0))
        gaps = []
        for eps in (1.0, 0.05):
            field = pide_solve(prob, SYM15, epsilon=eps, grids=grids)
            gaps.append(sup_norm_gap(field, eff, box))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.05

    def test_quadratic_growth_ratio_bounded(self):
        payoff = lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0)
        prob = pricing_problem(pricing_spec(payoff))
        field = pide_solve(prob, SYM15, epsilon=0.2, grids=self.grids(nx=61, ny=31))
        # a-priori moment bound: K e^{(2r + 2 sigma_max^2) T} with K = 1/2
        c_t = 0.5 * math.exp((2 * 0.05 + 2 * 0.16) * 1.0)
        assert field.quadratic_growth_ratio() <= c_t


class TestSupNormGap:
    def _field(self, values, ts, xs, ys=None):
        return ValueField(t_grid=ts, x_grid=xs, values=values, y_grid=ys)

    def test_broadcast_over_y_gives_zero(self):
        ts, xs, ys = np.linspace(0, 1, 5), np.linspace(0, 2, 9), np.linspace(-1, 1, 7)
        base = np.random.default_rng(0).random((5, 9))
        a = self._field(np.repeat(base[:, :, None], 7, axis=2), ts, xs, ys)
        b = self._field(base, ts, xs)
        box = CompactBox(t=(0.0, 1.0), x=(0.0, 2.0), y=(-1.0, 1.0))
        assert sup_norm_gap(a, b, box) == 0.0

    def test_constant_offset_recovered(self):
        ts, xs = np.linspace(0, 1, 5), np.linspace(0, 2, 9)
        base = np.random.default_rng(1).random((5, 9))
        a = self._field(base + 0.5, ts, xs)
        b = self._field(base, ts, xs)
        assert sup_norm_gap(a, b, CompactBox(t=(0, 1), x=(0, 2))) == pytest.approx(0.5)

    def test_disjoint_domains_rejected(self):
        ts, xs = np.linspace(0, 1, 5), np.linspace(0, 2, 9)
        base = np.zeros((5, 9))
        a = self._field(base, ts, xs)
        b = self._field(base, ts, xs)
        with pytest.raises(UsageError):
            sup_norm_gap(a, b, CompactBox(t=(0, 1), x=(5.0, 6.0)))


class TestGridsValidation:
    def test_x_grid_must_be_uniform(self):
        with pytest.raises(UsageError):
            Grids(x=np.array([0.0, 0.1, 0.3, 0.6]))

    def test_y_grid_must_be_uniform(self):
        with pytest.raises(UsageError):
            Grids(x=np.linspace(0, 1, 5), y=np.array([0.0, 0.1, 0.3, 0.6, 1.0]))

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            ControlProblemSpec(
                structure=QuadraticControlStructure(
                    beta0=0.0, beta1=0.0, sigma_of_y=const_sigma(0.2), vol_u_power=0),
                control_grid=np.array([]), payoff=lambda x: x,
                discount=0.0, horizon=1.0,
            )

    @pytest.mark.parametrize("field, value", [
        ("horizon", math.nan), ("horizon", math.inf), ("discount", math.nan),
        ("discount", math.inf),
    ])
    def test_spec_must_be_finite(self, field, value):
        # effective_solve used to meet these as a bare ValueError or OverflowError
        with pytest.raises(UsageError):
            dataclasses.replace(merton_problem(merton_spec()), **{field: value})

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0, math.nan], None),
        ([0.0, 1.0, math.inf], None),
        ([0.0, 1.0, 2.0], [-2.0, -1.0, math.nan, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [-math.inf, -1.0, 0.0, 1.0, 2.0]),
    ])
    def test_grid_nodes_must_be_finite(self, x, y):
        with pytest.raises(UsageError, match="finite"):
            Grids(x=np.array(x), y=None if y is None else np.array(y))

    def test_control_grid_must_be_increasing_and_uniform(self):
        prob = merton_problem(merton_spec())
        for grid in ([0.0, 0.1, 0.5, 1.0], [1.0, 0.5, 0.0], [0.0, 0.0]):
            with pytest.raises(UsageError):
                dataclasses.replace(prob, control_grid=np.array(grid))

    @pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [math.nan]])
    def test_control_grid_must_be_finite(self, grid):
        # NaN fails every comparison of the uniformity check, so it used to pass
        with pytest.raises(UsageError, match="finite"):
            dataclasses.replace(merton_problem(merton_spec()), control_grid=np.array(grid))

    def test_solvers_reject_negative_x_nodes(self, invariant_measure_15):
        prob = merton_problem(merton_spec())
        x = np.linspace(-1.5, 1.5, 31)
        with pytest.raises(UsageError):
            effective_solve(prob, invariant_measure_15, Grids(x=x))
        with pytest.raises(UsageError):
            pide_solve(prob, SYM15, epsilon=0.5, grids=Grids(x=x, y=np.linspace(-2.0, 2.0, 9)))

    def test_solvers_need_structure(self, invariant_measure_15):
        prob = dataclasses.replace(merton_problem(merton_spec()), structure=None)
        with pytest.raises(UsageError):
            effective_solve(prob, invariant_measure_15, Grids(x=np.linspace(0.0, 2.0, 21)))


def drift_control_problem():
    """Control on the drift only (vol_u_power = 0) over a run of each sign."""
    return ControlProblemSpec(
        structure=QuadraticControlStructure(
            beta0=0.05, beta1=0.1, sigma_of_y=tanh_sigma(0.2, 0.1), vol_u_power=0),
        control_grid=np.linspace(-1.0, 1.0, 9),
        payoff=lambda x: np.asarray(x, dtype=float), discount=0.0, horizon=1.0,
    )


BELLMAN_ROUTES = {
    # the benchmark's one-run Merton spec: every control upwinds forward
    "merton-one-run": merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1), R1=0.0, R=1.0)),
    # vol_u_power = 0 with a single control
    "pricing": pricing_problem(pricing_spec(lambda x: np.asarray(x, dtype=float))),
    "drift-control": drift_control_problem(),
}
each_bellman_route = pytest.mark.parametrize("route", list(BELLMAN_ROUTES))


class TestBellmanRoutes:
    """``_LocalBellman`` against the upwinded control scan on every row, edges included."""

    x = np.linspace(0.0, 3.0, 13)

    def slopes(self, v):
        """Forward, backward and second differences with the solver's end-row closures."""
        dx = self.x[1] - self.x[0]
        fwd, bwd, d2 = np.zeros_like(v), np.zeros_like(v), np.zeros_like(v)
        fwd[:-1] = bwd[1:] = (v[1:] - v[:-1]) / dx
        d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
        return fwd, bwd, d2

    @staticmethod
    def upwinded_scan(prob, x, y, fwd, bwd, d2):
        """Brute-force minimum and its control, forward difference where the drift is >= 0."""
        st = prob.structure
        controls = np.asarray(prob.control_grid)
        forward = st.beta0 + st.beta1 * controls >= 0.0
        best = None
        for sel, p in ((forward, fwd), (~forward, bwd)):
            if np.any(sel):
                run = dataclasses.replace(prob, control_grid=controls[sel])
                cand = hamiltonian_eval(run, x, y, p, d2)
                best = cand if best is None or cand[0] < best[0] else best
        return best

    @each_bellman_route
    def test_factor_grid_shape_matches_upwinded_scan(self, route):
        prob = BELLMAN_ROUTES[route]
        y = np.linspace(-2.0, 2.0, 5)
        v = np.sin(2.0 * self.x)[:, None] * (1.0 + 0.3 * np.tanh(y))[None, :]
        h = _LocalBellman(prob, self.x, y, None).hamiltonian(v)
        fwd, bwd, d2 = self.slopes(v)
        controls = np.asarray(prob.control_grid)
        interior_wins = 0
        for i, xi in enumerate(self.x):
            for j, yj in enumerate(y):
                want, u = self.upwinded_scan(prob, xi, yj, fwd[i, j], bwd[i, j], d2[i, j])
                interior_wins += controls[0] < u < controls[-1]
                assert h[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)
        if route == "merton-one-run":
            # both curvature signs: the vertex wins inside the run at some
            # nodes, an endpoint where the parabola is not convex
            assert interior_wins > 0
            assert np.any(d2[1:-1] > 0.0) and np.any(d2[1:-1] < 0.0)

    @each_bellman_route
    def test_weighted_shape_matches_upwinded_scan(self, route):
        prob = BELLMAN_ROUTES[route]
        atoms, weights = np.array([-1.0, 0.5, 2.0]), np.array([0.2, 0.5, 0.3])
        v = np.sin(2.0 * self.x)
        h = _LocalBellman(prob, self.x, atoms, weights).hamiltonian(v)
        fwd, bwd, d2 = self.slopes(v)
        for i, xi in enumerate(self.x):
            want = sum(
                w * self.upwinded_scan(prob, xi, a, fwd[i], bwd[i], d2[i])[0]
                for a, w in zip(atoms, weights)
            )
            assert h[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestPropagator:
    """The implicit factor step as one stochastic matrix built once per solve."""

    prob = merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1), R1=0.0, R=1.0))
    grids = Grids(x=np.linspace(0.0, 3.0, 21), y=np.linspace(-4.0, 4.0, 17))

    def reference_march(self, model, epsilon, dt, n_t):
        """Explicit Bellman step, then one LU solve per step against I - (dt/eps) L."""
        x, y = self.grids.x, self.grids.y
        gen, _ = assemble_factor_generator(model, y)
        local = _LocalBellman(self.prob, x, y, None)
        lu = linalg.lu_factor(np.eye(len(y)) - (dt / epsilon) * gen)
        v = np.repeat(self.prob.payoff(x)[:, None], len(y), axis=1)
        slices = {n_t: v}
        for k in range(n_t - 1, -1, -1):
            v = v - dt * (local.hamiltonian(v) + self.prob.discount * v)
            v = linalg.lu_solve(lu, v.T).T
            slices[k] = v
        return slices

    @pytest.mark.parametrize("model", [SYM15, ONE15], ids=["sym15", "one15"])
    @pytest.mark.parametrize("epsilon", [1.0, 0.05, 1e-3])
    def test_matches_per_step_lu_solve_march(self, model, epsilon):
        field = pide_solve(self.prob, model, epsilon, self.grids)
        dt, n_t = field.diagnostics["dt"], field.diagnostics["n_t"]
        ref = self.reference_march(model, epsilon, dt, n_t)
        steps = np.rint(field.t_grid / dt).astype(int)
        assert steps[-1] == n_t
        want = np.stack([ref[k] for k in steps])
        assert np.max(np.abs(field.values - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("model", [SYM15, ONE15], ids=["sym15", "one15"])
    @pytest.mark.parametrize("epsilon", [1.0, 0.05, 1e-3])
    def test_propagator_is_stochastic(self, model, epsilon):
        field = pide_solve(self.prob, model, epsilon, self.grids)
        gen, _ = assemble_factor_generator(model, self.grids.y)
        P = _propagator(gen, field.diagnostics["dt"] / epsilon)
        assert field.diagnostics["propagator_min_entry"] == np.min(P)
        assert field.diagnostics["propagator_min_entry"] >= 0.0
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12

    def test_one_lu_factor_and_solve_per_solve(self, monkeypatch):
        calls = {"lu_factor": 0, "lu_solve": 0}
        for name in calls:
            original = getattr(hjb_solvers.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(hjb_solvers.linalg, name, counted)
        field = pide_solve(self.prob, SYM15, 0.05, self.grids)
        assert field.diagnostics["n_t"] > 1
        assert calls == {"lu_factor": 1, "lu_solve": 1}


class TestStepDiagnostics:
    """``dt_bound`` is the positivity bound, so dt / dt_bound is the CFL margin."""

    x = np.linspace(0.0, 3.0, 31)
    y = np.linspace(-4.0, 4.0, 17)

    def solve_both(self, prob):
        return (
            effective_solve(prob, two_atom_measure(-1.0, 1.0), Grids(x=self.x)),
            pide_solve(prob, SYM15, 0.1, Grids(x=self.x, y=self.y)),
        )

    @pytest.mark.parametrize("route", ["merton", "pricing"])
    def test_dt_within_the_constant_sigma_bound(self, route):
        s, x_max, dx = 0.25, self.x[-1], self.x[1] - self.x[0]
        if route == "merton":
            spec = merton_spec(sigma_fn=const_sigma(s), R1=-0.5, R=1.5)
            prob = merton_problem(spec)
            a = s**2 * x_max**2 * 1.5**2
            b = x_max * max(abs(spec.r + (spec.alpha_drift - spec.r) * u) for u in (-0.5, 1.5))
        else:
            prob = pricing_problem(pricing_spec(lambda x: np.asarray(x, float), sigma_fn=const_sigma(s), c=0.08))
            a, b = s**2 * x_max**2, 0.05 * x_max
        want = 1.0 / (2.0 * a / dx**2 + b / dx + prob.discount)
        for field in self.solve_both(prob):
            assert field.diagnostics["dt_bound"] == pytest.approx(want, rel=1e-12)
            assert field.diagnostics["dt"] <= field.diagnostics["dt_bound"]

    def test_requested_dt_is_kept_and_reported_with_the_bound(self):
        prob = merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1)))
        field = effective_solve(prob, two_atom_measure(-1.0, 1.0), Grids(x=self.x))
        dt_req = 0.5 * field.diagnostics["dt_bound"]
        again = effective_solve(prob, two_atom_measure(-1.0, 1.0), Grids(x=self.x, dt=dt_req))
        assert again.diagnostics["dt_bound"] == field.diagnostics["dt_bound"]
        assert again.diagnostics["dt"] <= dt_req


class TestDivergence:
    """A march that overflows raises NumericalError with its finite checkpoints attached."""

    y = np.linspace(-4.0, 4.0, 17)
    prob = pricing_problem(pricing_spec(lambda x: 1e307 * np.asarray(x, dtype=float) ** 4))

    def solvers(self, x):
        return {
            "pide": lambda: pide_solve(self.prob, SYM15, 0.5, Grids(x=x, y=self.y)),
            "effective": lambda: effective_solve(self.prob, two_atom_measure(-1.0, 1.0), Grids(x=x)),
        }

    @staticmethod
    def check_partial(err, horizon):
        assert err.partial is not None
        times, slices = err.partial
        assert len(times) == len(slices)
        assert np.all(np.isfinite(slices))
        assert np.all(np.diff(times) > 0.0)
        if len(times):
            assert times[-1] == pytest.approx(horizon)

    @pytest.mark.parametrize("solver", ["pide", "effective"])
    @pytest.mark.parametrize("x_max,nx", [(3.0, 21), (1.8, 13)], ids=["payoff-overflows", "march-overflows"])
    def test_overflow_raises_numerical_error_with_partial(self, solver, x_max, nx):
        x = np.linspace(0.0, x_max, nx)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as exc:
                self.solvers(x)[solver]()
        self.check_partial(exc.value, self.prob.horizon)
        if x_max < 3.0:  # the payoff itself is finite, so its slice is kept
            times, slices = exc.value.partial
            assert times[-1] == pytest.approx(self.prob.horizon)
            assert np.array_equal(slices[-1].reshape(nx, -1)[:, 0], self.prob.payoff(x))

    @pytest.mark.parametrize("solver", ["pide", "effective"])
    def test_divergence_mid_march_keeps_the_filled_checkpoints(self, solver, monkeypatch):
        solve = self.solvers(np.linspace(0.0, 1.0, 21))[solver]
        clean = solve()
        original = _LocalBellman.hamiltonian
        calls = []

        def fails_on_call_40(self, v):
            calls.append(1)
            h = original(self, v)
            return h * np.nan if len(calls) == 40 else h
        monkeypatch.setattr(_LocalBellman, "hamiltonian", fails_on_call_40)
        with pytest.raises(NumericalError, match="diverged at step") as exc:
            solve()
        self.check_partial(exc.value, self.prob.horizon)
        times, slices = exc.value.partial
        m, k = len(times), clean.diagnostics["n_t"] - 40
        assert str(exc.value).endswith(f"step {k}")
        assert 1 < m < len(clean.t_grid)
        assert np.array_equal(times, clean.t_grid[-m:])
        assert np.array_equal(slices, clean.values[-m:])
        assert clean.t_grid[-m - 1] <= k * clean.diagnostics["dt"] < times[0]


class TestRequestedStep:
    @pytest.mark.parametrize("dt", [-0.1, -1e-9, 0.0, math.nan])
    def test_non_positive_or_nan_step_is_refused(self, dt):
        with pytest.raises(UsageError, match="dt"):
            Grids(x=np.linspace(0.0, 3.0, 61), dt=dt)


class TestAveragedAtoms:
    def test_effective_solve_reads_the_64_block_coarsening(self, invariant_measure_15):
        prob = merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1)))
        grids = Grids(x=np.linspace(0.0, 3.0, 31))
        coarse = invariant_measure_15.coarsen(hjb_solvers.MAX_ATOMS)
        field = effective_solve(prob, invariant_measure_15, grids)
        again = effective_solve(prob, coarse, grids)
        assert field.diagnostics["atoms"] == len(coarse.nodes) == 64
        assert np.array_equal(field.values, again.values)
