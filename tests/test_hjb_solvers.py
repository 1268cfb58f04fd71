import dataclasses
import math

import numpy as np
import pytest
from scipy import linalg
from test_jump_processes import _readers

from levy_multiscale import hjb_solvers
from levy_multiscale.errors import NumericalError, UsageError
from levy_multiscale.ergodicity import InvariantMeasure, two_atom_measure
from levy_multiscale.finance import (
    CallPayoff,
    MertonSpec,
    PricingSpec,
    merton_problem,
    pricing_problem,
)
from levy_multiscale.hjb_solvers import (
    CompactBox,
    ControlProblemSpec,
    Grids,
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
        prob = merton_problem(merton_spec(R1=-1.0))
        val, u = hamiltonian_eval(prob, 1.0, 0.0, 0.0, 0.0)
        assert val == 0.0
        assert u == prob.u_lo == -1.0  # a flat objective: the tie goes to u_lo

    def test_merton_interior_parabola_value(self):
        # the convex objective's minimum is its vertex, inside [0, 2]
        prob = merton_problem(merton_spec())
        w, p, X, sig = 1.0, 1.0, -1.0, 0.2
        val, u = hamiltonian_eval(prob, w, 0.0, p, X)
        excess = 0.1 - 0.05
        want = excess**2 * p**2 / (4.0 * sig**2 * X) - 0.05 * w * p
        assert val == pytest.approx(want, abs=1e-12)
        assert u == pytest.approx(excess / (2.0 * sig**2), abs=1e-12)

    def test_single_control_no_minimization(self):
        prob = pricing_problem(pricing_spec(lambda x: np.asarray(x, dtype=float)))
        val, u = hamiltonian_eval(prob, 2.0, 0.5, 1.0, -0.5)
        sig = 0.3 + 0.1 * math.tanh(0.5)
        want = -0.5 * (math.sqrt(2) * 2.0 * sig) ** 2 * (-0.5) - 0.05 * 2.0 * 1.0
        assert val == pytest.approx(want, rel=1e-12)
        assert u == 1.0


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

    def test_continuous_in_alpha_across_the_log_branch(self):
        # moving alpha by 1e-11 moves each entry by about 6e-10 relative; a
        # cell moment in the form b^e - a^e would cancel on the short far
        # cells and move an off-diagonal entry by 22 %
        y = np.linspace(-8.0, 8.0, 129)
        L0, _ = assemble_factor_generator(LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.0), y)
        L1, _ = assemble_factor_generator(LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.0 + 1e-11), y)
        off = ~np.eye(len(y), dtype=bool)
        assert np.max(np.abs(L1 - L0)[off] / np.abs(L0)[off]) < 1e-8


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

    def test_null_driver_solves_the_averaged_problem(self):
        # no jumps: the factor stays put, so with constant sigma every y row
        # is the averaged solution on the point mass at 0
        payoff = lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0)
        prob = pricing_problem(pricing_spec(payoff, sigma_fn=const_sigma(0.2)))
        null = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5, 0.0)
        grids = self.grids(nx=41, ny=21)
        field = pide_solve(prob, null, epsilon=0.5, grids=grids)
        eff = effective_solve(prob, InvariantMeasure(np.array([0.0]), np.array([1.0])),
                              Grids(x=grids.x))
        assert np.array_equal(field.t_grid, eff.t_grid)
        assert np.max(np.abs(field.values - eff.values[:, :, None])) < 1e-12

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

    def test_value_grows_at_most_quadratically(self):
        payoff = lambda x: np.maximum(np.asarray(x, float) - 1.0, 0.0)
        prob = pricing_problem(pricing_spec(payoff))
        field = pide_solve(prob, SYM15, epsilon=0.2, grids=self.grids(nx=61, ny=31))
        # a-priori moment bound: K e^{(2r + 2 sigma_max^2) T} with K = 1/2
        c_t = 0.5 * math.exp((2 * 0.05 + 2 * 0.16) * 1.0)
        ratio = np.abs(field.values) / (1.0 + field.x_grid**2)[None, :, None]
        assert np.max(ratio) <= c_t

    def test_march_leaves_the_payoff_array_alone(self):
        # both solvers march in place: the payoff's own array must be copied first
        x = np.linspace(0.0, 3.0, 31)
        stored = np.maximum(x - 1.0, 0.0)
        prob = pricing_problem(pricing_spec(lambda _: stored))
        eff = effective_solve(prob, two_atom_measure(-1.0, 1.0), Grids(x=x))
        field = pide_solve(prob, SYM15, 0.1, Grids(x=x, y=np.linspace(-4.0, 4.0, 17)))
        assert np.array_equal(stored, np.maximum(x - 1.0, 0.0))
        assert np.array_equal(eff.values[-1], stored)
        assert np.array_equal(field.values[-1], np.repeat(stored[:, None], 17, axis=1))


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

    def test_reference_ending_one_ulp_short_of_the_horizon(self):
        # the averaged solve's 237 steps end its checkpoints at 0.9999999999999999: the box
        # passed the 1e-9 slack, then scipy's interpolator raised a raw ValueError
        spec = MertonSpec(r=0.05, alpha_drift=0.1, R1=0.0, R=1.0, gamma=0.5, a=1.0,
                          horizon=1.0, w0=1.0,
                          sigma_fn=lambda y: 0.2 + 0.1 * np.tanh(np.asarray(y, dtype=float)))
        grids = Grids(x=np.linspace(0.0, 1.0, 38), y=np.linspace(-4.0, 4.0, 17))
        a = pide_solve(merton_problem(spec), SYM15, 0.5, grids)
        b = effective_solve(merton_problem(spec), two_atom_measure(-1.0, 1.0), Grids(x=grids.x))
        assert (a.diagnostics["n_t"], b.diagnostics["n_t"]) == (278, 237)
        assert a.t_grid[-1] == 1.0 and b.t_grid[-1] == 1.0 - 2.0**-53
        box = CompactBox(t=(0.0, 1.0), x=(0.0, 1.0), y=(-4.0, 4.0))
        assert sup_norm_gap(a, b, box) == pytest.approx(0.007022232214639823, rel=1e-12)

    def test_box_times_past_the_reference_read_its_last_checkpoint(self):
        from scipy.interpolate import RegularGridInterpolator

        ts_b, ts_a = np.arange(50) * (1.0 / 49.0), np.linspace(0.0, 1.0, 50)
        xs = np.linspace(0, 2, 9)
        assert ts_b[-1] < 1.0 == ts_a[-1]
        rng = np.random.default_rng(2)
        a = self._field(rng.random((50, 9)), ts_a, xs)
        b = self._field(rng.random((50, 9)), ts_b, xs)
        tt, xx = np.meshgrid(np.minimum(ts_a, ts_b[-1]), xs, indexing="ij")
        ref = RegularGridInterpolator((ts_b, xs), b.values)(np.stack([tt, xx], axis=-1))
        want = float(np.max(np.abs(a.values - ref)))
        assert sup_norm_gap(a, b, CompactBox(t=(0.0, 1.0), x=(0.0, 2.0))) == want

    def test_fields_built_from_lists(self):
        # a TypeError from the box window: '>=' between a list and a float
        a = self._field([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0.0, 1.0], [0.0, 1.0, 2.0])
        b = self._field(np.zeros((2, 3)), np.array([0.0, 1.0]), np.linspace(0, 2, 3))
        assert sup_norm_gap(a, b, CompactBox(t=(0, 1), x=(0.0, 2.0))) == 1.0
        assert a.values.dtype == float and not a.t_grid.flags.writeable

    def test_fields_on_different_x_grids_refused(self):
        ts = np.linspace(0, 1, 5)
        a = self._field(np.zeros((5, 9)), ts, np.linspace(0, 2, 9))
        b = self._field(np.zeros((5, 17)), ts, np.linspace(0, 2, 17))
        with pytest.raises(UsageError, match="x grid"):
            sup_norm_gap(a, b, CompactBox(t=(0, 1), x=(0.0, 2.0)))

    @pytest.mark.parametrize("ts_b", [[0.0, 0.5, 0.5, 1.0], [0.0, 0.75, 0.5, 1.0]])
    def test_reference_times_must_strictly_increase(self, ts_b):
        xs = np.linspace(0, 2, 9)
        a = self._field(np.zeros((5, 9)), np.linspace(0, 1, 5), xs)
        b = self._field(np.zeros((4, 9)), np.array(ts_b), xs)
        with pytest.raises(UsageError, match="strictly increase"):
            sup_norm_gap(a, b, CompactBox(t=(0, 1), x=(0.0, 2.0)))


class TestGridsValidation:
    def test_x_grid_must_be_uniform(self):
        with pytest.raises(UsageError):
            Grids(x=np.array([0.0, 0.1, 0.3, 0.6]))

    def test_y_grid_must_be_uniform(self):
        with pytest.raises(UsageError):
            Grids(x=np.linspace(0, 1, 5), y=np.array([0.0, 0.1, 0.3, 0.6, 1.0]))

    def test_spec_validation(self):
        # an empty control set
        with pytest.raises(UsageError, match="^u_lo must not exceed u_hi"):
            ControlProblemSpec(
                beta0=0.0, beta1=0.0, sigma_of_y=const_sigma(0.2),
                u_lo=1.0, u_hi=0.0, payoff=lambda x: x,
                discount=0.0, horizon=1.0,
            )

    @pytest.mark.parametrize("beta0, beta1", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
    ])
    def test_drift_coefficients_must_be_finite(self, beta0, beta1):
        with pytest.raises(UsageError, match="finite"):
            dataclasses.replace(merton_problem(merton_spec()), beta0=beta0, beta1=beta1)

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

    @pytest.mark.parametrize("u_lo, u_hi", [(0.5, 0.5 - 1e-12), (2.0, -2.0)])
    def test_control_interval_must_not_be_reversed(self, u_lo, u_hi):
        with pytest.raises(UsageError, match="^u_lo must not exceed u_hi"):
            dataclasses.replace(merton_problem(merton_spec()), u_lo=u_lo, u_hi=u_hi)

    @pytest.mark.parametrize("end", ["u_lo", "u_hi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_control_interval_ends_must_be_finite(self, end, value):
        # NaN fails the order check as well, so the end must be refused by its own name first
        with pytest.raises(UsageError, match=f"^{end} must be finite"):
            dataclasses.replace(merton_problem(merton_spec()), **{end: value})

    def test_solvers_reject_negative_x_nodes(self, invariant_measure_15):
        prob = merton_problem(merton_spec())
        x = np.linspace(-1.5, 1.5, 31)
        with pytest.raises(UsageError):
            effective_solve(prob, invariant_measure_15, Grids(x=x))
        with pytest.raises(UsageError):
            pide_solve(prob, SYM15, epsilon=0.5, grids=Grids(x=x, y=np.linspace(-2.0, 2.0, 9)))


BELLMAN_ROUTES = {
    # the benchmark's one-run Merton spec: every control upwinds forward
    "merton-one-run": merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1), R1=0.0, R=1.0)),
    # the single control u = 1
    "pricing": pricing_problem(pricing_spec(lambda x: np.asarray(x, dtype=float))),
    # shorting: the drift changes sign on [-2, 2], so a backward run joins the forward one
    "merton-two-runs": merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1), R1=-2.0, R=2.0)),
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
    def upwinded_runs(prob):
        """[u_lo, u_hi] cut where the drift beta0 + beta1 u changes sign: (lo, hi, forward)."""
        lo, hi = prob.u_lo, prob.u_hi
        if prob.beta1 == 0.0:
            return [(lo, hi, prob.beta0 >= 0.0)]
        u0 = -prob.beta0 / prob.beta1
        runs = ((lo, min(u0, hi), prob.beta1 < 0.0), (max(u0, lo), hi, prob.beta1 > 0.0))
        return [run for run in runs if run[0] <= run[1]]

    def upwinded_scan(self, prob, x, y, fwd, bwd, d2):
        """Pointwise minimum and its control, forward difference where the drift is >= 0."""
        best = None
        for lo, hi, forward in self.upwinded_runs(prob):
            run = dataclasses.replace(prob, u_lo=lo, u_hi=hi)
            cand = hamiltonian_eval(run, x, y, fwd if forward else bwd, d2)
            best = cand if best is None or cand[0] < best[0] else best
        return best

    @each_bellman_route
    def test_factor_grid_shape_matches_upwinded_scan(self, route):
        prob = BELLMAN_ROUTES[route]
        y = np.linspace(-2.0, 2.0, 5)
        v = np.sin(2.0 * self.x)[:, None] * (1.0 + 0.3 * np.tanh(y))[None, :]
        h = _LocalBellman(prob, self.x, y, len(y)).hamiltonian(v)
        fwd, bwd, d2 = self.slopes(v)
        interior_wins = backward_wins = 0
        for i, xi in enumerate(self.x):
            for j, yj in enumerate(y):
                want, u = self.upwinded_scan(prob, xi, yj, fwd[i, j], bwd[i, j], d2[i, j])
                interior_wins += prob.u_lo < u < prob.u_hi
                backward_wins += prob.beta0 + prob.beta1 * u < 0.0
                assert h[i, j] == pytest.approx(want, abs=1e-12)
        if route == "merton-one-run":
            # both curvature signs: the vertex wins inside the run at some
            # nodes, an endpoint where the parabola is not convex
            assert interior_wins > 0
            assert np.any(d2[1:-1] > 0.0) and np.any(d2[1:-1] < 0.0)
        if route == "merton-two-runs":
            # the backward run wins at some nodes, the forward one at others
            assert 0 < backward_wins < h.size

    @each_bellman_route
    def test_weighted_shape_matches_upwinded_scan(self, route):
        prob = BELLMAN_ROUTES[route]
        atoms, weights = np.array([-1.0, 0.5, 2.0]), np.array([0.2, 0.5, 0.3])
        v = np.sin(2.0 * self.x)
        h = _LocalBellman(prob, self.x, atoms, 1).hamiltonian(v[:, None]) @ weights
        fwd, bwd, d2 = self.slopes(v)
        for i, xi in enumerate(self.x):
            want = sum(
                w * self.upwinded_scan(prob, xi, a, fwd[i], bwd[i], d2[i])[0]
                for a, w in zip(atoms, weights)
            )
            assert h[i] == pytest.approx(want, abs=1e-12)

    @each_bellman_route
    @pytest.mark.parametrize("weighted", [False, True], ids=["factor-grid", "weighted"])
    def test_kinked_ramp_matches_upwinded_scan(self, route, weighted):
        """Linear and flat stretches give p = 0 with and without a slope: the endpoint rule and the 0/0 vertex."""
        prob = BELLMAN_ROUTES[route]
        y = np.linspace(-2.0, 2.0, 5)
        # dyadic values, so the second difference is exactly 0 on every straight stretch
        v = np.maximum(self.x - 1.5, 0.0) - 0.5 * np.maximum(0.75 - self.x, 0.0)
        weights = np.full(5, 0.2)
        if weighted:
            h = _LocalBellman(prob, self.x, y, 1).hamiltonian(v[:, None]) @ weights
        else:
            v = v[:, None] * (1.0 + 0.25 * y)[None, :]
            h = _LocalBellman(prob, self.x, y, len(y)).hamiltonian(v)
        fwd, bwd, d2 = (np.broadcast_to(a.reshape(len(self.x), -1), (len(self.x), len(y)))
                        for a in self.slopes(v))
        # both kinds of p = 0 node occur inside the grid, not only on the end rows
        straight = (d2 == 0.0)[1:-1]
        assert np.any(straight & (fwd == 0.0)[1:-1] & (bwd == 0.0)[1:-1])
        assert np.any(straight & ((fwd != 0.0) | (bwd != 0.0))[1:-1])
        scan = np.array([
            [self.upwinded_scan(prob, xi, yj, fwd[i, j], bwd[i, j], d2[i, j])[0] for j, yj in enumerate(y)]
            for i, xi in enumerate(self.x)
        ])
        np.testing.assert_allclose(h, scan @ weights if weighted else scan, rtol=1e-12, atol=1e-12)

    @each_bellman_route
    def test_pointwise_minimum_against_a_dense_control_scan(self, route):
        """An oracle that shares no formula with the kernel: 10,001 controls, each upwinded.

        The scan's minimum lies at or above the interval's, by at most the spacing error of
        a parabola, |p| du^2 / 4, on the sine state (both curvature signs) and the kinked
        ramp (both kinds of p = 0 node); the control returned lies in the interval.
        """
        prob = BELLMAN_ROUTES[route]
        y = np.linspace(-2.0, 2.0, 5)
        sine = np.sin(2.0 * self.x)[:, None] * (1.0 + 0.3 * np.tanh(y))[None, :]
        ramp = (np.maximum(self.x - 1.5, 0.0) - 0.5 * np.maximum(0.75 - self.x, 0.0))[:, None]
        nodes = np.array([(xi, yj, fwd[i, j], bwd[i, j], d2[i, j])
                          for v in (sine, np.repeat(ramp, len(y), axis=1))
                          for fwd, bwd, d2 in [self.slopes(v)]
                          for i, xi in enumerate(self.x) for j, yj in enumerate(y)])
        interior = (nodes[:, 0] > 0.0) & (nodes[:, 0] < self.x[-1])
        fwd, bwd, d2 = nodes[interior, 2:].T
        assert np.any(d2 > 0.0) and np.any(d2 < 0.0)
        assert np.any((d2 == 0.0) & (fwd == 0.0) & (bwd == 0.0))
        assert np.any((d2 == 0.0) & ((fwd != 0.0) | (bwd != 0.0)))
        u = np.linspace(prob.u_lo, prob.u_hi, 10_001)
        du, drift = u[1] - u[0], prob.beta0 + prob.beta1 * u
        for x, y_node, fwd, bwd, d2 in nodes:
            sig = float(prob.sigma_of_y(np.asarray(y_node)))
            scan = -(x * u * sig) ** 2 * d2 - x * drift * np.where(drift >= 0.0, fwd, bwd)
            val, control = self.upwinded_scan(prob, x, y_node, fwd, bwd, d2)
            curvature = abs((x * sig) ** 2 * d2)
            assert val - 1e-12 <= np.min(scan) <= val + curvature * du**2 / 4.0 + 1e-12
            assert prob.u_lo <= control <= prob.u_hi

    @each_bellman_route
    @pytest.mark.parametrize("weighted", [False, True], ids=["factor-grid", "weighted"])
    def test_reused_arrays_leak_no_state(self, route, weighted):
        """A call on v1, then on v2 (other slope and curvature signs), then on v1 returns the first result."""
        y = np.linspace(-2.0, 2.0, 5)
        local = _LocalBellman(BELLMAN_ROUTES[route], self.x, y, 1 if weighted else len(y))
        v1 = np.sin(2.0 * self.x)[:, None]
        if not weighted:
            v1 = v1 * (1.0 + 0.3 * np.tanh(y))[None, :]
        first = local.hamiltonian(v1).copy()
        assert not np.array_equal(local.hamiltonian(-2.0 * v1), first)
        assert np.array_equal(local.hamiltonian(v1), first)

    @each_bellman_route
    @pytest.mark.parametrize("weighted", [False, True], ids=["factor-grid", "weighted"])
    @pytest.mark.parametrize("nx, ny", [(13, 5), (61, 9)], ids=["520B", "4392B"])
    def test_every_buffer_a_step_writes_starts_a_cache_line(self, route, weighted, nx, ny,
                                                            monkeypatch):
        """The kernel's outputs, the march's state and its explicit step each start a 64-byte line.

        A 13 x 5 block of floats is 520 bytes, 8 mod 64, so buffers cut from
        one block cannot all start a line.  The 61 x 9 block is above 4 KiB,
        where glibc may serve it by mmap, 16 bytes past a line.
        """
        x, y = np.linspace(0.0, 3.0, nx), np.linspace(-2.0, 2.0, ny)
        local = _LocalBellman(BELLMAN_ROUTES[route], x, y, 1 if weighted else len(y))
        states, steps, products = [], [], []
        hamiltonian, dgemm = local.hamiltonian, hjb_solvers.linalg.blas.dgemm

        def recorded_hamiltonian(v):
            states.append(v)
            return hamiltonian(v)

        def recorded_dgemm(alpha, a, b, *, c, **kwargs):
            steps.append(b)
            products.append(c)
            return dgemm(alpha, a, b, c=c, **kwargs)
        monkeypatch.setattr(local, "hamiltonian", recorded_hamiltonian)
        monkeypatch.setattr(hjb_solvers.linalg.blas, "dgemm", recorded_dgemm)
        v = np.sin(2.0 * x)
        if not weighted:
            v = v[:, None] * (1.0 + 0.3 * np.tanh(y))[None, :]
        # any stochastic matrix: a row of weights for the one-column state, square otherwise
        prop = np.asfortranarray(np.full((1 if weighted else ny, ny), 1.0 / ny))
        local.steps.update(dt=1e-3, n_t=4)
        hjb_solvers._march(local, v, prop)
        written = [local.slopes[1:-1], local.curv[1:-1], local.q, local.s, local.p, local.u,
                   local.h, local.run_h, local.not_convex] + states + steps + products
        assert len(states) == len(steps) == len(products) == 4
        assert [a.ctypes.data % 64 for a in written] == [0] * len(written)
        # the product is written into the state it replaces
        assert len({a.ctypes.data for a in states + products}) == 1


class TestAlignedBuffers:
    """Where a buffer starts is a matter of speed alone: it never changes a bit."""

    @pytest.mark.parametrize("dtype", [float, bool])
    @pytest.mark.parametrize("shape, lead", [((13, 5), 0), ((14, 5), 5), ((13, 1), 1), ((61,), 0)])
    def test_aligned_empty_is_the_array_asked_for(self, dtype, shape, lead):
        a = hjb_solvers._aligned_empty(shape, dtype, lead=lead)
        assert a.shape == shape and a.dtype == np.dtype(dtype)
        assert a.flags.writeable and a.flags.c_contiguous
        assert (a.ctypes.data + lead * a.itemsize) % 64 == 0

    @each_bellman_route
    @pytest.mark.parametrize("weighted", [False, True], ids=["factor-grid", "weighted"])
    def test_hamiltonian_bits_do_not_depend_on_where_v_lies(self, route, weighted):
        x, y = np.linspace(0.0, 3.0, 13), np.linspace(-2.0, 2.0, 5)
        local = _LocalBellman(BELLMAN_ROUTES[route], x, y, 1 if weighted else len(y))
        v = np.sin(2.0 * x)[:, None]
        if not weighted:
            v = v * (1.0 + 0.3 * np.tanh(y))[None, :]
        block = hjb_solvers._aligned_empty((v.size + 7,))
        results = []
        for offset in range(8):  # v starting 8 * offset bytes past a line
            placed = block[offset:offset + v.size].reshape(v.shape)
            placed[...] = v
            assert placed.ctypes.data % 64 == 8 * offset
            results.append(local.hamiltonian(placed).copy())
        assert all(np.array_equal(h, results[0]) for h in results[1:])


class TestPropagator:
    """The implicit factor step as one stochastic matrix built once per solve."""

    prob = merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1), R1=0.0, R=1.0))
    # Merton has no discount; the call at c = 0.05 takes the march's discounted update
    discounted = pricing_problem(pricing_spec(CallPayoff(1.0), c=0.05))
    grids = Grids(x=np.linspace(0.0, 3.0, 21), y=np.linspace(-4.0, 4.0, 17))

    def reference_march(self, prob, model, epsilon, dt, n_t):
        """Explicit Bellman step, then one LU solve per step against I - (dt/eps) L."""
        x, y = self.grids.x, self.grids.y
        gen, _ = assemble_factor_generator(model, y)
        local = _LocalBellman(prob, x, y, len(y))
        lu = linalg.lu_factor(np.eye(len(y)) - (dt / epsilon) * gen)
        v = np.repeat(prob.payoff(x)[:, None], len(y), axis=1)
        slices = {n_t: v}
        for k in range(n_t - 1, -1, -1):
            v = v - dt * (local.hamiltonian(v) + prob.discount * v)
            v = linalg.lu_solve(lu, v.T).T
            slices[k] = v
        return slices

    @pytest.mark.parametrize("model", [SYM15, ONE15], ids=["sym15", "one15"])
    @pytest.mark.parametrize("epsilon", [1.0, 0.05, 1e-3])
    def test_matches_per_step_lu_solve_march(self, model, epsilon):
        for prob in (self.prob, self.discounted):
            field = pide_solve(prob, model, epsilon, self.grids)
            dt, n_t = field.diagnostics["dt"], field.diagnostics["n_t"]
            ref = self.reference_march(prob, model, epsilon, dt, n_t)
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

    def test_every_product_runs_on_scipy_blas(self, monkeypatch):
        # the factorisation is scipy's, so each step's product must be too:
        # numpy and scipy may each bundle their own BLAS and thread pool
        calls = []
        original = hjb_solvers.linalg.blas.dgemm

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(hjb_solvers.linalg.blas, "dgemm", counted)
        field = pide_solve(self.prob, SYM15, 0.05, self.grids)
        assert len(calls) == field.diagnostics["n_t"] > 1


class TestAveragedLimit:
    """The averaged solve is the stiff march at eps -> 0, where (I - (dt/eps) L)^-1 -> 1 pi_L^T."""

    x, y = np.linspace(0.0, 3.0, 31), np.linspace(-4.0, 4.0, 17)
    problems = {
        "call": pricing_problem(pricing_spec(CallPayoff(1.0))),
        "merton": merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1), R1=0.0, R=1.0)),
    }

    def grid_law(self, model):
        """pi_L, the law of the grid chain: the left null vector of L, normalised."""
        gen, _ = assemble_factor_generator(model, self.y)
        pi = linalg.null_space(gen.T)[:, 0]
        return InvariantMeasure(self.y, pi / pi.sum())

    @pytest.mark.parametrize("model", [SYM15, ONE15], ids=["sym15", "one15"])
    @pytest.mark.parametrize("problem", ["call", "merton"])
    def test_stiff_solve_tends_to_the_averaged_solve_at_rate_eps(self, problem, model):
        prob = self.problems[problem]
        eff = effective_solve(prob, self.grid_law(model), Grids(x=self.x))
        gaps = {}
        for eps in (1e-4, 1e-6):
            field = pide_solve(prob, model, eps, Grids(x=self.x, y=self.y))
            assert field.diagnostics["n_t"] == eff.diagnostics["n_t"]
            gap = np.max(np.abs(field.values - eff.values[:, :, None]))
            gaps[eps] = gap / np.max(np.abs(eff.values))
            assert gaps[eps] <= eps
        assert 50.0 <= gaps[1e-4] / gaps[1e-6] <= 200.0

    @pytest.mark.parametrize("problem", ["call", "merton"])
    def test_one_column_state_is_the_full_width_state_under_1_w_transpose(self, problem,
                                                                          invariant_measure_15):
        prob = self.problems[problem]
        eff = effective_solve(prob, invariant_measure_15, Grids(x=self.x))
        atoms = invariant_measure_15.coarsen(hjb_solvers.MAX_ATOMS)
        n = len(atoms.nodes)
        local = _LocalBellman(prob, self.x, atoms.nodes, n)
        v = np.repeat(prob.payoff(self.x)[:, None], n, axis=1)
        square = np.asfortranarray(np.tile(atoms.weights, (n, 1)))
        _, values = hjb_solvers._march(local, v, square)
        assert np.max(np.abs(values - eff.values[:, :, None])) <= 1e-12 * np.max(np.abs(eff.values))


class TestOneMarch:
    """One route: the kernel and the product are read by the march, which both solvers share."""

    def test_both_solvers_take_the_one_step(self):
        assert _readers("hamiltonian") == {"hjb_solvers._march"}
        assert _readers("dgemm") == {"hjb_solvers._march"}
        assert _readers("_march") == {"hjb_solvers.effective_solve", "hjb_solvers.pide_solve"}
        assert _readers("_propagator") == {"hjb_solvers.pide_solve"}


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


class TestAveragedAtoms:
    def test_effective_solve_reads_the_64_block_coarsening(self, invariant_measure_15):
        prob = merton_problem(merton_spec(sigma_fn=tanh_sigma(0.2, 0.1)))
        grids = Grids(x=np.linspace(0.0, 3.0, 31))
        coarse = invariant_measure_15.coarsen(hjb_solvers.MAX_ATOMS)
        field = effective_solve(prob, invariant_measure_15, grids)
        again = effective_solve(prob, coarse, grids)
        assert field.diagnostics["atoms"] == len(coarse.nodes) == 64
        assert np.array_equal(field.values, again.values)
