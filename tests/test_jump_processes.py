import ast
import math
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from levy_multiscale import jump_processes
from levy_multiscale.errors import UsageError
from levy_multiscale.hjb_solvers import ControlProblemSpec
from levy_multiscale.levy_measures import (
    Family,
    LevyMeasureModel,
    levy_exponent,
    stable_exponent_closed,
)
from levy_multiscale.jump_processes import (
    BROWNIAN_STREAM,
    JUMP_STREAM,
    FastProcessConfig,
    SlowSystemConfig,
    compensator_drift,
    default_step,
    iter_fast_values,
    path_integral,
    sample_stable_increment,
    simulate_slow_system,
    stable_scale_exponent,
    stream_rng,
)

SYM15 = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5)
NULL = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5, 0.0)


def fast_paths(cfg, n_paths):
    """The stream's states on the run's grid, one row of n_steps + 1 per path."""
    return np.stack(list(iter_fast_values(cfg, n_paths)), axis=1)


class TestStableIncrement:
    def test_null_driver_returns_zero(self):
        rng = stream_rng(7, JUMP_STREAM)
        assert sample_stable_increment(NULL, 1.0, rng, size=1) == 0.0
        assert np.all(sample_stable_increment(NULL, 0.5, rng, size=16) == 0.0)

    def test_bad_rng_rejected(self):
        with pytest.raises(UsageError):
            sample_stable_increment(SYM15, 1.0, np.random.RandomState(0), size=1)

    @pytest.mark.parametrize("dt_scaled", [math.nan, math.inf])
    def test_non_finite_internal_time_is_refused(self, dt_scaled):
        with pytest.raises(UsageError):
            sample_stable_increment(SYM15, dt_scaled, stream_rng(7, JUMP_STREAM), 3)

    def test_empirical_cf_matches_exponent(self):
        # E exp(i u Z(1)) = exp(psi(1)); psi from the quadrature route.
        rng = stream_rng(42, JUMP_STREAM)
        z = sample_stable_increment(SYM15, 1.0, rng, size=1_000_000)
        ecf = np.mean(np.cos(z))  # imaginary part vanishes by symmetry
        want = math.exp(levy_exponent(SYM15, 1.0).real)
        assert abs(ecf - want) < 0.01

    def test_symmetric_median_near_zero(self):
        rng = stream_rng(3, JUMP_STREAM)
        n = 200_000
        z = sample_stable_increment(SYM15, 1.0, rng, size=n)
        scale = stable_scale_exponent(SYM15) ** (1.0 / SYM15.alpha)
        dens0 = stats.levy_stable.pdf(0.0, SYM15.alpha, 0.0, scale=scale)
        se_median = 1.0 / (2.0 * dens0 * math.sqrt(n))
        assert abs(np.median(z)) < 3.0 * se_median

    def test_distribution_matches_scipy_sampler_symmetric(self):
        rng = stream_rng(11, JUMP_STREAM)
        ours = sample_stable_increment(SYM15, 0.7, rng, size=50_000)
        scale = (stable_scale_exponent(SYM15) * 0.7) ** (1.0 / SYM15.alpha)
        theirs = stats.levy_stable.rvs(
            SYM15.alpha, 0.0, scale=scale, size=50_000,
            random_state=np.random.default_rng(123),
        )
        assert stats.ks_2samp(ours, theirs).pvalue > 0.01

    def test_distribution_matches_scipy_sampler_one_sided(self):
        model = LevyMeasureModel(Family.ONE_SIDED_STABLE, 1.5)
        rng = stream_rng(12, JUMP_STREAM)
        tau = 0.4
        ours = sample_stable_increment(model, tau, rng, size=50_000)
        scale = (stable_scale_exponent(model) * tau) ** (1.0 / model.alpha)
        theirs = stats.levy_stable.rvs(
            model.alpha, 1.0, loc=tau * compensator_drift(model), scale=scale,
            size=50_000, random_state=np.random.default_rng(321),
        )
        assert stats.ks_2samp(ours, theirs).pvalue > 0.01

    def test_self_similar_scaling_two_sample_ks(self):
        # increments over 2*dt, rescaled by 2^(-1/alpha), match those over dt
        rng = stream_rng(5, JUMP_STREAM)
        a = sample_stable_increment(SYM15, 0.5, rng, size=40_000)
        b = sample_stable_increment(SYM15, 1.0, rng, size=40_000)
        b_rescaled = b * 2.0 ** (-1.0 / SYM15.alpha)
        assert stats.ks_2samp(a, b_rescaled).pvalue > 0.01


class TestOneCmsMap:
    """Both families draw through one CMS map, which at beta = 0 keeps the symmetric map's bits."""

    N = 10_000

    def uniforms_and_exponentials(self):
        rng = stream_rng(9, JUMP_STREAM)
        u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=self.N)
        return u, rng.standard_exponential(size=self.N)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_symmetric_draws_are_the_symmetric_map_bit_for_bit(self, alpha):
        model = LevyMeasureModel(Family.SYMMETRIC_STABLE, alpha, 0.8)
        got = sample_stable_increment(model, 0.3, stream_rng(9, JUMP_STREAM), self.N)
        u, e = self.uniforms_and_exponentials()
        inv_a = 1.0 / alpha
        want = (stable_scale_exponent(model) * 0.3) ** inv_a * (
            np.sin(alpha * u)
            / np.cos(u) ** inv_a
            * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) * inv_a)
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha", [1.2, 1.5])
    def test_one_sided_draws_match_the_textbook_map(self, alpha):
        model = LevyMeasureModel(Family.ONE_SIDED_STABLE, alpha)
        got = sample_stable_increment(model, 1.0, stream_rng(9, JUMP_STREAM), self.N)
        u, e = self.uniforms_and_exponentials()
        skew = math.tan(math.pi * alpha / 2.0)
        b = math.atan(skew) / alpha
        s = (1.0 + skew * skew) ** (0.5 / alpha)
        x = (s * np.sin(alpha * (u + b)) / np.cos(u) ** (1.0 / alpha)
             * (np.cos(u - alpha * (u + b)) / e) ** ((1.0 - alpha) / alpha))
        want = stable_scale_exponent(model) ** (1.0 / alpha) * x + compensator_drift(model)
        np.testing.assert_allclose(got, want, rtol=1e-8)


class TestFastPath:
    def test_null_driver_decays_exactly(self):
        cfg = FastProcessConfig(NULL, lam=2.0, y0=3.0, horizon=1.0, dt=0.005, seed=0)
        times, values = np.arange(cfg.n_steps + 1) * cfg.step, fast_paths(cfg, 1)
        k = np.argmin(np.abs(times - 1.0))
        assert times[k] == pytest.approx(1.0)
        assert values[0, k] == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)
        assert np.allclose(np.abs(values[0]), 3.0 * np.exp(-2.0 * times))

    def test_zero_start_null_driver_stays_zero(self):
        cfg = FastProcessConfig(NULL, lam=1.0, y0=0.0, horizon=2.0, dt=0.01, seed=0)
        assert np.all(fast_paths(cfg, 1) == 0.0)

    def test_seed_reproducibility_bit_identical(self):
        cfg = FastProcessConfig(SYM15, lam=1.0, y0=0.5, horizon=5.0, dt=0.05, seed=99)
        v1 = fast_paths(cfg, 1)
        v2 = fast_paths(cfg, 1)
        assert np.array_equal(v1, v2)
        v3 = fast_paths(
            FastProcessConfig(SYM15, lam=1.0, y0=0.5, horizon=5.0, dt=0.05, seed=100), 1
        )
        assert not np.array_equal(v1, v3)

    def test_terminal_cf_near_stationary_law(self):
        # long-run CF approaches exp(psi(1)/alpha); coarse-batch version of the
        # acceptance criterion, with the step bias inside the 0.02 budget
        cfg = FastProcessConfig(SYM15, lam=1.0, y0=0.0, horizon=15.0, dt=0.02, seed=8)
        vals = fast_paths(cfg, 20_000)
        ecf = np.mean(np.cos(vals[:, -1]))
        want = math.exp(levy_exponent(SYM15, 1.0).real / SYM15.alpha)
        assert abs(ecf - want) < 0.02

    def test_config_validation(self):
        with pytest.raises(UsageError):
            FastProcessConfig(SYM15, lam=0.0, y0=0.0, horizon=1.0, dt=0.01)
        with pytest.raises(UsageError):
            FastProcessConfig(SYM15, lam=1.0, y0=0.0, horizon=1.0, dt=2.0)

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan), ("lam", math.inf), ("y0", math.nan), ("y0", -math.inf),
        ("horizon", math.nan), ("horizon", math.inf),
    ])
    def test_non_finite_inputs_are_refused(self, field, value):
        # lam = inf is epsilon = 0; the others used to give NaN paths or no step count
        with pytest.raises(UsageError):
            FastProcessConfig(SYM15, **{"lam": 1.0, "y0": 0.0, "horizon": 1.0, "dt": 0.1,
                                        field: value})

    def test_negative_seed_is_refused(self):
        # numpy's SeedSequence used to raise a bare ValueError at the first draw
        with pytest.raises(UsageError, match="seed"):
            FastProcessConfig(SYM15, lam=1.0, y0=0.0, horizon=1.0, dt=0.1, seed=-1)


class TestDefaultStep:
    """The default step is the factor's quadrature step: about eps/4, whole steps in the horizon."""

    @pytest.mark.parametrize("epsilon, horizon", [
        (0.1, 1.0), (0.02, 1.0), (0.05, 1.0), (0.3, 0.7), (1.0, 20.0), (0.5, 0.125),
        (8.0, 1.0), (100.0, 1.0),  # epsilon >= 4 horizon: the floor of two steps binds
    ])
    def test_whole_steps_of_at_most_a_quarter_of_epsilon(self, epsilon, horizon):
        step = default_step(epsilon, horizon)
        n = horizon / step
        assert n == pytest.approx(round(n), abs=1e-9) and round(n) >= 2
        if 4.0 * horizon / epsilon >= 2.0:
            assert step <= epsilon / 4.0
        if round(n) > 2:  # the coarsest such step: one step fewer would exceed eps/4
            assert horizon / (round(n) - 1) > epsilon / 4.0
        cfg = FastProcessConfig(SYM15, lam=1.0 / epsilon, y0=0.0, horizon=horizon)
        assert cfg.step == pytest.approx(step, rel=1e-12) and cfg.step < horizon
        assert cfg.n_steps == round(n)

    def test_eps_four_over_n_takes_n_steps(self):
        # the bare ceiling of 4 T / eps takes n + 1 steps for 306 of these n
        for n in range(2, 4001):
            assert FastProcessConfig(SYM15, lam=1.0 / (4.0 / n), y0=0.0, horizon=1.0).n_steps == n


def _ks_upper_bound(samples, cdf, n_eval=1000):
    """Upper bound on the KS statistic from ``cdf`` at ``n_eval`` order statistics.

    Between two evaluated order statistics both the empirical CDF and ``cdf``
    are monotone, so the supremum there exceeds the evaluated one by at most
    the rank gap over n.
    """
    x = np.sort(samples)
    n = len(x)
    ranks = np.unique(np.linspace(0, n - 1, n_eval + 1).astype(int))
    f = cdf(x[ranks])
    d = np.maximum(f - ranks / n, (ranks + 1) / n - f).max()
    return d + np.diff(ranks).max() / n


class TestExactTransition:
    """One step of the kernel is the factor's transition law, for any step."""

    MODELS = [
        LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.0),
        SYM15,
        LevyMeasureModel(Family.ONE_SIDED_STABLE, 1.5),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=["sym10", "sym15", "one15"])
    def test_one_coarse_step_matches_transition_cf(self, model):
        tau, y0 = 0.5, 1.0
        cfg = FastProcessConfig(model, lam=1.0, y0=y0, horizon=2 * tau, dt=tau, seed=41)
        _, y = islice(iter_fast_values(cfg, 200_000), 2)
        a, d = model.alpha, compensator_drift(model)
        for u in (0.5, 1.0, 2.0):
            psi_stable = stable_exponent_closed(model, u) - 1j * u * d
            want = np.exp(1j * u * math.exp(-tau) * y0
                          + psi_stable * -math.expm1(-a * tau) / a
                          + 1j * u * d * -math.expm1(-tau))
            assert abs(np.mean(np.exp(1j * u * y)) - want) < 0.01

    @pytest.mark.parametrize("model", MODELS[:2], ids=["sym10", "sym15"])
    def test_twenty_coarse_steps_reach_the_stationary_law(self, model):
        cfg = FastProcessConfig(model, lam=1.0, y0=0.0, horizon=10.0, dt=0.5, seed=43)
        *_, y = iter_fast_values(cfg, 50_000)
        a = model.alpha
        law = stats.levy_stable(a, 0.0, scale=(stable_scale_exponent(model) / a) ** (1.0 / a))
        assert _ks_upper_bound(y, law.cdf) < 0.015


class TestStartFanOut:
    CFG = FastProcessConfig(SYM15, lam=2.0, y0=0.0, horizon=1.0, dt=0.01, seed=11)
    STARTS = np.array([-1.5, 0.0, 0.7, 3.0])

    def test_each_row_is_the_run_from_that_start(self):
        rows = []

        def f(y):
            rows.append(y.copy())
            return y

        # k* = 500 lies past the 100 steps here, so every call of f is one start's row
        path_integral(self.CFG, f, 64, np.ones(101), starts=self.STARTS)
        assert len(rows) == 101 * len(self.STARTS)
        fanned = np.reshape(rows, (101, len(self.STARTS), 64))
        for i, s in enumerate(self.STARTS):
            single = np.stack(list(iter_fast_values(replace(self.CFG, y0=s), 64)))
            # same jumps; the two differ only by rounding
            np.testing.assert_allclose(fanned[:, i], single, rtol=0.0, atol=1e-12)

    def test_starts_must_be_one_dimensional(self):
        with pytest.raises(UsageError):
            path_integral(self.CFG, np.sin, 8, np.ones(3), starts=self.STARTS.reshape(2, 2))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_starts_must_be_finite(self, bad):
        with pytest.raises(UsageError):
            path_integral(self.CFG, np.sin, 8, np.ones(3), starts=np.array([0.0, bad]))


def _draw_counter(monkeypatch):
    """Count the driver draws made through ``jump_processes``."""
    calls = []
    original = jump_processes.sample_stable_increment

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(jump_processes, "sample_stable_increment", counted)
    return calls


class TestPathIntegral:
    CFG = FastProcessConfig(SYM15, lam=2.0, y0=0.5, horizon=1.0, dt=0.05, seed=21)
    N = 20  # steps in CFG, so the states are Y_0 .. Y_20
    WEIGHTS = np.linspace(1.0, 2.0, N + 1)
    STOPS = np.array([0, 7, N, N + 1])
    FUNCTIONS = {
        "identity": lambda y: y,
        "variance": lambda y: (0.2 + 0.1 * np.tanh(y)) ** 2,
    }

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_cumulative_weighted_sums_of_the_path_columns(self, name):
        f = self.FUNCTIONS[name]
        paths = fast_paths(self.CFG, 32)
        assert paths.shape[1] == self.N + 1
        sums = np.cumsum(self.WEIGHTS * f(paths), axis=1)
        want = np.concatenate([np.zeros((32, 1)), sums], axis=1)[:, self.STOPS].T
        got = path_integral(self.CFG, f, 32, self.WEIGHTS, stops=self.STOPS)
        assert got.shape == (len(self.STOPS), 32)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        # stops in any order give the same rows in that order
        again = path_integral(self.CFG, f, 32, self.WEIGHTS, stops=self.STOPS[::-1])
        assert np.array_equal(again, got[::-1])

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_each_start_row_is_the_run_from_that_start(self, name):
        f = self.FUNCTIONS[name]
        starts = np.array([-1.0, 0.0, 2.5])
        got = path_integral(self.CFG, f, 32, self.WEIGHTS, stops=self.STOPS, starts=starts)
        assert got.shape == (len(self.STOPS), len(starts), 32)
        for i, s in enumerate(starts):
            single = path_integral(replace(self.CFG, y0=s), f, 32, self.WEIGHTS, stops=self.STOPS)
            # same jumps; the two differ only by rounding
            np.testing.assert_allclose(got[:, i], single, rtol=1e-12, atol=1e-12)

    def test_draws_only_the_states_the_last_stop_needs(self, monkeypatch):
        calls = _draw_counter(monkeypatch)
        path_integral(self.CFG, np.sin, 8, self.WEIGHTS, stops=[3, 7])
        assert len(calls) == 6  # Y_0 .. Y_6
        calls.clear()
        path_integral(self.CFG, np.sin, 8, self.WEIGHTS)
        assert len(calls) == self.N

    def test_stop_zero_gives_zeros_without_a_draw(self, monkeypatch):
        calls = _draw_counter(monkeypatch)
        got = path_integral(self.CFG, np.sin, 8, self.WEIGHTS, stops=[0])
        fanned = path_integral(self.CFG, np.sin, 8, self.WEIGHTS, stops=[0],
                               starts=np.array([1.0, 2.0]))
        assert got.shape == (1, 8) and np.all(got == 0.0)
        assert fanned.shape == (1, 2, 8) and np.all(fanned == 0.0)
        assert calls == []

    @pytest.mark.parametrize("weights, stops, starts", [
        (np.ones(N + 2), None, None),  # a weight past the horizon
        (np.ones((2, 3)), None, None),
        (np.ones(5), [6], None),
        (np.ones(5), [-1], None),
        (np.ones(5), [2.5], None),
        (np.ones(5), [0], np.ones((2, 2))),
    ])
    def test_bad_arguments_are_refused(self, weights, stops, starts):
        with pytest.raises(UsageError):
            path_integral(self.CFG, np.sin, 8, weights, stops=stops, starts=starts)

    @pytest.mark.parametrize("n_paths", [0, -1, 2.5])
    def test_path_count_must_be_a_positive_integer(self, n_paths):
        # these used to fail inside numpy as ValueError or TypeError
        with pytest.raises(UsageError, match="n_paths"):
            path_integral(self.CFG, np.sin, n_paths, self.WEIGHTS)
        with pytest.raises(UsageError, match="n_paths"):
            next(iter_fast_values(self.CFG, n_paths))


class TestFanIn:
    """After ten e-folds a fanned-out batch forgets its starts: every row reads Y^0."""

    CFG = FastProcessConfig(SYM15, lam=2.0, y0=0.0, horizon=8.0, dt=0.05, seed=29)
    N = 160  # steps in CFG
    K = 100  # the fan-in step: lam K dt = 10
    STARTS = np.array([-1.5, 0.0, 0.7, 3.0])
    WEIGHTS = np.linspace(1.0, 2.0, N + 1)

    def test_each_row_drops_its_start_memory_from_the_fan_in_step(self):
        stops = np.array([0, 37, self.K, self.K + 1, 130, self.N + 1])
        got = path_integral(self.CFG, lambda y: y, 32, self.WEIGHTS, stops=stops,
                            starts=self.STARTS)
        decay = self.WEIGHTS * np.exp(-self.CFG.lam * np.arange(self.N + 1) * self.CFG.dt)
        dropped = np.array([decay[self.K:stop].sum() for stop in stops])
        # the smallest drop, at K + 1, is far above rtol 1e-12 of sums of order 1e3
        assert np.all(dropped[:3] == 0.0) and dropped[3] > 4e-5
        for i, s in enumerate(self.STARTS):
            single = path_integral(replace(self.CFG, y0=s), lambda y: y, 32, self.WEIGHTS,
                                   stops=stops)
            # same jumps; up to rounding, the row is its run less s sum_{K<=k<stop} w_k e^{-lam t_k}
            np.testing.assert_allclose(got[:, i], single - s * dropped[:, None],
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lam, horizon, dt, k_star", [
        (2.0, 8.0, 0.05, 100),
        (1.0, 12.0, 0.02, 500),  # the corrector's query: lam k dt = 10 on a step
        (20.0, 1.0, 1.0 / 160.0, 80),  # the pricing surface's run
    ])
    def test_f_is_called_once_per_shared_state(self, lam, horizon, dt, k_star):
        cfg = FastProcessConfig(SYM15, lam=lam, y0=0.0, horizon=horizon, dt=dt, seed=3)
        last = cfg.n_steps + 1
        calls = []

        def f(y):
            calls.append(y.shape)
            return np.sin(y)

        path_integral(cfg, f, 4, np.ones(last), starts=self.STARTS)
        assert len(calls) == len(self.STARTS) * k_star + (last - k_star)
        assert set(calls) == {(4,)}  # every call still gets a full row of paths

    def test_shared_state_is_the_run_from_zero(self):
        args = []

        def f(y):
            args.append(y.copy())
            return y

        path_integral(self.CFG, f, 16, self.WEIGHTS, starts=self.STARTS)
        zero = list(iter_fast_values(self.CFG, 16))
        fanned = len(self.STARTS) * self.K
        assert len(args) == fanned + len(zero) - self.K
        assert all(y.shape == (16,) for y in args[:fanned])
        for y, y0 in zip(args[fanned:], zero[self.K:]):
            assert y.shape == (16,) and np.array_equal(y, y0)

    def test_rows_agree_with_their_start_up_to_the_fan_in_step(self):
        stops = np.array([0, 37, self.K, self.K + 1])
        got = path_integral(self.CFG, np.sin, 32, self.WEIGHTS, stops=stops, starts=self.STARTS)
        for i, s in enumerate(self.STARTS):
            single = path_integral(replace(self.CFG, y0=s), np.sin, 32, self.WEIGHTS, stops=stops)
            # same jumps and the same states up to K; the two differ only by rounding
            np.testing.assert_allclose(got[:3, i], single[:3], rtol=1e-12, atol=1e-12)
            if s != 0.0:  # one step past K the row has dropped s e^{-10} from its state
                assert np.max(np.abs(got[3, i] - single[3])) > 1e-7


def _toy_pricing(r, sigma_fn):
    """Single-asset model dX = r X dt + sqrt(2) sigma(y) X dW."""
    return ControlProblemSpec(
        beta0=r, beta1=0.0, sigma_of_y=sigma_fn,
        u_lo=1.0, u_hi=1.0, payoff=lambda x: x, discount=0.0, horizon=1.0,
    )


def _toy_merton(r, alpha_drift, sigma_fn, u_lo, u_hi):
    """Wealth dW = W (r + (alpha - r) u) dt + sqrt(2) W u sigma(y) dB, u in [u_lo, u_hi]."""
    return ControlProblemSpec(
        beta0=r, beta1=alpha_drift - r, sigma_of_y=sigma_fn, u_lo=u_lo, u_hi=u_hi,
        payoff=lambda x: x, discount=0.0, horizon=1.0,
    )


class TestSlowSystem:
    def test_deterministic_growth_without_noise(self):
        prob = _toy_pricing(r=0.05, sigma_fn=lambda y: 0.0)
        fast = FastProcessConfig(NULL, lam=1.0, y0=0.0, horizon=1.0, dt=5e-4, seed=0)
        xs, _ = simulate_slow_system(SlowSystemConfig(prob, fast, x0=1.0))
        assert xs.values[-1] == pytest.approx(math.exp(0.05), rel=1e-5)

    def test_riskless_merton_growth(self):
        prob = _toy_merton(0.05, 0.1, lambda y: 0.2, u_lo=0.0, u_hi=0.0)
        fast = FastProcessConfig(SYM15, lam=1.0, y0=0.0, horizon=2.0, dt=1e-3, seed=4)
        ws, _ = simulate_slow_system(SlowSystemConfig(prob, fast, x0=1.0))
        # u = 0 disables the noise entirely, so the growth is riskless
        assert ws.values[-1] == pytest.approx(math.exp(0.1), rel=1e-5)

    def test_state_stays_nonnegative(self):
        prob = _toy_pricing(r=0.05, sigma_fn=lambda y: 0.3 + 0.1 * np.tanh(y))
        fast = FastProcessConfig(SYM15, lam=2.0, y0=0.0, horizon=1.0, dt=0.005, seed=21)
        for seed in range(5):
            cfg = SlowSystemConfig(
                prob,
                FastProcessConfig(SYM15, lam=2.0, y0=0.0, horizon=1.0, dt=0.005, seed=seed),
                x0=1.0,
            )
            xs, ys = simulate_slow_system(cfg)
            assert np.all(xs.values >= 0.0)
            assert np.array_equal(xs.times, ys.times)

    def test_discounted_martingale_small_batch(self):
        r = 0.05
        prob = _toy_pricing(r=r, sigma_fn=lambda y: 0.3 + 0.1 * np.tanh(y))
        terminal = []
        for seed in range(200):
            fast = FastProcessConfig(SYM15, lam=1.0, y0=0.0, horizon=1.0, dt=0.005, seed=seed)
            xs, _ = simulate_slow_system(SlowSystemConfig(prob, fast, x0=1.0))
            terminal.append(xs.values[-1])
        disc = math.exp(-r) * np.asarray(terminal)
        se = disc.std(ddof=1) / math.sqrt(len(disc))
        assert abs(disc.mean() - 1.0) < 3.0 * se

    def test_factor_path_is_the_fast_path(self):
        prob = _toy_pricing(r=0.05, sigma_fn=lambda y: 0.3 + 0.1 * np.tanh(y))
        fast = FastProcessConfig(SYM15, lam=20.0, y0=0.4, horizon=1.0, seed=31)
        xs, ys = simulate_slow_system(SlowSystemConfig(prob, fast, x0=1.0))
        assert np.array_equal(ys.times, np.arange(fast.n_steps + 1) * fast.step)
        assert np.array_equal(ys.values, fast_paths(fast, 1)[0])

    def test_matches_the_step_by_step_floored_euler_loop(self):
        # one step at a time, X_{k+1} = X_k max(1 + b dt + s dW_k, 0), from x0 != 1:
        # the cumulative product must start at x0 to give the same bits
        x0, r, sigma_fn = 0.37, 0.05, lambda y: 0.3 + 0.1 * np.tanh(y)
        prob = _toy_merton(r, 0.1, sigma_fn, u_lo=1.5, u_hi=2.0)
        fast = FastProcessConfig(SYM15, lam=20.0, y0=0.4, horizon=1.0, seed=7)
        xs, ys = simulate_slow_system(SlowSystemConfig(prob, fast, x0=x0))
        dt = fast.step
        rng = stream_rng(fast.seed, BROWNIAN_STREAM)
        x = [x0]
        for y in ys.values[:-1]:
            dw = rng.normal(0.0, math.sqrt(dt))
            drift = r + (0.1 - r) * 1.5
            vol = math.sqrt(2.0) * 1.5 * float(sigma_fn(np.array([y]))[0])
            x.append(x[-1] * max(1.0 + drift * dt + vol * dw, 0.0))
        assert np.array_equal(xs.values, np.array(x))

    def test_negative_initial_state_rejected(self):
        prob = _toy_pricing(r=0.05, sigma_fn=lambda y: 0.2)
        fast = FastProcessConfig(SYM15, lam=1.0, y0=0.0, horizon=1.0, dt=0.01, seed=2)
        with pytest.raises(UsageError):
            SlowSystemConfig(prob, fast, x0=-1.0)


class TestStreams:
    def test_jump_and_brownian_streams_differ(self):
        a = stream_rng(5, JUMP_STREAM).standard_normal(8)
        b = stream_rng(5, BROWNIAN_STREAM).standard_normal(8)
        assert not np.allclose(a, b)

    def test_same_key_same_stream(self):
        a = stream_rng(5, JUMP_STREAM).standard_normal(8)
        b = stream_rng(5, JUMP_STREAM).standard_normal(8)
        assert np.array_equal(a, b)


def _scoped_nodes():
    """``(scope, node)`` for every AST node of the package, ``scope`` its ``module.Class.function``.

    A node outside any class or function has the bare module name as its scope.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{scope}.{node.name}"
            yield scope, node
            for child in ast.iter_child_nodes(node):
                yield from visit(child, scope)

        yield from visit(ast.parse(path.read_text()), path.stem)


def _readers(name: str) -> set[str]:
    """The scope of every read of ``name`` in the package, as a bare name or an attribute."""
    return {scope for scope, node in _scoped_nodes()
            if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == name)}


def _relative_checks(tol: float) -> set[str]:
    """The scope of every comparison against ``tol`` times a quantity."""
    return {scope for scope, node in _scoped_nodes()
            if isinstance(node, ast.Compare) and any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                and isinstance(n.left, ast.Constant) and n.left.value == tol
                for n in ast.walk(node))}


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "levy_multiscale"


class TestOneKernel:
    def test_each_random_stream_has_one_consumer(self):
        # the fast-factor recursion and the slow-state step each have one implementation
        assert _readers("sample_stable_increment") == {"jump_processes.iter_fast_values"}
        assert _readers("BROWNIAN_STREAM") == {"jump_processes.simulate_slow_system"}

    def test_slow_model_has_one_statement(self):
        # the spec's fields are the one statement of the model, read where it is used
        assert _readers("sigma_of_y") == {"hjb_solvers._LocalBellman.__init__",
                                          "hjb_solvers.hamiltonian_eval",
                                          "jump_processes.simulate_slow_system"}

    def test_control_set_has_one_statement(self):
        # the interval is read by the spec's own check and by the model's three readers (the
        # path simulator holds u at u_lo), and the kernel minimises over it by a clipped
        # vertex, with no rounding to a grid
        solvers = {"hjb_solvers.ControlProblemSpec.__post_init__",
                   "hjb_solvers._LocalBellman.__init__", "hjb_solvers.hamiltonian_eval"}
        assert _readers("u_lo") == solvers | {"jump_processes.simulate_slow_system"}
        assert _readers("u_hi") == solvers
        assert not {r for r in _readers("rint") if r.startswith("hjb_solvers.")}

    def test_step_bound_has_one_statement(self):
        # the positivity bound is stated beside the coefficients it bounds, in _LocalBellman
        assert _readers("dt_bound") == {"hjb_solvers._LocalBellman.__init__"}

    def test_standing_conditions_have_one_gate(self):
        # the subordinator is refused in one place, and otherwise read only to build its profile
        assert _readers("AssumptionError") == {"levy_measures.require_assumptions"}
        assert _readers("subordinator") == {"levy_measures.require_assumptions",
                                            "nonlocal_generator.counterexample_profile"}

    def test_scalar_rules_have_one_gate(self):
        # finite, positive and nonnegative read math.isfinite, and a count reads
        # numbers.Integral, only in the guards of errors.py
        finite_readers = {
            path.stem for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and isinstance(node.value, ast.Name) and node.value.id == "math")
            or (isinstance(node, ast.Name) and node.id == "isfinite")
        }
        assert finite_readers == {"errors"}
        assert _readers("Integral") == {"errors.require_count"}

    def test_array_rule_has_one_gate(self):
        # isfinite, numpy's or math's, is read by the guards of errors.py and, on computed
        # values, by the two NumericalError checks: the march and the value field's
        readers = {scope for scope, node in _scoped_nodes()
                   if getattr(node, "attr", getattr(node, "id", None)) == "isfinite"}
        assert readers == {"errors.require_finite", "errors.require_positive",
                           "errors.require_nonnegative", "errors.require_finite_array",
                           "hjb_solvers._march", "hjb_solvers.ValueField.__post_init__"}

    def test_array_snapshot_has_one_statement(self):
        # the guard returns a read-only copy and the records keep it, so no record freezes its own
        assert _readers("setflags") == {"errors.require_finite_array"}

    def test_stable_skew_has_one_statement(self):
        # beta tan(pi alpha / 2) is LevyMeasureModel.skew, read by the CMS map and the closed form
        assert _readers("tan") == {"levy_measures.LevyMeasureModel.skew"}
        assert _readers("skew") == {"jump_processes.sample_stable_increment",
                                    "levy_measures.stable_exponent_closed"}

    def test_quadrature_constants_are_read_where_quadrature_runs(self):
        # the Taylor cut and the tolerance are constants, not options passed along
        for name in ("DEFAULT_KAPPA", "DEFAULT_QUAD_TOL"):
            assert _readers(name) == {"levy_measures.levy_exponent",
                                      "nonlocal_generator.generator_apply"}

    def test_outer_cut_has_one_statement(self):
        # the grid matrix and the pointwise generator read the same truncation point
        assert _readers("default_outer_cut") == {"hjb_solvers.assemble_factor_generator",
                                                 "nonlocal_generator.generator_apply"}

    def test_generator_has_one_integrand(self):
        # the compensator is a drift, as in the grid matrix, so one quadrature runs [kappa, M]
        tree = ast.parse((PACKAGE / "nonlocal_generator.py").read_text())
        fn = next(n for n in tree.body
                  if isinstance(n, ast.FunctionDef) and n.name == "generator_apply")
        calls = [n for n in ast.walk(fn)
                 if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "quad"]
        assert len(calls) == 1

    def test_path_functionals_share_one_kernel(self):
        # the averages, the corrector and the pricer's variance are weight choices
        assert _readers("iter_fast_values") == {
            "jump_processes.path_integral",
            "jump_processes.simulate_slow_system",
            "ergodicity.stationary_samples",
        }

    def test_ten_efolds_have_one_statement(self):
        # the discounted runs' truncation and the fan-in of a start batch read one constant
        assert _readers("FORGET_EFOLDS") == {"jump_processes.discount_horizon",
                                             "jump_processes.path_integral",
                                             "ergodicity.abel_average"}

    def test_start_fan_out_has_one_owner(self):
        # the factor recursion knows no start points: the path functional fans out and in
        assert _readers("starts") == {"jump_processes.path_integral"}

    def test_whole_step_rule_has_one_statement(self):
        # a run's step divides its horizon: checked where the run's config is built, and
        # nowhere else; the other relative check is the PDE grids' even spacing
        assert _relative_checks(1e-9) == {"jump_processes.FastProcessConfig.__post_init__",
                                          "hjb_solvers._require_uniform"}
