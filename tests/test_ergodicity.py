import math

import numpy as np
import pytest
from scipy import stats

from levy_multiscale.errors import UsageError
from levy_multiscale.ergodicity import (
    InvariantMeasure,
    abel_average,
    ergodic_time_average,
    estimate_invariant_measure,
    measure_from_samples,
    stationary_cf_bruteforce,
    stationary_cf_oracle,
    stationary_samples,
    two_atom_measure,
)
from levy_multiscale import jump_processes, levy_measures
from levy_multiscale.jump_processes import FastProcessConfig
from levy_multiscale.levy_measures import Family, LevyMeasureModel

SYM15 = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5)
SYM10 = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.0)
NULL = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5, 0.0)


def fast_cfg(model=SYM15, lam=1.0, y0=0.0, horizon=10.0, dt=0.02, seed=0):
    return FastProcessConfig(model, lam=lam, y0=y0, horizon=horizon, dt=dt, seed=seed)


class TestInvariantMeasureType:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(UsageError):
            InvariantMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_nodes_must_be_sorted(self):
        with pytest.raises(UsageError):
            InvariantMeasure(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_two_atom_factory(self):
        mu = two_atom_measure(-1.0, 2.0)
        assert mu.mean_of(lambda y: y) == pytest.approx(0.5)
        assert mu.cf(0.0) == 1.0

    def test_measure_from_samples_weights(self):
        rng = np.random.default_rng(0)
        mu = measure_from_samples(rng.normal(size=20_000), n_nodes=64)
        assert np.sum(mu.weights) == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.diff(mu.nodes) > 0)
        assert mu.mean_of(lambda y: y) == pytest.approx(0.0, abs=0.05)


class TestEstimateInvariantMeasure:
    def test_null_driver_collapses_to_point_mass(self):
        mu = estimate_invariant_measure(fast_cfg(model=NULL), burn_in=10.0, n_samples=1000)
        assert len(mu.nodes) == 1
        assert mu.nodes[0] == pytest.approx(0.0)
        assert mu.weights[0] == 1.0

    def test_short_burn_in_refused(self):
        with pytest.raises(UsageError):
            estimate_invariant_measure(fast_cfg(), burn_in=1.0, n_samples=2000)

    @pytest.mark.parametrize("n_samples", [1500.5, 999])
    def test_sample_count_must_be_an_integer_of_at_least_1000(self, n_samples):
        # 1500.5 used to fail in a slice as a TypeError
        with pytest.raises(UsageError, match="samples"):
            stationary_samples(fast_cfg(), 10.0, n_samples)

    @pytest.mark.parametrize("burn_in", [math.nan, math.inf])
    def test_non_finite_burn_in_refused(self, burn_in):
        # nan used to reach math.ceil as a ValueError, inf as an OverflowError
        with pytest.raises(UsageError, match="burn_in"):
            stationary_samples(fast_cfg(), burn_in, 2000)

    def test_long_run_draws_only_the_states_it_keeps(self, monkeypatch):
        calls = []
        sampler = jump_processes.sample_stable_increment

        def counting(*args, **kwargs):
            calls.append(args)
            return sampler(*args, **kwargs)

        monkeypatch.setattr(jump_processes, "sample_stable_increment", counting)
        cfg = fast_cfg()
        samples = stationary_samples(cfg, 10.0, 40_000)
        assert samples.shape == (40_000,)
        # burn-in steps at stride 2/lam, then one step per kept state
        assert len(calls) <= math.ceil(cfg.lam * 10.0 / 2.0) + math.ceil(40_000 / 256)

    def test_quadrature_cf_matches_oracle(self):
        mu = estimate_invariant_measure(fast_cfg(seed=17), burn_in=10.0, n_samples=30_000)
        for u in (0.5, 1.0, 2.0):
            want = stationary_cf_oracle(SYM15, u)
            assert abs(mu.cf(u) - want) < 0.02

    def test_lambda_independence_ks(self):
        a = stationary_samples(fast_cfg(lam=1.0, dt=0.02, seed=5), 10.0, 30_000)
        b = stationary_samples(fast_cfg(lam=10.0, dt=0.002, seed=6), 1.0, 30_000)
        assert stats.ks_2samp(a, b).statistic < 0.02


class TestStationaryCfOracle:
    def test_value_at_zero(self):
        assert stationary_cf_oracle(SYM15, 0.0) == 1.0

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_frequency_refused(self, u):
        with pytest.raises(UsageError, match="finite"):
            stationary_cf_oracle(SYM15, u)

    def test_cauchy_case_value(self):
        # psi(1) = -pi for alpha = 1, then division by alpha = 1
        got = stationary_cf_oracle(SYM10, 1.0)
        assert got.real == pytest.approx(math.exp(-math.pi), rel=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-15)

    def test_alpha_three_halves_frozen_values(self):
        # exp(psi(u)/alpha) with psi(1) = -2 * 1.67108551642067
        for u, want in [(0.5, 0.4548637902), (1.0, 0.1077314178), (2.0, 0.001832529298)]:
            assert abs(stationary_cf_oracle(SYM15, u)) == pytest.approx(want, rel=1e-9)

    def test_stable_homogeneity(self):
        for u in (0.3, 0.8):
            lhs = abs(stationary_cf_oracle(SYM15, 2.0 * u))
            rhs = abs(stationary_cf_oracle(SYM15, u)) ** (2.0**1.5)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize(
        "model",
        [SYM15, SYM10, LevyMeasureModel(Family.ONE_SIDED_STABLE, 1.5)],
        ids=["sym-1.5", "sym-1.0", "one-sided-1.5"],
    )
    def test_bruteforce_s_integration_agrees(self, model):
        for u in (0.5, 1.0):
            want = stationary_cf_oracle(model, u)
            got = stationary_cf_bruteforce(model, u)
            assert abs(got - want) < 1e-6

    @pytest.mark.parametrize("u", [0.5, 1.0])
    def test_bruteforce_same_from_cold_and_warm_floor_cache(self, u):
        model = LevyMeasureModel(Family.ONE_SIDED_STABLE, 1.5)
        levy_measures._floor_exponent.cache_clear()
        cold = stationary_cf_bruteforce(model, u)
        assert stationary_cf_bruteforce(model, u) == cold


class TestErgodicTimeAverage:
    def test_constant_function_is_exact(self):
        got = ergodic_time_average(fast_cfg(seed=3), lambda y: np.ones_like(y), 5.0, 200)
        assert got == 1.0

    def test_half_space_indicator_from_symmetric_start(self):
        f = lambda y: (y > 0.0).astype(float)
        n = 4000
        got = ergodic_time_average(fast_cfg(y0=0.0, seed=9), f, 10.0, n)
        # mu(f) = 1/2 exactly by symmetry; 3 binomial-ish standard errors with
        # a generous correlation allowance
        se = 3.0 * math.sqrt(0.25 / n) * 3.0
        assert abs(got - 0.5) < se

    def test_error_decays_with_horizon(self):
        f = lambda y: (y > 0.0).astype(float)
        errs = []
        for t in (5.0, 20.0):
            got = ergodic_time_average(fast_cfg(y0=3.0, seed=13), f, t, 4000)
            errs.append(abs(got - 0.5))
        assert errs[1] < errs[0]


class TestAbelAverage:
    def test_constant_function_exact(self):
        got = abel_average(fast_cfg(seed=1), lambda y: np.full_like(y, 4.2), 0.3, 100)
        assert got == pytest.approx(4.2, rel=1e-12)

    def test_linear_rate_in_delta(self):
        f = lambda y: (y > 0.0).astype(float)
        deltas = [0.2, 0.1, 0.05]
        errs = [
            abs(abel_average(fast_cfg(y0=2.0, seed=33), f, d, 4000) - 0.5)
            for d in deltas
        ]
        assert errs[0] > errs[1] > errs[2]
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert 0.6 <= slope <= 1.4

    def test_error_envelope_in_initial_state(self):
        f = lambda y: (y > 0.0).astype(float)
        q = 0.75  # any q < alpha
        errs = {
            y0: abs(abel_average(fast_cfg(y0=y0, seed=55), f, 0.1, 4000) - 0.5)
            for y0 in (0.0, 2.0, 5.0)
        }
        assert errs[0.0] <= errs[2.0] <= errs[5.0]
        # normalized errors stay within a common envelope constant
        norm = {y0: e / (1.0 + abs(y0) ** q) for y0, e in errs.items()}
        assert norm[5.0] <= 1.5 * max(norm[2.0], norm[0.0] + 1e-3)

    def test_invalid_delta(self):
        with pytest.raises(UsageError):
            abel_average(fast_cfg(), lambda y: y, -0.1, 10)


def brute_force_blocks(nodes, weights, n):
    """Block means of the law over the mass levels k/n, one atom overlap at a time."""
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    means = []
    for k in range(n):
        lo, hi = k * cum[-1] / n, (k + 1) * cum[-1] / n
        num = den = 0.0
        for j, y in enumerate(nodes):
            w = min(cum[j + 1], hi) - max(cum[j], lo)
            if w > 0.0:
                num += w * y
                den += w
        means.append(num / den)
    return np.array(means)


def weighted_cauchy(n_atoms=300, seed=4):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, n_atoms)
    return InvariantMeasure(np.sort(rng.standard_cauchy(n_atoms)), weights / weights.sum())


class TestCoarsen:
    @pytest.mark.parametrize("n", [7, 64])
    def test_matches_brute_force_block_means(self, n):
        mu = weighted_cauchy()
        got = mu.coarsen(n)
        want = brute_force_blocks(mu.nodes, mu.weights, n)
        scale = np.max(np.abs(mu.nodes))
        assert len(got.nodes) == n
        assert np.max(np.abs(got.nodes - want)) <= 1e-12 * scale
        assert np.all(got.weights == 1.0 / n)

    @pytest.mark.parametrize("n", [300, 301])
    def test_at_most_n_nodes_is_returned_unchanged(self, n):
        mu = weighted_cauchy()
        assert mu.coarsen(n) is mu

    def test_no_blocks_is_refused(self):
        with pytest.raises(UsageError, match="n_nodes"):
            weighted_cauchy().coarsen(0)

    def test_block_inside_a_heavy_atom_is_that_atom(self):
        # half the mass on one node: the blocks inside it merge into that exact node
        mu = weighted_cauchy()
        heavy = np.append(0.5 * mu.weights, 0.5)
        order = np.argsort(np.append(mu.nodes, 0.1), kind="stable")
        nodes = np.append(mu.nodes, 0.1)[order]
        mu = InvariantMeasure(nodes, heavy[order])
        got = mu.coarsen(64)
        assert np.all(np.diff(got.nodes) > 0.0)
        assert got.weights[got.nodes == 0.1].item() >= 31 / 64
        assert got.mean_of(lambda y: y) == pytest.approx(mu.mean_of(lambda y: y), abs=1e-12)

    def test_samples_give_equal_weights_and_keep_the_mean(self):
        samples = stationary_samples(fast_cfg(seed=3), 10.0, 40_000)
        mu = measure_from_samples(samples, 256)
        assert len(mu.nodes) == 256
        assert np.all(mu.weights == 1.0 / 256)
        assert mu.mean_of(lambda y: y) == pytest.approx(np.mean(samples), abs=1e-12)

    def test_blocks_nest(self):
        samples = stationary_samples(fast_cfg(seed=3), 10.0, 40_000)
        fine = measure_from_samples(samples, 256).coarsen(64)
        coarse = measure_from_samples(samples, 64)
        assert np.max(np.abs(fine.nodes - coarse.nodes)) <= 1e-12
        assert np.all(fine.weights == coarse.weights)

    def test_few_distinct_samples_keep_their_counts(self):
        mu = measure_from_samples(np.array([2.0, -1.0, 2.0, 2.0]), 64)
        assert mu.nodes.tolist() == [-1.0, 2.0]
        assert mu.weights.tolist() == [0.25, 0.75]


class TestNonFiniteMeasure:
    @pytest.mark.parametrize("nodes, weights", [
        ([0.0, math.nan], [0.5, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, 1.0]),
    ], ids=["nan-node", "inf-node", "nan-weight"])
    def test_refused(self, nodes, weights):
        with pytest.raises(UsageError, match="finite"):
            InvariantMeasure(np.array(nodes), np.array(weights))
