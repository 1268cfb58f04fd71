"""Inputs that used to pass unchecked now raise ``UsageError``.

Each row is an input the package accepted before its guard existed: NaN slips
through a check written as ``if x <= 0`` (every comparison with NaN is False).
So each scalar argument rule goes through one guard of ``errors.py``
(``require_finite``, ``require_positive``, ``require_nonnegative`` or
``require_count``), all of which NaN fails, every array argument through
``require_finite_array`` (ragged, wrong ndim, too short, NaN or +-inf), and
a check that relates two arguments or values is written as
``if not (<accepted>)``.  The row's comment says what the call did without
the guard.  The rows after "guards that no other test
reaches" hold refusals that always existed but that no test called.  A
subordinator is refused with ``AssumptionError`` by every route of the factor,
before any draw.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from levy_multiscale import (ergodicity, finance, hjb_solvers, jump_processes, levy_measures,
                             nonlocal_generator)
from levy_multiscale.errors import AssumptionError, NumericalError, UsageError
from levy_multiscale.levy_measures import Family, LevyMeasureModel

SYM = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5)
ONE_SIDED = LevyMeasureModel(Family.ONE_SIDED_STABLE, 1.5)
MERTON = finance.MertonSpec(
    r=0.05, alpha_drift=0.1, sigma_fn=lambda y: 0.2 + 0.0 * np.asarray(y, dtype=float),
    R1=0.0, R=1.0, gamma=0.5, a=1.0, horizon=1.0, w0=1.0,
)
MU = ergodicity.two_atom_measure(-1.0, 1.0)
SAMPLES = np.linspace(-1.0, 1.0, 101)
SUB = LevyMeasureModel(Family.ONE_SIDED_STABLE, 0.5)
PRICING = finance.PricingSpec(r=0.05, sigma_fn=MERTON.sigma_fn, payoff=finance.CallPayoff(1.0),
                              discount=0.05, horizon=1.0, x0=1.0)
#: The pricers' factor at epsilon = 0.1, on the default step.
FAST_PRICING = jump_processes.FastProcessConfig(SYM, lam=10.0, y0=0.0, horizon=1.0)


def fast(model):
    return jump_processes.FastProcessConfig(model, lam=1.0, y0=0.0, horizon=1.0, dt=0.1)


def pide(epsilon, model=SYM):
    grids = hjb_solvers.Grids(x=np.linspace(0.0, 1.0, 5), y=np.linspace(-2.0, 2.0, 9))
    return hjb_solvers.pide_solve(finance.merton_problem(MERTON), model, epsilon, grids)


def stable_draws(size):
    return jump_processes.sample_stable_increment(
        ONE_SIDED, 1.0, jump_processes.stream_rng(0, jump_processes.JUMP_STREAM), size)


def lyapunov(radius):
    q = nonlocal_generator.GeneratorQuadrature(ONE_SIDED)
    return nonlocal_generator.lyapunov_drift_check(q, 1.0, radius, np.array([3.0]))


def corrector_query(frozen_point=(1.0, 1.0, -1.0), delta=0.5, dt=0.1, y_grid=(0.0,), **fields):
    return nonlocal_generator.CorrectorQuery(SYM, frozen_point, delta, np.array(y_grid), dt=dt,
                                             **fields)


def solve(solver, **fields):
    """``solver`` on the Merton problem with ``fields`` replaced, on 31 x nodes."""
    problem = replace(finance.merton_problem(MERTON), **fields)
    grids = hjb_solvers.Grids(x=np.linspace(0.0, 1.0, 31), y=np.linspace(-2.0, 2.0, 9))
    if solver == "effective_solve":
        return hjb_solvers.effective_solve(problem, MU, grids)
    return hjb_solvers.pide_solve(problem, SYM, 0.5, grids)


def field(ts, ys=None):
    """Zero field on the times ``ts`` and three x nodes, with a factor axis if ``ys`` is given."""
    shape = (len(ts), 3) if ys is None else (len(ts), 3, len(ys))
    return hjb_solvers.ValueField(t_grid=np.array(ts), x_grid=np.linspace(0.0, 1.0, 3),
                                  values=np.zeros(shape),
                                  y_grid=None if ys is None else np.array(ys))


def sigma_above_half(value):
    """A volatility of 0.2 that is ``value`` for y > 0.5."""
    return lambda y: np.where(np.asarray(y) > 0.5, value, 0.2)


def generator(growth_order):
    q = nonlocal_generator.GeneratorQuadrature(SYM)
    return nonlocal_generator.generator_apply(q, math.cos, 0.0, lambda v: -math.sin(v),
                                              lambda v: -math.cos(v), growth_order=growth_order)


ROWS = {
    # scipy's ValueError from lu_factor
    "pide_solve epsilon nan": lambda: pide(math.nan),
    # solved with the implicit factor step frozen
    "pide_solve epsilon inf": lambda: pide(math.inf),
    # numpy's TypeError from linspace
    "coarsen 2.5": lambda: ergodicity.measure_from_samples(SAMPLES).coarsen(2.5),
    # a one-node measure
    "coarsen True": lambda: ergodicity.measure_from_samples(SAMPLES).coarsen(True),
    # a certificate for a ball that was never stated
    "lyapunov radius nan": lambda: lyapunov(math.nan),
    "lyapunov radius -1": lambda: lyapunov(-1.0),
    # (inf, True): the drift condition certified on no sample at all
    "lyapunov no samples": lambda: nonlocal_generator.lyapunov_drift_check(
        nonlocal_generator.GeneratorQuadrature(ONE_SIDED), 1.0, 2.0, np.array([])),
    # nan
    "tail_moment q nan": lambda: levy_measures.tail_moment(SYM, math.nan),
    "truncated_moment kappa nan": lambda: levy_measures.truncated_moment(SYM, 2, math.nan),
    "interval_mass a nan": lambda: levy_measures.interval_mass(SYM, math.nan, 1.0),
    "interval_first_moment a nan": lambda: levy_measures.interval_first_moment(SYM, math.nan, 1.0),
    "generator_apply growth order nan": lambda: generator(math.nan),
    "merton_hara_closed_form wealth nan": lambda: finance.merton_hara_closed_form(
        MERTON, MU, 0.0, math.nan),
    # returned (0.1358..., 0.0): the rate check |lam eps - 1| > 1e-9 is False for NaN
    "price_mc epsilon nan": lambda: finance.price_mc(PRICING, math.nan, FAST_PRICING, 1000),
    # priced maturity 0.9 for T = 1: the step count rounds T / dt = 3.33 to 3
    "price_mc step not dividing the horizon": lambda: finance.price_mc(
        finance.PricingSpec(r=0.05, sigma_fn=MERTON.sigma_fn, payoff=finance.CallPayoff(1.0),
                            discount=0.05, horizon=1.0, x0=1.0),
        0.1, jump_processes.FastProcessConfig(SYM, lam=10.0, y0=0.0, horizon=1.0, dt=0.3), 1000),
    # averaged over [0, 0.9) for t = 1: the step count rounds t / dt = 3.33 to 3
    "ergodic_time_average t off the step grid": lambda: ergodicity.ergodic_time_average(
        jump_processes.FastProcessConfig(SYM, lam=1.0, y0=0.0, horizon=1.0, dt=0.3), np.cos,
        1.0, 4),
    # ran 2 steps to 1.2, 2 to 0.8 (round-half-even) and 3 to 0.9 for T = 1
    "FastProcessConfig dt 0.6 for T = 1": lambda: jump_processes.FastProcessConfig(
        SYM, lam=1.0, y0=0.0, horizon=1.0, dt=0.6),
    "FastProcessConfig dt 0.4 for T = 1": lambda: jump_processes.FastProcessConfig(
        SYM, lam=1.0, y0=0.0, horizon=1.0, dt=0.4),
    "FastProcessConfig dt 0.3 for T = 1": lambda: jump_processes.FastProcessConfig(
        SYM, lam=1.0, y0=0.0, horizon=1.0, dt=0.3),
    # numpy's TypeError from np.full
    "path_integral n_paths True": lambda: jump_processes.path_integral(
        fast(SYM), np.cos, True, np.ones(3)),
    # refused only when the corrector built its fast config
    "CorrectorQuery dt nan": lambda: nonlocal_generator.CorrectorQuery(
        SYM, (1.0, 1.0, -1.0), 0.5, np.array([0.0]), dt=math.nan),
    # built a wrong generator: (L @ y) at y = 0 was -1.43, not 0
    "assemble_factor_generator uneven y grid": lambda: hjb_solvers.assemble_factor_generator(
        SYM, np.array([-2.0, -1.5, -1.2, -0.5, 0.0, 0.3, 0.9, 1.7, 2.0])),
    # IndexError
    "assemble_factor_generator one-node y grid": lambda: hjb_solvers.assemble_factor_generator(
        SYM, np.array([0.0])),
    # refused, but with a misleading "straddle the origin" error
    "assemble_factor_generator decreasing y grid": lambda: hjb_solvers.assemble_factor_generator(
        SYM, np.linspace(2.0, -2.0, 9)),
    # numpy's ValueError: negative dimensions are not allowed
    "sample_stable_increment size -1": lambda: stable_draws(-1),
    # numpy's TypeError
    "sample_stable_increment size 2.5": lambda: stable_draws(2.5),
    "sample_stable_increment size True": lambda: stable_draws(True),
    # a 0-d draw, not an array of draws
    "sample_stable_increment size None": lambda: stable_draws(None),
    # numpy's TypeError
    "effective_solve payoff 1.0": lambda: solve("effective_solve", payoff=lambda x: 1.0),
    # IndexError
    "pide_solve payoff 1.0": lambda: solve("pide_solve", payoff=lambda x: 1.0),
    # numpy's broadcast ValueError
    "effective_solve payoff of 5 values on 31 nodes": lambda: solve(
        "effective_solve", payoff=lambda x: np.ones(5)),
    # IndexError
    "effective_solve sigma_of_y 0.2": lambda: solve("effective_solve", sigma_of_y=lambda y: 0.2),
    "pide_solve sigma_of_y 0.2": lambda: solve("pide_solve", sigma_of_y=lambda y: 0.2),
    # drew exactly seed 1's paths
    "FastProcessConfig seed True": lambda: jump_processes.FastProcessConfig(
        SYM, lam=1.0, y0=0.0, horizon=1.0, dt=0.1, seed=True),
    # accepted, then failed on call: "not enough values to unpack"
    "CorrectorQuery frozen point (1, 1)": lambda: corrector_query(frozen_point=(1.0, 1.0)),
    # accepted, and handed on to the Hamiltonian
    "CorrectorQuery frozen point with nan": lambda: corrector_query(
        frozen_point=(1.0, math.nan, -1.0)),
    # a slow path of NaN
    "SlowSystemConfig x0 nan": lambda: jump_processes.SlowSystemConfig(
        finance.merton_problem(MERTON),
        jump_processes.FastProcessConfig(SYM, lam=1.0, y0=0.0, horizon=1.0, dt=0.1), math.nan),
    # guards that no other test reaches
    "MertonSpec alpha_drift = r": lambda: replace(MERTON, alpha_drift=MERTON.r),
    "MertonSpec gamma 1": lambda: replace(MERTON, gamma=1.0),
    "MertonSpec a 0": lambda: replace(MERTON, a=0.0),
    "MertonSpec R1 0.5": lambda: replace(MERTON, R1=0.5),
    "MertonSpec w0 0": lambda: replace(MERTON, w0=0.0),
    "PricingSpec discount -0.1": lambda: finance.PricingSpec(
        r=0.05, sigma_fn=MERTON.sigma_fn, payoff=finance.CallPayoff(1.0), discount=-0.1,
        horizon=1.0, x0=1.0),
    "merton_hara_closed_form t 1.5 for T = 1": lambda: finance.merton_hara_closed_form(
        MERTON, MU, 1.5, 1.0),
    "InvariantMeasure unequal lengths": lambda: ergodicity.InvariantMeasure(
        np.array([0.0, 1.0]), np.array([1.0])),
    "InvariantMeasure negative weight": lambda: ergodicity.InvariantMeasure(
        np.array([0.0, 1.0]), np.array([1.5, -0.5])),
    "measure_from_samples one sample": lambda: ergodicity.measure_from_samples(np.array([0.5])),
    # dy = 2 is past the compensator cut 1
    "assemble_factor_generator dy 2": lambda: hjb_solvers.assemble_factor_generator(
        SYM, np.linspace(-4.0, 4.0, 5)),
    "pide_solve without a factor grid": lambda: hjb_solvers.pide_solve(
        finance.merton_problem(MERTON), SYM, 0.5, hjb_solvers.Grids(x=np.linspace(0.0, 1.0, 5))),
    "sup_norm_gap reference with a factor axis": lambda: hjb_solvers.sup_norm_gap(
        field((0.0, 1.0), (-1.0, 1.0)), field((0.0, 1.0), (-1.0, 1.0)),
        hjb_solvers.CompactBox(t=(0.0, 1.0), x=(0.0, 1.0))),
    "sup_norm_gap box times past the reference": lambda: hjb_solvers.sup_norm_gap(
        field((0.0, 1.0, 2.0)), field((0.0, 1.0)),
        hjb_solvers.CompactBox(t=(0.0, 2.0), x=(0.0, 1.0))),
    "sup_norm_gap y window off the factor grid": lambda: hjb_solvers.sup_norm_gap(
        field((0.0, 1.0), (-1.0, 1.0)), field((0.0, 1.0)),
        hjb_solvers.CompactBox(t=(0.0, 1.0), x=(0.0, 1.0), y=(5.0, 6.0))),
}


@pytest.mark.parametrize("call", ROWS.values(), ids=ROWS.keys())
def test_refused(call):
    with pytest.raises(UsageError):
        call()


def test_value_field_with_nan_refused():
    # a scheme failure, not a usage error: the field's own guard raises NumericalError
    with pytest.raises(NumericalError):
        hjb_solvers.ValueField(t_grid=np.array([0.0, 1.0]), x_grid=np.array([0.0]),
                               values=np.array([[0.0], [math.nan]]))


def test_corrector_query_needs_dt():
    # the step has no default: the left-endpoint weights bias the corrector by delta dt / 2
    with pytest.raises(TypeError):
        nonlocal_generator.CorrectorQuery(SYM, (1.0, 1.0, -1.0), 0.5, np.array([0.0]))


#: Each guard names its own argument.  Without it the refusal came from the
#: config the function builds: "horizon must be finite and positive, got nan".
NAMED_ROWS = {
    "ergodic_time_average t nan": ("t", lambda: ergodicity.ergodic_time_average(
        fast(SYM), np.cos, math.nan, 4)),
    "ergodic_time_average t inf": ("t", lambda: ergodicity.ergodic_time_average(
        fast(SYM), np.cos, math.inf, 4)),
    "abel_average delta nan": ("delta", lambda: ergodicity.abel_average(
        fast(SYM), np.cos, math.nan, 4)),
    "abel_average delta inf": ("delta", lambda: ergodicity.abel_average(
        fast(SYM), np.cos, math.inf, 4)),
    # 10/delta in whole steps of dt = 0.02 rounds to 0 steps (refused as horizon 0.0) and 1 step
    # (refused as a dt not dividing the horizon): the rule is stated once, for both routes
    "abel_average delta 1000 at dt 0.02": ("delta", lambda: ergodicity.abel_average(
        replace(fast(SYM), dt=0.02), np.cos, 1000.0, 4)),
    "abel_average delta 400 at dt 0.02": ("delta", lambda: ergodicity.abel_average(
        replace(fast(SYM), dt=0.02), np.cos, 400.0, 4)),
    "CorrectorQuery delta 1000 at dt 0.02": ("delta", lambda: corrector_query(delta=1000.0,
                                                                               dt=0.02)),
    "CorrectorQuery delta 400 at dt 0.02": ("delta", lambda: corrector_query(delta=400.0,
                                                                              dt=0.02)),
    # accepted, and refused only on call, when the corrector built its fast config
    "CorrectorQuery seed True": ("seed", lambda: corrector_query(seed=True)),
    "CorrectorQuery seed -1": ("seed", lambda: corrector_query(seed=-1)),
    # accepted, and refused on call as "starts must be a 1-D array of finite start points"
    "CorrectorQuery y_grid with nan": ("y_grid", lambda: corrector_query(y_grid=(0.0, math.nan))),
    "CorrectorQuery y_grid 2-D": ("y_grid", lambda: corrector_query(y_grid=((0.0, 1.0),))),
    # an empty chi
    "CorrectorQuery y_grid empty": ("y_grid", lambda: corrector_query(y_grid=())),
    # refused as a "risk-premium coefficient", which gamma, the utility exponent, is not
    "MertonSpec gamma nan": ("gamma", lambda: replace(MERTON, gamma=math.nan)),
    # ZeroDivisionError, ValueError, a step of 0.5 at a negative epsilon, and a step of 0.0
    "default_step epsilon 0": ("epsilon", lambda: jump_processes.default_step(0.0, 1.0)),
    "default_step epsilon nan": ("epsilon", lambda: jump_processes.default_step(math.nan, 1.0)),
    "default_step epsilon -0.1": ("epsilon", lambda: jump_processes.default_step(-0.1, 1.0)),
    "default_step horizon 0": ("horizon", lambda: jump_processes.default_step(0.1, 0.0)),
    # ValueError, ValueError and ZeroDivisionError
    "discount_horizon delta nan": ("delta", lambda: jump_processes.discount_horizon(
        math.nan, 0.1)),
    "discount_horizon dt nan": ("dt", lambda: jump_processes.discount_horizon(0.5, math.nan)),
    "discount_horizon dt 0": ("dt", lambda: jump_processes.discount_horizon(0.5, 0.0)),
}

#: One row per scalar guard of ``errors.py``: NaN for a finite, positive or
#: nonnegative argument, True and 2.5 for a count.  All but one were refused
#: before, many under a group's name ("rate, discount, horizon and spot").
NAMED_ROWS |= {
    "FastProcessConfig lam nan": ("lam", lambda: replace(fast(SYM), lam=math.nan)),
    "FastProcessConfig y0 nan": ("y0", lambda: replace(fast(SYM), y0=math.nan)),
    "FastProcessConfig horizon nan": ("horizon", lambda: replace(fast(SYM), horizon=math.nan)),
    "FastProcessConfig seed True": ("seed", lambda: replace(fast(SYM), seed=True)),
    "FastProcessConfig seed 2.5": ("seed", lambda: replace(fast(SYM), seed=2.5)),
    "SlowSystemConfig x0 nan": ("x0", lambda: jump_processes.SlowSystemConfig(
        finance.merton_problem(MERTON), fast(SYM), math.nan)),
    "sample_stable_increment dt_scaled nan": ("dt_scaled", lambda: (
        jump_processes.sample_stable_increment(
            ONE_SIDED, math.nan, jump_processes.stream_rng(0, jump_processes.JUMP_STREAM), 3))),
    "sample_stable_increment size True": ("size", lambda: stable_draws(True)),
    "sample_stable_increment size 2.5": ("size", lambda: stable_draws(2.5)),
    "iter_fast_values n_paths True": ("n_paths", lambda: next(
        jump_processes.iter_fast_values(fast(SYM), True))),
    "iter_fast_values n_paths 2.5": ("n_paths", lambda: next(
        jump_processes.iter_fast_values(fast(SYM), 2.5))),
    "ControlProblemSpec beta0 nan": ("beta0", lambda: replace(
        finance.merton_problem(MERTON), beta0=math.nan)),
    "ControlProblemSpec beta1 nan": ("beta1", lambda: replace(
        finance.merton_problem(MERTON), beta1=math.nan)),
    "ControlProblemSpec discount nan": ("discount", lambda: replace(
        finance.merton_problem(MERTON), discount=math.nan)),
    "ControlProblemSpec horizon nan": ("horizon", lambda: replace(
        finance.merton_problem(MERTON), horizon=math.nan)),
    "pide_solve epsilon nan": ("epsilon", lambda: pide(math.nan)),
    "LevyMeasureModel intensity nan": ("intensity", lambda: LevyMeasureModel(
        Family.SYMMETRIC_STABLE, 1.5, math.nan)),
    "levy_exponent u nan": ("u", lambda: levy_measures.levy_exponent(SYM, math.nan)),
    "tail_moment q nan": ("q", lambda: levy_measures.tail_moment(SYM, math.nan)),
    "truncated_moment kappa nan": ("kappa", lambda: levy_measures.truncated_moment(
        SYM, 2, math.nan)),
    "truncated_moment k True": ("k", lambda: levy_measures.truncated_moment(SYM, True, 0.5)),
    # returned 1.0, a signed moment of an order with no value on the negative half-line
    "truncated_moment k 2.5": ("k", lambda: levy_measures.truncated_moment(SYM, 2.5, 0.5)),
    "tail_mass m nan": ("m", lambda: levy_measures.tail_mass(SYM, math.nan)),
    "CallPayoff strike nan": ("strike", lambda: finance.CallPayoff(math.nan)),
    "PricingSpec r nan": ("r", lambda: replace(PRICING, r=math.nan)),
    "PricingSpec discount nan": ("discount", lambda: replace(PRICING, discount=math.nan)),
    "PricingSpec horizon nan": ("horizon", lambda: replace(PRICING, horizon=math.nan)),
    "PricingSpec x0 nan": ("x0", lambda: replace(PRICING, x0=math.nan)),
    "MertonSpec r nan": ("r", lambda: replace(MERTON, r=math.nan)),
    "MertonSpec alpha_drift nan": ("alpha_drift", lambda: replace(MERTON, alpha_drift=math.nan)),
    "MertonSpec R1 nan": ("R1", lambda: replace(MERTON, R1=math.nan)),
    "MertonSpec R nan": ("R", lambda: replace(MERTON, R=math.nan)),
    "MertonSpec a nan": ("a", lambda: replace(MERTON, a=math.nan)),
    "MertonSpec horizon nan": ("horizon", lambda: replace(MERTON, horizon=math.nan)),
    "MertonSpec w0 nan": ("w0", lambda: replace(MERTON, w0=math.nan)),
    "bs_oracle s nan": ("s", lambda: finance.bs_oracle(PRICING, math.nan)),
    "price_mc n_paths True": ("n_paths", lambda: finance.price_mc(
        PRICING, 0.1, FAST_PRICING, True)),
    "price_mc n_paths 2.5": ("n_paths", lambda: finance.price_mc(
        PRICING, 0.1, FAST_PRICING, 2.5)),
    "coarsen n_nodes True": ("n_nodes", lambda: ergodicity.measure_from_samples(
        SAMPLES).coarsen(True)),
    "coarsen n_nodes 2.5": ("n_nodes", lambda: ergodicity.measure_from_samples(
        SAMPLES).coarsen(2.5)),
    "stationary_samples burn_in nan": ("burn_in", lambda: ergodicity.stationary_samples(
        fast(SYM), math.nan, 1000)),
    "stationary_samples n_samples True": ("n_samples", lambda: ergodicity.stationary_samples(
        fast(SYM), 10.0, True)),
    "stationary_samples n_samples 2.5": ("n_samples", lambda: ergodicity.stationary_samples(
        fast(SYM), 10.0, 2.5)),
    "stationary_cf_oracle u nan": ("u", lambda: ergodicity.stationary_cf_oracle(SYM, math.nan)),
    "generator_apply y nan": ("y", lambda: nonlocal_generator.generator_apply(
        nonlocal_generator.GeneratorQuadrature(SYM), math.cos, math.nan, lambda v: -math.sin(v),
        lambda v: -math.cos(v))),
    "lyapunov_drift_check R nan": ("R", lambda: lyapunov(math.nan)),
    "CorrectorQuery delta nan": ("delta", lambda: corrector_query(delta=math.nan)),
    "CorrectorQuery dt nan": ("dt", lambda: corrector_query(dt=math.nan)),
    "CorrectorQuery mc_paths True": ("mc_paths", lambda: corrector_query(mc_paths=True)),
    "CorrectorQuery mc_paths 2.5": ("mc_paths", lambda: corrector_query(mc_paths=2.5)),
}


#: One row per array argument that goes through ``require_finite_array``:
#: without the guard each was let through, refused under another name, or met
#: as a numpy error.  Then sigma, checked where the solvers and estimators read
#: it, and the ratios whose overflow raised ``OverflowError``.
RAGGED = [[0.0, 1.0], 2.0]
NAMED_ROWS |= {
    # "truth value of an array ... is ambiguous"
    "Grids x 2-D": ("x grid", lambda: hjb_solvers.Grids(x=np.tile(np.linspace(0.0, 1.0, 5),
                                                                   (4, 1)))),
    # NaN fails the order check u_lo <= u_hi as well, which would not name the end
    "ControlProblemSpec u_lo nan": ("u_lo", lambda: replace(
        finance.merton_problem(MERTON), u_lo=math.nan)),
    "ControlProblemSpec u_hi nan": ("u_hi", lambda: replace(
        finance.merton_problem(MERTON), u_hi=math.nan)),
    # accepted
    "InvariantMeasure nodes 2-D": ("nodes", lambda: ergodicity.InvariantMeasure(
        np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))),
    "InvariantMeasure weights 2-D": ("weights", lambda: ergodicity.InvariantMeasure(
        np.array([0.0, 1.0]), np.array([[0.5], [0.5]]))),
    # refused as "nodes and weights must be finite"
    "measure_from_samples inf": ("samples", lambda: ergodicity.measure_from_samples(
        np.array([0.0, 1.0, math.inf]))),
    # numpy's ValueError
    "iter_fast_values starts ragged": ("starts", lambda: next(
        jump_processes.iter_fast_values(fast(SYM), 2, starts=RAGGED))),
    # rows of NaN and of inf
    "path_integral weights nan": ("weights", lambda: jump_processes.path_integral(
        fast(SYM), np.cos, 3, [math.nan, 1.0])),
    "path_integral weights inf": ("weights", lambda: jump_processes.path_integral(
        fast(SYM), np.cos, 3, [math.inf, 1.0])),
    # numpy's ValueError from concatenate
    "price_mc_surface taus 2-D": ("taus", lambda: finance.price_mc_surface(
        PRICING, 0.1, FAST_PRICING, 1000, np.array([[0.5, 1.0]]), np.array([1.0]),
        np.array([0.0]))),
    # priced
    "price_mc_surface x_values 2-D": ("x_values", lambda: finance.price_mc_surface(
        PRICING, 0.1, FAST_PRICING, 1000, np.array([1.0]), np.array([[1.0]]), np.array([0.0]))),
    # refused as "starts must be a 1-D array of finite start points"
    "price_mc_surface y_values nan": ("y_values", lambda: finance.price_mc_surface(
        PRICING, 0.1, FAST_PRICING, 1000, np.array([1.0]), np.array([1.0]),
        np.array([math.nan]))),
    # refused as "wealth must be finite and positive", and numpy's ValueError
    "merton_hara_closed_form w nan": ("w", lambda: finance.merton_hara_closed_form(
        MERTON, MU, 0.0, math.nan)),
    "merton_hara_closed_form w ragged": ("w", lambda: finance.merton_hara_closed_form(
        MERTON, MU, 0.0, RAGGED)),
    # a TypeError, and refused as "y must be finite" after the first sample's quadrature
    "lyapunov_drift_check y_samples 2-D": ("y_samples", lambda: (
        nonlocal_generator.lyapunov_drift_check(nonlocal_generator.GeneratorQuadrature(
            ONE_SIDED), 1.0, 2.0, np.array([[3.0, 4.0]])))),
    "lyapunov_drift_check y_samples nan": ("y_samples", lambda: (
        nonlocal_generator.lyapunov_drift_check(nonlocal_generator.GeneratorQuadrature(
            ONE_SIDED), 1.0, 2.0, np.array([3.0, math.nan])))),
    # numpy's ValueError, twice
    "CorrectorQuery frozen_point ragged": ("frozen_point", lambda: corrector_query(
        frozen_point=((1.0, 2.0), 3.0, 4.0))),
    "CorrectorQuery y_grid ragged": ("y_grid", lambda: nonlocal_generator.CorrectorQuery(
        SYM, (1.0, 1.0, -1.0), 0.5, RAGGED, dt=0.1)),
    # ValueError from math.ceil (NaN step bound), twice, and ZeroDivisionError or an
    # invalid-value warning
    "pide_solve sigma_of_y nan": ("sigma_of_y", lambda: solve(
        "pide_solve", sigma_of_y=sigma_above_half(math.nan))),
    "effective_solve sigma_of_y nan": ("sigma_of_y", lambda: solve(
        "effective_solve", sigma_of_y=sigma_above_half(math.nan))),
    "pide_solve sigma_of_y inf": ("sigma_of_y", lambda: solve(
        "pide_solve", sigma_of_y=sigma_above_half(math.inf))),
    # a slow path that is NaN from its first step
    "simulate_slow_system sigma_of_y nan": ("sigma_of_y along the path", lambda: (
        jump_processes.simulate_slow_system(jump_processes.SlowSystemConfig(
            replace(finance.merton_problem(MERTON), sigma_of_y=sigma_above_half(math.nan)),
            replace(fast(SYM), y0=1.0), 1.0)))),
    # priced at 0.0490 with an SE of 1.5e-4: bs_call takes a NaN variance for zero
    "price_mc sigma_fn nan": ("sigma_fn along the paths", lambda: finance.price_mc(
        replace(PRICING, sigma_fn=sigma_above_half(math.nan)), 0.1, FAST_PRICING, 1000)),
    # nan, inf, nan and nan
    "effective_vol_quadratic sigma_fn nan": ("sigma_fn", lambda: (
        finance.effective_vol_quadratic(sigma_above_half(math.nan), MU))),
    "effective_vol_quadratic sigma_fn inf": ("sigma_fn", lambda: (
        finance.effective_vol_quadratic(sigma_above_half(math.inf), MU))),
    "effective_vol_harmonic sigma_fn nan": ("sigma_fn", lambda: (
        finance.effective_vol_harmonic(sigma_above_half(math.nan), MU))),
    "merton_hbar sigma_fn nan": ("sigma_fn", lambda: finance.merton_hbar(
        replace(MERTON, sigma_fn=sigma_above_half(math.nan)), MU)),
    # inf
    "InvariantMeasure.mean_of f inf": ("f", lambda: MU.mean_of(
        lambda y: np.full(np.shape(y), math.inf))),
    # OverflowError from math.ceil (8 / 1e-308 is inf), from round and from math.ceil
    "FastProcessConfig lam 1e308": ("8 horizon / epsilon", lambda: (
        jump_processes.FastProcessConfig(SYM, lam=1e308, y0=0.0, horizon=1.0))),
    "discount_horizon delta 1e-300": ("10 / delta / dt", lambda: (
        jump_processes.discount_horizon(1e-300, 1e-10))),
    "iter_fast_values fan-in at lam 1e-310": ("10 / lam / dt", lambda: next(
        jump_processes.iter_fast_values(jump_processes.FastProcessConfig(
            SYM, lam=1e-310, y0=0.0, horizon=1.0, dt=0.5), 2, starts=np.array([0.0])))),
}

#: Public functions whose scalar or array arguments reached their formulas unguarded.
NAMED_ROWS |= {
    # 0.0513, the payoff at the forward, alone and beside a live 0.1099: NaN fails v > 0,
    # so it priced as zero variance
    "bs_call v nan": ("v", lambda: finance.bs_call(1.0, 1.0, 0.05, math.nan)),
    "bs_call v nan in an array": ("v", lambda: finance.bs_call(
        1.0, 1.0, 0.05, np.array([[0.02, math.nan]]))),
    # nan and inf
    "bs_call x nan": ("x", lambda: finance.bs_call(math.nan, 1.0, 0.05, 0.02)),
    "bs_call r_tau inf": ("r_tau", lambda: finance.bs_call(1.0, 1.0, math.inf, 0.02)),
    # nan+nanj, and numpy's invalid-value RuntimeWarning from the product
    "InvariantMeasure.cf u nan": ("u", lambda: MU.cf(math.nan)),
    "InvariantMeasure.cf u inf": ("u", lambda: MU.cf(math.inf)),
    # NaN weights, NaN weights, [] and three weights (np.arange(2.5) has three entries)
    "discount_weights delta nan": ("delta", lambda: jump_processes.discount_weights(
        math.nan, 0.1, 3)),
    "discount_weights dt nan": ("dt", lambda: jump_processes.discount_weights(0.5, math.nan, 3)),
    "discount_weights n -1": ("n", lambda: jump_processes.discount_weights(0.5, 0.1, -1)),
    "discount_weights n 2.5": ("n", lambda: jump_processes.discount_weights(0.5, 0.1, 2.5)),
}

#: Weights (1/4, 1/2, 1/4) on (-1, 0, 1).  Against the weights (n,), values shaped as a
#: column (n, 1) broadcast to (n, n), and the mean summed every pair.
MU3 = ergodicity.InvariantMeasure(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))


def sigma_column(y):
    return (0.2 + 0.1 * np.tanh(np.asarray(y, dtype=float)))[:, None]


#: Values that reached a formula in a shape it did not expect, or grids left unchecked.
NAMED_ROWS |= {
    # 2.0 where the mean is 0.5, for mean_of and for the effective Hamiltonian
    "InvariantMeasure.mean_of f a column": ("f", lambda: MU3.mean_of(
        lambda y: (y**2)[:, None])),
    "effective_hamiltonian H_eval a column": ("f", lambda: (
        nonlocal_generator.effective_hamiltonian(
            MU3, lambda x, y, p, X: (y**2)[:, None], 1.0, 1.0, -1.0))),
    # 0.363, 0.098 and 0.139, where sigma as one value per node gives 0.207, 0.177 and 0.0797
    "effective_vol_quadratic sigma_fn a column": ("f", lambda: (
        finance.effective_vol_quadratic(sigma_column, MU3))),
    "effective_vol_harmonic sigma_fn a column": ("f", lambda: (
        finance.effective_vol_harmonic(sigma_column, MU3))),
    "merton_hbar sigma_fn a column": ("f", lambda: finance.merton_hbar(
        replace(MERTON, sigma_fn=sigma_column), MU3)),
    # NaN both, with numpy's invalid-value RuntimeWarning from the log
    "bs_call strike -1": ("strike", lambda: finance.bs_call(1.0, -1.0, 0.05, 0.02)),
    "bs_call strike nan": ("strike", lambda: finance.bs_call(1.0, math.nan, 0.05, 0.02)),
    # accepted: the field's own check read the values alone
    "ValueField t_grid nan": ("t_grid", lambda: hjb_solvers.ValueField(
        t_grid=[0.0, math.nan], x_grid=[0.0, 1.0], values=np.zeros((2, 2)))),
    # (nan, 0.0): np.argmin takes the first NaN, where both grid solvers refuse this sigma
    "hamiltonian_eval sigma_of_y nan": ("sigma_of_y", lambda: hjb_solvers.hamiltonian_eval(
        replace(finance.merton_problem(MERTON), sigma_of_y=sigma_above_half(math.nan)),
        1.0, 1.0, 1.0, -1.0)),
    # a raw TypeError from float, where both grid solvers refuse a sigma of the wrong shape
    "hamiltonian_eval sigma_of_y one-element array": ("sigma_of_y", lambda: (
        hjb_solvers.hamiltonian_eval(replace(finance.merton_problem(MERTON),
                                             sigma_of_y=lambda y: np.array([0.2])),
                                     1.0, 1.0, 1.0, -1.0))),
    "hamiltonian_eval sigma_of_y two-element array": ("sigma_of_y", lambda: (
        hjb_solvers.hamiltonian_eval(replace(finance.merton_problem(MERTON),
                                             sigma_of_y=lambda y: np.array([0.2, 0.3])),
                                     1.0, 1.0, 1.0, -1.0))),
    # accepted: sup_norm_gap then read 3 of the 5 columns (0.0), or raised a raw
    # IndexError with the field as the reference
    "ValueField values (2, 5) on 2 x 3": ("values", lambda: hjb_solvers.ValueField(
        t_grid=[0.0, 1.0], x_grid=[0.0, 0.5, 1.0], values=np.zeros((2, 5)))),
    "ValueField values (2, 3, 4) on 2 x 3 x 5": ("values", lambda: hjb_solvers.ValueField(
        t_grid=[0.0, 1.0], x_grid=[0.0, 0.5, 1.0], values=np.zeros((2, 3, 4)),
        y_grid=np.linspace(-1.0, 1.0, 5))),
    # accepted: a factor axis with no factor grid, which sup_norm_gap's y-window then read
    "ValueField values (2, 3, 4) on 2 x 3": ("values", lambda: hjb_solvers.ValueField(
        t_grid=[0.0, 1.0], x_grid=[0.0, 0.5, 1.0], values=np.zeros((2, 3, 4)))),
}


@pytest.mark.parametrize("arg, call", NAMED_ROWS.values(), ids=NAMED_ROWS.keys())
def test_refusal_names_the_argument(arg, call):
    with pytest.raises(UsageError, match=f"^{arg} must"):
        call()


def test_numpy_integer_is_a_count():
    # numbers.Integral admits np.int64, as the isinstance(_, (int, np.integer)) checks did,
    # and the draws keep the bits of the same count given as an int
    assert np.array_equal(stable_draws(np.int64(3)), stable_draws(3))


SUBORDINATOR_ROWS = {
    "FastProcessConfig": lambda: fast(SUB),
    "sample_stable_increment": lambda: jump_processes.sample_stable_increment(
        SUB, 1.0, jump_processes.stream_rng(0, jump_processes.JUMP_STREAM), 3),
    # returned zeros: one weight reads only the start state, which needs no draw
    "path_integral one weight": lambda: jump_processes.path_integral(
        fast(SUB), np.cos, 10, np.ones(1)),
    "estimate_invariant_measure": lambda: ergodicity.estimate_invariant_measure(
        fast(SUB), burn_in=10.0, n_samples=1000),
    "approximate_corrector": lambda: nonlocal_generator.approximate_corrector(
        nonlocal_generator.CorrectorQuery(SUB, (1.0, 1.0, -1.0), 0.5, np.array([0.0]), dt=0.1),
        lambda x, y, p, X: np.zeros(np.shape(y))),
    "pide_solve": lambda: pide(0.5, SUB),
}


@pytest.mark.parametrize("call", SUBORDINATOR_ROWS.values(), ids=SUBORDINATOR_ROWS.keys())
def test_subordinator_refused(call):
    with pytest.raises(AssumptionError):
        call()
