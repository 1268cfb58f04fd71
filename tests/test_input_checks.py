"""Inputs that used to pass unchecked now raise ``UsageError``.

Each row is an input the package accepted before its guard existed: NaN slips
through a check written as ``if x <= 0`` (every comparison with NaN is False),
so each guard is written as ``if not (<accepted>)``.  The row's comment says
what the call did without the guard.  A subordinator is refused with
``AssumptionError`` by every route of the factor, before any draw.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from levy_multiscale import (ergodicity, finance, hjb_solvers, jump_processes, levy_measures,
                             nonlocal_generator)
from levy_multiscale.errors import AssumptionError, UsageError
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
}


@pytest.mark.parametrize("call", ROWS.values(), ids=ROWS.keys())
def test_refused(call):
    with pytest.raises(UsageError):
        call()


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
}


@pytest.mark.parametrize("arg, call", NAMED_ROWS.values(), ids=NAMED_ROWS.keys())
def test_refusal_names_the_argument(arg, call):
    with pytest.raises(UsageError, match=f"^{arg} must"):
        call()


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
