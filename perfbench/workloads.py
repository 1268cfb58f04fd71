"""The three benchmark workloads: set-up and one op each, with correctness gates.

Every workload uses sigma(y) = 0.2 + 0.1 tanh(y) and stable index 1.5.  An op
returns its accuracy figures and a dict of named gates; a gate that fails
makes the op count as failed.  Known defects (``generator_err`` from the
linear far-field closure, ``cf_err`` from the end-of-step increment) are
reported as figures and never gated.

Library functions are looked up on their module at call time
(``hjb_solvers.pide_solve``), so the tracer's wrappers see these calls.
An op calls ``lap()`` where one of its stages ends; the runner times the op
stage by stage there (``probe.Stopwatch``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from levy_multiscale import ergodicity, finance, hjb_solvers, jump_processes, nonlocal_generator
from levy_multiscale.levy_measures import Family, LevyMeasureModel

SYM = LevyMeasureModel(Family.SYMMETRIC_STABLE, 1.5)
ONE_SIDED = LevyMeasureModel(Family.ONE_SIDED_STABLE, 1.5)

R_RATE, ALPHA_DRIFT, GAMMA, R1, R_MAX = 0.05, 0.1, 0.5, 0.0, 1.0
CF_POINTS = (0.25, 0.5, 1.0, 2.0)
BOX = hjb_solvers.CompactBox(t=(0.0, 1.0), x=(0.5, 2.0), y=(-2.0, 2.0))
#: MC price must sit within this many standard errors plus the PDE gap of the oracle.
MC_K = 4.0
#: Relative sup error allowed between the Merton effective solve and its closed form.
MERTON_ORACLE_TOL = 5e-3
#: Agreement required between the quadrature stationary CF and the closed form.
BRUTEFORCE_TOL = 1e-6

# sub-seed streams derived from the workload seed
MU_STREAM, MC_STREAM, SURFACE_STREAM, SLOW_STREAM, FF_MU_STREAM, CORRECTOR_STREAM = range(6)


def sigma(y):
    return 0.2 + 0.1 * np.tanh(np.asarray(y, dtype=float))


def merton_hamiltonian(x, y, p, X):
    """Closed-form ``min_{u in [R1, R]} -x^2 u^2 sigma(y)^2 X - x (r + (alpha - r) u) p``."""
    a = -((x * sigma(y)) ** 2) * X
    b = -x * (ALPHA_DRIFT - R_RATE) * p

    def objective(u):
        return a * u * u + b * u - x * R_RATE * p

    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(np.where(a > 0.0, -b / (2.0 * a), R1), R1, R_MAX)
    return np.minimum(np.minimum(objective(R1), objective(R_MAX)), objective(vertex))


def sub_seed(seed: int, stream: int, index: int = 0) -> int:
    """Library seed for one random input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the self-tests."""

    x_nodes: int = 61
    y_nodes: int = 129
    mu_samples: int = 40_000
    merton_eps: tuple = (0.2, 0.1, 0.05, 0.025)
    pricing_eps: tuple = (0.2, 0.1, 0.05)
    mc_eps: tuple = (0.1, 0.02)
    mc_paths: int = 8000
    slow_seeds: int = 8
    gen_nodes: int = 193
    corrector_paths: int = 4000


FULL = Sizes()
TINY = Sizes(x_nodes=21, y_nodes=33, mu_samples=2000, merton_eps=(0.2, 0.05),
             pricing_eps=(0.2, 0.05), mc_eps=(0.1,), mc_paths=1000, slow_seeds=1,
             gen_nodes=49, corrector_paths=1000)


def _grids(sizes: Sizes) -> hjb_solvers.Grids:
    return hjb_solvers.Grids(x=np.linspace(0.0, 3.0, sizes.x_nodes),
                             y=np.linspace(-8.0, 8.0, sizes.y_nodes))


def _symmetric_measure(seed: int, sizes: Sizes):
    cfg = jump_processes.FastProcessConfig(SYM, lam=1.0, y0=0.0, horizon=10.0, dt=0.02,
                                           seed=sub_seed(seed, MU_STREAM))
    return ergodicity.estimate_invariant_measure(cfg, burn_in=10.0, n_samples=sizes.mu_samples)


def _finite(field) -> bool:
    return bool(np.all(np.isfinite(field.values)))


def _eps_sweep(prob, mu, grids, eps_values, lap):
    """Effective solve, then the stiff solve at each epsilon and its sup-gap to it."""
    eff = hjb_solvers.effective_solve(prob, mu, grids)
    finite = _finite(eff)
    lap()
    gaps = {}
    for eps in eps_values:
        field = hjb_solvers.pide_solve(prob, SYM, eps, grids)
        finite = finite and _finite(field)
        gaps[eps] = hjb_solvers.sup_norm_gap(field, eff, BOX)
        lap()
    e = np.array(sorted(gaps))
    g = np.array([gaps[k] for k in e])
    slope = float(np.polyfit(np.log(e), np.log(g), 1)[0])
    gates = {"finite_fields": finite, "gap_shrinks": g[0] < g[-1]}
    return eff, gaps, slope, gates


# -- merton_pde ---------------------------------------------------------------

def setup_merton(seed: int, sizes: Sizes) -> dict:
    mu = _symmetric_measure(seed, sizes)
    spec = finance.MertonSpec(r=R_RATE, alpha_drift=ALPHA_DRIFT, sigma_fn=sigma, R1=R1, R=R_MAX,
                              gamma=GAMMA, a=1.0, horizon=1.0, w0=1.0)
    return {"mu": mu, "spec": spec, "prob": finance.merton_problem(spec),
            "grids": _grids(sizes), "sizes": sizes}


def op_merton(ctx: dict, lap):
    spec, mu = ctx["spec"], ctx["mu"]
    eff, gaps, slope, gates = _eps_sweep(ctx["prob"], mu, ctx["grids"], ctx["sizes"].merton_eps,
                                         lap)
    t_sel = (eff.t_grid >= BOX.t[0]) & (eff.t_grid <= BOX.t[1])
    x_sel = (eff.x_grid >= BOX.x[0]) & (eff.x_grid <= BOX.x[1])
    xs = eff.x_grid[x_sel]
    exact = np.stack([finance.merton_hara_closed_form(spec, mu, float(t), xs)
                      for t in eff.t_grid[t_sel]])
    oracle_err = float(np.max(np.abs(eff.values[np.ix_(t_sel, x_sel)] - exact))
                       / np.max(np.abs(exact)))
    gates["merton_closed_form"] = oracle_err <= MERTON_ORACLE_TOL
    figures = {"oracle_err": oracle_err, "gap_eps_min": gaps[min(gaps)],
               "gap_eps_max": gaps[max(gaps)], "gap_slope": slope}
    return figures, gates


# -- pricing --------------------------------------------------------------------

def setup_pricing(seed: int, sizes: Sizes) -> dict:
    mu = _symmetric_measure(seed, sizes)
    spec = finance.PricingSpec(r=R_RATE, sigma_fn=sigma, payoff=finance.CallPayoff(1.0),
                               discount=R_RATE, horizon=1.0, x0=1.0)
    mc_cfgs = {eps: jump_processes.FastProcessConfig(SYM, lam=1.0 / eps, y0=0.0, horizon=1.0,
                                                     seed=sub_seed(seed, MC_STREAM, i))
               for i, eps in enumerate(sizes.mc_eps)}
    surface_cfg = jump_processes.FastProcessConfig(SYM, lam=20.0, y0=0.0, horizon=1.0,
                                                   seed=sub_seed(seed, SURFACE_STREAM))
    prob = finance.pricing_problem(spec)
    slow_cfgs = [jump_processes.SlowSystemConfig(
        problem=prob, x0=1.0,
        fast=jump_processes.FastProcessConfig(SYM, lam=20.0, y0=0.0, horizon=1.0,
                                              seed=sub_seed(seed, SLOW_STREAM, i)))
        for i in range(sizes.slow_seeds)]
    return {"mu": mu, "spec": spec, "prob": prob, "grids": _grids(sizes), "sizes": sizes,
            "mc_cfgs": mc_cfgs, "surface_cfg": surface_cfg, "slow_cfgs": slow_cfgs}


def op_pricing(ctx: dict, lap):
    spec, mu, sizes = ctx["spec"], ctx["mu"], ctx["sizes"]
    eff, gaps, slope, gates = _eps_sweep(ctx["prob"], mu, ctx["grids"], sizes.pricing_eps, lap)
    bs = finance.bs_oracle(spec, finance.effective_vol_quadratic(sigma, mu))
    spot = int(np.argmin(np.abs(eff.x_grid - spec.x0)))
    oracle_err = abs(float(eff.values[0, spot]) - bs)

    mc_dev = {}
    for eps, cfg in ctx["mc_cfgs"].items():
        price, se = finance.price_mc(spec, eps, cfg, sizes.mc_paths)
        # the PDE gap at the nearest epsilon not below this one bounds the
        # finite-epsilon effect the MC price still carries
        gap = gaps[min((e for e in gaps if e >= eps), default=min(gaps))]
        mc_dev[eps] = (price - bs, se)
        gates[f"mc_vs_bs_eps{eps:g}"] = abs(price - bs) <= MC_K * se + gap
        lap()
    est, se = finance.price_mc_surface(spec, 0.05, ctx["surface_cfg"], sizes.mc_paths,
                                       np.array([0.25, 0.5, 1.0]), np.array([0.9, 1.0, 1.1]),
                                       np.linspace(-1.0, 1.0, 5))
    gates["surface_finite"] = bool(np.all(np.isfinite(est)) and np.all(se > 0.0))
    lap()
    paths_ok = True
    for cfg in ctx["slow_cfgs"]:
        xs, ys = jump_processes.simulate_slow_system(cfg)
        paths_ok = paths_ok and bool(np.all(np.isfinite(xs.values)) and np.all(xs.values >= 0.0)
                                     and np.all(np.isfinite(ys.values)))
    gates["slow_paths_valid"] = paths_ok

    eps_min = min(mc_dev)
    figures = {"oracle_err": oracle_err, "gap_eps_min": gaps[min(gaps)],
               "gap_eps_max": gaps[max(gaps)], "gap_slope": slope,
               "mc_se": mc_dev[eps_min][1], "mc_dev_eps_min": mc_dev[eps_min][0]}
    return figures, gates


# -- fast_factor ----------------------------------------------------------------

def setup_fast_factor(seed: int, sizes: Sizes) -> dict:
    mu = _symmetric_measure(seed, sizes)
    one_cfg = jump_processes.FastProcessConfig(ONE_SIDED, lam=1.0, y0=0.0, horizon=10.0,
                                               dt=0.02, seed=sub_seed(seed, FF_MU_STREAM))
    corrector = nonlocal_generator.CorrectorQuery(
        model=ONE_SIDED, frozen_point=(1.0, 1.0, -1.0), delta=0.5,
        y_grid=np.linspace(-2.0, 2.0, 9), mc_paths=sizes.corrector_paths,
        seed=sub_seed(seed, CORRECTOR_STREAM), dt=0.02)
    quads = {m: nonlocal_generator.GeneratorQuadrature(m) for m in (SYM, ONE_SIDED)}
    return {"mu": mu, "one_cfg": one_cfg, "corrector": corrector, "quads": quads,
            "gen_y": np.linspace(-12.0, 12.0, sizes.gen_nodes), "sizes": sizes}


def op_fast_factor(ctx: dict, lap):
    sizes = ctx["sizes"]
    gates = {}
    mu_one = ergodicity.estimate_invariant_measure(ctx["one_cfg"], burn_in=10.0,
                                                   n_samples=sizes.mu_samples)
    cf_err = max(abs(mu.cf(u) - ergodicity.stationary_cf_oracle(model, u))
                 for mu, model in ((mu_one, ONE_SIDED), (ctx["mu"], SYM)) for u in CF_POINTS)
    lap()
    gates["cf_bruteforce_vs_closed_form"] = all(
        abs(ergodicity.stationary_cf_bruteforce(ONE_SIDED, u)
            - ergodicity.stationary_cf_oracle(ONE_SIDED, u)) <= BRUTEFORCE_TOL
        for u in (0.5, 1.0))

    # the red tier-1 test's set-up: L cos against the pointwise generator at y = -2, 0, 2
    y = ctx["gen_y"]
    probe = [int(np.argmin(np.abs(y - v))) for v in (-2.0, 0.0, 2.0)]
    gen_err = {}
    rows_ok = True
    for model, q in ctx["quads"].items():
        L, _ = hjb_solvers.assemble_factor_generator(model, y)
        rows_ok = rows_ok and float(np.max(np.abs(L.sum(axis=1)))) <= 1e-9 * float(np.max(np.abs(L)))
        lcos = L @ np.cos(y)
        gen_err[model.family] = float(max(
            abs(lcos[i] - nonlocal_generator.generator_apply(
                q, math.cos, float(y[i]), lambda v: -math.sin(v), lambda v: -math.cos(v)))
            for i in probe))
    gates["generator_rows_sum_zero"] = rows_ok

    _, certified = nonlocal_generator.lyapunov_drift_check(
        ctx["quads"][ONE_SIDED], 1.0, 2.0, np.array([-6.0, -3.0, 3.0, 6.0]))
    gates["lyapunov_certified"] = certified
    lap()

    cq = ctx["corrector"]
    chi, se = nonlocal_generator.approximate_corrector(cq, merton_hamiltonian, return_se=True)
    gates["corrector_finite"] = bool(np.all(np.isfinite(chi)) and np.all(np.isfinite(se)))
    h_bar = nonlocal_generator.effective_hamiltonian(mu_one, merton_hamiltonian, *cq.frozen_point)

    figures = {
        "oracle_err": max(gen_err.values()),
        "generator_err": gen_err[Family.SYMMETRIC_STABLE],
        "generator_err_one_sided": gen_err[Family.ONE_SIDED_STABLE],
        "cf_err": cf_err,
        "corrector_se": float(np.max(se)),
        "corrector_resid": float(np.max(np.abs(cq.delta * chi + h_bar))),
    }
    return figures, gates


WORKLOADS = {
    "merton_pde": (setup_merton, op_merton),
    "pricing": (setup_pricing, op_pricing),
    "fast_factor": (setup_fast_factor, op_fast_factor),
}
