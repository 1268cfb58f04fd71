"""Asset pricing and portfolio optimization under the fast jump-driven factor.

Both applications keep the root-two diffusion convention of the underlying
system (dX = r X dt + sqrt(2) sigma X dW), so a "volatility" s here carries
instantaneous log-variance 2 s^2; the lognormal oracle documents this by
pricing with Black-Scholes volatility sqrt(2) s.

The two effective volatilities differ: pricing averages sigma^2 under the
stationary law (quadratic mean), the limit portfolio problem averages
1/sigma^2 (harmonic mean, always the smaller of the two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .ergodicity import InvariantMeasure
from .errors import DegenerateVolatilityError, UsageError
from .hjb_solvers import SQRT2, ControlProblemSpec, QuadraticControlStructure
from .jump_processes import FastProcessConfig, iter_slow_values


class CallPayoff:
    """European call payoff; the tag lets the oracle use the closed formula."""

    def __init__(self, strike: float):
        if strike <= 0.0:
            raise UsageError("strike must be positive")
        self.strike = strike

    def __call__(self, x):
        return np.maximum(np.asarray(x, dtype=float) - self.strike, 0.0)


@dataclass(frozen=True)
class PricingSpec:
    """Single risky asset priced under the risk-neutral drift r."""

    r: float
    sigma_fn: Callable[[np.ndarray], np.ndarray]
    payoff: Callable
    discount: float
    horizon: float
    x0: float

    def __post_init__(self):
        if self.discount < 0.0:
            raise UsageError("discount must be nonnegative")
        if self.horizon <= 0.0 or self.x0 < 0.0:
            raise UsageError("need positive horizon and nonnegative spot")


@dataclass(frozen=True)
class MertonSpec:
    """Terminal-utility portfolio problem with power utility a w^gamma / gamma."""

    r: float
    alpha_drift: float
    sigma_fn: Callable[[np.ndarray], np.ndarray]
    R1: float
    R: float
    gamma: float
    a: float
    horizon: float
    w0: float

    def __post_init__(self):
        if self.alpha_drift <= self.r:
            raise UsageError("the risky return must exceed the riskless rate")
        if not 0.0 < self.gamma < 1.0:
            raise UsageError("risk-premium coefficient must lie in (0, 1)")
        if self.a <= 0.0:
            raise UsageError("utility scale must be positive")
        if not (-self.R <= self.R1 <= 0.0 < self.R):
            raise UsageError("control interval must satisfy -R <= R1 <= 0 < R")
        if self.horizon <= 0.0 or self.w0 <= 0.0:
            raise UsageError("need positive horizon and initial wealth")

    def utility(self, w):
        w = np.asarray(w, dtype=float)
        return self.a * np.power(w, self.gamma) / self.gamma


def pricing_problem(spec: PricingSpec) -> ControlProblemSpec:
    """Uncontrolled lognormal pricing model as a control-problem description."""
    return ControlProblemSpec(
        structure=QuadraticControlStructure(
            beta0=spec.r, beta1=0.0, sigma_of_y=spec.sigma_fn, vol_u_power=0
        ),
        control_grid=np.array([0.0]),
        payoff=spec.payoff,
        discount=spec.discount,
        horizon=spec.horizon,
    )


def merton_problem(spec: MertonSpec, n_controls: int = 41) -> ControlProblemSpec:
    """Wealth-process control problem on an equispaced control grid."""
    return ControlProblemSpec(
        structure=QuadraticControlStructure(
            beta0=spec.r, beta1=spec.alpha_drift - spec.r, sigma_of_y=spec.sigma_fn,
            vol_u_power=1,
        ),
        control_grid=np.linspace(spec.R1, spec.R, n_controls),
        payoff=spec.utility,
        discount=0.0,
        horizon=spec.horizon,
    )


def effective_vol_quadratic(sigma_fn: Callable, mu: InvariantMeasure) -> float:
    """Quadratic-mean long-run volatility ``(sum w sigma^2(node))^(1/2)``."""
    s2 = np.asarray(sigma_fn(mu.nodes), dtype=float) ** 2
    val = float(np.sum(mu.weights * s2))
    return math.sqrt(val)


def effective_vol_harmonic(sigma_fn: Callable, mu: InvariantMeasure) -> float:
    """Harmonic-mean long-run volatility ``(sum w / sigma^2(node))^(-1/2)``."""
    s2 = np.asarray(sigma_fn(mu.nodes), dtype=float) ** 2
    if np.any(s2 <= 0.0):
        raise DegenerateVolatilityError(
            "sigma vanishes on a measure node; the harmonic average is undefined"
        )
    return float(np.sum(mu.weights / s2)) ** -0.5


def _simulate_price_factors(
    spec: PricingSpec,
    epsilon: float,
    fast: FastProcessConfig,
    n_paths: int,
    snapshot_steps: list[int],
    y0_values: np.ndarray,
) -> np.ndarray:
    """Multiplicative growth factors at requested steps for each start factor.

    The factors are the slow state of :func:`pricing_problem` started at
    x = 1, read from ``iter_slow_values`` with the start factors as
    ``starts``.  One jump stream and one Brownian stream drive all start
    values, giving exact common random numbers across both the y-window and,
    for fixed step count, across epsilon.
    """
    if n_paths < 1000:
        raise UsageError("need at least 1000 paths")
    if abs(fast.lam * epsilon - 1.0) > 1e-9:
        raise UsageError("fast config rate and epsilon disagree (lam must be 1/epsilon)")
    # pin the step: the default step depends on the horizon
    run = replace(fast, horizon=spec.horizon, dt=fast.step)
    slot = {k: j for j, k in enumerate(sorted(set(snapshot_steps)))}
    out = np.empty((len(y0_values), len(slot), n_paths))
    paths = iter_slow_values(pricing_problem(spec), run, 1.0, n_paths, starts=y0_values)
    for k, (factors, _) in enumerate(paths):
        if k in slot:
            out[:, slot[k], :] = factors
    return out


def price_mc(
    spec: PricingSpec,
    epsilon: float,
    fast: FastProcessConfig,
    n_paths: int,
) -> tuple[float, float]:
    """Monte Carlo price at the spot and its standard error: the surface at (T, x0, y0)."""
    est, se = price_mc_surface(spec, epsilon, fast, n_paths, np.array([spec.horizon]),
                               np.array([spec.x0]), np.array([fast.y0]))
    return float(est[0, 0, 0]), float(se[0, 0, 0])


def price_mc_surface(
    spec: PricingSpec,
    epsilon: float,
    fast: FastProcessConfig,
    n_paths: int,
    taus: np.ndarray,
    x_values: np.ndarray,
    y_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Price estimates and standard errors on a (tau, x, y) evaluation box.

    ``taus`` are times to maturity; the pair process is time-homogeneous, so
    the estimate at (t, x, y) uses growth factors over [0, T - t].  Requested
    taus must lie in [0, T] and are rounded to the step grid.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any((taus < 0.0) | (taus > spec.horizon)):
        raise UsageError(f"taus must lie in [0, {spec.horizon:g}]")
    dt = fast.step
    steps = sorted({int(round(t / dt)) for t in taus})
    factors = _simulate_price_factors(
        spec, epsilon, fast, n_paths, steps, np.asarray(y_values, dtype=float)
    )
    est = np.empty((len(steps), len(x_values), len(y_values)))
    se = np.empty_like(est)
    for j_t, k in enumerate(steps):
        disc = math.exp(-spec.discount * k * dt)
        for j_x, x in enumerate(np.asarray(x_values, dtype=float)):
            vals = disc * np.asarray(spec.payoff(x * factors[:, j_t, :]), dtype=float)
            est[j_t, j_x, :] = vals.mean(axis=1)
            se[j_t, j_x, :] = vals.std(axis=1, ddof=1) / math.sqrt(n_paths)
    return est, se


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_oracle(spec: PricingSpec, s: float, tau: Optional[float] = None,
              x0: Optional[float] = None) -> float:
    """Discounted expected payoff under constant volatility s.

    The terminal state is lognormal with log-mean ``log x0 + (r - s^2) tau``
    and log-variance ``2 s^2 tau`` (the root-two convention doubles the
    instantaneous variance).  Calls use the closed formula with Black-Scholes
    volatility ``sqrt(2) s``; other payoffs are integrated adaptively against
    the lognormal in log space.
    """
    tau = spec.horizon if tau is None else tau
    x0 = spec.x0 if x0 is None else x0
    disc = math.exp(-spec.discount * tau)
    if tau == 0.0:
        return float(disc * np.asarray(spec.payoff(x0), dtype=float))
    if s == 0.0 or x0 == 0.0:
        return float(disc * np.asarray(spec.payoff(x0 * math.exp(spec.r * tau)), dtype=float))
    if isinstance(spec.payoff, CallPayoff):
        k = spec.payoff.strike
        sig_tot = SQRT2 * s * math.sqrt(tau)
        d1 = (math.log(x0 / k) + (spec.r + s * s) * tau) / sig_tot
        d2 = d1 - sig_tot
        return disc * (
            x0 * math.exp(spec.r * tau) * _norm_cdf(d1) - k * _norm_cdf(d2)
        )
    mean_log = math.log(x0) + (spec.r - s * s) * tau
    sd_log = math.sqrt(2.0 * s * s * tau)

    def integrand(v):
        dens = math.exp(-0.5 * ((v - mean_log) / sd_log) ** 2) / (
            sd_log * math.sqrt(2.0 * math.pi)
        )
        return float(spec.payoff(math.exp(v))) * dens

    val, _ = integrate.quad(
        integrand, mean_log - 14.0 * sd_log, mean_log + 14.0 * sd_log, limit=400
    )
    return disc * val


def merton_hbar(spec: MertonSpec, mu: InvariantMeasure) -> float:
    """Exponential growth rate of the limit value, by the regime split.

    On nodes where ``2 R (1 - gamma) sigma^2 >= alpha - r`` the inner maximum
    is attained at ``u* = (alpha-r) / (2 (1-gamma) sigma^2)``; otherwise it
    sits at the upper control bound R.
    """
    s2 = np.asarray(spec.sigma_fn(mu.nodes), dtype=float) ** 2
    excess = spec.alpha_drift - spec.r
    one_mg = 1.0 - spec.gamma
    interior = 2.0 * spec.R * one_mg * s2 >= excess
    with np.errstate(divide="ignore"):
        interior_val = excess**2 / (4.0 * one_mg * s2)
    boundary_val = excess * spec.R + (spec.gamma - 1.0) * spec.R**2 * s2
    vals = np.where(interior, interior_val, boundary_val)
    return spec.r + float(np.sum(mu.weights * vals))


def merton_hara_closed_form(
    spec: MertonSpec, mu: InvariantMeasure, t: float, w
) -> float:
    """Explicit limit value ``a exp(gamma hbar (T - t)) w^gamma / gamma``."""
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 0.0):
        raise UsageError("wealth must be positive")
    if not 0.0 <= t <= spec.horizon:
        raise UsageError("time must lie in [0, T]")
    hbar = merton_hbar(spec, mu)
    val = spec.a * np.exp(spec.gamma * hbar * (spec.horizon - t)) * w_arr**spec.gamma / spec.gamma
    return float(val) if np.isscalar(w) or w_arr.ndim == 0 else val
