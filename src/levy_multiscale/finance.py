"""Asset pricing and portfolio optimization under the fast jump-driven factor.

Both applications keep the root-two diffusion convention of the underlying
system (dX = r X dt + sqrt(2) sigma X dW), so a "volatility" s here carries
instantaneous log-variance 2 s^2; the lognormal oracle documents this by
pricing with Black-Scholes volatility sqrt(2) s.

The asset's Brownian motion is independent of the factor's pure-jump driver,
so given a factor path the asset is lognormal at the path's integrated
variance V = int sigma^2(Y_s) ds (the mixing formula of Hull and White, J.
Finance 1987).  The Monte Carlo pricers therefore simulate the factor alone
and average the conditional price given V: one Black-Scholes kernel
(:func:`bs_call`) serves them and the constant-volatility oracle.

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
from scipy.special import ndtr

from .ergodicity import InvariantMeasure
from .errors import DegenerateVolatilityError, UsageError
from .hjb_solvers import ControlProblemSpec, QuadraticControlStructure
from .jump_processes import MIXING_STREAM, FastProcessConfig, path_integral, stream_rng

#: Points of the equispaced Merton control grid on [R1, R].
MERTON_CONTROLS = 41


class CallPayoff:
    """European call payoff; the tag lets the oracle use the closed formula."""

    def __init__(self, strike: float):
        if not (math.isfinite(strike) and strike > 0.0):
            raise UsageError(f"strike must be finite and positive, got {strike}")
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
        if not all(map(math.isfinite, (self.r, self.discount, self.horizon, self.x0))):
            raise UsageError("rate, discount, horizon and spot must be finite")
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
        if not all(map(math.isfinite, (self.r, self.alpha_drift, self.a, self.horizon, self.w0))):
            raise UsageError("rates, utility scale, horizon and wealth must be finite")
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


def merton_problem(spec: MertonSpec) -> ControlProblemSpec:
    """Wealth-process control problem on ``MERTON_CONTROLS`` equispaced controls."""
    return ControlProblemSpec(
        structure=QuadraticControlStructure(
            beta0=spec.r, beta1=spec.alpha_drift - spec.r, sigma_of_y=spec.sigma_fn,
            vol_u_power=1,
        ),
        control_grid=np.linspace(spec.R1, spec.R, MERTON_CONTROLS),
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


def bs_call(x, strike: float, r_tau, v):
    """Undiscounted call value ``E max(X - K, 0)`` at integrated variance ``v``.

    X is lognormal with log-mean ``log x + r_tau - v`` and log-variance
    ``2 v``: the root-two convention at ``v = int sigma^2 ds`` (``s^2 tau``
    for a constant volatility s), so the Black-Scholes total volatility is
    ``sqrt(2 v)``.  Vectorised over x, r_tau and v.  Where v = 0 or x = 0
    the value is the payoff at the forward ``x exp(r_tau)``.
    """
    fwd = np.asarray(x, dtype=float) * np.exp(r_tau)
    v = np.asarray(v, dtype=float)
    live = (v > 0.0) & (fwd > 0.0)
    v_live = np.where(live, v, 1.0)
    w = np.sqrt(2.0 * v_live)
    d1 = (np.log(np.where(live, fwd, strike) / strike) + v_live) / w
    return np.where(live, fwd * ndtr(d1) - strike * ndtr(d1 - w),
                    np.maximum(fwd - strike, 0.0))


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

    Both arrays have shape ``(len(taus), len(x_values), len(y_values))``,
    row i at ``taus[i]`` in the caller's order (repeated taus give repeated
    rows).  ``taus`` are times to maturity; the pair process is
    time-homogeneous, so the estimate at (t, x, y) uses paths over
    [0, T - t].  Requested taus must lie in [0, T] and are rounded to the
    step grid.

    Each path contributes the discounted payoff expectation given its
    integrated variance V (the mixing formula): dt times one ``path_integral``
    of sigma^2 with unit weights, stopped at each tau.  A :class:`CallPayoff`
    takes the closed form :func:`bs_call`; any other payoff is evaluated at
    ``x exp(r tau - V + sqrt(2 V) Z)`` with one standard normal Z per path
    from ``stream_rng(fast.seed, MIXING_STREAM)``, shared by every row,
    spot and start point.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all((taus >= 0.0) & (taus <= spec.horizon)):
        raise UsageError(f"taus must lie in [0, {spec.horizon:g}]")
    if not np.all((np.asarray(x_values, dtype=float) >= 0.0) & np.isfinite(x_values)):
        raise UsageError("spots must be finite and nonnegative")
    if n_paths < 1000:
        raise UsageError("need at least 1000 paths")
    if abs(fast.lam * epsilon - 1.0) > 1e-9:
        raise UsageError("fast config rate and epsilon disagree (lam must be 1/epsilon)")
    dt = fast.step
    steps = np.rint(taus / dt).astype(int)
    # pin the step: the default step depends on the horizon
    run = replace(fast, horizon=spec.horizon, dt=dt)
    variance = dt * path_integral(run, lambda y: np.asarray(spec.sigma_fn(y), dtype=float) ** 2,
                                  n_paths, np.ones(run.n_steps), stops=steps,
                                  starts=np.asarray(y_values, dtype=float))
    if isinstance(spec.payoff, CallPayoff):
        def given_variance(x, r_tau, v):
            return bs_call(x, spec.payoff.strike, r_tau, v)
    else:
        z = stream_rng(fast.seed, MIXING_STREAM).standard_normal(n_paths)

        def given_variance(x, r_tau, v):
            return np.asarray(spec.payoff(x * np.exp(r_tau - v + np.sqrt(2.0 * v) * z)),
                              dtype=float)
    est = np.empty((len(taus), len(x_values), len(y_values)))
    se = np.empty_like(est)
    for j_t, k in enumerate(steps):
        disc = math.exp(-spec.discount * k * dt)
        for j_x, x in enumerate(np.asarray(x_values, dtype=float)):
            vals = disc * given_variance(x, spec.r * k * dt, variance[j_t])
            est[j_t, j_x, :] = vals.mean(axis=1)
            # deviations from the first path, so equal values give an SE of exactly 0
            se[j_t, j_x, :] = (vals - vals[:, :1]).std(axis=1, ddof=1) / math.sqrt(n_paths)
    return est, se


def bs_oracle(spec: PricingSpec, s: float, tau: Optional[float] = None,
              x0: Optional[float] = None) -> float:
    """Discounted expected payoff under constant volatility s.

    The terminal state is lognormal with log-mean ``log x0 + (r - s^2) tau``
    and log-variance ``2 s^2 tau`` (the root-two convention doubles the
    instantaneous variance).  Calls use the closed formula :func:`bs_call`
    at integrated variance ``s^2 tau``; other payoffs are integrated
    adaptively against the lognormal in log space.
    """
    tau = spec.horizon if tau is None else tau
    x0 = spec.x0 if x0 is None else x0
    if not (math.isfinite(s) and s >= 0.0):
        raise UsageError(f"volatility must be finite and nonnegative, got {s}")
    if not (math.isfinite(tau) and tau >= 0.0):
        raise UsageError(f"time to maturity must be finite and nonnegative, got {tau}")
    if not (math.isfinite(x0) and x0 >= 0.0):
        raise UsageError(f"spot must be finite and nonnegative, got {x0}")
    disc = math.exp(-spec.discount * tau)
    v = s * s * tau
    if isinstance(spec.payoff, CallPayoff):
        return disc * float(bs_call(x0, spec.payoff.strike, spec.r * tau, v))
    if v == 0.0 or x0 == 0.0:
        return float(disc * np.asarray(spec.payoff(x0 * math.exp(spec.r * tau)), dtype=float))
    mean_log = math.log(x0) + spec.r * tau - v
    sd_log = math.sqrt(2.0 * v)

    def integrand(u):
        dens = math.exp(-0.5 * ((u - mean_log) / sd_log) ** 2) / (
            sd_log * math.sqrt(2.0 * math.pi)
        )
        return float(spec.payoff(math.exp(u))) * dens

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
