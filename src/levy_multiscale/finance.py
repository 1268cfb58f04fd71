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
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .ergodicity import InvariantMeasure
from .errors import (DegenerateVolatilityError, UsageError, require_count, require_finite,
                     require_finite_array, require_nonnegative, require_positive)
from .hjb_solvers import ControlProblemSpec
from .jump_processes import MIXING_STREAM, FastProcessConfig, path_integral, stream_rng


class CallPayoff:
    """European call payoff; the tag lets the oracle use the closed formula."""

    def __init__(self, strike: float):
        require_positive("strike", strike)
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
        require_finite("r", self.r)
        require_nonnegative("discount", self.discount)
        require_positive("horizon", self.horizon)
        require_nonnegative("x0", self.x0)


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
        for name in ("r", "alpha_drift", "R1", "R"):
            require_finite(name, getattr(self, name))
        for name in ("a", "horizon", "w0"):
            require_positive(name, getattr(self, name))
        if not self.alpha_drift > self.r:
            raise UsageError("the risky return must exceed the riskless rate")
        if not 0.0 < self.gamma < 1.0:
            raise UsageError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (-self.R <= self.R1 <= 0.0 < self.R):
            raise UsageError("control interval must satisfy -R <= R1 <= 0 < R")

    def utility(self, w):
        w = np.asarray(w, dtype=float)
        return self.a * np.power(w, self.gamma) / self.gamma


def pricing_problem(spec: PricingSpec) -> ControlProblemSpec:
    """Uncontrolled lognormal pricing model: the one control u = 1, unit exposure."""
    return ControlProblemSpec(
        beta0=spec.r, beta1=0.0, sigma_of_y=spec.sigma_fn, u_lo=1.0, u_hi=1.0,
        payoff=spec.payoff,
        discount=spec.discount,
        horizon=spec.horizon,
    )


def merton_problem(spec: MertonSpec) -> ControlProblemSpec:
    """Wealth-process control problem over the paper's control interval [R1, R]."""
    return ControlProblemSpec(
        beta0=spec.r, beta1=spec.alpha_drift - spec.r, sigma_of_y=spec.sigma_fn,
        u_lo=spec.R1, u_hi=spec.R,
        payoff=spec.utility,
        discount=0.0,
        horizon=spec.horizon,
    )


def effective_vol_quadratic(sigma_fn: Callable, mu: InvariantMeasure) -> float:
    """Quadratic-mean long-run volatility ``(sum w sigma^2(node))^(1/2)``."""
    return math.sqrt(mu.mean_of(
        lambda y: require_finite_array("sigma_fn", sigma_fn(y), ndim=None) ** 2))


def effective_vol_harmonic(sigma_fn: Callable, mu: InvariantMeasure) -> float:
    """Harmonic-mean long-run volatility ``(sum w / sigma^2(node))^(-1/2)``."""
    s2 = require_finite_array("sigma_fn", sigma_fn(mu.nodes), ndim=None) ** 2
    if np.any(s2 <= 0.0):
        raise DegenerateVolatilityError("sigma vanishes on a measure node; "
                                        "the harmonic average is undefined")
    return mu.mean_of(lambda y: 1.0 / s2) ** -0.5


def bs_call(x, strike: float, r_tau, v):
    """Undiscounted call value ``E max(X - K, 0)`` at integrated variance ``v``.

    X is lognormal with log-mean ``log x + r_tau - v`` and log-variance
    ``2 v``: the root-two convention at ``v = int sigma^2 ds`` (``s^2 tau``
    for a constant volatility s), so the Black-Scholes total volatility is
    ``sqrt(2 v)``.  Vectorised over x, r_tau and v.  Where v = 0 or x = 0
    the value is the payoff at the forward ``x exp(r_tau)``; a non-finite x, r_tau
    or v is refused, since NaN would fail ``v > 0`` and price as zero variance, and
    so is a strike that is not finite and positive, which would price as NaN.
    """
    require_positive("strike", strike)
    x = require_finite_array("x", x, ndim=None)
    r_tau = require_finite_array("r_tau", r_tau, ndim=None)
    v = require_finite_array("v", v, ndim=None)
    fwd = x * np.exp(r_tau)
    live = (v > 0.0) & (fwd > 0.0)
    v_live = np.where(live, v, 1.0)
    w = np.sqrt(2.0 * v_live)
    d1 = (np.log(np.where(live, fwd, strike) / strike) + v_live) / w
    return np.where(live, fwd * ndtr(d1) - strike * ndtr(d1 - w),
                    np.maximum(fwd - strike, 0.0))


def _terminal_state(x, r_tau, v, z):
    """``x exp(r_tau - v + sqrt(2 v) z)``: the state at integrated variance v given a standard
    normal z, lognormal with the log-mean and log-variance of :func:`bs_call`."""
    return x * np.exp(r_tau - v + np.sqrt(2.0 * v) * z)


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
    [0, T - t].  Requested taus must lie in [0, T]; each is priced at the
    nearest point of the step grid, which shifts it by at most dt/2.

    The step dt is that of ``replace(fast, horizon=T)``: ``fast.dt`` if set
    (it must divide T), else :func:`~levy_multiscale.jump_processes.default_step`,
    about epsilon/8 with T on the grid.  The factor's states are exact for
    any step, so dt only sets the quadrature of V.  Each path contributes
    the discounted payoff expectation given its integrated variance
    V = int_0^tau sigma^2(Y_s) ds (the mixing formula), taken by the
    trapezoid rule from one ``path_integral`` of sigma^2 with unit weights:
    with S_k the sum over the first k states, V = dt ((S_k + S_{k+1})/2 -
    sigma^2(y0)/2) at tau = k dt, exactly 0 at tau = 0.  The trapezoid
    removes the first-order bias that the left rule takes from the factor's
    relaxation out of y0.  A :class:`CallPayoff` takes the closed form
    :func:`bs_call`; any other payoff is evaluated at
    ``x exp(r tau - V + sqrt(2 V) Z)`` with one standard normal Z per path
    from ``stream_rng(fast.seed, MIXING_STREAM)``, shared by every row,
    spot and start point.
    """
    taus = require_finite_array("taus", taus)
    if not np.all((taus >= 0.0) & (taus <= spec.horizon)):
        raise UsageError(f"taus must lie in [0, {spec.horizon:g}]")
    x_values = require_finite_array("x_values", x_values)
    if np.any(x_values < 0.0):
        raise UsageError("x_values must be nonnegative")
    y_values = require_finite_array("y_values", y_values)
    require_count("n_paths", n_paths, 1000, "paths")
    if not abs(fast.lam * epsilon - 1.0) <= 1e-9:  # NaN fails this too
        raise UsageError("fast config rate and epsilon disagree (lam must be 1/epsilon)")
    run = replace(fast, horizon=spec.horizon)
    dt = run.step
    steps = np.rint(taus / dt).astype(int)
    n = len(steps)
    # S_k, S_{k+1} at each tau, and S_1 = sigma^2(y0) as f gave it, so V(0) is exactly 0
    sums = path_integral(run, lambda y: np.asarray(spec.sigma_fn(y), dtype=float) ** 2,
                         n_paths, np.ones(run.n_steps + 1),
                         stops=np.concatenate([steps, steps + 1, [1]]), starts=y_values)
    require_finite_array("sigma_fn along the paths", sums, ndim=None)
    variance = dt * ((sums[:n] + sums[n:2 * n]) / 2.0 - sums[2 * n] / 2.0)
    if isinstance(spec.payoff, CallPayoff):
        def given_variance(x, r_tau, v):
            return bs_call(x, spec.payoff.strike, r_tau, v)
    else:
        z = stream_rng(fast.seed, MIXING_STREAM).standard_normal(n_paths)

        def given_variance(x, r_tau, v):
            return np.asarray(spec.payoff(_terminal_state(x, r_tau, v, z)), dtype=float)
    est = np.empty((len(taus), len(x_values), len(y_values)))
    se = np.empty_like(est)
    for j_t, k in enumerate(steps):
        disc = math.exp(-spec.discount * k * dt)
        for j_x, x in enumerate(x_values):
            vals = disc * given_variance(x, spec.r * k * dt, variance[j_t])
            est[j_t, j_x, :] = vals.mean(axis=1)
            # deviations from the first path, so equal values give an SE of exactly 0
            se[j_t, j_x, :] = (vals - vals[:, :1]).std(axis=1, ddof=1) / math.sqrt(n_paths)
    return est, se


def bs_oracle(spec: PricingSpec, s: float) -> float:
    """Discounted expected payoff under constant volatility s, from the spec's spot and horizon.

    With tau the horizon, the terminal state is lognormal with log-mean ``log x0 + (r - s^2) tau``
    and log-variance ``2 s^2 tau`` (the root-two convention doubles the
    instantaneous variance).  Calls use the closed formula :func:`bs_call`
    at integrated variance ``s^2 tau``; other payoffs, at the terminal state of a
    standard normal z (the pricer's law given V = s^2 tau), are integrated adaptively
    against the density of z over [-14, 14].
    """
    tau, x0 = spec.horizon, spec.x0
    require_nonnegative("s", s)
    disc = math.exp(-spec.discount * tau)
    v = s * s * tau
    if isinstance(spec.payoff, CallPayoff):
        return disc * float(bs_call(x0, spec.payoff.strike, spec.r * tau, v))
    if v == 0.0 or x0 == 0.0:
        return float(disc * np.asarray(spec.payoff(x0 * math.exp(spec.r * tau)), dtype=float))

    def integrand(z):
        x_tau = _terminal_state(x0, spec.r * tau, v, z)
        return float(spec.payoff(x_tau)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    return disc * integrate.quad(integrand, -14.0, 14.0, limit=400)[0]


def merton_hbar(spec: MertonSpec, mu: InvariantMeasure) -> float:
    """Exponential growth rate of the limit value: r plus the mu-average of the inner maximum.

    The maximum of ``(alpha - r) u - (1 - gamma) sigma^2 u^2`` over [R1, R] is at Merton's
    myopic control ``u* = min((alpha - r) / (2 (1 - gamma) sigma^2), R)``: the vertex is
    positive (alpha > r, gamma < 1), so R1 <= 0 never binds, and where sigma vanishes u* = R.
    """
    excess = spec.alpha_drift - spec.r
    one_mg = 1.0 - spec.gamma

    def premium(y):  # h(y) - r: the objective at the myopic control
        s2 = require_finite_array("sigma_fn", spec.sigma_fn(y), ndim=None) ** 2
        with np.errstate(divide="ignore"):
            u = np.minimum(excess / (2.0 * one_mg * s2), spec.R)
        return excess * u - one_mg * u**2 * s2

    return spec.r + mu.mean_of(premium)


def merton_hara_closed_form(
    spec: MertonSpec, mu: InvariantMeasure, t: float, w
) -> float:
    """Explicit limit value ``a exp(gamma hbar (T - t)) w^gamma / gamma``."""
    w_arr = require_finite_array("w", w, ndim=None)
    if not np.all(w_arr > 0.0):
        raise UsageError("w must be positive")
    if not 0.0 <= t <= spec.horizon:
        raise UsageError("time must lie in [0, T]")
    hbar = merton_hbar(spec, mu)
    val = spec.a * np.exp(spec.gamma * hbar * (spec.horizon - t)) * w_arr**spec.gamma / spec.gamma
    return float(val) if np.isscalar(w) or w_arr.ndim == 0 else val
