"""Seeded simulation of stable increments, the fast factor, and the controlled system.

Increment sampling uses the Chambers-Mallows-Stuck transformation of one
uniform and one exponential variate.  With U ~ Uniform(-pi/2, pi/2) and
E ~ Exp(1),

    X = S * sin(a U + a B) / cos(U)^(1/a) * (cos((1-a) U - a B) / E)^((1-a)/a),
    a B = arctan(beta tan(pi a / 2)),   S = (1 + beta^2 tan^2(pi a / 2))^(1/(2a)),

is standard stable with stability ``a``, skewness ``beta``, unit scale and zero
location in the parameterization whose characteristic function is
``exp(-|u|^a (1 - i beta sgn(u) tan(pi a / 2)))``.  The symmetric family uses
``beta = 0``; the one-sided family uses ``beta = 1`` plus the deterministic
drift left over by compensating only jumps with ``|z| <= 1``
(:func:`~levy_multiscale.levy_measures.compensator_drift`), so increments over
internal time ``tau`` satisfy ``E exp(iuZ) = exp(tau * psi(u))`` exactly, with
``psi`` the model's Levy-Khintchine exponent.

The fast factor is advanced by its exact transition: over a step of
internal time ``tau`` the decayed stochastic integral of a stable driver is
again stable, with scale^alpha ``sigma^alpha (1 - e^{-alpha tau}) / alpha``
(Chambers, Mallows and Stuck, JASA 1976; Weron, Stat. Probab. Lett. 1996).
One CMS draw per path and step therefore gives states that are exact in law
for any step (:func:`iter_fast_values`).  Every path functional of the factor
is :func:`path_integral`, a weighted sum along these states.

A batch fanned out over start points (``starts``) shares one driven run: the
factor map is affine in its start, ``Y^y(t) = y e^{-lam t} + Y^0(t)``, so every
start sees the same jumps.  The start memory ``y e^{-lam t}`` is kept for the
first :data:`FORGET_EFOLDS` e-folds only, up to step k*; from then on every
start reads the shared state ``Y^0``, and a path functional evaluates f once
per state, not once per start.  A start's weighted sum of f then differs from
its single-start run by at most ``L |y| sum_{k >= k*} |w_k| e^{-lam t_k}``, for
an f with Lipschitz constant L.

Randomness derives from one 64-bit seed through numpy ``SeedSequence`` spawn
keys: key ``(0,)`` feeds the jump stream (:func:`iter_fast_values`), ``(1,)``
the Brownian stream of the slow-state step (:func:`simulate_slow_system`), and
``(2,)`` the one normal per path of the conditional Monte Carlo pricer
(``finance.price_mc_surface``, for payoffs without a closed form); further
components get successive keys.  Draws are vectorized across paths, so a
batch is reproduced bit-for-bit from (seed, n_paths, dt, horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import (UsageError, require_count, require_finite, require_finite_array,
                     require_nonnegative, require_positive)
from .levy_measures import (LevyMeasureModel, compensator_drift, require_assumptions,
                             stable_scale_exponent)

JUMP_STREAM = 0
BROWNIAN_STREAM = 1
MIXING_STREAM = 2
#: The noise coefficient's root two: the slow state's volatility is ``SQRT2 x u sigma(y)``.
SQRT2 = math.sqrt(2.0)

#: e-folds after which a decaying weight is dropped: the discounted runs stop at
#: FORGET_EFOLDS / delta, and a fanned-out batch forgets its start points once
#: ``e^{-lam t}`` has fallen below ``e^{-FORGET_EFOLDS}``, about 4.5e-5.
FORGET_EFOLDS = 10.0


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-keyed substream: ``default_rng(SeedSequence(seed, spawn_key=(stream,)))``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def default_step(epsilon: float, horizon: float) -> float:
    """Default quadrature step ``horizon / max(2, ceil(4 horizon / eps))``, about eps/4.

    The transition is exact for any step (:func:`iter_fast_values`), so the step only sets
    the quadrature of path functionals such as the integrated variance: at eps/4 the
    trapezoid's bias in a call price is 0.14 and 0.08 of its standard error at 8,000 paths
    (eps = 0.1 and 0.02), against 0.45 at eps/2.  The horizon takes a whole number of
    steps, at least two, so ``0 < step < horizon``, each at most eps/4 to one part in 10^12
    when two fit.  That part comes off the ratio before the ceiling, so a ratio that
    rounding lifts just past a whole number n, as 4 / eps can be when eps is read back as
    1 / lam, takes n steps and not n + 1.
    """
    require_positive("epsilon", epsilon)
    require_positive("horizon", horizon)
    ratio = 4.0 * horizon / epsilon
    require_finite("4 horizon / epsilon", ratio)
    return horizon / max(2, math.ceil(ratio * (1.0 - 1e-12)))


@dataclass(frozen=True)
class FastProcessConfig:
    """Parameters of the mean-reverting factor ``dY = -lam Y dt + dZ(lam t)``.

    A run's one time grid is 0, dt, ..., n_steps dt = horizon: a step, given or
    :func:`default_step`, that does not divide the horizon to 1e-9 relative is
    refused.  A subordinator drives no factor: it is refused here, before any draw.
    """

    model: LevyMeasureModel
    lam: float
    y0: float
    horizon: float
    dt: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        require_assumptions(self.model)
        require_positive("lam", self.lam)
        require_finite("y0", self.y0)
        require_positive("horizon", self.horizon)
        require_count("seed", self.seed, 0)
        step = self.step
        if not (0.0 < step < self.horizon
                and abs(self.n_steps * step - self.horizon) <= 1e-9 * self.horizon):
            raise UsageError(f"dt must divide the horizon with 0 < dt < horizon, got dt={step}")

    @property
    def step(self) -> float:
        return self.dt if self.dt is not None else default_step(1.0 / self.lam, self.horizon)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


@dataclass(frozen=True)
class PathSample:
    """One simulated trajectory on a uniform grid starting at time 0."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SlowSystemConfig:
    """Controlled slow state coupled to a fast factor.

    ``problem`` is a ``hjb_solvers.ControlProblemSpec``, which states the model;
    the control is held at the lower end ``u_lo`` of its control interval.
    """

    problem: object
    fast: FastProcessConfig
    x0: float

    def __post_init__(self):
        require_nonnegative("x0", self.x0)


def sample_stable_increment(
    model: LevyMeasureModel,
    dt_scaled: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """``size`` independent increments of the driver over internal time ``dt_scaled``.

    Scaling uses self-similarity: the increment has stable scale
    ``(sigma^alpha * dt_scaled)^(1/alpha)`` plus ``dt_scaled`` times the
    compensator drift.  A subordinator drives no factor and is refused.
    """
    require_positive("dt_scaled", dt_scaled)
    require_assumptions(model)
    if not isinstance(rng, np.random.Generator):
        raise UsageError("rng must be a numpy Generator")
    require_count("size", size, 1)

    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    e = rng.standard_exponential(size=size)
    a, inv_a, skew = model.alpha, 1.0 / model.alpha, model.skew
    ab, s = math.atan(skew), (1.0 + skew * skew) ** (0.5 * inv_a)
    scale = (stable_scale_exponent(model) * dt_scaled) ** inv_a
    # at skew = 0, ab = 0 and s = 1 keep the bits of the symmetric map
    out = (scale * s) * (np.sin(a * u + ab) / np.cos(u) ** inv_a
                         * (np.cos((1.0 - a) * u - ab) / e) ** ((1.0 - a) * inv_a))
    out += dt_scaled * compensator_drift(model)
    return out


def iter_fast_values(
    cfg: FastProcessConfig,
    n_paths: int,
    starts: Optional[np.ndarray] = None,
) -> Iterator[np.ndarray]:
    """Stream the factor states at grid times 0, dt, 2*dt, ... across a path batch.

    This is the package's one fast-factor recursion, and path functionals
    read it through :func:`path_integral`.  Yields the state *before* each
    update, n_steps + 1 arrays in total, so consumers see left endpoints.
    With tau = lam * dt the update is the exact transition of the factor,

        Y_{k+1} = exp(-tau) Y_k + int_0^tau exp(-(tau - r)) dZ(r),

    whose stochastic integral is stable with scale^alpha
    ``sigma^alpha (1 - exp(-alpha tau)) / alpha`` plus the deterministic
    ``drift (1 - exp(-tau))``, by the self-similarity of the driver.  It is
    drawn as one driver increment over internal time
    ``tau_s = (1 - exp(-alpha tau)) / alpha`` shifted by
    ``drift ((1 - exp(-tau)) - tau_s)``.  So the states are exact in law
    for any step, and the step only sets which times are observed.  The
    jump stream is ``stream_rng(cfg.seed, JUMP_STREAM)``.

    Without ``starts`` the batch starts at ``cfg.y0`` and each yield has shape
    ``(n_paths,)``.  With a 1-D array ``starts`` the batch is driven from 0 and
    fanned out over the start points, which the affine factor map allows:
    ``Y^y(t_k) = y exp(-lam t_k) + Y^0(t_k)``, yielded with shape
    ``(len(starts), n_paths)``.  Every start point then sees the same jumps.
    The fan-out lasts up to step k*, the first whole step with
    ``lam k dt >= FORGET_EFOLDS`` (to 1e-9 relative), where each start's
    memory ``y exp(-lam t_k)`` is below ``|y| e^{-10}``.  From k* on the
    shared state ``Y^0(t_k)``, bit-equal to the run from y0 = 0, is yielded
    with shape ``(n_paths,)``.
    """
    require_count("n_paths", n_paths, 1)
    rng = stream_rng(cfg.seed, JUMP_STREAM)
    tau = cfg.lam * cfg.step
    a = math.exp(-tau)
    tau_s = -math.expm1(-cfg.model.alpha * tau) / cfg.model.alpha
    shift = compensator_drift(cfg.model) * (-math.expm1(-tau) - tau_s)
    fan_in = 0
    if starts is not None:
        starts = require_finite_array("starts", starts)[:, None]
        # whole steps, not a test on decay: where lam k dt = FORGET_EFOLDS on a step, decay's
        # rounding would pick k*
        require_finite("10 / lam / dt", FORGET_EFOLDS / tau)
        fan_in = math.ceil(FORGET_EFOLDS / tau * (1.0 - 1e-9))
    y = np.full(n_paths, float(cfg.y0) if starts is None else 0.0)
    decay = 1.0
    for k in range(cfg.n_steps):
        yield starts * decay + y if k < fan_in else y
        y = a * y + sample_stable_increment(cfg.model, tau_s, rng, size=n_paths) + shift
        decay *= a
    yield starts * decay + y if cfg.n_steps < fan_in else y


def path_integral(cfg: FastProcessConfig, f: Callable, n_paths: int, weights: np.ndarray,
                  stops: Optional[np.ndarray] = None,
                  starts: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-path sums ``sum_{k < stop} w_k f(Y_k)`` along the factor, at each stop.

    The package's one path functional: the averages, the corrector and the
    pricer's integrated variance differ only in ``weights``, one per state of
    :func:`iter_fast_values` (at most n_steps + 1; ``starts`` fans out the batch).
    ``stops`` are step counts in [0, len(weights)], ``[len(weights)]`` by default;
    the result has shape ``(len(stops),) + batch``.  Only the states the largest
    stop needs are drawn.

    While the batch is fanned out, ``f`` gets one row of n_paths states at a
    time, not the raveled batch, because of glibc's malloc: the raveled call's
    temporaries (288 kB on 9 x 4,000 states) go back to the kernel when freed,
    so the benchmark's Merton Hamiltonian took about 320 page faults and
    0.96-1.27 ms a raveled call, against none and 0.67-0.96 ms for the 9 rows
    (2-core Xeon host, glibc 2.36).  Raising ``MALLOC_MMAP_THRESHOLD_`` and
    ``MALLOC_TRIM_THRESHOLD_`` removed the faults (0.58-0.65 ms raveled), but
    the caller's malloc is not the library's to set.

    From step k* on, where the batch has forgotten its starts
    (:func:`iter_fast_values`), f is called once per state and
    ``w_k f(Y^0_k)`` is added to every row.  So, up to rounding, row i differs
    from its single-start run by at most
    ``L |y_i| sum_{k* <= k < stop} |w_k| e^{-lam t_k}`` for an f with
    Lipschitz constant L, and rows at stops up to k* are unchanged.
    """
    weights = require_finite_array("weights", weights)
    stops = np.asarray([len(weights)] if stops is None else stops)
    if (len(weights) > cfg.n_steps + 1 or stops.ndim != 1 or stops.dtype.kind not in "iu"
            or np.any((stops < 0) | (stops > len(weights)))):
        raise UsageError(f"need at most one weight per state ({cfg.n_steps + 1}), "
                         "and 1-D integer stops in [0, len(weights)]")
    last = int(stops.max(initial=0))
    ys = iter_fast_values(cfg, n_paths, starts=starts)
    first = next(ys)  # the start state needs no draw, and reading it checks starts
    acc = np.zeros(first.shape)
    out = np.empty((len(stops),) + acc.shape)
    for k, y in enumerate(islice(chain([first], ys), last)):
        out[stops == k] = acc
        if y.ndim == 1:  # one state for every row, broadcast over them
            acc += weights[k] * np.asarray(f(y), dtype=float)
        else:
            for row_acc, row in zip(acc, y):
                row_acc += weights[k] * np.asarray(f(row), dtype=float)
    out[stops == last] = acc
    return out


def discount_horizon(delta: float, dt: float) -> float:
    """The discounted runs' truncation: 10/delta in whole steps, ``dt round(10 / (delta dt))``.

    Ten is :data:`FORGET_EFOLDS`.  Fewer than two steps leave no run whose step
    lies strictly inside its horizon.
    """
    require_positive("delta", delta)
    require_positive("dt", dt)
    require_finite("10 / delta / dt", FORGET_EFOLDS / delta / dt)
    n = round(FORGET_EFOLDS / delta / dt)
    if n < 2:
        raise UsageError(f"delta must leave 10/delta two steps of dt or more: {delta=}, {dt=}")
    return dt * n


def discount_weights(delta: float, dt: float, n: int) -> np.ndarray:
    """Exact discount weights ``int e^{-delta t} dt`` over the steps ``[k dt, (k+1) dt)``, k < n."""
    require_positive("delta", delta)
    require_positive("dt", dt)
    require_count("n", n, 1)
    return np.exp(-delta * np.arange(n) * dt) * (1.0 - math.exp(-delta * dt)) / delta


def simulate_slow_system(cfg: SlowSystemConfig) -> tuple[PathSample, PathSample]:
    """One path of the slow state and its factor at grid times 0, dt, 2*dt, ...

    This is the package's one slow-state step.  The factor is the path of
    ``iter_fast_values(cfg.fast, 1)``, and the model is ``cfg.problem``, whose
    coefficients are linear in x, so Euler-Maruyama with the factor read at
    left endpoints takes the floored factor form

        X_{k+1} = X_k * max(1 + (beta0 + beta1 u) dt + SQRT2 u sigma_of_y(Y_k) dW_k, 0),

    started at ``cfg.x0``: an Euler step that would overshoot zero is absorbed
    there, and x = 0 stays absorbing, so nonnegativity holds by construction.
    The Brownian stream is ``stream_rng(fast.seed, BROWNIAN_STREAM)``, one
    increment per step, and u is the lower end ``u_lo`` of the control interval.
    """
    fast, problem = cfg.fast, cfg.problem
    n, dt = fast.n_steps, fast.step
    times = np.arange(n + 1) * dt
    ys = np.concatenate(list(iter_fast_values(fast, 1)))
    y = ys[:-1]
    dw = stream_rng(fast.seed, BROWNIAN_STREAM).normal(0.0, math.sqrt(dt), size=n)
    u = float(problem.u_lo)
    vol = require_finite_array("sigma_of_y along the path",
                               SQRT2 * u * np.asarray(problem.sigma_of_y(y)), ndim=None)
    growth = np.maximum(1.0 + (problem.beta0 + problem.beta1 * u) * dt + vol * dw, 0.0)
    # x0 leads the product, so each state has the bits of the step-by-step loop
    xs = np.cumprod(np.concatenate([[float(cfg.x0)], growth]))
    return (
        PathSample(times=times, values=xs),
        PathSample(times=times, values=ys),
    )
