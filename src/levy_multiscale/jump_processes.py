"""Seeded simulation of stable increments, the fast factor, and the controlled system.

Increment sampling uses the Chambers-Mallows-Stuck transformation of one
uniform and one exponential variate.  With U ~ Uniform(-pi/2, pi/2) and
E ~ Exp(1),

    X = S * sin(a (U + B)) / cos(U)^(1/a) * (cos(U - a (U + B)) / E)^((1-a)/a),
    B = arctan(beta tan(pi a / 2)) / a,   S = (1 + beta^2 tan^2(pi a / 2))^(1/(2a)),

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

Randomness derives from one 64-bit seed through numpy ``SeedSequence`` spawn
keys: key ``(0,)`` feeds the jump stream (:func:`iter_fast_values`), ``(1,)``
the Brownian stream of the slow-state step (:func:`iter_slow_values`), and
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

from .errors import UsageError
from .levy_measures import LevyMeasureModel, compensator_drift, stable_scale_exponent

JUMP_STREAM = 0
BROWNIAN_STREAM = 1
MIXING_STREAM = 2


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-keyed substream: ``default_rng(SeedSequence(seed, spawn_key=(stream,)))``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def default_step(epsilon: float, horizon: float) -> float:
    """Default step ``min(eps/20, horizon/2000)`` resolving the fast scale."""
    return min(epsilon / 20.0, horizon / 2000.0)


@dataclass(frozen=True)
class FastProcessConfig:
    """Parameters of the mean-reverting factor ``dY = -lam Y dt + dZ(lam t)``."""

    model: LevyMeasureModel
    lam: float
    y0: float
    horizon: float
    dt: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise UsageError(f"mean-reversion rate must be finite and positive, got {self.lam}")
        if not math.isfinite(self.y0):
            raise UsageError(f"initial factor state must be finite, got {self.y0}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise UsageError(f"horizon must be finite and positive, got {self.horizon}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise UsageError(f"seed must be a nonnegative integer, got {self.seed!r}")
        step = self.step
        if not 0.0 < step < self.horizon:
            raise UsageError(f"need 0 < dt < horizon, got dt={step}")

    @property
    def epsilon(self) -> float:
        return 1.0 / self.lam

    @property
    def step(self) -> float:
        return self.dt if self.dt is not None else default_step(self.epsilon, self.horizon)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


@dataclass(frozen=True)
class PathSample:
    """One simulated trajectory on a uniform grid starting at time 0."""

    times: np.ndarray
    values: np.ndarray
    seed: int

    def __post_init__(self):
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0.0):
            raise UsageError("times must start at 0 and strictly increase")
        if len(self.times) != len(self.values):
            raise UsageError("times and values must have equal length")


@dataclass(frozen=True)
class SlowSystemConfig:
    """Controlled slow state coupled to a fast factor.

    ``problem`` is a ``hjb_solvers.ControlProblemSpec``: its required
    ``structure`` states the model, and the control is its first grid control.
    """

    problem: object
    fast: FastProcessConfig
    x0: float

    def __post_init__(self):
        if np.any(np.asarray(self.x0) < 0.0):
            raise UsageError("slow initial state must be componentwise nonnegative")


def standard_stable(alpha: float, beta: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """CMS transform of uniforms ``u`` on (-pi/2, pi/2) and unit exponentials ``e``."""
    inv_a = 1.0 / alpha
    if beta == 0.0:
        return (
            np.sin(alpha * u)
            / np.cos(u) ** inv_a
            * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) * inv_a)
        )
    skew = math.tan(math.pi * alpha / 2.0)
    b = math.atan(beta * skew) * inv_a
    s = (1.0 + beta * beta * skew * skew) ** (0.5 * inv_a)
    return (
        s
        * np.sin(alpha * (u + b))
        / np.cos(u) ** inv_a
        * (np.cos(u - alpha * (u + b)) / e) ** ((1.0 - alpha) * inv_a)
    )


def sample_stable_increment(
    model: LevyMeasureModel,
    dt_scaled: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """``size`` independent increments of the driver over internal time ``dt_scaled``.

    Scaling uses self-similarity: the increment has stable scale
    ``(sigma^alpha * dt_scaled)^(1/alpha)`` plus ``dt_scaled`` times the
    compensator drift.  Subordinator-mode models drive no factor and are refused.
    """
    if not (math.isfinite(dt_scaled) and dt_scaled > 0.0):
        raise UsageError(f"dt_scaled must be finite and positive, got {dt_scaled}")
    if model.subordinator:
        raise UsageError("subordinator-mode models are outside the factor's sampler")
    if not isinstance(rng, np.random.Generator):
        raise UsageError("rng must be a numpy Generator")

    if model.intensity == 0.0:
        return np.zeros(size)

    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    e = rng.standard_exponential(size=size)
    beta = 0.0 if model.two_sided else 1.0
    scale = (stable_scale_exponent(model) * dt_scaled) ** (1.0 / model.alpha)
    out = scale * standard_stable(model.alpha, beta, u, e)
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
    """
    rng = stream_rng(cfg.seed, JUMP_STREAM)
    tau = cfg.lam * cfg.step
    a = math.exp(-tau)
    tau_s = -math.expm1(-cfg.model.alpha * tau) / cfg.model.alpha
    shift = compensator_drift(cfg.model) * (-math.expm1(-tau) - tau_s)
    if starts is not None:
        starts = np.asarray(starts, dtype=float)
        if starts.ndim != 1 or not np.all(np.isfinite(starts)):
            raise UsageError("starts must be a 1-D array of finite start points")
        starts = starts[:, None]
    y = np.full(n_paths, float(cfg.y0) if starts is None else 0.0)
    decay = 1.0
    for _ in range(cfg.n_steps):
        yield y if starts is None else starts * decay + y
        y = a * y + sample_stable_increment(cfg.model, tau_s, rng, size=n_paths) + shift
        decay *= a
    yield y if starts is None else starts * decay + y


def path_integral(cfg: FastProcessConfig, f: Callable, n_paths: int, weights: np.ndarray,
                  stops: Optional[np.ndarray] = None,
                  starts: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-path sums ``sum_{k < stop} w_k f(Y_k)`` along the factor, at each stop.

    The package's one path functional: the averages, the corrector and the
    pricer's integrated variance differ only in ``weights``, one per state of
    :func:`iter_fast_values` (at most n_steps + 1; ``starts`` fans out the batch).
    ``stops`` are step counts in [0, len(weights)], ``[len(weights)]`` by default;
    the result has shape ``(len(stops),) + batch``.  Only the states the largest
    stop needs are drawn.  ``f`` gets one row of n_paths states at a time, not
    the raveled batch, which no longer fits in cache: the benchmark's Merton
    Hamiltonian on 9 x 4,000 states for 1,000 steps took 0.61-0.67 s row by
    row and 0.71-0.92 s raveled (2-core Xeon host).
    """
    weights = np.asarray(weights, dtype=float)
    stops = np.asarray([len(weights)] if stops is None else stops)
    if (weights.ndim != 1 or len(weights) > cfg.n_steps + 1 or stops.ndim != 1
            or stops.dtype.kind not in "iu" or np.any((stops < 0) | (stops > len(weights)))):
        raise UsageError(f"need 1-D weights, at most one per state ({cfg.n_steps + 1}), "
                         "and 1-D integer stops in [0, len(weights)]")
    last = int(stops.max(initial=0))
    ys = iter_fast_values(cfg, n_paths, starts=starts)
    first = next(ys)  # the start state needs no draw, and reading it checks starts
    acc = np.zeros(first.shape)
    out = np.empty((len(stops),) + acc.shape)
    for k, y in enumerate(islice(chain([first], ys), last)):
        out[stops == k] = acc
        for row_acc, row in zip(acc.reshape(-1, n_paths), y.reshape(-1, n_paths)):
            row_acc += weights[k] * np.asarray(f(row), dtype=float)
    out[stops == last] = acc
    return out


def discount_weights(delta: float, dt: float, n: int) -> np.ndarray:
    """Exact discount weights ``int e^{-delta t} dt`` over the steps ``[k dt, (k+1) dt)``, k < n."""
    return np.exp(-delta * np.arange(n) * dt) * (1.0 - math.exp(-delta * dt)) / delta


def simulate_fast_paths(cfg: FastProcessConfig, n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Full batch of factor paths; returns (times, values[n_paths, n_times])."""
    n = cfg.n_steps
    times = np.arange(n + 1) * cfg.step
    values = np.empty((n_paths, n + 1))
    for k, y in enumerate(iter_fast_values(cfg, n_paths)):
        values[:, k] = y
    return times, values


def simulate_fast_path(cfg: FastProcessConfig) -> PathSample:
    """Single factor path, deterministic given the config seed."""
    times, values = simulate_fast_paths(cfg, 1)
    return PathSample(times=times, values=values[0], seed=cfg.seed)


def iter_slow_values(
    problem,
    fast: FastProcessConfig,
    x0: float,
    n_paths: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream the slow state and the factor at grid times 0, dt, ... across a batch.

    This is the package's one slow-state step; :func:`simulate_slow_system`
    reads it.  It yields (x, y) pairs of shape ``(n_paths,)``, n_steps + 1 in
    total, with y from ``iter_fast_values(fast, n_paths)`` and x starting at
    ``x0``.  The model is ``problem.structure``, whose drift b and volatility
    s are linear in x, so Euler-Maruyama with the factor read at left
    endpoints takes the floored factor form

        X_{k+1} = X_k * max(1 + b(1, Y_k, u) dt + s(1, Y_k, u) dW_k, 0):

    an Euler step that would overshoot zero is absorbed there, and x = 0 stays
    absorbing.  The Brownian stream is ``stream_rng(fast.seed,
    BROWNIAN_STREAM)``, one increment per path and step, and u is the first
    grid control.
    """
    st = problem.structure
    if st is None:
        raise UsageError("the slow-state step needs the problem's QuadraticControlStructure")
    dt = fast.step
    sq_dt = math.sqrt(dt)
    n = fast.n_steps
    rng = stream_rng(fast.seed, BROWNIAN_STREAM)
    u = float(np.asarray(problem.control_grid, dtype=float)[0])
    x = np.full(n_paths, float(x0))
    for k, y in enumerate(iter_fast_values(fast, n_paths)):
        yield x, y
        if k == n:
            return
        dw = rng.normal(0.0, sq_dt, size=n_paths)
        x = x * np.maximum(1.0 + st.drift(1.0, y, u) * dt + st.vol(1.0, y, u) * dw, 0.0)


def simulate_slow_system(cfg: SlowSystemConfig) -> tuple[PathSample, PathSample]:
    """One path of the slow state and its factor, read from :func:`iter_slow_values`.

    ``cfg.problem.structure`` is the model, driven at the first grid control.
    Nonnegativity holds by construction.
    """
    fast = cfg.fast
    times = np.arange(fast.n_steps + 1) * fast.step
    path = np.array([(x[0], y[0]) for x, y in iter_slow_values(cfg.problem, fast, cfg.x0, 1)])
    return (
        PathSample(times=times, values=path[:, 0], seed=fast.seed),
        PathSample(times=times, values=path[:, 1], seed=fast.seed),
    )
