"""The integro-differential generator of the fast factor and its averaging limits.

The operator acts on smooth functions as

    I[y, f] = -f'(y) y + int ( f(y+z) - f(y) - f'(y) z 1_{|z|<=1} ) nu(dz),

integrated over the support of the jump measure.  Quadrature splits the
integral at ``kappa`` (second-order Taylor bound for the singular region, with
closed-form truncated moments), at 1 (compensated vs plain increments), and at
``M`` (polynomial tail extrapolation of f at the declared growth order; M is
placed where the relative tail mass drops below 1e-8).

On top of the operator the module provides the Lyapunov drift certificate, the
one-sided small-alpha counterexample to maximum-principle propagation, the
discounted approximate corrector, and the measure-averaged Hamiltonian that
defines the limit problem.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .ergodicity import InvariantMeasure
from .errors import UsageError
from .jump_processes import FastProcessConfig, discount_weights, path_integral
from .levy_measures import (
    DEFAULT_KAPPA,
    DEFAULT_QUAD_TOL,
    LevyMeasureModel,
    default_outer_cut,
    tail_mass,
    truncated_moment,
)


@dataclass(frozen=True)
class GeneratorQuadrature:
    """Generator quadrature for one jump measure, cut at ``DEFAULT_KAPPA``, 1 and
    ``M = default_outer_cut(model)``, to relative tolerance ``DEFAULT_QUAD_TOL``."""

    model: LevyMeasureModel

    @property
    def M(self) -> float:
        return default_outer_cut(self.model)


def _fd_first(f, y, h):
    return (f(y + h) - f(y - h)) / (2.0 * h)


def _fd_second(f, y, h):
    return (f(y + h) - 2.0 * f(y) + f(y - h)) / (h * h)


def generator_apply(
    q: GeneratorQuadrature,
    f: Callable[[float], float],
    y: float,
    df: Optional[Callable[[float], float]] = None,
    d2f: Optional[Callable[[float], float]] = None,
    growth_order: float = 0.0,
    return_error: bool = False,
):
    """Apply the generator to ``f`` at ``y`` by split quadrature.

    ``df``/``d2f`` default to central finite differences.  ``growth_order``
    declares the polynomial order used to extrapolate ``f`` beyond the outer
    cut; it must stay below the model's stability index or the tail integral
    diverges.  With ``return_error`` the reported value comes with the summed
    quadrature error estimates plus the small-jump Taylor remainder bound.
    """
    model = q.model
    c, alpha = model.intensity, model.alpha
    if growth_order >= alpha:
        raise UsageError(
            f"tail growth order {growth_order} must be below alpha={alpha}"
        )
    if df is None:
        df = lambda v: _fd_first(f, v, 1e-6 * (1.0 + abs(v)))
    if d2f is None:
        d2f = lambda v: _fd_second(f, v, 1e-4 * (1.0 + abs(v)))

    if c == 0.0:
        val = -df(y) * y
        return (val, 0.0) if return_error else val

    fy = f(y)
    dfy = df(y)
    kappa, m_cut, tol = DEFAULT_KAPPA, q.M, DEFAULT_QUAD_TOL

    value = -dfy * y
    err = 0.0

    # |z| <= kappa: second-order Taylor, closed-form second moment; the
    # remainder is bounded by the third absolute moment times a third
    # derivative estimate.
    m2 = truncated_moment(model, 2, kappa)
    value += 0.5 * d2f(y) * m2
    m3_abs = c * kappa ** (3.0 - alpha) / (3.0 - alpha) * (2.0 if model.two_sided else 1.0)
    d3_est = abs(d2f(y + kappa) - d2f(y - kappa)) / (2.0 * kappa)
    err += m3_abs * d3_est / 6.0

    sides = (1.0, -1.0) if model.two_sided else (1.0,)
    side_mass = tail_mass(model, m_cut) / len(sides)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for s in sides:
            mid, e1 = integrate.quad(
                lambda z: (f(y + s * z) - fy - dfy * s * z) * c * z ** (-1.0 - alpha),
                kappa, 1.0, epsabs=1e-14, epsrel=tol, limit=200,
            )
            value += mid
            err += e1
            # far region on geometric doubling blocks: adaptive quadrature can
            # resolve oscillatory f locally, and the block count stays
            # logarithmic in M for the heavy monotone tails
            a = 1.0
            while a < m_cut:
                b = min(2.0 * a, m_cut)
                far, e2 = integrate.quad(
                    lambda z: (f(y + s * z) - fy) * c * z ** (-1.0 - alpha),
                    a, b, epsabs=1e-14, epsrel=tol, limit=200,
                )
                value += far
                err += e2
                a = b

            # beyond M: extrapolate f at the declared polynomial order
            f_edge = f(y + s * m_cut)
            if growth_order == 0.0:
                tail = (f_edge - fy) * side_mass
            else:
                amp = f_edge / m_cut**growth_order
                tail = (
                    amp * c * m_cut ** (growth_order - alpha) / (alpha - growth_order)
                    - fy * side_mass
                )
            value += tail

    if return_error:
        return value, err
    return value


def lyapunov_drift_check(
    q: GeneratorQuadrature,
    q_exp: float,
    R: float,
    y_samples: np.ndarray,
) -> tuple[float, bool]:
    """Drift certificate with the test function ``phi(y) = (1 + y^2)^(q/2)``.

    Returns the worst ratio ``(-I[y, phi]) / phi(y)`` over the samples and
    whether it is positive, i.e. whether the generator pushes ``phi`` down at
    a rate proportional to itself outside the ball of radius R.
    """
    alpha = q.model.alpha
    if not 0.0 < q_exp < alpha:
        raise UsageError(f"need 0 < q_exp < alpha={alpha}, got {q_exp}")
    y_samples = np.asarray(y_samples, dtype=float)
    if np.any(np.abs(y_samples) < R):
        raise UsageError("all samples must satisfy |y| >= R")

    half_q = q_exp / 2.0

    def phi(v):
        return (1.0 + v * v) ** half_q

    def dphi(v):
        return q_exp * v * (1.0 + v * v) ** (half_q - 1.0)

    def d2phi(v):
        base = (1.0 + v * v)
        return q_exp * base ** (half_q - 1.0) + q_exp * (q_exp - 2.0) * v * v * base ** (
            half_q - 2.0
        )

    worst = math.inf
    for y in y_samples:
        gen = generator_apply(q, phi, float(y), dphi, d2phi, growth_order=q_exp)
        worst = min(worst, -gen / phi(float(y)))
    return worst, worst > 0.0


@dataclass(frozen=True)
class CounterexampleProfile:
    """Bounded ramp that is flat right of ``-c`` and strictly increasing left of it.

    The junction is cubic-order smooth (f' ~ t^3 with t the distance into the
    ramp), the tail of f' decays like t^-3 so f is bounded, and all pieces have
    elementary antiderivatives:

        f'(y) = t^3 / (1 + t^2)^3,   t = -c - y > 0,
        f(y)  = -G(t),  G(t) = (1 - (1+t^2)^-1)/2 - (1 - (1+t^2)^-2)/4.
    """

    c: float

    def _t(self, y):
        return -self.c - y

    def f(self, y: float) -> float:
        t = self._t(y)
        if t <= 0.0:
            return 0.0
        s = 1.0 / (1.0 + t * t)
        return -(0.5 * (1.0 - s) - 0.25 * (1.0 - s * s))

    def df(self, y: float) -> float:
        t = self._t(y)
        if t <= 0.0:
            return 0.0
        return t**3 / (1.0 + t * t) ** 3

    def d2f(self, y: float) -> float:
        t = self._t(y)
        if t <= 0.0:
            return 0.0
        return -3.0 * t * t * (1.0 - t * t) / (1.0 + t * t) ** 4


def counterexample_profile(model: LevyMeasureModel) -> CounterexampleProfile:
    """Build the profile with plateau point ``-c``, ``c = int_0^1 z nu(dz)``."""
    if not model.subordinator:
        raise UsageError("the counterexample profile needs a subordinator-mode model")
    c = model.intensity / (1.0 - model.alpha)
    return CounterexampleProfile(c=c)


def subordinator_counterexample(
    q: GeneratorQuadrature,
    y_grid: Optional[np.ndarray] = None,
) -> float:
    """Max of ``-I[y, f]`` over the grid for the constructed classical subsolution.

    In exact arithmetic the value is nonpositive everywhere although f is not
    constant, so the maximum staying at numerical-noise level exhibits the
    failure of maximum-principle propagation to the left.
    """
    profile = counterexample_profile(q.model)
    if y_grid is None:
        y_grid = np.linspace(-10.0, 10.0, 401)
    worst = -math.inf
    for y in np.asarray(y_grid, dtype=float):
        gen = generator_apply(
            q, profile.f, float(y), profile.df, profile.d2f, growth_order=0.0
        )
        worst = max(worst, -gen)
    return worst


@dataclass(frozen=True)
class CorrectorQuery:
    """Discounted-corrector evaluation request at a frozen slow state.

    ``frozen_point`` is the (x, p, X) triple the Hamiltonian is frozen at; the
    corrector is computed on ``y_grid`` by Monte Carlo over fast paths with
    unit mean-reversion rate, horizon ``10 / delta``.
    """

    model: LevyMeasureModel
    frozen_point: tuple
    delta: float
    y_grid: np.ndarray
    mc_paths: int = 10_000
    seed: int = 0
    dt: Optional[float] = None

    def __post_init__(self):
        if self.delta <= 0.0:
            raise UsageError("delta must be positive")
        if self.mc_paths < 1000:
            raise UsageError("need at least 1000 Monte Carlo paths")


def approximate_corrector(
    cq: CorrectorQuery,
    H_eval: Callable,
    return_se: bool = False,
):
    """Monte Carlo approximate corrector ``chi(y) = -E int_0^inf H(Y^y(t)) e^{-dt t} dt``.

    One driven path batch serves the whole y-grid (``path_integral`` with
    ``starts``): the factor map is affine in its start point,
    ``Y^y(t) = y e^{-t} + Y^0(t)``, so the grid shares common random numbers
    exactly and the y-profile is smooth.
    The weights are the exact discount weights, integrating ``e^{-delta t}``
    over each step with the Hamiltonian held at the left endpoint.
    """
    x_bar, p_bar, big_x = cq.frozen_point
    cfg = FastProcessConfig(
        model=cq.model, lam=1.0, y0=0.0, horizon=10.0 / cq.delta, dt=cq.dt, seed=cq.seed
    )
    w = discount_weights(cq.delta, cfg.step, cfg.n_steps + 1)
    acc = path_integral(cfg, lambda y: H_eval(x_bar, y, p_bar, big_x), cq.mc_paths, w,
                        starts=np.asarray(cq.y_grid, dtype=float))[0]
    chi = -acc.mean(axis=1)
    if return_se:
        se = acc.std(axis=1, ddof=1) / math.sqrt(cq.mc_paths)
        return chi, se
    return chi


def effective_hamiltonian(
    mu: InvariantMeasure,
    H_eval: Callable,
    x,
    p,
    X,
) -> float:
    """Measure-weighted Hamiltonian ``sum_i w_i H(x, node_i, p, X)``.

    ``H_eval`` is called once on the node array, as :func:`approximate_corrector`
    calls it on each row of factor states.
    """
    return mu.mean_of(lambda y: H_eval(x, y, p, X))
