"""The integro-differential generator of the fast factor and its averaging limits.

The operator acts on smooth functions as

    I[y, f] = -f'(y) y + int ( f(y+z) - f(y) - f'(y) z 1_{|z|<=1} ) nu(dz),

integrated over the support of the jump measure.  As in the grid matrix
(``hjb_solvers``), the compensator of the jumps in [kappa, 1] is a drift:
``-f'(y) comp``, ``comp = int_kappa^1 z nu(dz)``, 0 on the symmetric model.
Quadrature splits the rest at ``kappa`` (second-order Taylor below it, with
closed-form truncated moments) and at ``M = default_outer_cut`` (relative tail
mass 1e-8; beyond it f grows like ``|z|^g`` at the declared order g, so the
tail is ``side_moment(g, M)``), with one plain integrand ``f(y+z) - f(y)`` between.

On top of the operator the module provides the Lyapunov drift certificate, the
one-sided small-alpha counterexample to maximum-principle propagation, the
discounted approximate corrector, and the measure-averaged Hamiltonian that
defines the limit problem.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .ergodicity import InvariantMeasure
from .errors import UsageError
from .jump_processes import FastProcessConfig, discount_horizon, discount_weights, path_integral
from .levy_measures import (
    DEFAULT_KAPPA,
    DEFAULT_QUAD_TOL,
    LevyMeasureModel,
    default_outer_cut,
    side_moment,
    truncated_moment,
)


@dataclass(frozen=True)
class GeneratorQuadrature:
    """Generator quadrature for one jump measure, cut at ``DEFAULT_KAPPA`` and
    ``default_outer_cut(model)``, to relative tolerance ``DEFAULT_QUAD_TOL``."""

    model: LevyMeasureModel


def generator_apply(
    q: GeneratorQuadrature,
    f: Callable[[float], float],
    y: float,
    df: Callable[[float], float],
    d2f: Callable[[float], float],
    growth_order: float = 0.0,
    return_error: bool = False,
):
    """Apply the generator to ``f`` at the finite point ``y`` by split quadrature.

    ``df``/``d2f`` are the first and second derivatives of ``f``.  One plain
    integrand runs over the blocks [kappa, 1], [1, 2], ..., [2^k, M]; beyond M,
    ``f(y + s z)`` is extrapolated as ``f(y + s M) (z / M)^g`` at the declared
    ``growth_order`` g in [0, alpha), so each side's tail is ``side_moment(g, M)``
    times that amplitude.  With ``return_error`` the reported value comes with
    the summed quadrature error estimates plus the small-jump Taylor remainder bound.
    """
    model = q.model
    c, alpha = model.intensity, model.alpha
    if not 0.0 <= growth_order < alpha:
        raise UsageError(f"tail growth order {growth_order} must lie in [0, alpha={alpha})")
    if not math.isfinite(y):
        raise UsageError(f"evaluation point must be finite, got {y}")

    fy = f(y)
    dfy = df(y)
    kappa, m_cut, tol = DEFAULT_KAPPA, default_outer_cut(model), DEFAULT_QUAD_TOL

    comp = 0.0 if model.two_sided else side_moment(model, 1, kappa, 1.0)
    value = -dfy * (y + comp)
    err = 0.0

    # |z| <= kappa: second-order Taylor, closed-form second moment; the
    # remainder is bounded by the third absolute moment times a third
    # derivative estimate.
    value += 0.5 * d2f(y) * truncated_moment(model, 2, kappa)
    m3_abs = model.sides * side_moment(model, 3, 0.0, kappa)
    d3_est = abs(d2f(y + kappa) - d2f(y - kappa)) / (2.0 * kappa)
    err += m3_abs * d3_est / 6.0

    side_mass, far_moment = side_moment(model, 0, m_cut), side_moment(model, growth_order, m_cut)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for s in (1.0, -1.0) if model.two_sided else (1.0,):
            # geometric doubling blocks past 1: adaptive quadrature can resolve
            # oscillatory f locally, and the block count stays logarithmic in M
            # for the heavy monotone tails
            a, b = kappa, 1.0
            while a < m_cut:
                block, e = integrate.quad(
                    lambda z: (f(y + s * z) - fy) * c * z ** (-1.0 - alpha),
                    a, b, epsabs=1e-14, epsrel=tol, limit=200,
                )
                value += block
                err += e
                a, b = b, min(2.0 * b, m_cut)

            # beyond M: extrapolate f at the declared polynomial order
            amp = f(y + s * m_cut) / m_cut**growth_order
            value += amp * far_moment - fy * side_mass

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
    if not 0.0 <= R < math.inf:
        raise UsageError(f"radius R must be finite and nonnegative, got {R}")
    y_samples = np.asarray(y_samples, dtype=float)
    if y_samples.size == 0 or np.any(np.abs(y_samples) < R):
        raise UsageError(f"need one or more samples, all with |y| >= R = {R}")

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
        return max(-self.c - y, 0.0)

    def f(self, y: float) -> float:
        t = self._t(y)
        s = 1.0 / (1.0 + t * t)
        return -(0.5 * (1.0 - s) - 0.25 * (1.0 - s * s))

    def df(self, y: float) -> float:
        t = self._t(y)
        return t**3 / (1.0 + t * t) ** 3

    def d2f(self, y: float) -> float:
        t = self._t(y)
        return -3.0 * t * t * (1.0 - t * t) / (1.0 + t * t) ** 4


def counterexample_profile(model: LevyMeasureModel) -> CounterexampleProfile:
    """Build the profile with plateau point ``-c``, ``c = int_0^1 z nu(dz)``."""
    if not model.subordinator:
        raise UsageError("the counterexample profile needs a subordinator (one-sided, alpha < 1)")
    return CounterexampleProfile(c=side_moment(model, 1, 0.0, 1.0))


def subordinator_counterexample(q: GeneratorQuadrature) -> float:
    """Max of ``-I[y, f]`` over ``linspace(-10, 10, 401)`` for the classical subsolution.

    In exact arithmetic the value is nonpositive everywhere although f is not
    constant, so the maximum staying at numerical-noise level exhibits the
    failure of maximum-principle propagation to the left.
    """
    profile = counterexample_profile(q.model)
    worst = -math.inf
    for y in np.linspace(-10.0, 10.0, 401):
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
    unit mean-reversion rate, horizon ``discount_horizon(delta, dt)``, 10/delta in whole
    steps.  The discount weights hold H at each step's left endpoint, a relative bias
    of about ``delta dt / 2``, so the caller chooses the step ``dt`` against delta.
    """

    model: LevyMeasureModel
    frozen_point: tuple
    delta: float
    y_grid: np.ndarray
    dt: float
    mc_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise UsageError(f"delta must be finite and positive, got {self.delta}")
        if not (isinstance(self.mc_paths, (int, np.integer)) and self.mc_paths >= 1000):
            raise UsageError(f"need an integer >= 1000 of Monte Carlo paths, got {self.mc_paths!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise UsageError(f"the corrector needs a finite positive step dt, got {self.dt}")
        self._run_config()  # refuses a truncation under two steps and a bad seed
        if not (np.shape(self.frozen_point) == (3,) and np.all(np.isfinite(self.frozen_point))):
            raise UsageError(f"frozen_point must be a finite (x, p, X) triple, "
                             f"got {self.frozen_point!r}")
        y_grid = np.asarray(self.y_grid, dtype=float)
        if not (y_grid.ndim == 1 and y_grid.size >= 1 and np.all(np.isfinite(y_grid))):
            raise UsageError(f"y_grid must be a nonempty 1-D array of finite points, "
                             f"got {self.y_grid!r}")

    def _run_config(self) -> FastProcessConfig:
        """The driven run: unit rate from 0 over ``discount_horizon(delta, dt)``."""
        return FastProcessConfig(model=self.model, lam=1.0, y0=0.0,
                                 horizon=discount_horizon(self.delta, self.dt), dt=self.dt,
                                 seed=self.seed)


def approximate_corrector(
    cq: CorrectorQuery,
    H_eval: Callable,
    return_se: bool = False,
):
    """Monte Carlo approximate corrector ``chi(y) = -E int_0^inf H(Y^y(t)) e^{-dt t} dt``.

    One driven path batch serves the whole y-grid (``path_integral`` with
    ``starts``): the factor map is affine in its start point,
    ``Y^y(t) = y e^{-t} + Y^0(t)``, so the grid shares common random numbers
    and the y-profile is smooth.  Each start is followed for its first ten
    e-folds, t < 10 (k* = 10 / dt steps); after that every start reads the
    shared state and H is called once per state, not once per start.  That
    moves chi(y) by at most ``L |y| sum_{k >= k*} w_k e^{-t_k}``, about
    ``L |y| e^{-10 (1 + delta)} / (1 + delta)``, for an H with Lipschitz
    constant L in y.
    The weights are the exact discount weights, integrating ``e^{-delta t}``
    over each step with the Hamiltonian held at the left endpoint.
    """
    x_bar, p_bar, big_x = cq.frozen_point
    cfg = cq._run_config()
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
