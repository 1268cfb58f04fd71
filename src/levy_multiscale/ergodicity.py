"""Invariant law of the fast factor: estimation, oracles, and averaging checks.

The factor started anywhere converges to a unique stationary law that does not
depend on the mean-reversion rate.  Its characteristic function is the
exponential of ``int_0^inf psi(u e^{-s}) ds`` with ``psi`` the driver's
Levy-Khintchine exponent; for the stable family the substitution makes the
integral exact, giving ``exp(psi_stable(u)/alpha + i u drift)`` (the drift term
is zero for symmetric models, so the oracle is ``exp(psi(u)/alpha)`` there).

The law is represented by quadrature nodes and weights rather than a density:
that is the only form the effective-Hamiltonian averaging needs, and stable
stationary laws have no elementary density anyway.  One rule places nodes:
:meth:`InvariantMeasure.coarsen`, equal-mass blocks at their conditional means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable

import numpy as np
from scipy import integrate

from .errors import UsageError
from .jump_processes import (FORGET_EFOLDS, FastProcessConfig, discount_horizon,
                             discount_weights, iter_fast_values, path_integral)
from .levy_measures import (
    LevyMeasureModel,
    compensator_drift,
    levy_exponent,
    stable_exponent_closed,
)

DEFAULT_NODES = 256
#: Factor paths run side by side by the long-run sampler.
STATIONARY_PATHS = 256


@dataclass(frozen=True)
class InvariantMeasure:
    """Quadrature representation (nodes + weights) of the stationary law."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise UsageError("nodes and weights must have equal length")
        if not (np.all(np.isfinite(self.nodes)) and np.all(np.isfinite(self.weights))):
            raise UsageError("nodes and weights must be finite")
        if np.any(np.diff(self.nodes) < 0.0):
            raise UsageError("nodes must be sorted ascending")
        if np.any(self.weights < 0.0):
            raise UsageError("weights must be nonnegative")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise UsageError("weights must sum to 1 within 1e-12")

    def mean_of(self, f: Callable) -> float:
        """mu-average of a function evaluated on the nodes."""
        return float(np.sum(self.weights * np.asarray(f(self.nodes), dtype=float)))

    def cf(self, u: float) -> complex:
        """Characteristic function of the quadrature measure."""
        return complex(np.sum(self.weights * np.exp(1j * u * self.nodes)))

    def coarsen(self, n_nodes: int) -> "InvariantMeasure":
        """The law on n = ``n_nodes`` equal-mass blocks, each at its conditional mean.

        Block k holds the mass between the levels k/n and (k+1)/n of the total;
        an atom straddling a level is split between its two blocks.  A mean is
        clipped to the atoms its block touches, so a block inside one atom is
        that atom exactly and rounding cannot unsort the nodes; equal means
        merge.  The first moment is kept; barring merges, coarsening to n then to
        m | n is coarsening to m.  At most n nodes are returned unchanged.
        """
        if isinstance(n_nodes, bool) or not isinstance(n_nodes, (int, np.integer)) or n_nodes < 1:
            raise UsageError(f"n_nodes must be an integer >= 1, got {n_nodes!r}")
        if len(self.nodes) <= n_nodes:
            return self
        mass = np.concatenate([[0.0], np.cumsum(self.weights)])
        moment = np.concatenate([[0.0], np.cumsum(self.weights * self.nodes)])
        levels = np.linspace(0.0, mass[-1], n_nodes + 1)
        means = np.diff(np.interp(levels, mass, moment)) / np.diff(levels)
        first = np.searchsorted(mass, levels[:-1], side="right") - 1
        last = np.searchsorted(mass, levels[1:], side="left") - 1
        means = np.clip(means, self.nodes[first], self.nodes[last])
        nodes, counts = np.unique(means, return_counts=True)
        return replace(self, nodes=nodes, weights=counts / n_nodes)


def two_atom_measure(y1: float, y2: float) -> InvariantMeasure:
    """Explicit two-atom test measure, half the mass at each atom, for hand-computable checks."""
    return InvariantMeasure(np.array(sorted([y1, y2]), dtype=float), np.array([0.5, 0.5]))


def measure_from_samples(samples: np.ndarray) -> InvariantMeasure:
    """The samples' empirical law, tied samples as one atom, coarsened to ``DEFAULT_NODES``."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise UsageError("need at least two samples")
    values, counts = np.unique(samples, return_counts=True)
    return InvariantMeasure(values, counts / samples.size).coarsen(DEFAULT_NODES)


def stationary_samples(
    cfg: FastProcessConfig,
    burn_in: float,
    n_samples: int,
) -> np.ndarray:
    """Pool weakly correlated stationary draws from ``STATIONARY_PATHS`` factor paths.

    The exact transition of :func:`iter_fast_values` lets the kernel step
    straight from one kept state to the next: it runs with its step set to
    the sampling stride ``2 / lam`` (two relaxation times), takes
    ``ceil(burn_in * lam / 2)`` steps of burn-in, then keeps one state per
    path and step until ``n_samples`` values are collected in total.
    ``cfg.dt`` and ``cfg.horizon`` play no part.
    """
    if not (math.isfinite(burn_in) and burn_in >= 5.0 / cfg.lam):
        raise UsageError(
            f"burn_in must be finite and cover at least five relaxation times "
            f"(>= {5.0 / cfg.lam:g}), got {burn_in}"
        )
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 1000):
        raise UsageError(f"need an integer of at least 1000 samples, got {n_samples!r}")

    stride = 2.0 / cfg.lam
    burn_steps = math.ceil(burn_in * cfg.lam / 2.0)
    per_path = math.ceil(n_samples / STATIONARY_PATHS)
    run_cfg = replace(cfg, horizon=stride * (burn_steps + per_path), dt=stride)
    kept = islice(iter_fast_values(run_cfg, STATIONARY_PATHS), burn_steps, burn_steps + per_path)
    return np.concatenate(list(kept))[:n_samples]


def estimate_invariant_measure(
    cfg: FastProcessConfig,
    burn_in: float,
    n_samples: int,
) -> InvariantMeasure:
    """Empirical stationary measure coarsened to ``DEFAULT_NODES`` equal-mass blocks."""
    return measure_from_samples(stationary_samples(cfg, burn_in, n_samples))


def stationary_cf_oracle(model: LevyMeasureModel, u: float) -> complex:
    """Closed-form stationary characteristic function for the stable family.

    ``exp(psi_stable(u)/alpha + i u drift)``; for symmetric models the drift
    vanishes and this is exactly ``exp(psi(u)/alpha)``.
    """
    if not math.isfinite(u):
        raise UsageError(f"frequency must be finite, got {u}")
    drift = compensator_drift(model)
    psi_stable = stable_exponent_closed(model, u) - 1j * u * drift
    return complex(np.exp(psi_stable / model.alpha + 1j * u * drift))


def stationary_cf_bruteforce(model: LevyMeasureModel, u: float) -> complex:
    """Independent route: numerical s-integration of the quadrature exponent.

    One call costs one :func:`levy_exponent` quadrature per s-node where
    ``|u| e^{-s}`` is at or above the exponent's floor 1e-2, and a closed-form
    continuation from the model's floor value (one quadrature per model) below it.
    """
    log_cf, _ = integrate.quad(lambda s: levy_exponent(model, u * math.exp(-s)), 0.0, 40.0,
                               epsabs=1e-9, limit=200, complex_func=True)
    return complex(np.exp(log_cf))


def ergodic_time_average(
    cfg: FastProcessConfig,
    f: Callable[[np.ndarray], np.ndarray],
    t: float,
    n_paths: int,
) -> float:
    """Monte Carlo estimate of ``(1/t) int_0^t E f(Y(s)) ds`` by the uniform left rule.

    Unit weights on the n = t / dt states before t, divided by n: constants are exact.
    ``replace(cfg, horizon=t)`` refuses a t that is not a whole number of steps.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise UsageError(f"t must be finite and positive, got {t}")
    run_cfg = replace(cfg, horizon=t)
    n = run_cfg.n_steps
    return float(path_integral(run_cfg, f, n_paths, np.ones(n))[0].mean()) / n


def abel_average(
    cfg: FastProcessConfig,
    f: Callable[[np.ndarray], np.ndarray],
    delta: float,
    n_paths: int,
) -> float:
    """Discount-weighted long-run average ``delta int_0^inf E f(Y(t)) e^{-delta t} dt``.

    Truncated at 10/delta (ten is :data:`~levy_multiscale.jump_processes.FORGET_EFOLDS`) in
    whole steps, ``discount_horizon(delta, dt)`` at an explicit dt and 10/delta at the
    default step, which divides it (truncation error about ``e^{-10} sup|f|``); the weights
    are the exact discount weights normalized to total mass one, so constants are
    reproduced exactly.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise UsageError(f"delta must be finite and positive, got {delta}")
    dt = cfg.dt
    run_cfg = replace(cfg, horizon=FORGET_EFOLDS / delta if dt is None
                      else discount_horizon(delta, dt))
    w = discount_weights(delta, run_cfg.step, run_cfg.n_steps + 1)
    return float(path_integral(run_cfg, f, n_paths, w / w.sum())[0].mean())
