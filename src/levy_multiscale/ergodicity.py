"""Invariant law of the fast factor: estimation, oracles, and averaging checks.

The factor started anywhere converges to a unique stationary law that does not
depend on the mean-reversion rate.  Its characteristic function is the
exponential of ``int_0^inf psi(u e^{-s}) ds`` with ``psi`` the driver's
Levy-Khintchine exponent; for the stable family the substitution makes the
integral exact, giving ``exp(psi_stable(u)/alpha + i u drift)`` (the drift term
is zero for symmetric models, so the oracle is ``exp(psi(u)/alpha)`` there).

The law is represented by quadrature nodes and weights rather than a density:
that is the only form the effective-Hamiltonian averaging needs, and stable
stationary laws have no elementary density anyway.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .errors import AssumptionError, UsageError
from .jump_processes import FastProcessConfig, iter_fast_values
from .levy_measures import (
    LevyMeasureModel,
    compensator_drift,
    levy_exponent,
    stable_exponent_closed,
)

DEFAULT_NODES = 256
#: Empirical mass clipped into the extreme nodes (heavy tails).
CLIP_QUANTILES = (0.001, 0.999)


class MeasureProvenance(enum.Enum):
    EMPIRICAL_LONG_RUN = "empirical-long-run"
    EXPLICIT_TWO_ATOM_TEST = "explicit-two-atom-test"


@dataclass(frozen=True)
class InvariantMeasure:
    """Quadrature representation (nodes + weights) of the stationary law."""

    nodes: np.ndarray
    weights: np.ndarray
    provenance: MeasureProvenance
    sample_count: int

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise UsageError("nodes and weights must have equal length")
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


def two_atom_measure(y1: float, y2: float, w1: float = 0.5) -> InvariantMeasure:
    """Explicit two-atom test measure used by hand-computable checks."""
    if not 0.0 < w1 < 1.0:
        raise UsageError("w1 must be in (0, 1)")
    nodes = np.array(sorted([y1, y2]), dtype=float)
    weights = np.array([w1, 1.0 - w1]) if y1 <= y2 else np.array([1.0 - w1, w1])
    return InvariantMeasure(nodes, weights, MeasureProvenance.EXPLICIT_TWO_ATOM_TEST, 2)


def measure_from_samples(samples: np.ndarray, n_nodes: int = DEFAULT_NODES) -> InvariantMeasure:
    """Collapse raw samples onto a quantile-based node grid.

    Nodes sit at equally spaced quantiles between the clip levels; mass outside
    the clip range is reassigned to the extreme nodes.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise UsageError("need at least two samples")
    qs = np.linspace(CLIP_QUANTILES[0], CLIP_QUANTILES[1], n_nodes)
    nodes = np.quantile(samples, qs)
    nodes = np.unique(nodes)
    if nodes.size == 1:
        return InvariantMeasure(
            nodes, np.array([1.0]), MeasureProvenance.EMPIRICAL_LONG_RUN, samples.size
        )
    edges = 0.5 * (nodes[1:] + nodes[:-1])
    counts = np.bincount(np.searchsorted(edges, samples), minlength=nodes.size)
    weights = counts / counts.sum()
    return InvariantMeasure(nodes, weights, MeasureProvenance.EMPIRICAL_LONG_RUN, samples.size)


def stationary_samples(
    cfg: FastProcessConfig,
    burn_in: float,
    n_samples: int,
    n_paths: int = 256,
) -> np.ndarray:
    """Pool weakly correlated stationary draws from a batch of factor paths.

    After ``burn_in`` each path is sampled at stride ``2 / lam`` (two
    relaxation times) until ``n_samples`` values are collected in total.
    """
    if cfg.model.subordinator:
        raise AssumptionError(
            "subordinator-mode drivers are outside the ergodicity theory"
        )
    if burn_in < 5.0 / cfg.lam:
        raise UsageError(
            f"burn_in must cover at least five relaxation times (>= {5.0 / cfg.lam:g})"
        )
    if n_samples < 1000:
        raise UsageError("need at least 1000 samples")

    if cfg.model.intensity == 0.0:
        # degenerate driver: the law collapses onto the decayed start point
        return np.full(n_samples, cfg.y0 * math.exp(-cfg.lam * burn_in))

    stride = 2.0 / cfg.lam
    per_path = math.ceil(n_samples / n_paths)
    horizon = burn_in + stride * per_path
    run_cfg = replace(cfg, horizon=horizon)
    dt = run_cfg.step
    burn_steps = int(round(burn_in / dt))
    stride_steps = max(1, int(round(stride / dt)))

    chunks = []
    for k, y in enumerate(iter_fast_values(run_cfg, n_paths)):
        if k >= burn_steps and (k - burn_steps) % stride_steps == 0:
            chunks.append(y.copy())
            if len(chunks) >= per_path:
                break
    return np.concatenate(chunks)[:n_samples]


def estimate_invariant_measure(
    cfg: FastProcessConfig,
    burn_in: float,
    n_samples: int,
    n_nodes: int = DEFAULT_NODES,
    n_paths: int = 256,
) -> InvariantMeasure:
    """Empirical stationary measure collapsed onto a quantile node grid."""
    samples = stationary_samples(cfg, burn_in, n_samples, n_paths)
    return measure_from_samples(samples, n_nodes)


def stationary_cf_oracle(model: LevyMeasureModel, u: float) -> complex:
    """Closed-form stationary characteristic function for the stable family.

    ``exp(psi_stable(u)/alpha + i u drift)``; for symmetric models the drift
    vanishes and this is exactly ``exp(psi(u)/alpha)``.
    """
    if u == 0.0:
        return 1.0 + 0.0j
    drift = compensator_drift(model)
    psi_stable = stable_exponent_closed(model, u) - 1j * u * drift
    return complex(np.exp(psi_stable / model.alpha + 1j * u * drift))


def stationary_cf_bruteforce(model: LevyMeasureModel, u: float, tol: float = 1e-9) -> complex:
    """Independent route: numerical s-integration of the quadrature exponent."""
    if u == 0.0:
        return 1.0 + 0.0j
    re, _ = integrate.quad(
        lambda s: levy_exponent(model, u * math.exp(-s)).real, 0.0, 40.0,
        epsabs=tol, limit=200)
    im, _ = integrate.quad(
        lambda s: levy_exponent(model, u * math.exp(-s)).imag, 0.0, 40.0,
        epsabs=tol, limit=200)
    return complex(np.exp(complex(re, im)))


def ergodic_time_average(
    cfg: FastProcessConfig,
    f: Callable[[np.ndarray], np.ndarray],
    t: float,
    n_paths: int,
) -> float:
    """Monte Carlo estimate of ``(1/t) int_0^t E f(Y(s)) ds``."""
    if t <= 0.0:
        raise UsageError("t must be positive")
    run_cfg = replace(cfg, horizon=t)
    total = 0.0
    count = 0
    for y in iter_fast_values(run_cfg, n_paths):
        total += float(np.mean(f(y)))
        count += 1
    # the final yield sits at time t; drop it to keep a left-rule average
    last = float(np.mean(f(y)))
    return (total - last) / (count - 1)


def abel_average(
    cfg: FastProcessConfig,
    f: Callable[[np.ndarray], np.ndarray],
    delta: float,
    n_paths: int,
) -> float:
    """Discount-weighted long-run average ``delta int_0^inf E f(Y(t)) e^{-delta t} dt``.

    Truncated at horizon ``10/delta`` (truncation error at most
    ``e^{-10} sup|f|``); the per-step weights integrate the discount exactly
    over each step and are normalized to total mass one, so constants are
    reproduced exactly.
    """
    if delta <= 0.0:
        raise UsageError("delta must be positive")
    horizon = 10.0 / delta
    run_cfg = replace(cfg, horizon=horizon)
    dt = run_cfg.step
    acc = 0.0
    mass = 0.0
    for k, y in enumerate(iter_fast_values(run_cfg, n_paths)):
        w = math.exp(-delta * k * dt) * (1.0 - math.exp(-delta * dt))
        acc += w * float(np.mean(f(y)))
        mass += w
    return acc / mass
