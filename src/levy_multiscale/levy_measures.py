"""Parametric jump measures of the stable family and their integral functionals.

Two parametric families are supported: the symmetric power-law measure
``intensity * |z|^(-1-alpha) dz`` on the punctured line, and its one-sided
restriction to the positive half-line.  Every moment, tail and interval
functional reads one antiderivative, :func:`side_moment` (``int_a^b z^k nu(dz)``
on one side of the origin); the Levy-Khintchine exponent also has an adaptive
quadrature, an independent route against the analytic stable exponent.

The paper's standing conditions (A1)-(A3) on the jump measure hold for every model
here but the one-sided alpha < 1 subordinator (:func:`require_assumptions`).
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .errors import (AssumptionError, NumericalError, UsageError, require_count, require_finite,
                     require_nonnegative, require_positive)

INFINITE = math.inf

#: Taylor split point for the singular small-jump region of quadratures.
DEFAULT_KAPPA = 1e-3
#: Relative tolerance requested from adaptive quadrature.
DEFAULT_QUAD_TOL = 1e-10
#: Relative jump mass allowed beyond the outer truncation.
TAIL_MASS_REL = 1e-8


class Family(enum.Enum):
    SYMMETRIC_STABLE = "symmetric-stable"
    ONE_SIDED_STABLE = "one-sided-stable"


@dataclass(frozen=True)
class LevyMeasureModel:
    """Stable-family jump measure with density ``intensity * |z|^(-1-alpha)``.

    ``alpha`` must lie in (0, 2) and ``intensity`` must be finite and nonnegative.
    Zero intensity is the degenerate "null driver" used by deterministic tests:
    the general formulas give it vanishing functionals and zero increments,
    and only the tail moment, infinite by its formula, treats it apart.

    A one-sided model needs ``alpha != 1``, where its drift diverges.  With
    ``alpha in (1, 2)`` it drives the factor; with ``alpha in (0, 1)`` its jump
    part never decreases, so it is a :attr:`subordinator`, the counterexample's
    model, which every factor route refuses (:func:`require_assumptions`).
    """

    family: Family
    alpha: float
    intensity: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise UsageError(f"alpha must be in (0, 2), got {self.alpha}")
        require_nonnegative("intensity", self.intensity)
        if not self.two_sided and self.alpha == 1.0:
            raise UsageError("a one-sided model needs alpha != 1, where its drift diverges")

    @property
    def two_sided(self) -> bool:
        return self.family is Family.SYMMETRIC_STABLE

    @property
    def sides(self) -> float:
        return 2.0 if self.two_sided else 1.0

    @property
    def skew(self) -> float:
        """``beta tan(pi alpha / 2)`` of the stable exponent, with beta = 0 or 1 (one-sided)."""
        return 0.0 if self.two_sided else math.tan(math.pi * self.alpha / 2.0)

    @property
    def subordinator(self) -> bool:
        """One-sided with ``alpha < 1``: the one model outside the standing conditions."""
        return not self.two_sided and self.alpha < 1.0


def density_eval(model: LevyMeasureModel, z: float) -> float:
    """Jump density ``intensity * |z|^(-1-alpha)`` at z, or 0 outside the support."""
    if z == 0.0:
        raise UsageError("the jump measure has no mass at the origin")
    if z < 0.0 and not model.two_sided:
        return 0.0
    return model.intensity * abs(z) ** (-1.0 - model.alpha)


def side_moment(model: LevyMeasureModel, k: float, a: float, b: float = INFINITE) -> float:
    """``int_a^b z^k nu(dz)`` on one half-line, 0 <= a < b <= inf (a > 0 if k <= alpha).

    ``intensity (b^e - a^e) / e`` with ``e = k - alpha`` (as ``a^e expm1(e log(b / a))``
    for 0 < a, b < inf, where the difference cancels), or ``intensity log(b / a)`` when
    ``|e| < 1e-12``: INFINITE where the integral diverges at ``b = inf``.
    """
    e = k - model.alpha
    if abs(e) < 1e-12:
        return model.intensity * math.log(b / a)
    if 0.0 < a and b < INFINITE:
        return model.intensity * a**e * math.expm1(e * math.log(b / a)) / e
    return model.intensity * (b**e - a**e) / e


def small_jump_variance(model: LevyMeasureModel, delta: float) -> float:
    """``int_{|z| <= delta} z^2 nu(dz)`` for delta in (0, 1]."""
    if not 0.0 < delta <= 1.0:
        raise UsageError(f"delta must be in (0, 1], got {delta}")
    return truncated_moment(model, 2, delta)


def tail_moment(model: LevyMeasureModel, q: float) -> float:
    """``int_{|z| > 1} |z|^q nu(dz)``; INFINITE when q >= alpha."""
    require_positive("q", q)
    if model.intensity == 0.0:
        return 0.0  # the formula would give 0 * inf
    return model.sides * side_moment(model, q, 1.0)


def tail_mass(model: LevyMeasureModel, m: float) -> float:
    """``nu(|z| > m)`` for m > 0."""
    require_positive("m", m)
    return model.sides * side_moment(model, 0, m)


def default_outer_cut(model: LevyMeasureModel) -> float:
    """Truncation point M with ``nu(|z| > M) / nu(|z| > 1) < 1e-8``."""
    return TAIL_MASS_REL ** (-1.0 / model.alpha)


def truncated_moment(model: LevyMeasureModel, k: int, kappa: float) -> float:
    """``int_{|z| <= kappa} z^k nu(dz)`` for k >= 2 (signed: 0 for odd k on the symmetric model)."""
    require_count("k", k, 2)
    require_positive("kappa", kappa)
    if model.two_sided and k % 2 == 1:
        return 0.0
    return model.sides * side_moment(model, k, 0.0, kappa)


def _interval_moment(model: LevyMeasureModel, k: int, a: float, b: float) -> float:
    """``int_[a,b] z^k nu(dz)`` for 0 < a < b or a < b < 0, reflected onto z > 0."""
    if not (0.0 < a < b or a < b < 0.0):
        raise UsageError(f"interval [{a}, {b}] must not straddle or touch the origin")
    if b > 0.0:
        return side_moment(model, k, a, b)
    return (-1.0) ** k * side_moment(model, k, -b, -a) if model.two_sided else 0.0


def interval_mass(model: LevyMeasureModel, a: float, b: float) -> float:
    """``nu([a, b])`` for an interval with 0 < a < b or a < b < 0."""
    return _interval_moment(model, 0, a, b)


def interval_first_moment(model: LevyMeasureModel, a: float, b: float) -> float:
    """``int_[a,b] z nu(dz)`` for an interval not straddling the origin (signed)."""
    return _interval_moment(model, 1, a, b)


def stable_scale_exponent(model: LevyMeasureModel) -> float:
    """Coefficient ``sigma^alpha`` of the stable part of the exponent.

    The exponent decomposes as
    ``psi(u) = -sigma^alpha |u|^alpha (1 - i beta sgn(u) tan(pi alpha/2)) + i u drift``
    with ``beta = 0`` (symmetric) or ``beta = 1`` (one-sided).  Each side gives intensity
    times ``int_0^inf (1-cos t) t^(-1-alpha) dt = -Gamma(-alpha) cos(pi alpha/2)``, pi/2 at 1.
    """
    a = model.alpha
    side = (math.pi / 2.0 if abs(a - 1.0) < 1e-12
            else float(-gamma_fn(-a) * math.cos(math.pi * a / 2.0)))
    return model.sides * model.intensity * side


def compensator_drift(model: LevyMeasureModel) -> float:
    """Linear drift left over after compensating only jumps with ``|z| <= 1``.

    Zero for symmetric models; ``intensity / (alpha - 1)`` for one-sided ones: the
    tail mean if alpha > 1, minus the small-jump mean for a subordinator (alpha < 1).
    """
    if model.two_sided:
        return 0.0
    return model.intensity / (model.alpha - 1.0)


def stable_exponent_closed(model: LevyMeasureModel, u: float) -> complex:
    """Analytic Levy-Khintchine exponent of the stable family.

    This is the closed-form counterpart of :func:`levy_exponent`; the two are
    checked against each other in the test suite.
    """
    core = -stable_scale_exponent(model) * abs(u) ** model.alpha * complex(
        1.0, -math.copysign(1, u) * model.skew)
    return core + 1j * u * compensator_drift(model)


#: Below this frequency the oscillatory tail integral cancels against the tail
#: mass at working precision, so the exponent is continued by self-similarity.
_U_SCALING_FLOOR = 1e-2


def levy_exponent(model: LevyMeasureModel, u: float) -> complex:
    """Levy-Khintchine exponent ``int (e^{iuz} - 1 - iuz 1_{|z|<=1}) nu(dz)``.

    Adaptive quadrature to relative tolerance ``DEFAULT_QUAD_TOL`` with a
    Taylor series for the singular region ``|z| <= DEFAULT_KAPPA`` (the
    compensated integrand there is an entire function of ``u z``, so eight
    series terms are far below the tolerance).  Only the side z > 0 is
    integrated; a symmetric model doubles its real part and returns a real
    value.  Frequencies below 1e-2 are continued from the quadrature value at
    the floor via the family's exact ``|u|^alpha`` scaling of the drift-free
    part, avoiding catastrophic cancellation in the tail.  That floor
    quadrature runs once per model and its value is reused; a
    ``NumericalError`` there is not cached, so it is raised again on every call.

    Raises
    ------
    UsageError
        If the frequency is not finite.
    NumericalError
        If the quadrature error estimate exceeds the tolerance relative to the result.
    """
    require_finite("u", u)
    if u < 0.0:
        return levy_exponent(model, -u).conjugate()
    if u < _U_SCALING_FLOOR:
        drift = compensator_drift(model)
        stable_part = _floor_exponent(model) - 1j * _U_SCALING_FLOOR * drift
        return stable_part * (u / _U_SCALING_FLOOR) ** model.alpha + 1j * u * drift

    c, a = model.intensity, model.alpha
    kappa, tol = DEFAULT_KAPPA, DEFAULT_QUAD_TOL

    # |z| <= kappa: sum_{k>=2} (iu)^k/k! * int z^k nu(dz), closed-form moments.
    taylor = 0.0 + 0.0j
    for k in range(2, 10):
        mk = truncated_moment(model, k, kappa)
        if mk != 0.0:
            taylor += (1j * u) ** k / math.factorial(k) * mk

    # kappa < z: the side z < 0 of a symmetric model is the complex conjugate of
    # this side, so it doubles the real part and cancels the imaginary one
    dens = lambda z: c * z ** (-1.0 - a)
    with warnings.catch_warnings():
        # the post-hoc error check below governs acceptance, not QUADPACK's
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re_mid, e1 = integrate.quad(lambda z: (math.cos(u * z) - 1.0) * dens(z),
                                    kappa, 1.0, epsabs=1e-14, epsrel=tol, limit=200)
        # z > 1: oscillatory quadrature of the density against cos and sin
        cos_tail, e3 = integrate.quad(dens, 1.0, np.inf, weight="cos", wvar=u,
                                      epsabs=1e-12, limit=200)
        real = re_mid + cos_tail - side_moment(model, 0, 1.0)
        if model.two_sided:
            value, total_err = taylor + 2.0 * real, 2.0 * (e1 + e3)
        else:
            im_mid, e2 = integrate.quad(lambda z: (math.sin(u * z) - u * z) * dens(z),
                                        kappa, 1.0, epsabs=1e-14, epsrel=tol, limit=200)
            sin_tail, e4 = integrate.quad(dens, 1.0, np.inf, weight="sin", wvar=u,
                                          epsabs=1e-12, limit=200)
            value, total_err = taylor + complex(real, im_mid + sin_tail), e1 + e2 + e3 + e4

    if abs(value) > 0.0 and total_err > 100.0 * tol * abs(value) + 1e-11:
        raise NumericalError(
            f"levy exponent quadrature did not reach tolerance {tol}",
            partial=value, achieved_tol=total_err / abs(value))
    return value


@functools.cache
def _floor_exponent(model: LevyMeasureModel) -> complex:
    """``levy_exponent(model, _U_SCALING_FLOOR)``, computed once per model for the continuation."""
    return levy_exponent(model, _U_SCALING_FLOOR)


def require_assumptions(model: LevyMeasureModel) -> None:
    """Raise :class:`AssumptionError` if the model is a subordinator.

    For the stable family this one test covers (A1)-(A3): the small-jump variance
    is exactly ``C delta^(2 - alpha)`` with C = ``small_jump_variance(1)``, so (A1)
    holds with p = alpha; (A3) holds for any q < alpha; (A2) holds by covering
    support (symmetric) or p > 1, so it fails exactly for a subordinator.  The
    null driver passes: (A1) degenerates to C = 0, and its factor is deterministic.
    """
    if model.subordinator:
        raise AssumptionError("the ergodicity and convergence theory needs covering support or "
                              f"alpha > 1; the one-sided model at alpha={model.alpha} has neither")
