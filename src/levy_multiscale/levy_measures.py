"""Parametric jump measures of the stable family and their integral functionals.

Two parametric families are supported: the symmetric power-law measure
``intensity * |z|^(-1-alpha) dz`` on the punctured line, and its one-sided
restriction to the positive half-line.  All moment-type functionals of these
measures have closed-form antiderivatives, which the module prefers; the
Levy-Khintchine exponent additionally has an adaptive-quadrature evaluation
used as an independent route against the analytic stable exponent.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .errors import AssumptionError, NumericalError, UsageError

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


class A2Reason(enum.Enum):
    P_GT_1 = "P_GT_1"
    SUPPORT_COVERS = "SUPPORT_COVERS"
    NONE = "NONE"


def _cos_gamma_constant(alpha: float) -> float:
    """Value of the one-sided cosine moment ``int_0^inf (1-cos t) t^(-1-alpha) dt``.

    Equals ``-Gamma(-alpha) * cos(pi*alpha/2)`` with the removable singularity
    ``pi/2`` at ``alpha = 1``.
    """
    if abs(alpha - 1.0) < 1e-12:
        return math.pi / 2.0
    return float(-gamma_fn(-alpha) * math.cos(math.pi * alpha / 2.0))


@dataclass(frozen=True)
class LevyMeasureModel:
    """Stable-family jump measure with density ``intensity * |z|^(-1-alpha)``.

    ``alpha`` must lie in (0, 2) and ``intensity`` must be finite and nonnegative;
    ``intensity == 0`` is the degenerate "null driver" used by deterministic
    tests (all functionals vanish, the increment sampler returns zeros).

    A one-sided model driving the mean-reverting factor requires
    ``alpha in (1, 2)``.  One-sided models with ``alpha in (0, 1)`` have
    finite-variation, non-decreasing jump parts; they are only accepted in
    counterexample mode, flagged with ``subordinator=True``.
    """

    family: Family
    alpha: float
    intensity: float = 1.0
    subordinator: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise UsageError(f"alpha must be in (0, 2), got {self.alpha}")
        if not (math.isfinite(self.intensity) and self.intensity >= 0.0):
            raise UsageError(f"intensity must be finite and nonnegative, got {self.intensity}")
        if self.family is Family.ONE_SIDED_STABLE:
            if self.subordinator and not self.alpha < 1.0:
                raise UsageError(
                    "subordinator mode requires one-sided alpha in (0, 1), "
                    f"got alpha={self.alpha}"
                )
            if not self.subordinator and not self.alpha > 1.0:
                raise UsageError(
                    "one-sided driver requires alpha in (1, 2); alpha in (0, 1] "
                    "is only available with subordinator=True"
                )
        elif self.subordinator:
            raise UsageError("symmetric models are never subordinators")

    @property
    def two_sided(self) -> bool:
        return self.family is Family.SYMMETRIC_STABLE

    def in_support(self, z: float) -> bool:
        if z == 0.0:
            return False
        return self.two_sided or z > 0.0


@dataclass(frozen=True)
class AssumptionReport:
    """Witnesses for the three standing conditions on the jump measure.

    ``p_witness``/``C_witness`` certify the small-jump singularity lower bound
    ``small_jump_variance(delta) >= C * delta^(2 - p)`` on ``delta in (0, 1]``;
    ``q_witness`` certifies a finite tail moment.  ``a2_reason`` explains why
    the support/variation condition holds (or does not).
    """

    p_witness: float
    C_witness: float
    q_witness: float
    a2_satisfied: bool
    a2_reason: A2Reason
    is_subordinator: bool


def density_eval(model: LevyMeasureModel, z: float) -> float:
    """Jump density ``intensity * |z|^(-1-alpha)`` at z, or 0 outside the support."""
    if z == 0.0:
        raise UsageError("the jump measure has no mass at the origin")
    if not model.in_support(z):
        return 0.0
    return model.intensity * abs(z) ** (-1.0 - model.alpha)


def small_jump_variance(model: LevyMeasureModel, delta: float) -> float:
    """``int_{|z| <= delta} z^2 nu(dz)`` by closed-form antiderivative."""
    if not 0.0 < delta <= 1.0:
        raise UsageError(f"delta must be in (0, 1], got {delta}")
    sides = 2.0 if model.two_sided else 1.0
    return sides * model.intensity * delta ** (2.0 - model.alpha) / (2.0 - model.alpha)


def tail_moment(model: LevyMeasureModel, q: float) -> float:
    """``int_{|z| > 1} |z|^q nu(dz)``; returns the INFINITE marker when q >= alpha."""
    if q <= 0.0:
        raise UsageError(f"q must be positive, got {q}")
    if model.intensity == 0.0:
        return 0.0
    if q >= model.alpha:
        return INFINITE
    sides = 2.0 if model.two_sided else 1.0
    return sides * model.intensity / (model.alpha - q)


def tail_mass(model: LevyMeasureModel, m: float) -> float:
    """``nu(|z| > m)`` for m > 0."""
    if m <= 0.0:
        raise UsageError(f"m must be positive, got {m}")
    sides = 2.0 if model.two_sided else 1.0
    return sides * model.intensity * m ** (-model.alpha) / model.alpha


def default_outer_cut(model: LevyMeasureModel) -> float:
    """Truncation point M with ``nu(|z| > M) / nu(|z| > 1) < 1e-8``."""
    return TAIL_MASS_REL ** (-1.0 / model.alpha)


def truncated_moment(model: LevyMeasureModel, k: int, kappa: float) -> float:
    """``int_{|z| <= kappa} z^k nu(dz)`` for k >= 2 (signed, closed form)."""
    if k < 2:
        raise UsageError("truncated moments are only defined for k >= 2 here")
    c = model.intensity
    a = model.alpha
    if model.two_sided:
        if k % 2 == 1:
            return 0.0
        return 2.0 * c * kappa ** (k - a) / (k - a)
    return c * kappa ** (k - a) / (k - a)


def interval_mass(model: LevyMeasureModel, a: float, b: float) -> float:
    """``nu([a, b])`` for an interval with 0 < a < b or a < b < 0."""
    if a >= b or (a < 0.0 < b) or a == 0.0 or b == 0.0:
        raise UsageError("interval must not straddle or touch the origin")
    if b < 0.0 and not model.two_sided:
        return 0.0
    lo, hi = (abs(b), abs(a)) if b < 0.0 else (a, b)
    al = model.alpha
    return model.intensity * (lo ** (-al) - hi ** (-al)) / al


def interval_first_moment(model: LevyMeasureModel, a: float, b: float) -> float:
    """``int_[a,b] z nu(dz)`` for an interval not straddling the origin (signed)."""
    if a >= b or (a < 0.0 < b) or a == 0.0 or b == 0.0:
        raise UsageError("interval must not straddle or touch the origin")
    if b < 0.0 and not model.two_sided:
        return 0.0
    sign = -1.0 if b < 0.0 else 1.0
    lo, hi = (abs(b), abs(a)) if b < 0.0 else (a, b)
    al = model.alpha
    if abs(al - 1.0) < 1e-12:
        val = model.intensity * math.log(hi / lo)
    else:
        val = model.intensity * (hi ** (1.0 - al) - lo ** (1.0 - al)) / (1.0 - al)
    return sign * val


def stable_scale_exponent(model: LevyMeasureModel) -> float:
    """Coefficient ``sigma^alpha`` of the stable part of the exponent.

    The exponent decomposes as
    ``psi(u) = -sigma^alpha |u|^alpha (1 - i beta sgn(u) tan(pi alpha/2)) + i u drift``
    with ``beta = 0`` (symmetric) or ``beta = 1`` (one-sided).
    """
    c_alpha = _cos_gamma_constant(model.alpha)
    sides = 2.0 if model.two_sided else 1.0
    return sides * model.intensity * c_alpha


def compensator_drift(model: LevyMeasureModel) -> float:
    """Linear drift left over after compensating only jumps with ``|z| <= 1``.

    Zero for symmetric models; ``intensity / (alpha - 1)`` for one-sided ones
    (negative in subordinator mode, where it is minus the small-jump mean).
    """
    if model.two_sided or model.intensity == 0.0:
        return 0.0
    return model.intensity / (model.alpha - 1.0)


def stable_exponent_closed(model: LevyMeasureModel, u: float) -> complex:
    """Analytic Levy-Khintchine exponent of the stable family.

    This is the closed-form counterpart of :func:`levy_exponent`; the two are
    checked against each other in the test suite.
    """
    if u == 0.0 or model.intensity == 0.0:
        return 0.0 + 0.0j
    sig_a = stable_scale_exponent(model)
    a = model.alpha
    if model.two_sided:
        return complex(-sig_a * abs(u) ** a, 0.0)
    skew = math.tan(math.pi * a / 2.0)
    core = -sig_a * abs(u) ** a * complex(1.0, -math.copysign(1.0, u) * skew)
    return core + 1j * u * compensator_drift(model)


def _tail_fourier(model: LevyMeasureModel, u: float, kind: str) -> tuple[float, float]:
    """``int_1^inf trig(u z) nu(dz)`` on one side via oscillatory quadrature."""
    c, a = model.intensity, model.alpha
    val, err = integrate.quad(
        lambda z: c * z ** (-1.0 - a),
        1.0,
        np.inf,
        weight=kind,
        wvar=u,
        epsabs=1e-12,
        limit=200,
    )
    return val, err


#: Below this frequency the oscillatory tail integral cancels against the tail
#: mass at working precision, so the exponent is continued by self-similarity.
_U_SCALING_FLOOR = 1e-2


def levy_exponent(model: LevyMeasureModel, u: float) -> complex:
    """Levy-Khintchine exponent ``int (e^{iuz} - 1 - iuz 1_{|z|<=1}) nu(dz)``.

    Adaptive quadrature to relative tolerance ``DEFAULT_QUAD_TOL`` with a
    Taylor series for the singular region ``|z| <= DEFAULT_KAPPA`` (the
    compensated integrand there is an entire function of ``u z``, so eight
    series terms are far below the tolerance).  Symmetric models return a real
    value.  Frequencies below 1e-2 are continued from the quadrature value at
    the floor via the family's exact ``|u|^alpha`` scaling of the drift-free
    part, avoiding catastrophic cancellation in the tail.

    Raises
    ------
    NumericalError
        If the quadrature error estimate exceeds the tolerance relative to the result.
    """
    if u == 0.0 or model.intensity == 0.0:
        return 0.0 + 0.0j
    if u < 0.0:
        return levy_exponent(model, -u).conjugate()
    if u < _U_SCALING_FLOOR:
        drift = compensator_drift(model)
        ref = levy_exponent(model, _U_SCALING_FLOOR)
        stable_part = ref - 1j * _U_SCALING_FLOOR * drift
        return stable_part * (u / _U_SCALING_FLOOR) ** model.alpha + 1j * u * drift

    c, a = model.intensity, model.alpha
    kappa, tol = DEFAULT_KAPPA, DEFAULT_QUAD_TOL

    # |z| <= kappa: sum_{k>=2} (iu)^k/k! * int z^k nu(dz), closed-form moments.
    taylor = 0.0 + 0.0j
    for k in range(2, 10):
        mk = truncated_moment(model, k, kappa)
        if mk != 0.0:
            taylor += (1j * u) ** k / math.factorial(k) * mk

    total_err = 0.0

    def one_side(sign: float) -> complex:
        nonlocal total_err
        dens = lambda z: c * z ** (-1.0 - a)
        re_mid, e1 = integrate.quad(
            lambda z: (math.cos(u * sign * z) - 1.0) * dens(z),
            kappa, 1.0, epsabs=1e-14, epsrel=tol, limit=200)
        im_mid, e2 = integrate.quad(
            lambda z: (math.sin(u * sign * z) - u * sign * z) * dens(z),
            kappa, 1.0, epsabs=1e-14, epsrel=tol, limit=200)
        cos_tail, e3 = _tail_fourier(model, u * sign, "cos")
        sin_tail, e4 = _tail_fourier(model, u * sign, "sin")
        mass = tail_mass(model, 1.0) / (2.0 if model.two_sided else 1.0)
        total_err += e1 + e2 + e3 + e4
        return complex(re_mid + cos_tail - mass, im_mid + sin_tail)

    with warnings.catch_warnings():
        # the post-hoc error check below governs acceptance, not QUADPACK's
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value = taylor + one_side(1.0)
        if model.two_sided:
            value += one_side(-1.0)

    if abs(value) > 0.0 and total_err > 100.0 * tol * abs(value) + 1e-11:
        raise NumericalError(
            f"levy exponent quadrature did not reach tolerance {tol}",
            partial=value, achieved_tol=total_err / abs(value))
    return value


def check_assumptions(model: LevyMeasureModel) -> AssumptionReport:
    """Populate singularity, tail-moment, and support witnesses for the model.

    The singularity constant comes from the closed-form antiderivative (shaved
    by one part in 1e12 so the certified inequality survives floating point),
    ``p = alpha``, and any ``q < alpha`` certifies the tail moment.
    """
    if model.intensity <= 0.0:
        raise UsageError("the null driver has no singularity; nothing to certify")
    sides = 2.0 if model.two_sided else 1.0
    c_wit = sides * model.intensity / (2.0 - model.alpha) * (1.0 - 1e-12)
    q_wit = model.alpha / 2.0

    if model.two_sided:
        a2, reason = True, A2Reason.SUPPORT_COVERS
    elif model.alpha > 1.0:
        a2, reason = True, A2Reason.P_GT_1
    else:
        a2, reason = False, A2Reason.NONE

    return AssumptionReport(
        p_witness=model.alpha,
        C_witness=c_wit,
        q_witness=q_wit,
        a2_satisfied=a2,
        a2_reason=reason,
        is_subordinator=model.subordinator,
    )


def require_assumptions(model: LevyMeasureModel):
    """Raise :class:`AssumptionError` unless the standing conditions all hold."""
    report = check_assumptions(model)
    if model.subordinator or not report.a2_satisfied:
        raise AssumptionError(
            "the ergodicity and convergence theory requires a non-subordinator "
            f"measure with a covering support or p > 1 (got {model})",
            report=report,
        )
    return report
