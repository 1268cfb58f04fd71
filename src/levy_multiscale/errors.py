"""Exception hierarchy shared across the package, and its one guard per scalar argument rule.

Each ``require_*`` guard raises :class:`UsageError` with a message starting "<name> must".
NaN fails every guard; a count is an integer, numpy's included, and never a bool.
"""

from __future__ import annotations

import math
import numbers


class LevyMultiscaleError(Exception):
    """Base class for all package-specific errors."""


class UsageError(LevyMultiscaleError):
    """Invalid arguments, configs, or calling conventions."""


class AssumptionError(LevyMultiscaleError):
    """A jump-measure standing assumption required by an operation fails."""


class NumericalError(LevyMultiscaleError):
    """Quadrature, linear solve, or scheme-stability failure.

    Carries whatever partial result and achieved tolerance are available.
    """

    def __init__(self, message: str, partial=None, achieved_tol=None):
        super().__init__(message)
        self.partial = partial
        self.achieved_tol = achieved_tol


class DegenerateVolatilityError(LevyMultiscaleError):
    """Harmonic volatility average is undefined because sigma vanishes on a node."""


def require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value}")


def require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"{name} must be finite and positive, got {value}")


def require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise UsageError(f"{name} must be finite and nonnegative, got {value}")


def require_count(name: str, value, minimum: int, unit: str = "") -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= minimum):
        least = f"{minimum} {unit}".rstrip()  # the unit names what is counted: "1000 paths"
        raise UsageError(f"{name} must be an integer of at least {least}, got {value!r}")
