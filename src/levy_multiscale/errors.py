"""Exception hierarchy shared across the package, and its one guard per argument rule.

Each ``require_*`` guard raises :class:`UsageError` with a message starting "<name> must".
NaN fails every guard; a count is an integer, numpy's included, and never a bool.
:func:`require_finite_array` is the one array rule: finite numbers, of a given ndim and
at least a given size, returned as a read-only float copy that the frozen records keep.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


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


def require_finite_array(name: str, values, min_size: int = 0, ndim: int | None = 1) -> np.ndarray:
    """``values`` as a read-only float copy, refused if ragged, of another ndim (None: any),
    shorter than ``min_size`` or holding NaN or +-inf."""
    try:
        array = np.array(values, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        array = None
    if (array is None or (ndim is not None and array.ndim != ndim) or array.size < min_size
            or not np.isfinite(array).all()):
        shape = "an array" if ndim is None else f"a {ndim}-D array"
        least = f"at least {min_size} " if min_size else ""
        raise UsageError(f"{name} must be {shape} of {least}finite numbers, got {values!r}")
    array.setflags(write=False)
    return array
