"""Exception hierarchy shared across the package."""

from __future__ import annotations


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
