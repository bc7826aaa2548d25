"""The exception classes of the package.

They import nothing, so the entry points that never touch an array (the
CLI's argument handling and the scalar phase kernels) can raise and catch
them without loading numpy.
"""

from __future__ import annotations

__all__ = [
    "RiskBoundsError",
    "DomainError",
    "GridError",
    "ConditioningError",
    "DivergenceRiskError",
]


class RiskBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RiskBoundsError):
    """An argument lies outside the mathematical domain of an operation."""


class GridError(DomainError):
    """Grid functions that should share an abscissa do not."""


class ConditioningError(RiskBoundsError):
    """A linear system is too ill conditioned to trust."""


class DivergenceRiskError(RiskBoundsError):
    """A Monte Carlo run was refused because its moment may not exist."""
