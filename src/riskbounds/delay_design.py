"""Reference-signal design for delay estimation.

The reference signal trades the energy of its derivative (which feeds the
information denominator of the bound) against its distance from the true
pulse (which feeds the divergence penalty).  The stationarity condition of
that Lagrangian is a second-order linear two-point boundary value problem

    s - s'' / lam = x,    s'(0) = s'(T) = 0,

solved here with ghost-point Neumann central differences and a symmetric
tridiagonal direct solve on a ``Waveform``.  For the raised-cosine pulse
the solution is analytic and parameterized by nu = lam / (lam + omega0^2),
which also yields the closed-form tradeoff terms of the delay bound
``closed_forms.nu_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import nu_bound  # noqa: F401  (perfbench/tracer.py LAYERS)
from .core import _read_only, _trapezoid
from .errors import ConditioningError, DomainError, GridError

__all__ = [
    "Waveform",
    "DelayDesignProblem",
    "solve_reference_ode",
    "raised_cosine_pulse",
    "raised_cosine_reference",
]

_RESIDUAL_TOL = 1e-8
_COND_CAP = 1e12


@dataclass(frozen=True)
class Waveform:
    """A real signal on a strictly increasing time grid; t and values are read-only copies."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        v = np.array(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise GridError("waveform needs matching 1-D time and value arrays")
        if t.size < 2:
            raise GridError("waveform needs at least two samples")
        if np.any(np.diff(t) <= 0):
            raise GridError("time grid must be strictly increasing")
        object.__setattr__(self, "t", _read_only(t))
        object.__setattr__(self, "values", _read_only(v))

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    def energy(self) -> float:
        return _trapezoid(self.values ** 2, np.diff(self.t))


@dataclass(frozen=True)
class DelayDesignProblem:
    """True pulse and Lagrange multiplier for the reference solve.

    The noise level enters the solve only through lambda_mult.
    """

    x: Waveform
    lambda_mult: float

    def __post_init__(self):
        if self.lambda_mult <= 0:
            raise DomainError("lambda_mult must be positive")
        if self.x.t.size < 64:
            raise DomainError("grid resolution must be at least 64 points")


def solve_reference_ode(problem: DelayDesignProblem) -> Waveform:
    """Solve s - s''/lam = x with zero-derivative ends on the pulse's grid.

    Second-order central differences with ghost-point Neumann rows; the
    operator is symmetric positive definite for lam > 0 and is factored
    directly by an LDL^T sweep.  The discrete residual and an estimate of
    the conditioning are checked before returning.
    """
    t = problem.x.t
    x = problem.x.values
    n = t.size
    h = float(t[1] - t[0])
    if not np.allclose(np.diff(t), h, rtol=1e-8):
        raise DomainError("reference solve needs a uniform time grid")
    lam = problem.lambda_mult
    c = 1.0 / (lam * h * h)
    cond_estimate = 1.0 + 4.0 * c
    if cond_estimate > _COND_CAP:
        raise ConditioningError(
            f"discretization too stiff (estimated condition {cond_estimate:.3g}); "
            "increase lambda or refine the grid"
        )

    # Ghost points make the boundary rows (1 + 2c) s_0 - 2c s_1 = x_0 and its
    # mirror; halving those rows restores symmetry.  The system is then
    # tridiagonal with diagonal 1 + 2c (0.5 + c at the ends) and off-diagonal
    # -c, and LDL^T elimination needs no pivoting: d becomes D, the forward
    # pass solves L y = rhs and the backward pass D L^T s = y, both in y.
    d = [1.0 + 2.0 * c] * n
    d[0] = d[-1] = 0.5 + c
    y = x.tolist()
    y[0] *= 0.5
    y[-1] *= 0.5
    for i in range(1, n):
        m = c / d[i - 1]
        d[i] -= c * m
        y[i] += m * y[i - 1]
    y[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        y[i] = (y[i] + c * y[i + 1]) / d[i]
    s = np.array(y)

    second = np.empty(n)
    second[1:-1] = s[:-2] - 2.0 * s[1:-1] + s[2:]
    second[0] = 2.0 * s[1] - 2.0 * s[0]
    second[-1] = 2.0 * s[-2] - 2.0 * s[-1]
    residual = np.max(np.abs(s - second / (lam * h * h) - x))
    if residual > _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(x)))):
        raise ConditioningError(f"discrete residual {residual:.3g} exceeds tolerance")
    return Waveform(t, s)


def raised_cosine_pulse(ex: float, t: np.ndarray, omega0: float) -> Waveform:
    """Pulse sqrt(2 ex / 3 T) (1 - cos(omega0 t)); needs omega0 T = k pi."""
    t = np.asarray(t, dtype=float)
    t_horizon = float(t[-1] - t[0])
    k = omega0 * t_horizon / math.pi
    if abs(k - round(k)) > 1e-9:
        raise DomainError("omega0 * T must be a multiple of pi for this pulse")
    amp = math.sqrt(2.0 * ex / (3.0 * t_horizon))
    return Waveform(t, amp * (1.0 - np.cos(omega0 * (t - t[0]))))


def raised_cosine_reference(ex: float, t: np.ndarray, omega0: float, lam: float) -> Waveform:
    """Analytic reference for the raised-cosine pulse: 1 - nu cos(omega0 t)."""
    pulse = raised_cosine_pulse(ex, t, omega0)
    nu = lam / (lam + omega0 ** 2)
    amp = math.sqrt(2.0 * ex / (3.0 * pulse.duration))
    return Waveform(pulse.t, amp * (1.0 - nu * np.cos(omega0 * (pulse.t - pulse.t[0]))))
