"""Reference-signal design for delay estimation.

The reference signal trades the energy of its derivative (which feeds the
information denominator of the bound) against its distance from the true
pulse (which feeds the divergence penalty).  The stationarity condition of
that Lagrangian is a second-order linear two-point boundary value problem

    s - s'' / lam = x,    s'(0) = s'(T) = 0,

solved here with ghost-point Neumann central differences and a symmetric
tridiagonal direct solve.  For the raised-cosine pulse the solution is
analytic and parameterized by nu = lam / (lam + omega0^2), which also
yields the closed-form tradeoff terms used by the delay bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundValue,
    ConditioningError,
    DomainError,
    GridDensity,
    Waveform,
    classify,
    coordinate_descent_max,
    maximize_scalar,
)
from .bayes_bounds import tilted_prior_bound

__all__ = [
    "DelayDesignProblem",
    "NuTradeoff",
    "solve_reference_ode",
    "raised_cosine_pulse",
    "raised_cosine_reference",
    "nu_bound",
]

_RESIDUAL_TOL = 1e-8
_COND_CAP = 1e12
_BETA_BRACKET = (1e-3, 50.0)   # tilt exponents searched by nu_bound


@dataclass(frozen=True)
class DelayDesignProblem:
    """True pulse, Lagrange multiplier and noise level for the reference solve."""

    x: Waveform
    lambda_mult: float
    n0: float

    def __post_init__(self):
        if self.lambda_mult <= 0:
            raise DomainError("lambda_mult must be positive")
        if self.n0 <= 0:
            raise DomainError("n0 must be positive")
        if self.x.t.size < 64:
            raise DomainError("grid resolution must be at least 64 points")


@dataclass(frozen=True)
class NuTradeoff:
    """Closed-form tradeoff terms for the raised-cosine reference family."""

    nu: float
    omega0: float
    ex: float

    def __post_init__(self):
        if not (0.0 <= self.nu <= 1.0):
            raise DomainError("nu must lie in [0, 1]")
        if self.omega0 <= 0 or self.ex <= 0:
            raise DomainError("omega0 and ex must be positive")
        if not math.isfinite(self.ex * (self.omega0 * self.omega0)):
            raise DomainError("ex omega0^2 is beyond float range")

    def derivative_energy(self) -> float:
        """Energy of the reference derivative, (1/3) ex omega0^2 nu^2."""
        return self.ex * self.omega0 ** 2 * self.nu ** 2 / 3.0

    def distance_term(self, n0: float) -> float:
        """Divergence penalty (ex / 3 n0) (1 - nu)^2."""
        if n0 <= 0:
            raise DomainError("n0 must be positive")
        return self.ex * (1.0 - self.nu) ** 2 / (3.0 * n0)


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


def nu_bound(
    prior: GridDensity,
    alpha: float,
    beta: float | None = None,
    nu: float | None = None,
    *,
    omega0: float,
    ex: float,
    n0: float,
) -> BoundValue:
    """Delay bound over the raised-cosine reference family.

    Value at a point:

        alpha / (I(Q_beta) + 2 nu^2 omega0^2 ex / (3 n0))
        - D(Q_beta || P) - (ex / 3 n0) (1 - nu)^2.

    nu = 0 removes the reference signal and exposes the pure
    information-versus-divergence form used for critical-factor estimates;
    nu = 1 makes the reference equal the pulse at maximal derivative
    energy.  An omitted parameter is maximized over: beta in [1e-3, 50] on
    a log scale, and with nu omitted the (nu, beta) pair jointly by
    coordinate descent with restarts (a given beta is then not used).
    Only beta moves the tilt: the prior caches its tilt scalars
    (``divergences.tilt_terms``), so the nu passes and every revisited
    beta cost scalar arithmetic, not a new tilt.  A bound that is -inf for
    every beta reports beta = nan.

    The prior must already be restricted to the valid delay window; edge
    effects of delays near the observation horizon are the caller's
    responsibility.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if omega0 <= 0 or ex <= 0 or n0 <= 0:
        raise DomainError("omega0, ex, n0 must be positive")
    NuTradeoff(0.0 if nu is None else nu, omega0, ex)   # a bad nu or ex omega0^2, up front

    def value_at(nu_val: float, beta_val: float) -> float:
        if not (0.0 <= nu_val <= 1.0) or beta_val <= 0:
            return -math.inf
        tradeoff = NuTradeoff(nu_val, omega0, ex)
        try:
            bv = tilted_prior_bound(
                prior,
                alpha,
                beta_val,
                es_over_n0=tradeoff.derivative_energy() / n0,
                corr_term=tradeoff.distance_term(n0),
            )
        except DomainError:
            return -math.inf
        return bv.value

    if nu is None:
        nu_star, beta_star, val = coordinate_descent_max(value_at, (0.0, 1.0), _BETA_BRACKET)
        return classify(val, {"nu": nu_star, "beta": beta_star})
    if beta is None:
        beta_star, val, n_eval = maximize_scalar(
            lambda b: value_at(nu, b), *_BETA_BRACKET, log_spaced=True, coarse=64
        )
        if val == -math.inf:
            beta_star = math.nan  # no feasible beta: the grid point is not a maximizer
        return classify(val, {"nu": nu, "beta": beta_star}, {"n_eval": n_eval})
    val = value_at(nu, beta)
    if val == -math.inf:
        raise DomainError("infeasible (nu, beta) point")
    return classify(val, {"nu": nu, "beta": beta})
