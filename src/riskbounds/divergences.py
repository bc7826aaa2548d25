"""Closed-form information measures shared by every bound family.

Covers the binary divergence, the Renyi divergence between a nonlinear
signal model and a linear-Gaussian reference (through the log of the
Gaussian quadratic-exponential moment), and power-tilted priors with their
normalizer, log-normalizer derivative and Fisher information.
``tilt_terms`` memoizes a tilt's information and divergence on the prior,
so each (prior, beta) is tilted once however often an optimizer revisits
it.

All returns are extended reals: a legitimately divergent quantity comes
back as ``+inf`` rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LOG_FLOAT_MAX,
    DomainError,
    GridDensity,
    float_or_array,
    logsumexp,
    select,
)

__all__ = [
    "TiltedPrior",
    "binary_divergence",
    "renyi_gaussian_linear",
    "tilt_prior",
    "tilt_terms",
]

_NORM_TOL = 1e-6          # quadrature tolerance for density normalization

# The information floor 1/I(Q_beta) needs a tilted density that vanishes at
# both ends of its support.  A tilt whose density at either grid end is
# above this share of its peak is rejected, whatever the base: a flat or
# truncated prior has a jump there that the one-sided differences miss.
_EDGE_ESCAPE = 1e-3


@dataclass(frozen=True)
class TiltedPrior:
    """A base prior raised to power beta and renormalized.

    Exposes the normalizer Z(beta), phi = ln Z, its exact derivative
    phi' = E_Q[ln p] and the Fisher information of the tilted density,
    all computed with the base grid's trapezoid weights.  kl_to_base()
    gives D(tilted || base) in closed form (beta - 1) phi'(beta) - phi(beta).
    """

    base: GridDensity
    beta: float
    z_beta: float
    phi: float
    phi_prime: float
    fisher_info: float
    q_density: GridDensity = field(repr=False)

    def kl_to_base(self) -> float:
        return (self.beta - 1.0) * self.phi_prime - self.phi


def binary_divergence(q: float, theta: float) -> float:
    """D(q || theta) = q ln(q/theta) + (1-q) ln((1-q)/(1-theta)) in nats.

    Uses the 0 ln 0 = 0 convention.  theta at an endpoint with a
    mismatched q gives +inf, never an exception.
    """
    if not (0.0 <= q <= 1.0):
        raise DomainError("q must lie in [0, 1]")
    if not (0.0 <= theta <= 1.0):
        raise DomainError("theta must lie in [0, 1]")
    total = 0.0
    if q > 0.0:
        if theta == 0.0:
            return math.inf
        total += q * math.log(q / theta)
    if q < 1.0:
        if theta == 1.0:
            return math.inf
        total += (1.0 - q) * math.log((1.0 - q) / (1.0 - theta))
    return total


def _log_quad_mgf(a_coef, b_coef, sigma2: float):
    """ln E exp{A Theta^2 - B Theta}; +inf where the moment diverges."""
    denom = 1.0 - 2.0 * a_coef * sigma2
    finite = denom > 0.0
    denom = select(finite, denom, 1.0)
    return select(finite, b_coef ** 2 * sigma2 / (2.0 * denom) - 0.5 * np.log(denom), math.inf)


def _order(order: float | np.ndarray) -> float | np.ndarray:
    if isinstance(order, np.ndarray):
        valid = (order > 1.0).all()
    else:
        order = float(order)
        valid = order > 1.0
    if not valid:
        raise DomainError("Renyi order must satisfy a > 1")
    return order


def renyi_gaussian_linear(
    order: float | np.ndarray,
    *,
    sigma2: float,
    sigma2_q: float,
    es: float,
    ex: float,
    n0: float,
    q_const: float = 0.0,
    t_horizon: float = 1.0,
) -> float | np.ndarray:
    """a * D_a(Q || P) between a constant-energy signal model and a linear reference.

    P is the true joint law: Theta ~ N(0, sigma2), signal of energy ex whose
    time integral is q_const for every theta.  Q is the reference: Theta ~
    N(0, sigma2_q), signal theta * s(t) with a DC s of energy es on [0, T].
    Returns +inf when the underlying Gaussian moment diverges.  The order
    may be an array of orders; a float order gives a float.
    """
    a = _order(order)
    if sigma2 <= 0 or sigma2_q <= 0 or n0 <= 0 or es < 0 or ex < 0 or t_horizon <= 0:
        raise DomainError("model parameters out of range")
    am1 = a - 1.0
    aam1 = a * am1
    a_coef = a / (2.0 * sigma2) - a / (2.0 * sigma2_q) + aam1 * es / n0
    b_coef = aam1 * (2.0 * q_const * math.sqrt(es / t_horizon) / n0)
    log_integral = (0.5 * a * math.log(sigma2 / sigma2_q) + aam1 * ex / n0
                    + _log_quad_mgf(a_coef, b_coef, sigma2))
    return float_or_array(log_integral / am1)


def tilt_prior(base: GridDensity, beta: float) -> TiltedPrior:
    """Raise a normalized grid prior to power beta and renormalize.

    Z(beta) is the trapezoid sum of base^beta, and phi'(beta) is the exact
    derivative of that same discrete ln Z, E_Q[ln p].  The Fisher
    information of the tilted density uses second-order differences on
    the theta grid, one-sided at the grid ends.  Two tilts are rejected
    because the information integral is not trustworthy for them: a
    density that vanishes at an interior grid point, and a tilted density
    above 1e-3 of its peak at either grid end, whatever the base.  So
    every tilt of a flat prior is rejected, and so are the small-beta
    tilts of a Gaussian window, while a prior padded with zeros at both
    grid ends passes; callers needing a smaller beta must supply a wider
    grid.

    Everything that does not depend on beta comes from the base's cached
    ``tilt_grid``: its support scan and hole flag, the grid spacings of
    both trapezoids and the gradient's coefficients.  A tilt then costs
    one log-sum-exp, one exponential and a few array passes, with the bits
    of ``np.gradient`` and ``np.trapezoid`` on the same grid.
    """
    if beta <= 0:
        raise DomainError("tilt exponent beta must be positive")
    base.check_normalized(_NORM_TOL)
    grid = base.tilt_grid
    log_p = base.log_density
    exponent = beta * log_p
    log_z = logsumexp(exponent, base.weights)
    if not math.isfinite(log_z):
        raise DomainError("tilted density is not integrable on this grid")
    if grid.has_hole:
        raise DomainError("density vanishes at an interior grid point")
    q = np.exp(exponent - log_z)
    tilt_edge = max(q[0], q[-1]) / np.max(q)
    if tilt_edge > _EDGE_ESCAPE:
        raise DomainError(
            f"tilted density does not vanish at the grid ends (edge ratio {tilt_edge:.3g}); "
            "supply a wider grid for this beta or a prior that decays there"
        )
    wq = base.weights * q
    if grid.all_positive:
        dphi = float(np.dot(wq, log_p))
    else:
        dphi = float(np.dot(wq[grid.positive], log_p[grid.positive]))
    dq = grid.gradient(q)
    integrand = np.zeros_like(q)
    np.divide(dq * dq, q, out=integrand, where=q > 0.0)
    q_density = base.adopt_density(q)
    tilted = TiltedPrior(
        base=base,
        beta=float(beta),
        z_beta=math.exp(log_z) if log_z <= LOG_FLOAT_MAX else math.inf,
        phi=log_z,
        phi_prime=dphi,
        fisher_info=base.integrate(integrand),
        q_density=q_density,
    )
    q_density.check_normalized(10.0 * _NORM_TOL)
    return tilted


def tilt_terms(prior: GridDensity, beta: float) -> tuple[float, float]:
    """(I(Q_beta), D(Q_beta || P)) of ``tilt_prior(prior, beta)``, tilted once per beta.

    The prior caches these two floats per beta in its instance dict, where
    ``functools.cached_property`` keeps its weights, so a hit returns the
    very floats the first tilt computed.  A rejected tilt caches its
    ``DomainError`` message and raises a fresh ``DomainError`` with that
    text on every call.  No array is cached: callers that need Q_beta
    itself call ``tilt_prior``, which always builds fresh arrays.  Threads
    sharing a prior may race on a missing beta; both compute and store the
    same floats.
    """
    memo = vars(prior).setdefault("_tilt_terms", {})
    beta = float(beta)
    terms = memo.get(beta)
    if terms is None:
        try:
            tilted = tilt_prior(prior, beta)
            terms = (tilted.fisher_info, tilted.kl_to_base())
        except DomainError as exc:
            terms = str(exc)
        memo[beta] = terms
    if isinstance(terms, str):
        raise DomainError(terms)
    return terms
