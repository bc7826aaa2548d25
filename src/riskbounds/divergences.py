"""Closed-form information measures shared by every bound family.

Covers the binary divergence, the Renyi divergence between a nonlinear
signal model and a linear-Gaussian reference (through the log of the
Gaussian quadratic-exponential moment), and the two numbers of a power
tilt Q_beta of a prior that the bounds read: its Fisher information and
its divergence from the prior.  ``tilt_prior`` computes that pair; the
bounds read it through ``GridDensity.tilt_terms``, which calls it once per
(prior, beta) however often an optimizer revisits it.

All returns are extended reals: a legitimately divergent quantity comes
back as ``+inf`` rather than raising.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GridDensity, logsumexp
from .errors import DomainError

__all__ = [
    "binary_divergence",
    "renyi_gaussian_linear",
    "tilt_prior",
]

# The information floor 1/I(Q_beta) needs a tilted density that vanishes at
# both ends of its support, the first and last grid points of positive
# density.  A tilt whose edge-to-peak ratio exp(beta log_edge) exceeds this
# share is rejected: a flat, truncated or zero-padded prior has a jump there
# that the information of its interpolant, a sum over the support, misses.
_EDGE_ESCAPE = 1e-3


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


def _log_quad_mgf(a_coef, b_coef, sigma2: float) -> np.ndarray:
    """ln E exp{A Theta^2 - B Theta}; +inf where the moment diverges."""
    denom = 1.0 - 2.0 * a_coef * sigma2
    finite = denom > 0.0
    denom = np.where(finite, denom, 1.0)
    log_denom = np.log(denom)
    huge = denom == math.inf
    if huge.any():   # 2 A sigma2 overflowed: ln denom is ln(2 sigma2) + ln|A| to rounding, A != 0
        log_a = np.log(np.abs(np.where(huge, a_coef, 1.0)))
        two_sigma2 = 2.0 * sigma2
        log_2s = math.log(two_sigma2) if two_sigma2 < math.inf else math.log(2.0) + math.log(sigma2)
        log_denom = np.where(huge, log_2s + log_a, log_denom)
    return np.where(finite, b_coef * b_coef * sigma2 / (2.0 * denom) - 0.5 * log_denom, math.inf)


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
    Returns +inf when the underlying Gaussian moment diverges, and also
    where the order is so large that the float terms overflow into an
    undetermined inf - inf.  The order may be an array of orders; a float
    order gives a float.
    """
    a = np.asarray(order, dtype=float)
    if not (a > 1.0).all():
        raise DomainError("Renyi order must satisfy a > 1")
    if sigma2 <= 0 or sigma2_q <= 0 or n0 <= 0 or es < 0 or ex < 0 or t_horizon <= 0:
        raise DomainError("model parameters out of range")
    with np.errstate(over="ignore", invalid="ignore"):   # numpy warns where a huge order overflows
        r = _renyi(a, sigma2, sigma2_q, es, ex, n0, q_const, t_horizon)
    return float(r) if r.ndim == 0 else r


def _renyi(a, sigma2, sigma2_q, es, ex, n0, q_const, t_horizon):
    """The terms of ``renyi_gaussian_linear`` at checked arguments.

    A huge order overflows a (a - 1), or a itself, to +inf.  A term whose
    scalar factor is 0 is 0 at every order, never inf * 0.
    """
    ratio = sigma2 / sigma2_q
    log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(sigma2) - math.log(sigma2_q)
    b_scale = 2.0 * q_const * math.sqrt(es / t_horizon) / n0
    am1 = a - 1.0
    aam1 = a * am1
    a_coef = ((a / (2.0 * sigma2) - a / (2.0 * sigma2_q) if sigma2 != sigma2_q else 0.0)
              + (aam1 * es / n0 if es else 0.0))
    b_coef = aam1 * b_scale if b_scale else 0.0
    log_integral = ((0.5 * a * log_ratio if log_ratio else 0.0)
                    + (aam1 * ex / n0 if ex else 0.0)
                    + _log_quad_mgf(a_coef, b_coef, sigma2))
    renyi = log_integral / am1
    # D_a is never negative: a NaN (inf - inf, inf / inf) or -inf is left by
    # terms that overflowed, and reads +inf, the side that only loosens a
    # bound that subtracts it
    return np.where(renyi > -math.inf, renyi, math.inf)


def tilt_prior(base: GridDensity, beta: float) -> tuple[float, float]:
    """(I(Q_beta), D(Q_beta || P)) of a grid prior P raised to power beta.

    Q_beta is P^beta renormalized by Z(beta), the trapezoid sum of
    P^beta.  The divergence is (beta - 1) phi'(beta) - ln Z(beta), where
    phi'(beta) = E_Q[ln p] is the exact derivative of that same discrete
    ln Z, so Q_beta integrates to 1 to rounding.  Both terms are formed
    from the log density shifted by its peak, s = ln p - M with M =
    max ln p, as (beta - 1) E_Q[s] - M - ln sum w exp(beta s): unshifted,
    each term grows like beta |ln p| and their difference, of order
    ln beta, drowns in the rounding of either.  E_Q[s] is one dot product
    over the support, the grid points from the first to the last of
    positive density.

    Two tilts are rejected because the information integral is not
    trustworthy for them: a density that vanishes between the ends of its
    support, and a tilted density above 1e-3 of its peak at either end of
    its support, whatever the base.  s is 0 at the peak, so that edge
    ratio is exp(beta s) at the end where s is larger, the base's
    ``log_edge``.  Every tilt of a flat prior, padded with zeros or not,
    is rejected, and so are the small-beta tilts of a Gaussian window;
    callers needing a smaller beta must supply a wider grid.  Both rules,
    and beta <= 0, are checked before any array is touched.

    The information is that of the density the trapezoid rule integrates,
    the piecewise-linear interpolant of q, exactly.  On a segment where q
    runs linearly from q0 to q1 over a width h, the integral of (q')^2 / q
    is (q1 - q0)(ln q1 - ln q0) / h, and ln q1 - ln q0 = beta (s1 - s0)
    because ln q = beta s - ln Z.  So

        I(Q_beta) = beta sum (q[i+1] - q[i]) log_slope[i]

    over the segments of the support, with ``log_slope`` = ds / dtheta
    stored by the base.  q and s rise and fall together, so no term is
    negative and none exceeds I: the sum has no cancellation.  On a
    Gaussian base, s = -theta^2 / (2 sigma^2), each slope is minus the
    segment's midpoint over sigma^2, and summation by parts turns the sum
    into beta / sigma^2 times the trapezoid integral of q, which is 1, plus
    q at the two window ends: I = beta / sigma^2 to rounding however narrow
    the tilt is against the grid.

    Everything that does not depend on beta was set when the base was
    built: its support ends, edge log density, hole flag, trapezoid weights
    and log slopes.  A tilt then costs one log-sum-exp, one exponential
    over the support and two dot products.  The tilted density is a local
    array; no Q_beta is returned or kept.
    """
    beta = float(beta)   # a numpy scalar would warn where beta log_edge overflows
    if beta <= 0:
        raise DomainError("tilt exponent beta must be positive")
    if base.has_hole:
        raise DomainError("density vanishes at an interior grid point")
    tilt_edge = math.exp(beta * base.log_edge)
    if tilt_edge > _EDGE_ESCAPE:
        raise DomainError(
            f"tilted density does not vanish at the ends of its support (edge ratio "
            f"{tilt_edge:.3g}); supply a wider grid for this beta or a prior that decays there"
        )
    s = base.log_shift
    with np.errstate(over="ignore"):   # beta s below the float range is -inf: weight 0
        exponent = beta * s
    log_sum = logsumexp(exponent, base.weights)
    if not math.isfinite(log_sum):
        raise DomainError("tilted density is not integrable on this grid")
    first, last = base.support_ends
    support = slice(first, last + 1)
    q = np.exp(exponent[support] - log_sum)
    mean_s = float(np.dot(base.weights[support] * q, s[support]))
    with np.errstate(over="ignore"):   # an I past the float maximum reads inf
        info = beta * float(np.dot(np.diff(q), base.log_slope))
    return info, (beta - 1.0) * mean_s - base.log_peak - log_sum
