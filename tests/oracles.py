"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own code paths: plain
quadrature, dense grids, polynomial root finding and closed forms only.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar


def quad_mgf_by_quadrature(a_coef: float, b_coef: float, sigma2: float) -> float:
    """E exp(A x^2 - B x) under N(0, sigma2) by adaptive quadrature."""
    scale = math.sqrt(sigma2 / (1.0 - 2.0 * a_coef * sigma2))
    width = 12.0 * max(scale, math.sqrt(sigma2)) + 12.0 * abs(b_coef) * sigma2

    def integrand(x):
        return math.exp(a_coef * x * x - b_coef * x - x * x / (2 * sigma2))

    val, _ = quad(integrand, -width, width, limit=400)
    return val / math.sqrt(2 * math.pi * sigma2)


def renyi_by_quadrature(a, sigma2, sigma2_q, es, ex, n0, q_const, t_horizon):
    """a * D_a via the theta integral of the model density ratio."""

    def integrand(th):
        log_ratio = 0.5 * math.log(sigma2 / sigma2_q) - th * th / (2 * sigma2_q) + th * th / (2 * sigma2)
        path = ex + th * th * es - 2.0 * th * q_const * math.sqrt(es / t_horizon)
        log_weight = -th * th / (2 * sigma2) - 0.5 * math.log(2 * math.pi * sigma2)
        exponent = a * log_ratio + a * (a - 1.0) * path / n0 + log_weight
        return math.exp(exponent) if exponent < 700 else math.inf

    # integration window sized by the tilted (inflated) variance
    a_coef = a / (2 * sigma2) - a / (2 * sigma2_q) + a * (a - 1.0) * es / n0
    denom = 1.0 - 2.0 * a_coef * sigma2
    if denom <= 0:
        return math.inf
    width = 40.0 * math.sqrt(max(sigma2, sigma2_q) / denom) + 40.0 * abs(q_const)
    val, _ = quad(integrand, -width, width, limit=800)
    return math.log(val) / (a - 1.0)


def lpcb_beta_grid(alpha: float, snr: float, sigma2: float, n: int = 20001) -> float:
    """Dense log-grid supremum of the split-parameter comparison bound."""
    betas = np.exp(np.linspace(math.log(1e-8 * alpha), math.log((1 - 1e-8) * alpha), n))
    resid = alpha - betas
    arg = 1.0 - 2.0 * sigma2 * resid
    with np.errstate(divide="ignore"):
        vals = np.where(
            arg > 0,
            alpha / (2 * resid) * np.log(1.0 / np.maximum(arg, 1e-300)) - alpha * snr / betas,
            np.inf,
        )
    finite = np.where(np.isfinite(vals), vals, -np.inf)
    return float(np.max(finite))


def binary_divergence_ref(q: float, th: float) -> float:
    v = 0.0
    if q > 0:
        v += q * math.log(q / th)
    if q < 1:
        v += (1 - q) * math.log((1 - q) / (1 - th))
    return v


def saddle_inner_max(a: float, q: float, t: float) -> float:
    """Exact inner maximum over theta via the stationarity cubic."""
    coeffs = [-2 * a, 2 * a * (1 + t), -2 * a * t - 1, q]
    cands = []
    for r in np.roots(coeffs):
        if abs(r.imag) < 1e-12 and 1e-12 < r.real < 1 - 1e-12:
            cands.append(a * (t - r.real) ** 2 - binary_divergence_ref(q, r.real))
    if q == 0.0:
        cands.append(a * t * t)
    if q == 1.0:
        cands.append(a * (t - 1) ** 2)
    if not cands:
        cands.append(a * (t - q) ** 2)
    return max(cands)


def saddle_value_and_argmin(a: float, q: float) -> tuple[float, float]:
    """min over t of the exact inner max, with the minimizing t."""
    r = minimize_scalar(
        lambda t: saddle_inner_max(a, q, t), bounds=(0.0, 1.0), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(r.fun), float(r.x)


def exponent_oracle(a: float, n_q: int = 801) -> float:
    """max over q of the exact per-q saddle value."""
    if a == 0.0:
        return 0.0
    return max(saddle_value_and_argmin(a, float(q))[0] for q in np.linspace(0, 1, n_q))


def exponent_closed_form(a: float) -> float:
    """(u - ln(1 + u)) / 2 with u = a/2 - 1 for a > 2 (0 otherwise), in 50-digit decimals."""
    if a <= 2.0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(a) / 2 - 1
        return float((u - (1 + u).ln()) / 2)


def bernoulli_nonbayes_exponent(a: float, theta: float, n: int = 200001) -> float:
    """max_q [a (q - theta)^2 - D(q || theta)] on a dense grid."""
    qs = np.linspace(1e-9, 1 - 1e-9, n)
    div = qs * np.log(qs / theta) + (1 - qs) * np.log((1 - qs) / (1 - theta))
    return float(np.max(a * (qs - theta) ** 2 - div))
