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


def gaussian_kl(sigma2_p: float, sigma2_q: float) -> float:
    """D[N(0, sigma2_q) || N(0, sigma2_p)] in nats."""
    r = sigma2_q / sigma2_p
    return 0.5 * (r - math.log(r) - 1.0)


def binary_entropy(u: float) -> float:
    """h(u) = -u ln u - (1-u) ln(1-u), zero at the endpoints."""
    return -sum(p * math.log(p) for p in (u, 1.0 - u) if p > 0.0)


def renyi_gaussian_pair(a, sigma2_from, sigma2_to, delta_es, n0) -> float:
    """a * D_a between two linear-Gaussian models whose signals differ by energy delta_es."""
    a_coef = a / (2.0 * sigma2_from) - a / (2.0 * sigma2_to) + a * (a - 1.0) * delta_es / n0
    denom = 1.0 - 2.0 * a_coef * sigma2_from
    if denom <= 0.0:
        return math.inf
    return (0.5 * a * math.log(sigma2_from / sigma2_to) - 0.5 * math.log(denom)) / (a - 1.0)


def phase_linear_ref_bound(alpha, sigma2, sigma2_q, ex_over_n0) -> float:
    """Linear-reference bound for phase modulation with its exact damping terms.

    alpha s2q / (1 + 2 (ex/n0) s2q e^{-s2q}) - (ex/n0) (1 - s2q e^{-s2q}) - KL(s2q, sigma2).
    """
    damp = sigma2_q * math.exp(-sigma2_q)
    return (alpha * sigma2_q / (1.0 + 2.0 * ex_over_n0 * damp) - ex_over_n0 * (1.0 - damp)
            - gaussian_kl(sigma2, sigma2_q))


def critical_radius(gamma: np.ndarray, es: float, n0: float, u: np.ndarray) -> float:
    """Scale t at which t u reaches the critical contour t^2 u' inv(gamma) u = es / n0."""
    return math.sqrt(es / (n0 * float(u @ np.linalg.solve(gamma, u))))


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


def delay_beta_grid(prior, alphas, nus, *, omega0: float, ex: float, n0: float,
                    n: int = 2001) -> np.ndarray:
    """Best raised-cosine delay bound over n log-spaced betas in [1e-3, 50].

    Returns the array of shape (len(alphas), len(nus)) whose entries are
    the maxima over the betas of alpha / (I + 2 nu^2 omega0^2 ex / (3 n0))
    - D - (ex / (3 n0)) (1 - nu)^2, every pair in one array expression.
    (I, D) come from the prior's own ``tilt_terms``, so each beta is tilted
    once for all pairs and the oracle checks the beta search, not the
    tilt.  A rejected tilt, or a total information that is not positive,
    reads -inf.
    """
    from riskbounds import DomainError

    betas = np.exp(np.linspace(math.log(1e-3), math.log(50.0), n))
    info, kl = np.full(n, -np.inf), np.zeros(n)
    for i, beta in enumerate(betas.tolist()):
        try:
            info[i], kl[i] = prior.tilt_terms(beta)
        except DomainError:
            pass
    nu = np.asarray(nus, dtype=float)[:, None]
    total = info + 2.0 * nu ** 2 * omega0 ** 2 * ex / (3.0 * n0)
    penalty = kl + ex * (1.0 - nu) ** 2 / (3.0 * n0)
    alpha = np.asarray(alphas, dtype=float)[:, None, None]
    with np.errstate(divide="ignore"):
        values = np.where(total > 0.0, alpha / total - penalty, -np.inf)
    return values.max(axis=-1)


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


def saddle_inner_max_batch(a: np.ndarray, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``saddle_inner_max`` at every element of equal-shape 1-D arrays a, q and t at once.

    The stationarity cubic's roots come in closed form (trigonometric with
    three real roots, Cardano with one), and D(q || theta) is taken by
    log1p of theta - q, so that the value resolves a (t - q)^2 down to
    t - q of one ulp where theta = q is the maximizer.
    """
    # monic cubic theta^3 - (1+t) theta^2 + (t + 1/(2a)) theta - q/(2a); theta = x + (1+t)/3
    b, c, d = -(1.0 + t), t + 0.5 / a, -0.5 * q / a
    p = c - b * b / 3.0
    r = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = r * r / 4.0 + p ** 3 / 27.0
    with np.errstate(invalid="ignore", divide="ignore"):
        amp = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.clip(3.0 * r / (p * amp), -1.0, 1.0)) / 3.0
        three = amp[:, None] * np.cos(phi[:, None] - 2.0 * np.pi / 3.0 * np.arange(3))
        s = np.sqrt(np.maximum(disc, 0.0))
        one = np.cbrt(-0.5 * r + s) + np.cbrt(-0.5 * r - s)
        th = np.where((disc < 0.0)[:, None], three, one[:, None]) - b[:, None] / 3.0
        qq = q[:, None]
        th = np.concatenate([np.where((th > 0.0) & (th < 1.0), th, qq), qq], axis=1)
        gap = th - qq
        up = np.where(th < 0.5 * qq, np.log(th / qq), np.log1p(gap / qq))
        down = np.where(1.0 - th < 0.5 * (1.0 - qq), np.log((1.0 - th) / (1.0 - qq)),
                        np.log1p(-gap / (1.0 - qq)))
        minus_d = np.where(qq > 0.0, qq * up, 0.0) + np.where(qq < 1.0, (1.0 - qq) * down, 0.0)
    return np.max(a[:, None] * (t[:, None] - th) ** 2 + minus_d, axis=1)


def golden_saddle_batch(a, q) -> tuple[np.ndarray, np.ndarray]:
    """(min over t in [0, 1] of the exact inner max, minimizing t) at every (a, q) pair.

    a and q broadcast to one shape.  Each pair runs its own golden-section
    search on t until its bracket is within machine precision, all pairs
    in one numpy loop.
    """
    a, q = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(q, dtype=float))
    shape, a, q = a.shape, a.ravel(), q.ravel()
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.zeros_like(q), np.ones_like(q)
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    gc, gd = saddle_inner_max_batch(a, q, c), saddle_inner_max_batch(a, q, d)
    eps = np.finfo(float).eps
    for _ in range(200):
        live = np.abs(hi - lo) > eps * (1.0 + np.abs(lo) + np.abs(hi))
        if not live.any():
            break
        left = live & (gc < gd)     # the minimum lies in [lo, d]
        right = live & ~(gc < gd)   # in [c, hi]
        lo, hi = np.where(right, c, lo), np.where(left, d, hi)
        c, gc, d, gd = (np.where(right, d, c), np.where(right, gd, gc),
                        np.where(left, c, d), np.where(left, gc, gd))
        x = np.where(left, hi - ratio * (hi - lo), lo + ratio * (hi - lo))
        gx = saddle_inner_max_batch(a, q, x)
        c, gc = np.where(left, x, c), np.where(left, gx, gc)
        d, gd = np.where(right, x, d), np.where(right, gx, gd)
    t = np.where(gc < gd, c, d)
    return saddle_inner_max_batch(a, q, t).reshape(shape), t.reshape(shape)


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


def bernoulli_exact_oracle(n: int, a: float, theta: float, estimator) -> float:
    """ln sum_k C(n,k) theta^k (1-theta)^(n-k) exp{a n (that(k/n) - theta)^2} in 50-digit decimals.

    C(n, k) is the exact integer ``math.comb``; theta and each estimate
    that(k/n) enter as the exact decimal value of their float, and theta^k,
    (1 - theta)^(n-k) and the exponential are formed in ``Decimal``.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        th = Decimal(theta)
        rest, an = 1 - th, Decimal(a) * n
        total = Decimal(0)
        for k in range(n + 1):
            d = Decimal(float(estimator(k / n))) - th
            total += math.comb(n, k) * th ** k * rest ** (n - k) * (an * d * d).exp()
        return float(total.ln())


def prior_ceiling(prior, alpha: float, tol: float = 1e-12) -> float:
    """C(alpha) = min over m of ln sum_i w_i p_i exp(alpha (theta_i - m)^2).

    The exponential moment of the constant estimator m under the grid
    prior, with the prior's own trapezoid weights w, minimized over m by a
    golden search on the grid range (the log moment is convex in m).  Any
    estimator's moment is at most this one's at the best m, so every
    Bayesian bound on this prior must read at most C(alpha).  ``prior`` is
    read only for its ``theta`` and ``density`` arrays.
    """
    theta = np.asarray(prior.theta, dtype=float)
    p = np.asarray(prior.density, dtype=float)
    w = np.empty_like(theta)
    w[1:-1] = 0.5 * (theta[2:] - theta[:-2])
    w[0] = 0.5 * (theta[1] - theta[0])
    w[-1] = 0.5 * (theta[-1] - theta[-2])
    keep = w * p > 0.0
    log_wp, th = np.log((w * p)[keep]), theta[keep]

    def log_moment(m: float) -> float:
        x = log_wp + alpha * (th - m) ** 2
        top = float(np.max(x))
        return top + math.log(float(np.sum(np.exp(x - top))))

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = float(theta[0]), float(theta[-1])
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = log_moment(c), log_moment(d)
    while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = log_moment(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = log_moment(d)
    return min(fc, fd, log_moment(0.5 * (lo + hi)))
