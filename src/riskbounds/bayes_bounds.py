"""Bayesian lower bounds on the exponential moment of the squared error.

Every bound here descends from one change-of-measure inequality: the
exponential moment under the true joint law P is at least ``alpha * L - D``
where L lower-bounds the reference model's mean squared error and D is a
divergence from the reference model Q to P (KL for the basic family, Renyi
for the sharper one).  The module provides

* an upper bound on the critical risk factor from the power-tilted prior
  family,
* the Renyi-divergence (probability-comparison) bound against a
  linear-Gaussian reference, for one alpha or a sweep of them,
* the divergence onset of any bound family as an estimate of alpha_c,

each with its free parameters exposed and a maximizer over them.
``lpcb_sweep`` searches the splits of all its alphas, one alpha included,
with one ``core._maximize_batch`` on numpy arrays.  The scalar closed
forms (the linear-Gaussian model and minimum, the generic bound, the
wide-prior phase bound, the rectangular-pulse delay bound and the
tilted-prior bound) live in the numpy-free ``closed_forms`` and are
re-exported here.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .closed_forms import (
    BoundValue,
    LinearGaussianModel,
    classify,
    generic_bayes_bound,
    linear_gaussian_min_lambda,
    phase_bound_large_sigma,
    tilted_prior_bound,
    ww_rect_delay_bound,
)
from .core import (
    DomainError,
    GridDensity,
    _maximize_batch,
    divergence_onset,
)
from .divergences import renyi_gaussian_linear

__all__ = [
    "LinearGaussianModel",
    "BoundValue",
    "generic_bayes_bound",
    "linear_gaussian_min_lambda",
    "phase_bound_large_sigma",
    "tilted_prior_bound",
    "alpha_c_upper",
    "ww_rect_delay_bound",
    "lpcb_bound",
    "lpcb_sweep",
    "alpha_c_estimate",
]

_BETA_EDGE = 1e-6  # relative inset of the beta bracket from its feasibility limits

# alpha_c_upper's sweep of beta, and the share of the median information
# below which its lowest-beta tilt counts as heading to zero
_AC_BETAS = np.exp(np.linspace(math.log(1e-4), math.log(1e2), 161))
_AC_TREND_CUT = 0.05


def alpha_c_upper(prior: GridDensity) -> float:
    """Upper bound on the critical risk factor from the tilted-prior family.

    The certificate is the limit of I(Q_beta) * D(Q_beta || P) along a
    path where the Fisher information vanishes.  The sweep runs beta over
    161 log-spaced points of [1e-4, 1e2], keeping only the tilts that
    ``tilt_prior`` accepts (the tilted density vanishes at the grid ends)
    and whose information is positive; if the information trends to zero
    at the low end (its least value sits at the lowest kept beta and below
    5% of the median), the product is extrapolated there by a
    least-squares fit in the slowly vanishing basis
    {1, beta (ln beta - 1), beta}, which is exact for Gaussian priors.
    Returns +inf when no vanishing-information tilt exists, the honest
    answer for compact-support priors; a flat prior has no accepted tilt
    at all.  No floor on I depends on the units of theta: a prior
    rescaled by s gets the certificate divided by s^2.  The accuracy is
    set by how small a beta the grid window can represent; wide windows
    give tight certificates.
    """
    ok_beta: list[float] = []
    infos: list[float] = []
    products: list[float] = []
    for b in _AC_BETAS:
        try:
            info, kl = prior.tilt_terms(float(b))
        except DomainError:
            continue
        if not info > 0.0:
            continue
        ok_beta.append(float(b))
        infos.append(info)
        products.append(info * kl)
    if len(ok_beta) < 4:
        return math.inf
    info_arr = np.array(infos)
    # the information must head to zero at the low-beta end of the valid set
    k = int(np.argmin(info_arr))
    if k != 0 or info_arr[0] > _AC_TREND_CUT * np.median(info_arr):
        return math.inf
    # skip the two lowest points (noisiest: tilted tails graze the window
    # edge there) and fit the next stretch, long enough to condition the
    # nearly collinear basis
    skip = 2 if len(ok_beta) > 6 else 0
    m = min(24, len(ok_beta) - skip)
    bs = np.array(ok_beta[skip:skip + m])
    ys = np.array(products[skip:skip + m])
    basis = np.column_stack([np.ones(m), bs * (np.log(bs) - 1.0), bs])
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    return max(float(coef[0]), 0.0)


def _lpcb_value(
    alpha: np.ndarray,
    beta: float | np.ndarray,
    *,
    sigma2: float,
    ex: float,
    n0: float,
    sigma2_q: float,
    es: float,
    q_const: float,
    t_horizon: float,
) -> np.ndarray:
    """Points of the Renyi-divergence bound; -inf when vacuous, +inf when divergent.

    alpha and beta broadcast against each other into the array of points.
    """
    renyi = renyi_gaussian_linear(
        alpha / beta,
        sigma2=sigma2,
        sigma2_q=sigma2_q,
        es=es,
        ex=ex,
        n0=n0,
        q_const=q_const,
        t_horizon=t_horizon,
    )
    residual = alpha - beta
    alpha_c_ref = 1.0 / (2.0 * sigma2_q) + es / n0
    ratio = residual / alpha_c_ref
    below = ratio < 1.0
    value = -alpha / (2.0 * residual) * np.log1p(-np.where(below, ratio, 0.0)) - renyi
    return np.where(renyi == math.inf, -math.inf, np.where(below, value, math.inf))


def _lpcb_model(
    sigma2: float,
    ex: float,
    n0: float,
    sigma2_q: float | None,
    es: float,
    q_const: float,
    t_horizon: float,
) -> dict:
    """Checked keyword arguments of ``_lpcb_value``; sigma2_q defaults to sigma2."""
    model = dict(sigma2=sigma2, ex=ex, n0=n0, sigma2_q=sigma2 if sigma2_q is None else sigma2_q,
                 es=es, q_const=q_const, t_horizon=t_horizon)
    model = {key: float(value) for key, value in model.items()}
    if not all(math.isfinite(value) for value in model.values()):
        raise DomainError("lpcb parameters must be finite")
    if min(model["sigma2"], model["sigma2_q"], model["n0"], model["t_horizon"]) <= 0.0:
        raise DomainError("sigma2, sigma2_q, n0 and t_horizon must be positive")
    if min(model["es"], model["ex"]) < 0.0:
        raise DomainError("es and ex must be nonnegative")
    return model


@np.errstate(over="ignore", divide="ignore")
def lpcb_sweep(
    alphas: Sequence[float] | np.ndarray,
    beta: float | None = None,
    *,
    sigma2: float,
    ex: float,
    n0: float = 1.0,
    sigma2_q: float | None = None,
    es: float = 0.0,
    q_const: float = 0.0,
    t_horizon: float = 1.0,
) -> list[BoundValue]:
    """``lpcb_bound`` at every alpha of a sequence, one BoundValue per alpha.

    The alphas are evaluated together: a fixed split is one array
    evaluation, and the optimized splits are one ``core._maximize_batch``
    over the whole sequence, a single split included.  Each row's
    diagnostics ``n_eval`` counts the points its search evaluated (every
    row of a batch evaluates the same number).  At extreme inputs a huge
    order, 2 sigma2_q or a bracket end near the float maximum overflows,
    and the reference critical factor can read 0; these give the rows'
    infinities silently, never a numpy warning.
    """
    model = _lpcb_model(sigma2, ex, n0, sigma2_q, es, q_const, t_horizon)
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    if not np.all(np.isfinite(alphas) & (alphas > 0.0)):
        raise DomainError("alpha must be positive and finite")

    def f(a, b):
        return _lpcb_value(a, b, **model)

    if beta is not None:
        if not np.all((0.0 < beta) & (beta < alphas)):
            raise DomainError("beta must lie strictly inside (0, alpha)")
        values = f(alphas, beta)
        return [classify(v, {"beta": beta}) for v in values.tolist()]

    # the largest split whose residual alpha - beta reaches the reference
    # critical factor: the bound is +inf there unless the Renyi term
    # diverges too, and then it diverges at every smaller split (every
    # higher order) as well, so this one probe decides divergence
    alpha_c_ref = 1.0 / (2.0 * model["sigma2_q"]) + model["es"] / model["n0"]
    lo = _BETA_EDGE * alphas
    if not lo.all():
        # the log-spaced bracket needs lo > 0; find the smallest alpha with
        # _BETA_EDGE alpha > 0, starting within an ulp or two of it
        smallest = math.ulp(0.0) / (2.0 * _BETA_EDGE)
        while _BETA_EDGE * smallest == 0.0:
            smallest = math.nextafter(smallest, math.inf)
        while _BETA_EDGE * math.nextafter(smallest, 0.0) > 0.0:
            smallest = math.nextafter(smallest, 0.0)
        raise DomainError(
            f"alpha = {float(alphas[lo == 0.0].min())!r} is below {smallest!r}, the smallest "
            f"alpha the split search accepts: its bracket starts at {_BETA_EDGE:g} alpha, "
            "which underflows to 0")
    hi = (1.0 - _BETA_EDGE) * alphas
    witness = np.maximum(lo, (alphas - alpha_c_ref) * (1.0 - 1e-9))
    probe = (alphas - lo >= alpha_c_ref) & (witness < hi)
    divergent = np.zeros_like(probe)
    if probe.any():
        divergent[probe] = f(alphas[probe], witness[probe]) == math.inf
    search = ~divergent
    a, lo, hi = alphas[search], lo[search], hi[search]
    found = iter(())
    if a.size:
        b_star, vals, n_eval = _maximize_batch(lambda b: f(a, b), lo, hi,
                                               log_spaced=True, coarse=96)
        n_eval //= a.size
        found = zip(b_star.tolist(), vals.tolist())
    out = []
    for w, div in zip(witness.tolist(), divergent.tolist()):
        if div:
            out.append(classify(math.inf, {"beta": w},
                                {"witness": "residual reaches the reference critical factor"}))
        else:
            b, v = next(found)
            out.append(classify(v, {"beta": b}, {"n_eval": n_eval}))
    return out


def lpcb_bound(
    alpha: float,
    beta: float | None = None,
    *,
    sigma2: float,
    ex: float,
    n0: float = 1.0,
    sigma2_q: float | None = None,
    es: float = 0.0,
    q_const: float = 0.0,
    t_horizon: float = 1.0,
) -> BoundValue:
    """Renyi-divergence comparison bound against a linear-Gaussian reference.

    For a split 0 < beta < alpha the bound chains the reference model's
    exact minimum at residual risk alpha - beta with the order-
    (alpha / beta) Renyi divergence from reference to truth.  With beta
    omitted, the supremum over the split is taken by a log-bracketed
    golden-section search.  q_const defaults to zero, the orthogonal-
    reference convention.  This is the one-alpha case of ``lpcb_sweep``.
    """
    return lpcb_sweep([alpha], beta, sigma2=sigma2, ex=ex, n0=n0, sigma2_q=sigma2_q,
                      es=es, q_const=q_const, t_horizon=t_horizon)[0]


def alpha_c_estimate(
    bound_at: Callable[[float], BoundValue],
    alpha_start: float = 0.1,
    tol: float = 1e-4,
) -> float:
    """Divergence onset of a bound family, reported as an upper bound on alpha_c."""

    def diverges(a: float) -> bool:
        return bound_at(a).value == math.inf

    return divergence_onset(diverges, 1e-9, alpha_start, tol=tol)
