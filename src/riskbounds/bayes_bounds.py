"""Bayesian lower bounds on the exponential moment of the squared error.

Every bound here descends from one change-of-measure inequality: the
exponential moment under the true joint law P is at least ``alpha * L - D``
where L lower-bounds the reference model's mean squared error and D is a
divergence from the reference model Q to P (KL for the basic family, Renyi
for the sharper one).  The module provides

* the exactly solvable linear-Gaussian model and its minimum,
* the generic KL bound,
* bounds for constant-energy nonlinear signals with a linear-Gaussian
  reference (including the phase-modulation closed forms),
* power-tilted priors driving an information-based reference bound,
* the rectangular-pulse delay bound built on a reference-pulse MSE floor,
* the Renyi-divergence (probability-comparison) bound and its iterated
  chain version,

each with its free parameters exposed and a maximizer over them.  The
scalar closed forms (the linear-Gaussian model and minimum, the generic
bound, the wide-prior phase bound and the rectangular-pulse delay bound)
live in the numpy-free ``closed_forms`` and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closed_forms import (
    BoundValue,
    LinearGaussianModel,
    classify,
    generic_bayes_bound,
    linear_gaussian_min_lambda,
    phase_bound_large_sigma,
    ww_rect_delay_bound,
)
from .core import (
    DegenerateSignalError,
    DomainError,
    GridDensity,
    Waveform,
    divergence_onset,
    float_or_array,
    maximize_scalar,
    select,
)
from .divergences import (
    GaussianPriorPair,
    gaussian_kl,
    renyi_gaussian_linear,
    renyi_gaussian_pair,
    tilt_terms,
)

__all__ = [
    "LinearGaussianModel",
    "NonlinearBayesModel",
    "LpcbChain",
    "BoundValue",
    "generic_bayes_bound",
    "linear_gaussian_min_lambda",
    "optimal_reference_signal",
    "nonlinear_linear_ref_bound",
    "phase_model_bound",
    "phase_bound_large_sigma",
    "tilted_prior_bound",
    "alpha_c_upper",
    "ww_rect_delay_bound",
    "lpcb_bound",
    "lpcb_sweep",
    "iterated_lpcb",
    "alpha_c_estimate",
]

# Fisher information below this floor means the information-based MSE
# reference bound is not trustworthy (regularity cannot hold); such tilts
# are excluded rather than allowed to certify a fake divergence.
_FISHER_FLOOR = 1e-9

_BETA_EDGE = 1e-6  # relative inset of the beta bracket from its feasibility limits

# alpha_c_upper's sweep of beta, and the share of the median information
# below which its lowest-beta tilt counts as heading to zero
_AC_BETAS = np.exp(np.linspace(math.log(1e-4), math.log(1e2), 161))
_AC_TREND_CUT = 0.05


@dataclass(frozen=True)
class NonlinearBayesModel:
    """Signal family x(t, theta) of theta-independent energy in white noise.

    x is sampled on a (theta, t) grid (rows indexed by theta).  The prior
    lives on the same theta grid.  Construction validates that every row's
    energy is within 1 percent of ex and that the prior is normalized.
    """

    t: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    ex: float
    n0: float
    prior: GridDensity

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.shape != (th.size, t.size):
            raise DomainError("x must have shape (len(theta), len(t))")
        if self.ex <= 0 or self.n0 <= 0:
            raise DomainError("need ex > 0 and n0 > 0")
        energies = np.trapezoid(x * x, t, axis=1)
        if np.any(np.abs(energies - self.ex) > 0.01 * self.ex):
            raise DomainError("per-theta signal energy deviates more than 1% from ex")
        if self.prior.theta.size != th.size or not np.allclose(self.prior.theta, th):
            raise DomainError("prior must live on the model theta grid")
        self.prior.check_normalized(1e-4)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "x", x)

    @property
    def t_horizon(self) -> float:
        return float(self.t[-1] - self.t[0])


def make_phase_model(
    ex: float,
    n0: float,
    omega: float,
    t_horizon: float,
    sigma2: float,
    n_t: int = 2048,
    theta_span: float = 8.0,
    n_theta: int = 801,
) -> NonlinearBayesModel:
    """Phase-modulated tone sqrt(2 ex / T) cos(omega t + theta), Gaussian prior.

    omega * t_horizon should be a multiple of pi so the energy really is
    theta independent.
    """
    t = np.linspace(0.0, t_horizon, n_t)
    half_width = theta_span * math.sqrt(sigma2)
    theta = np.linspace(-half_width, half_width, n_theta)
    x = math.sqrt(2.0 * ex / t_horizon) * np.cos(omega * t[None, :] + theta[:, None])
    prior_raw = np.exp(-(theta ** 2) / (2.0 * sigma2))
    prior = GridDensity(theta, prior_raw).normalized()
    return NonlinearBayesModel(t=t, theta=theta, x=x, ex=ex, n0=n0, prior=prior)


@dataclass(frozen=True)
class LpcbChain:
    """A ladder of reference measures from the true model to a linear one.

    measures[0] describes the true model (sigma2, ex, q_const, t_horizon);
    the remaining entries are LinearGaussianModel references, the last one
    being the final reference whose exact minimum seeds the chain.  betas
    holds one positive split per transition and must sum below alpha.
    """

    true_sigma2: float
    true_ex: float
    measures: tuple[LinearGaussianModel, ...]
    betas: tuple[float, ...]
    q_const: float = 0.0
    t_horizon: float = 1.0

    def __post_init__(self):
        if len(self.measures) < 1:
            raise DomainError("chain needs at least one reference measure")
        if len(self.betas) != len(self.measures):
            raise DomainError("need exactly one split per transition")
        if any(b <= 0 for b in self.betas):
            raise DomainError("splits must be positive")
        n0s = {m.n0 for m in self.measures}
        if len(n0s) != 1:
            raise DomainError("all chain measures must share the noise density")


def _q_weighted_correlation(model: NonlinearBayesModel, q_prior: GridDensity) -> np.ndarray:
    """g(t) = E_Q[Theta x(t, Theta)] on the model's time grid."""
    if q_prior.theta.size != model.theta.size or not np.allclose(q_prior.theta, model.theta):
        raise DomainError("q_prior must live on the model theta grid")
    weights = q_prior.density * model.theta
    return np.trapezoid(weights[:, None] * model.x, model.theta, axis=0)


def optimal_reference_signal(
    model: NonlinearBayesModel, q_prior: GridDensity, es: float
) -> Waveform:
    """Energy-es signal maximizing the reference correlation integral.

    Proportional to E_Q[Theta x(t, Theta)], rescaled so its trapezoid
    energy equals es exactly.
    """
    if es <= 0:
        raise DomainError("es must be positive")
    g = _q_weighted_correlation(model, q_prior)
    norm2 = float(np.trapezoid(g * g, model.t))
    if norm2 <= 1e-14 * model.ex:
        raise DegenerateSignalError("reference correlation is identically zero")
    return Waveform(model.t, math.sqrt(es / norm2) * g)


def _nonlinear_linear_ref_value(
    alpha: float,
    sigma2: float,
    sigma2_q: float,
    lam: float,
    g_sq_integral: float,
    ex: float,
    n0: float,
) -> float:
    kl = gaussian_kl(GaussianPriorPair(sigma2_p=sigma2, sigma2_q=sigma2_q))
    first = alpha * sigma2_q / (1.0 + 2.0 * lam * sigma2_q)
    coupling = 2.0 * math.sqrt(lam * g_sq_integral / n0)
    return first - lam * sigma2_q - kl - ex / n0 + coupling


def nonlinear_linear_ref_bound(
    model: NonlinearBayesModel,
    alpha: float,
    sigma2_q: float | None = None,
    lam: float | None = None,
) -> BoundValue:
    """Bound for a constant-energy signal with a linear-Gaussian reference.

    The true prior is treated as Gaussian with the model prior's variance
    (the closed prior-divergence term needs it); the reference prior is
    N(0, sigma2_q) and the reference signal is the optimal one at energy
    ratio lam = es / n0.  An omitted parameter is chosen, not defaulted:

    * ``lam`` given: evaluate at that ratio (sigma2_q defaults to the prior
      variance),
    * only ``sigma2_q`` given: the closed choice lam = d^2 / (4 c^2), good
      when the first term is small against the others,
    * neither given: joint maximization over (sigma2_q, lam); the lam
      profile needs no new quadrature once the correlation integral for a
      sigma2_q is known, so it is maximized inside a 1-D search over
      sigma2_q.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    prior_var = model.prior.variance()

    coverage_cap = (float(model.theta[-1] - model.theta[0]) / 12.0) ** 2

    def g_sq(s2q: float) -> float:
        q_prior = GridDensity(model.theta, np.exp(-model.theta ** 2 / (2.0 * s2q))).normalized()
        g = _q_weighted_correlation(model, q_prior)
        return float(np.trapezoid(g * g, model.t))

    def value_at(s2q: float, lam_val: float, g2: float) -> float:
        return _nonlinear_linear_ref_value(alpha, prior_var, s2q, lam_val, g2, model.ex, model.n0)

    if sigma2_q is None and lam is None:
        def profiled(s2q: float) -> tuple[float, float]:
            g2 = g_sq(s2q)
            lam_hi = 10.0 * (g2 / (model.n0 * s2q ** 2) + alpha)
            lam_star, val, _ = maximize_scalar(lambda lv: value_at(s2q, lv, g2), 0.0, lam_hi,
                                               coarse=33)
            return val, lam_star

        s2q, val, _ = maximize_scalar(
            lambda s: profiled(s)[0], 1e-3 * prior_var, coverage_cap,
            log_spaced=True, coarse=48)
        val, lam_star = profiled(s2q)
        return classify(val, {"sigma2_q": s2q, "lambda": lam_star})

    s2q = prior_var if sigma2_q is None else float(sigma2_q)
    if s2q <= 0:
        raise DomainError("sigma2_q must be positive")
    g2 = g_sq(s2q)
    if lam is None:
        lam = g2 / (model.n0 * s2q ** 2)
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    return classify(value_at(s2q, lam, g2), {"sigma2_q": s2q, "lambda": float(lam)})


def phase_model_bound(
    alpha: float, sigma2: float, sigma2_q: float, ex_over_n0: float
) -> BoundValue:
    """Closed form of the linear-reference bound for phase modulation.

    Uses the exact Gaussian correlation integral ex * sigma2_q^2 *
    exp(-sigma2_q) with the closed lambda choice, so the value is

        alpha s2q / (1 + 2 (ex/n0) s2q e^{-s2q})
        - (ex/n0) (1 - s2q e^{-s2q}) - KL(s2q, sigma2).
    """
    if alpha <= 0 or sigma2 <= 0 or sigma2_q <= 0 or ex_over_n0 < 0:
        raise DomainError("parameters out of range")
    damp = sigma2_q * math.exp(-sigma2_q)
    kl = gaussian_kl(GaussianPriorPair(sigma2_p=sigma2, sigma2_q=sigma2_q))
    value = alpha * sigma2_q / (1.0 + 2.0 * ex_over_n0 * damp) - ex_over_n0 * (1.0 - damp) - kl
    return classify(value, {"sigma2_q": sigma2_q})


def tilted_prior_bound(
    prior: GridDensity,
    alpha: float,
    beta: float,
    es_over_n0: float,
    corr_term: float = 0.0,
) -> BoundValue:
    """Information-based reference bound with a power-tilted prior.

    Value: alpha / (I(Q_beta) + 2 es_over_n0) - D(Q_beta || P) - corr_term,
    where es_over_n0 carries the reference signal's (derivative) energy and
    corr_term the signal-distance penalty supplied by the caller's
    geometry.  Tilts whose total information sits below the regularity
    floor are rejected: the MSE floor 1/I is meaningless there.  I and D
    come from ``tilt_terms``, so the prior caches its tilt scalars and a
    repeated beta costs no new tilt.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if beta <= 0:
        raise DomainError("beta must be positive")
    if es_over_n0 < 0 or corr_term < 0:
        raise DomainError("energies must be nonnegative")
    fisher_info, kl = tilt_terms(prior, beta)
    info = fisher_info + 2.0 * es_over_n0
    if info <= _FISHER_FLOOR:
        raise DomainError(
            "total information below regularity floor; the reference MSE bound "
            "does not apply to this tilt"
        )
    value = alpha / info - kl - corr_term
    return classify(value, {"beta": beta, "fisher_info": fisher_info})


def alpha_c_upper(prior: GridDensity) -> float:
    """Upper bound on the critical risk factor from the tilted-prior family.

    The certificate is the limit of I(Q_beta) * D(Q_beta || P) along a
    path where the Fisher information vanishes.  The sweep runs beta over
    161 log-spaced points of [1e-4, 1e2], keeping only tilts that stay
    represented on the grid and above the regularity floor; if the
    information trends to zero at the low end (its least value sits at the
    lowest kept beta and below 5% of the median), the product is
    extrapolated there by a least-squares fit in the slowly vanishing
    basis {1, beta (ln beta - 1), beta}, which is exact for Gaussian
    priors.  Returns +inf when no vanishing-information tilt exists, the
    honest answer for compact-support priors.  The accuracy is set by how
    small a beta the grid window can represent; wide windows give tight
    certificates.
    """
    ok_beta: list[float] = []
    infos: list[float] = []
    products: list[float] = []
    for b in _AC_BETAS:
        try:
            info, kl = tilt_terms(prior, float(b))
        except DomainError:
            continue
        if info <= _FISHER_FLOOR:
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
    alpha: float | np.ndarray,
    beta: float | np.ndarray,
    *,
    sigma2: float,
    ex: float,
    n0: float,
    sigma2_q: float,
    es: float,
    q_const: float,
    t_horizon: float,
) -> float | np.ndarray:
    """Points of the Renyi-divergence bound; -inf when vacuous, +inf when divergent.

    alpha and beta broadcast against each other; floats give a float.
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
    value = -alpha / (2.0 * residual) * np.log1p(-select(below, ratio, 0.0)) - renyi
    return float_or_array(select(renyi == math.inf, -math.inf, select(below, value, math.inf)))


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
    evaluation, and the optimized splits are one batched
    ``maximize_scalar`` over the whole sequence.  Each row's diagnostics
    ``n_eval`` counts the points its search evaluated (every row of a
    batch evaluates the same number).
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
        return [classify(v, {"beta": beta}) for v in f(alphas, beta).tolist()]

    # the largest split whose residual alpha - beta reaches the reference
    # critical factor: the bound is +inf there unless the Renyi term
    # diverges too, and then it diverges at every smaller split (every
    # higher order) as well, so this one probe decides divergence
    alpha_c_ref = 1.0 / (2.0 * model["sigma2_q"]) + model["es"] / model["n0"]
    lo = _BETA_EDGE * alphas
    hi = (1.0 - _BETA_EDGE) * alphas
    witness = np.maximum(lo, (alphas - alpha_c_ref) * (1.0 - 1e-9))
    probe = (alphas - lo >= alpha_c_ref) & (witness < hi)
    divergent = np.zeros_like(probe)
    if probe.any():
        divergent[probe] = f(alphas[probe], witness[probe]) == math.inf
    search = ~divergent
    a, lo, hi = alphas[search], lo[search], hi[search]
    if a.size == 1:
        # float brackets run the pure-Python golden loop, far cheaper than
        # numpy for one search and the same to the bit
        a, lo, hi = a.item(), lo.item(), hi.item()
    found = iter(())
    if search.any():
        b_star, vals, n_eval = maximize_scalar(lambda b: f(a, b), lo, hi, log_spaced=True, coarse=96)
        n_eval //= int(search.sum())
        found = zip(np.atleast_1d(b_star).tolist(), np.atleast_1d(vals).tolist())
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


def iterated_lpcb(chain: LpcbChain, alpha: float) -> BoundValue:
    """Chained Renyi comparison through intermediate reference measures.

    Transition i consumes split beta_i at Renyi order
    (alpha - sum of earlier splits) / beta_i; the final reference
    contributes its exact minimum at the residual risk factor.  The
    divergences are the Gaussian closed forms: true model to the first
    measure, then between consecutive linear-Gaussian measures.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    betas = chain.betas
    if sum(betas) >= alpha:
        raise DomainError("splits must sum strictly below alpha")

    def renyi(i: int, order: float) -> float:
        if i == 0:
            target = chain.measures[0]
            a_d_a = renyi_gaussian_linear(
                order,
                sigma2=chain.true_sigma2,
                sigma2_q=target.sigma2,
                es=target.es,
                ex=chain.true_ex,
                n0=target.n0,
                q_const=chain.q_const,
                t_horizon=chain.t_horizon,
            )
        else:
            src, dst = chain.measures[i - 1], chain.measures[i]
            delta = (math.sqrt(dst.es) - math.sqrt(src.es)) ** 2
            a_d_a = renyi_gaussian_pair(
                order,
                sigma2_from=src.sigma2,
                sigma2_to=dst.sigma2,
                delta_es=delta,
                n0=dst.n0,
            )
        return a_d_a / order

    penalty = 0.0
    consumed = 0.0
    for i, b in enumerate(betas):
        order = (alpha - consumed) / b
        if order <= 1.0:
            raise DomainError("infeasible split: Renyi order must exceed 1")
        d_a = renyi(i, order)
        if math.isinf(d_a):
            return classify(-math.inf, {"betas": betas}, {"transition": i})
        penalty += alpha / b * d_a
        consumed += b

    residual = alpha - consumed
    final = chain.measures[-1]
    head = linear_gaussian_min_lambda(final, residual)
    if not head.is_finite:
        return classify(math.inf, {"betas": betas},
                        {"witness": "residual reaches the final reference critical factor"})
    value = alpha / residual * head.value - penalty
    return classify(value, {"betas": betas, "residual": residual})


def alpha_c_estimate(
    bound_at: Callable[[float], BoundValue],
    alpha_start: float = 0.1,
    tol: float = 1e-4,
) -> float:
    """Divergence onset of a bound family, reported as an upper bound on alpha_c."""

    def diverges(a: float) -> bool:
        return bound_at(a).value == math.inf

    return divergence_onset(diverges, 1e-9, alpha_start, tol=tol)
