"""The bound value type, the scalar closed-form bounds and the scalar searches, without numpy.

A bound is an extended real: ``+inf`` certifies divergence and ``-inf``
means the bound is vacuous.  ``classify`` is the one place that turns such
a float into a ``BoundValue`` status.  The closed forms here are a few
``math`` calls each:

* the exact linear-Gaussian minimum -0.5 ln(1 - alpha / alpha_c), whose
  critical factor alpha_c = 1 / (2 sigma2) + es / n0 is formed only by
  ``LinearGaussianModel.alpha_c``,
* the generic change-of-measure bound alpha * mse_lb - divergence,
* the wide-prior phase bound,
* the rectangular-pulse delay bound,
* the unbiased scalar bound alpha n0 / (2 es) and the exact ML moment,
* the tilted-prior bound and the raised-cosine delay bound ``nu_bound``,
  which read a prior only through its pair ``prior.tilt_terms(beta)``.

Every Gaussian moment among them (the linear-Gaussian minimum, the phase
bound, the scalar ML moment and ``nonbayes_bounds.vector_ml_lambda``) is
the one kernel ``_gaussian_moment(x) = -0.5 log1p(-x)``, +inf for x >= 1.
Every range check here is written NaN-first (``not alpha > 0``), so a
NaN input is a ``DomainError``, never a NaN labelled ``ok``.

The package's 1-D searches live here too, as plain-Python loops on float
brackets: ``golden_section_max``, the one golden-section search, and
``maximize_scalar``, a coarse sweep polished by it.  They take floats
only and serve the delay, nonlinear and profile searches; the lpcb
split search runs ``core``'s batched numpy form for one alpha or many,
with the same result per bracket.  ``_linspace``, numpy's ``linspace`` formula on floats,
spaces the CLI's linear sweeps, the estimator curve's q grid and the
sweep of ``maximize_scalar``; ``_logspace`` spaces their log-spaced ones.

The module imports only ``math``, ``bisect``, ``sys``, ``typing`` and
``errors`` (``_logspace`` imports numpy for ``np.exp``, the joint
``nu_bound`` search ``core``), and it defines no
dataclass: ``BoundValue`` is a ``NamedTuple``, the other classes use
``__slots__``, so loading it costs no ``dataclasses`` or ``inspect``
import.  The CLI families built on it (``bayes-linear``, ``bayes-phase``,
``bayes-ww``, ``nonbayes-linear`` and ``nonbayes-nonlinear``),
``phase estimator`` and ``verify bernoulli-exact`` run without numpy;
``_interp``, numpy's ``interp`` formula on floats, reads the estimator
curve at the counts k/n of ``verify bernoulli-exact --estimator optimal``.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:
    from .core import GridDensity

__all__ = [
    "STATUS_OK",
    "STATUS_DIVERGENT",
    "STATUS_USELESS",
    "STATUS_OUT_OF_WINDOW",
    "BoundValue",
    "classify",
    "LinearGaussianModel",
    "generic_bayes_bound",
    "linear_gaussian_min_lambda",
    "phase_bound_large_sigma",
    "ww_rect_delay_bound",
    "scalar_linear_bound",
    "scalar_ml_lambda",
    "tilted_prior_bound",
    "NuTradeoff",
    "nu_bound",
    "golden_section_max",
    "maximize_scalar",
]

# BoundValue.status values
STATUS_OK = "ok"
STATUS_DIVERGENT = "divergent"        # value is +inf: no estimator can stay finite
STATUS_USELESS = "useless"            # value is -inf: the divergence term blew up
STATUS_OUT_OF_WINDOW = "out_of_window"  # inputs outside the bound's applicability window

# Reference-pulse MSE floor constant for delay estimation of a rectangular
# pulse: mse >= _WW_CONST * tau^2 / gamma^2.
_WW_CONST = 0.324

# diagnostics every unbiased (non-Bayesian) bound carries
_META = {"assumes_unbiased": True}

LOG_FLOAT_MAX = math.log(sys.float_info.max)   # largest x with a finite math.exp(x)

_BETA_BRACKET = (1e-3, 50.0)   # tilt exponents searched by nu_bound

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 200   # cap on golden steps per search; 0.618^200 is below any tol


class BoundValue(NamedTuple):
    """Outcome of a lower-bound evaluation.

    value is in nats and may be ``+inf`` (the bound certifies divergence)
    or ``-inf`` (the bound is vacuous).  ``argmax`` records the free
    parameters that produced ``value``; for +inf it holds the witnessing
    parameters.  ``diagnostics`` carries optimizer traces and flags.
    Every field is given: a tuple's default would be one dict shared by
    all instances.
    """

    value: float
    argmax: dict
    status: str
    diagnostics: dict


def classify(value: float, argmax: dict, diagnostics: dict | None = None) -> BoundValue:
    """BoundValue whose status follows the value: +inf divergent, -inf useless."""
    if value == math.inf:
        status = STATUS_DIVERGENT
    elif value == -math.inf:
        status = STATUS_USELESS
    else:
        status = STATUS_OK
    return BoundValue(value, argmax, status, diagnostics or {})


class LinearGaussianModel:
    """Scalar parameter in white noise: y(t) = theta s(t) + n(t), Gaussian prior.

    sigma2 is the prior variance, es the energy of s, n0 the two-sided
    noise density.  The model is exactly solvable: the conditional-mean
    estimator minimizes every exponential moment below alpha_c.
    """

    __slots__ = ("sigma2", "es", "n0")

    def __init__(self, sigma2: float, es: float, n0: float):
        if not (sigma2 > 0 and n0 > 0 and es >= 0):
            raise DomainError("need sigma2 > 0, n0 > 0, es >= 0")
        self.sigma2, self.es, self.n0 = sigma2, es, n0

    def alpha_c(self) -> float:
        """The critical factor 1 / (2 sigma2) + es / n0; the one place it is formed."""
        return 1.0 / (2.0 * self.sigma2) + self.es / self.n0

    def mmse(self) -> float:
        return 1.0 / (2.0 * self.alpha_c())

    def estimator_coefficient(self) -> float:
        """Gain applied to the matched-filter statistic by the conditional mean."""
        denominator = self.sigma2 * self.es + self.n0 / 2.0
        if denominator == 0.0:
            raise DomainError("sigma2 es + n0 / 2 underflows to 0: the estimator gain "
                              "is beyond float range")
        return self.sigma2 / denominator


def generic_bayes_bound(alpha: float, mse_lb: float, divergence: float) -> BoundValue:
    """Change-of-measure bound alpha * mse_lb - divergence.

    mse_lb is any lower bound on the reference model's MSE and divergence
    is D(Q || P).  An infinite divergence makes the bound vacuous, which is
    reported as -inf with a useless flag, not an error.
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if not mse_lb >= 0:
        raise DomainError("mse_lb must be nonnegative")
    if not divergence >= 0:
        raise DomainError("divergence must be nonnegative")
    if math.isinf(divergence):
        return classify(-math.inf, {}, {"reason": "infinite divergence"})
    value = alpha * mse_lb - divergence
    return classify(value, {})


def _gaussian_moment(x: float) -> float:
    """ln E exp(alpha e^2) = -0.5 log1p(-x) of e ~ N(0, v) at x = 2 alpha v; +inf for x >= 1."""
    return math.inf if x >= 1.0 else -0.5 * math.log1p(-x)


def linear_gaussian_min_lambda(model: LinearGaussianModel, alpha: float) -> BoundValue:
    """Exact minimum exponential moment for the linear-Gaussian model.

    -0.5 ln(1 - alpha / alpha_c) below alpha_c, +inf at and above it.
    The achieving estimator's matched-filter gain rides along in argmax.
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    ac = model.alpha_c()
    coef = model.estimator_coefficient()
    if alpha >= ac:
        return classify(math.inf, {"estimator_coef": coef, "alpha_c": ac},
                        {"witness": "alpha >= alpha_c"})
    return classify(_gaussian_moment(alpha / ac), {"estimator_coef": coef, "alpha_c": ac})


def phase_bound_large_sigma(alpha: float, sigma2: float, ex_over_n0: float) -> BoundValue:
    """Wide-prior approximation of the phase bound, optimized in closed form.

    Dropping the exp(-sigma2_q) terms, the best reference variance is
    sigma2 / (1 - 2 alpha sigma2) and the bound becomes
    -0.5 ln(1 - 2 alpha sigma2) - ex/n0, finite only below 1/(2 sigma2).
    The exposed alpha_c upper bound 1/(2 sigma2) is tight for this model.
    2 alpha sigma2 is formed as 2 (alpha sigma2), which stays finite below
    alpha_c even where 2 alpha alone overflows.
    """
    if not (alpha > 0 and sigma2 > 0 and ex_over_n0 >= 0):
        raise DomainError("parameters out of range")
    ac = 1.0 / (2.0 * sigma2)
    if alpha >= ac:
        return classify(math.inf, {"alpha_c": ac}, {"witness": "alpha >= 1/(2 sigma2)"})
    x = 2.0 * (alpha * sigma2)
    value = _gaussian_moment(x) - ex_over_n0
    return classify(value, {"sigma2_q": sigma2 / (1.0 - x), "alpha_c": ac})


def ww_rect_delay_bound(alpha: float, gamma: float, tau: float) -> BoundValue:
    """Delay-estimation bound for a rectangular pulse of width tau at SNR gamma.

    The reference model widens the pulse to tau_tilde at the same energy;
    the reference MSE floor is 0.324 tau_tilde^2 / gamma^2 and the
    divergence penalty is 2 gamma (1 - sqrt(tau / tau_tilde)).  Evaluated
    at the stationary tau_tilde; applicable only while that optimizer stays
    at or above tau, otherwise an out-of-window status is returned.
    """
    if not (alpha > 0 and tau > 0 and gamma >= 0):
        raise DomainError("parameters out of range")
    if gamma == 0.0:
        return BoundValue(math.nan, {"tau_tilde": math.nan}, STATUS_OUT_OF_WINDOW,
                          {"reason": "zero SNR"})
    try:
        tau_tilde = (gamma ** 3 * math.sqrt(tau) / (2.0 * _WW_CONST * alpha)) ** 0.4
    except OverflowError:
        tau_tilde = math.inf
    if tau_tilde == math.inf:   # the base overflows, tau_tilde may not: form the base in logs
        log_base = 3.0 * math.log(gamma) + 0.5 * math.log(tau) - math.log(2.0 * _WW_CONST * alpha)
        try:
            tau_tilde = math.exp(0.4 * log_base)
        except OverflowError:
            pass
    if not math.isfinite(tau_tilde):
        raise DomainError("gamma^3 sqrt(tau) / alpha is beyond float range")
    if tau_tilde < tau:
        return BoundValue(
            math.nan,
            {"tau_tilde": tau_tilde},
            STATUS_OUT_OF_WINDOW,
            {"reason": "optimal reference pulse narrower than the true pulse"},
        )
    ratio = math.sqrt(tau / tau_tilde)
    try:
        value = alpha * _WW_CONST * tau_tilde ** 2 / gamma ** 2 - 2.0 * gamma * (1.0 - ratio)
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):
        # a term is past the float range, the value is not: at the stationary
        # tau_tilde the floor term equals gamma sqrt(tau / tau_tilde) / 2
        value = gamma * (2.5 * ratio - 2.0)
    return classify(value, {"tau_tilde": tau_tilde}, {"nontrivial": value >= 0.0})


def scalar_linear_bound(alpha: float, es: float, n0: float) -> BoundValue:
    """Bound alpha n0 / (2 es) while alpha <= es/n0, +inf above.

    The critical factor es/n0 is exact: the ML estimator attains it.
    """
    if not (alpha > 0 and es > 0 and n0 > 0):
        raise DomainError("alpha, es, n0 must be positive")
    alpha_c = es / n0
    if alpha > alpha_c:
        return classify(math.inf, {"alpha_c": alpha_c}, dict(_META))
    # halved last: 2 es may overflow where the bound does not, and halving is exact
    return classify(alpha * n0 / es / 2.0, {"alpha_c": alpha_c}, dict(_META))


def scalar_ml_lambda(alpha: float, es: float, n0: float) -> float:
    """Exact exponential moment of the ML error, -0.5 ln(1 - alpha n0 / es)."""
    if not (alpha > 0 and es > 0 and n0 > 0):
        raise DomainError("alpha, es, n0 must be positive")
    return _gaussian_moment(alpha * n0 / es)


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
    geometry.  The MSE floor 1/I needs a tilted prior that vanishes at
    both ends of its support: a tilt that ``divergences.tilt_prior``
    rejects at the ends of the support raises its ``DomainError``, and so
    does a total information that is not positive (zero or NaN); one that
    overflowed to +inf only lowers alpha / I.  I and D come from
    ``prior.tilt_terms(beta)``, so the prior caches its tilt scalars and a
    repeated beta costs no new tilt.
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if not beta > 0:
        raise DomainError("beta must be positive")
    if not (es_over_n0 >= 0 and corr_term >= 0):
        raise DomainError("energies must be nonnegative")
    fisher_info, kl = prior.tilt_terms(beta)
    info = fisher_info + 2.0 * es_over_n0
    if not info > 0.0:
        raise DomainError("total information is not positive; the reference MSE bound "
                          "does not apply to this tilt")
    value = alpha / info - kl - corr_term
    return classify(value, {"beta": beta, "fisher_info": fisher_info})


class NuTradeoff:
    """Closed-form tradeoff terms for the raised-cosine reference family."""

    __slots__ = ("nu", "omega0", "ex")

    def __init__(self, nu: float, omega0: float, ex: float):
        if not (0.0 <= nu <= 1.0):
            raise DomainError("nu must lie in [0, 1]")
        if not (omega0 > 0 and ex > 0):
            raise DomainError("omega0 and ex must be positive")
        if not math.isfinite(ex * (omega0 * omega0)):
            raise DomainError("ex omega0^2 is beyond float range")
        self.nu, self.omega0, self.ex = nu, omega0, ex

    def derivative_energy(self) -> float:
        """Energy of the reference derivative, (1/3) ex omega0^2 nu^2."""
        return self.ex * self.omega0 ** 2 * self.nu ** 2 / 3.0

    def distance_term(self, n0: float) -> float:
        """Divergence penalty (ex / 3 n0) (1 - nu)^2."""
        if not n0 > 0:
            raise DomainError("n0 must be positive")
        return self.ex * (1.0 - self.nu) ** 2 / (3.0 * n0)


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
    ``core.coordinate_descent_max``, a profile whose outer search over beta
    reads at each beta the best nu in [0, 1] (a given beta is then not
    used; this search alone imports ``core``).  Only beta moves the
    tilt: the prior caches its tilt scalars (``prior.tilt_terms``), so the
    nu passes and every revisited beta cost scalar arithmetic, not a new
    tilt.  A bound that is -inf for every beta reports beta = nan.

    The prior must already be restricted to the valid delay window; edge
    effects of delays near the observation horizon are the caller's
    responsibility.
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if not (omega0 > 0 and ex > 0 and n0 > 0):
        raise DomainError("omega0, ex, n0 must be positive")
    NuTradeoff(0.0 if nu is None else nu, omega0, ex)   # a bad nu or ex omega0^2, up front

    def value_at(nu_val: float, beta_val: float) -> float:
        if not (0.0 <= nu_val <= 1.0) or beta_val <= 0:
            return -math.inf
        tradeoff = NuTradeoff(nu_val, omega0, ex)
        try:
            return tilted_prior_bound(prior, alpha, beta_val, tradeoff.derivative_energy() / n0,
                                      tradeoff.distance_term(n0)).value
        except DomainError:
            return -math.inf

    if nu is None:
        from .core import coordinate_descent_max   # at call time: core loads numpy

        nu_star, beta_star, val = coordinate_descent_max(value_at, (0.0, 1.0), _BETA_BRACKET)
        return classify(val, {"nu": nu_star, "beta": beta_star})
    if beta is None:
        beta_star, val, n_eval = maximize_scalar(lambda b: value_at(nu, b), *_BETA_BRACKET,
                                                 log_spaced=True, coarse=64)
        if val == -math.inf:
            beta_star = math.nan  # no feasible beta: the grid point is not a maximizer
        return classify(val, {"nu": nu, "beta": beta_star}, {"n_eval": n_eval})
    val = value_at(nu, beta)
    if val == -math.inf:
        raise DomainError("infeasible (nu, beta) point")
    return classify(val, {"nu": nu, "beta": beta})


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Maximize a unimodal scalar function on the float bracket [lo, hi].

    Returns (argmax, value).  -inf function values are handled (they lose
    every comparison), so brackets may touch infeasible regions.  This
    plain Python loop is about a hundred times faster than numpy on a
    single search and loads no numpy; ``core._golden_section_batch`` runs
    the same loop on arrays of brackets.
    """
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while abs(b - a) > tol * (1.0 + abs(a) + abs(b)) and it < _GOLDEN_MAX_ITER:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        it += 1
    x = c if fc > fd else d
    return x, f(x)


def maximize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    log_spaced: bool = False,
    coarse: int = 64,
) -> tuple[float, float, int]:
    """Coarse grid sweep followed by golden-section polish, on a float bracket.

    The coarse sweep guards against non-unimodal profiles; the polish runs
    on the bracket around the best coarse point.  Returns
    (argmax, value, n_evaluations), the last a Python int counting every
    point passed to f.  The best coarse point is numpy's ``nanargmax``:
    the first maximum once NaN reads as -inf, and a profile that is NaN at
    every point raises DomainError.  A best coarse value that is not
    finite is returned unpolished: +inf cannot be beaten, and -inf or NaN
    means that every coarse point is -inf or NaN, so the first one wins.

    f gets plain floats: the linear grid is ``_linspace`` and a log-spaced
    one ``_logspace``, the one use of numpy on this path.
    ``core._maximize_batch`` runs the same search on arrays of brackets.
    """
    if coarse < 2:
        raise DomainError("the coarse sweep needs at least 2 points")
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise DomainError("empty bracket")
    if log_spaced:
        if lo <= 0:
            raise DomainError("log-spaced bracket needs lo > 0")
        grid = _logspace(lo, hi, coarse)
    else:
        grid = _linspace(lo, hi, coarse)
    vals = [f(x) for x in grid]
    n_eval = coarse
    if all(v != v for v in vals):
        raise DomainError("objective is NaN at every point of the bracket")
    clean = [-math.inf if v != v else v for v in vals]   # nanargmax reads NaN as -inf
    k = clean.index(max(clean))
    x, fx = grid[k], vals[k]
    blo, bhi = grid[max(k - 1, 0)], grid[min(k + 1, coarse - 1)]
    if not -math.inf < fx < math.inf or blo == bhi:
        return x, float(fx), n_eval

    def counted(u: float) -> float:
        nonlocal n_eval
        n_eval += 1
        return f(u)

    xp, fxp = golden_section_max(counted, blo, bhi)
    if fxp < fx:
        return x, float(fx), n_eval
    return xp, fxp, n_eval


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``np.linspace(start, stop, n)`` for n >= 2, bit for bit, without numpy.

    numpy's own formula: point i is i * step + start with step =
    (stop - start) / (n - 1), or i / (n - 1) * (stop - start) + start when
    step rounds to 0 (a subnormal span), and the last point is stop.
    """
    div, delta = n - 1, stop - start
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(n)]
    else:
        points = [i * step + start for i in range(n)]
    points[-1] = stop
    return points


def _logspace(start: float, stop: float, n: int) -> list[float]:
    """``np.exp`` of the ``_linspace`` of the logs of start > 0 and stop > 0, as floats.

    np.exp, not math.exp: the two round differently, and numpy's is the
    rounding of every log-spaced sweep.  This is the module's one numpy use.
    """
    import numpy as np

    return np.exp(_linspace(math.log(start), math.log(stop), n)).tolist()


def _interp(x: float, xp: list[float], fp: list[float]) -> float:
    """``np.interp(x, xp, fp)`` for a finite x and finite, increasing xp, bit for bit.

    numpy's own formula: below xp[0] the first value, from xp[-1] on the
    last, at a node its value, and between nodes j and j + 1
    slope * (x - xp[j]) + fp[j] with slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]).
    numpy's retries for a NaN result need a non-finite input and are left out.
    """
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j >= len(xp) - 1:
        return fp[-1]
    if xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[j]
