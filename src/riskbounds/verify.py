"""Ground truth for the bounds: Monte Carlo, exact sums and fixed points.

Monte Carlo runs simulate the continuous-time models through their
finite-dimensional sufficient statistics (the matched-filter output is
Gaussian with known moments), never by waveform discretization.  Streams
are counter-based so that serial and parallel execution produce identical
bits, and every estimate ships with batch-means error bars and a
heavy-tail diagnostic: near the critical risk factor the empirical moment
is dominated by rare samples and the error bars stop being trustworthy,
so runs above 80 percent of the known threshold are refused outright.

The Bernoulli model gets an exact finite-sample oracle (a log-space
binomial sum), and the risk-sensitive posterior estimator is computed by
a damped fixed-point iteration on the tilted posterior mean with a direct
1-D minimization fallback.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DivergenceRiskError, DomainError, GridDensity, logsumexp

__all__ = [
    "MCRun",
    "MCResult",
    "BernoulliExact",
    "MODEL_THRESHOLDS",
    "mc_lambda",
    "bernoulli_exact_lambda",
    "risk_sensitive_posterior_estimator",
]

_BLOCK = 4096            # samples per counter block; fixed for reproducibility
_N_BATCHES = 20
_MAX_SHARE_WARN = 0.01
_ALPHA_SAFETY = 0.8      # refuse runs above this fraction of the known threshold

_FIXED_POINT_TOL = 1e-10
_FIXED_POINT_DAMPING = 0.5
_FIXED_POINT_MAX_ITER = 500


@dataclass(frozen=True)
class MCRun:
    """A reproducible Monte Carlo configuration.

    model_id selects the sufficient-statistic simulator, estimator_id the
    estimator applied to it.  Supported pairs:

    * ``lin-gauss`` with ``cond-mean`` or ``zero``  (params sigma2, es, n0)
    * ``phase-trivial`` with ``zero``               (params sigma2)
    * ``nb-ml`` with ``ml``                         (params es, n0)
    """

    model_id: str
    estimator_id: str
    alpha: float
    n_samples: int
    master_seed: int
    sigma2: float = 1.0
    es: float = 1.0
    n0: float = 1.0

    def __post_init__(self):
        if self.n_samples < 1000:
            raise DomainError("n_samples must be at least 1e3")
        if not all(math.isfinite(v) for v in (self.alpha, self.sigma2, self.es, self.n0)):
            raise DomainError("alpha and the model parameters must be finite")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")
        if self.sigma2 <= 0 or self.n0 <= 0 or self.es < 0:
            raise DomainError("model parameters out of range")
        if not 0 <= self.master_seed < 2 ** 128:
            raise DomainError("master_seed must lie in [0, 2**128)")


@dataclass(frozen=True)
class MCResult:
    lambda_hat: float
    se: float
    max_share: float
    heavy_tail: bool
    n_samples: int
    threshold: float

    def covers(self, target: float, n_se: float = 3.0) -> bool:
        return abs(self.lambda_hat - target) <= n_se * self.se


def _threshold_lin_gauss_cond_mean(run: MCRun) -> float:
    return 1.0 / (2.0 * run.sigma2) + run.es / run.n0


def _threshold_prior_only(run: MCRun) -> float:
    return 1.0 / (2.0 * run.sigma2)


def _threshold_nb_ml(run: MCRun) -> float:
    return run.es / run.n0


MODEL_THRESHOLDS: dict[tuple[str, str], Callable[[MCRun], float]] = {
    ("lin-gauss", "cond-mean"): _threshold_lin_gauss_cond_mean,
    ("lin-gauss", "zero"): _threshold_prior_only,
    ("phase-trivial", "zero"): _threshold_prior_only,
    ("nb-ml", "ml"): _threshold_nb_ml,
}


def _errors_for_block(run: MCRun, block_index: int, m: int) -> np.ndarray:
    """Estimation errors for one counter block, in a fixed draw order.

    The block's normals come in order: m for the parameter, then m for
    the observation noise when the estimator sees the observation (nb-ml
    draws only its m noise normals).  Two draws of m give the same stream
    as one of 2m, so a run that needs no noise stops after the first m.
    """
    bitgen = np.random.Philox(
        key=run.master_seed,
        counter=np.array([0, 0, block_index, 0], dtype=np.uint64),
    )
    gen = np.random.Generator(bitgen)
    if run.model_id == "nb-ml":
        scale = math.sqrt(run.n0 / (2.0 * run.es))
        return scale * gen.standard_normal(m)
    if run.model_id not in ("lin-gauss", "phase-trivial"):
        raise DomainError(f"unknown model_id {run.model_id!r}")
    theta = math.sqrt(run.sigma2) * gen.standard_normal(m)
    if run.model_id == "phase-trivial" or run.estimator_id == "zero" or run.es == 0.0:
        return -theta
    noise = math.sqrt(run.es * run.n0 / 2.0) * gen.standard_normal(m)
    stat = theta * run.es + noise
    coef = run.sigma2 / (run.sigma2 * run.es + run.n0 / 2.0)
    return coef * stat - theta


def mc_lambda(run: MCRun, workers: int = 1) -> MCResult:
    """Empirical ln E exp(alpha error^2) with batch-means error bars.

    Refuses to run above 80 percent of the model's known divergence
    threshold: the estimator's variance blows up there before its mean
    does.  Identical master seeds give bit-identical results for any
    worker count; blocks are reduced in index order by log-sum-exp.

    The batch means come from contiguous slices of each block, cut at the
    batch edges: a block that lies inside one batch reuses its own
    log-sum-exp, and one that straddles edges (at n = 1000 a single block
    covers all 20 batches) adds one slice per batch it touches.
    """
    key = (run.model_id, run.estimator_id)
    if key not in MODEL_THRESHOLDS:
        raise DomainError(f"unsupported model/estimator pair {key!r}")
    threshold = MODEL_THRESHOLDS[key](run)
    if run.alpha > _ALPHA_SAFETY * threshold:
        raise DivergenceRiskError(
            f"alpha = {run.alpha:.6g} exceeds {_ALPHA_SAFETY:.0%} of the divergence "
            f"threshold {threshold:.6g}; the empirical moment would be untrustworthy"
        )

    n = run.n_samples
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    batch_edges = [i * n // _N_BATCHES for i in range(_N_BATCHES + 1)]

    def block_stats(b: int):
        start = b * _BLOCK
        stop = min(start + _BLOCK, n)
        errors = _errors_for_block(run, b, stop - start)
        log_terms = run.alpha * errors * errors
        lse = logsumexp(log_terms)
        per_batch = []
        lo, j = start, bisect_right(batch_edges, start) - 1
        while lo < stop:
            hi = min(stop, batch_edges[j + 1])
            sel = log_terms[lo - start:hi - start]
            per_batch.append((j, lse if sel.size == log_terms.size else logsumexp(sel), sel.size))
            lo, j = hi, j + 1
        return lse, float(np.max(log_terms)), per_batch

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block_stats, range(n_blocks)))
    else:
        results = [block_stats(b) for b in range(n_blocks)]

    total_lse = -math.inf
    max_log = -math.inf
    batch_lse = np.full(_N_BATCHES, -math.inf)
    batch_n = np.zeros(_N_BATCHES, dtype=int)
    for lse, mx, per_batch in results:   # fixed block order keeps bits stable
        total_lse = np.logaddexp(total_lse, lse)
        max_log = max(max_log, mx)
        for j, blse, cnt in per_batch:
            batch_lse[j] = np.logaddexp(batch_lse[j], blse)
            batch_n[j] += cnt

    lambda_hat = float(total_lse - math.log(n))
    mean = math.exp(lambda_hat)
    batch_means = np.exp(batch_lse - np.log(batch_n))
    se_mean = float(np.std(batch_means, ddof=1) / math.sqrt(_N_BATCHES))
    se = se_mean / mean
    max_share = float(math.exp(max_log - total_lse))
    return MCResult(
        lambda_hat=lambda_hat,
        se=se,
        max_share=max_share,
        heavy_tail=max_share > _MAX_SHARE_WARN,
        n_samples=n,
        threshold=threshold,
    )


@dataclass(frozen=True)
class BernoulliExact:
    """Exact finite-n Bernoulli configuration with a count-indexed estimator."""

    n: int
    a: float
    theta: float
    estimator: Callable[[float], float]

    def __post_init__(self):
        if not (1 <= self.n <= 100_000):
            raise DomainError("n must lie in [1, 1e5]")
        if self.a < 0:
            raise DomainError("a must be nonnegative")
        if not (0.0 < self.theta < 1.0):
            raise DomainError("theta must lie strictly inside (0, 1)")


def bernoulli_exact_lambda(spec: BernoulliExact) -> float:
    """ln sum_k C(n,k) theta^k (1-theta)^(n-k) exp{a n (that(k/n) - theta)^2}.

    Everything stays in log space, so the sum is exact to float rounding
    for any feasible n.
    """
    n, a, theta = spec.n, spec.a, spec.theta
    k = np.arange(n + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    log_pmf = (
        log_fact[n] - log_fact - log_fact[::-1]
        + k * math.log(theta) + (n - k) * math.log1p(-theta)
    )
    check = logsumexp(log_pmf)
    if abs(check) > 1e-12 * n:
        raise DomainError(f"binomial mass sums to exp({check:.3g}), not 1")
    estimates = np.array([spec.estimator(ki / n) for ki in k], dtype=float)
    log_terms = log_pmf + a * n * (estimates - theta) ** 2
    return logsumexp(log_terms)


def _tilted_moments(post: GridDensity, alpha: float, eta: float) -> tuple[float, float]:
    """(log normalizer, tilted mean) of p(theta) exp(alpha (theta - eta)^2)."""
    log_f = post.log_density + alpha * (post.theta - eta) ** 2
    log_z = logsumexp(log_f, post.weights)
    mean = float(np.sum(post.weights * np.exp(log_f - log_z) * post.theta))
    return log_z, mean


def _tail_probe(post: GridDensity, alpha: float) -> None:
    """Reject tilts whose mass concentrates at the grid edges."""
    log_f = post.log_density + alpha * (post.theta - post.mean()) ** 2
    total = logsumexp(log_f)
    edge = max(post.theta.size // 50, 2)
    edge_mass = math.exp(logsumexp(np.concatenate([log_f[:edge], log_f[-edge:]])) - total)
    if edge_mass > 1e-3:
        raise DivergenceRiskError(
            "tilted posterior mass concentrates at the grid edges; the "
            "exponential moment is not represented by this grid"
        )


def risk_sensitive_posterior_estimator(posterior: GridDensity, alpha: float) -> float:
    """Estimate minimizing the posterior exponential moment of squared error.

    Solves eta = tilted posterior mean by damped fixed-point iteration
    (damping 0.5, start at the posterior mean); if the iteration fails to
    settle, falls back to golden-section minimization of the tilted log
    normalizer, which exists whenever the tilt is integrable.
    """
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    posterior.check_normalized(1e-4)
    if alpha == 0.0:
        return posterior.mean()
    _tail_probe(posterior, alpha)

    eta = posterior.mean()
    for _ in range(_FIXED_POINT_MAX_ITER):
        _, tilted_mean = _tilted_moments(posterior, alpha, eta)
        new_eta = (1.0 - _FIXED_POINT_DAMPING) * eta + _FIXED_POINT_DAMPING * tilted_mean
        if abs(new_eta - eta) < _FIXED_POINT_TOL:
            return new_eta
        eta = new_eta

    # oscillation: minimize the tilted log normalizer directly
    from .core import golden_section_max

    lo, hi = float(posterior.theta[0]), float(posterior.theta[-1])
    x, _ = golden_section_max(lambda e: -_tilted_moments(posterior, alpha, e)[0], lo, hi,
                              tol=1e-12)
    return x
