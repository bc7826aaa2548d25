"""Ground truth for the bounds: Monte Carlo, exact sums and fixed points.

Monte Carlo runs simulate the continuous-time models through their
finite-dimensional sufficient statistics (the matched-filter output is
Gaussian with known moments), never by waveform discretization.  Streams
are counter-based: each block of 4096 samples draws from its own Philox
counter block, and a worker takes one contiguous span of blocks and works
through it a chunk of blocks at a time with in-place numpy arithmetic, so
serial and parallel execution produce identical bits.  Every estimate
ships with batch-means error bars and a heavy-tail diagnostic: near the
critical risk factor the empirical moment is dominated by rare samples
and the error bars stop being trustworthy, so runs above 80 percent of
the known threshold are refused outright.

The Bernoulli model gets an exact finite-sample oracle (a log-space
binomial sum), and the risk-sensitive posterior estimator is the fixed
point of the tilted posterior mean, found by bisection.  ``certify`` runs
the bound-versus-truth battery behind ``riskbounds verify certify``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LOG_FLOAT_MAX, DivergenceRiskError, DomainError, GridDensity, logsumexp

__all__ = [
    "MCRun",
    "MCResult",
    "BernoulliExact",
    "MODEL_THRESHOLDS",
    "mc_lambda",
    "bernoulli_exact_lambda",
    "risk_sensitive_posterior_estimator",
    "certify",
]

_BLOCK = 4096            # samples per counter block; fixed for reproducibility
_CHUNK = 8               # blocks per in-place chunk; any size gives the same bits
_N_BATCHES = 20
_MAX_SHARE_WARN = 0.01
_ALPHA_SAFETY = 0.8      # refuse runs above this fraction of the known threshold


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


def _block_stream(master_seed: int) -> tuple[np.random.Generator, Callable[[int], None]]:
    """A generator on the master seed's Philox key and ``reset(b)`` for it.

    ``reset(b)`` gives the bit generator the state of a freshly built
    ``Philox(key=master_seed, counter=[0, 0, b, 0])`` (counter block b,
    empty buffer, no pending 32-bit half), whatever was drawn before.  This
    is the reproducibility contract of the counter blocks; a reset costs
    about 1 us where a new Philox costs about 18 us.
    """
    bitgen = np.random.Philox(key=master_seed)
    counter = [0, 0, 0, 0]
    fresh = bitgen.state
    # plain lists: the state setter reads them about twice as fast as arrays
    fresh["state"] = {"counter": counter, "key": fresh["state"]["key"].tolist()}
    fresh["buffer"] = fresh["buffer"].tolist()

    def reset(b: int) -> None:
        counter[2] = b
        bitgen.state = fresh

    return np.random.Generator(bitgen), reset


def _spans(n_blocks: int, workers: int) -> list[range]:
    """Contiguous ranges of block indices, one per worker, never more than blocks."""
    k = max(1, min(workers, n_blocks))
    return [range(i * n_blocks // k, (i + 1) * n_blocks // k) for i in range(k)]


def _in_threads(fn: Callable, items: list) -> list:
    """[fn(item) for item in items], one thread per item after the first.

    The calling thread takes the first item, so a single item starts no
    thread.  Plain threads, not concurrent.futures: that module and the
    logging module it imports cost about 10 ms per process.  The first
    exception raised in any thread is raised here once all have ended.
    """
    results = [None] * len(items)
    errors = []

    def work(i: int) -> None:
        try:
            results[i] = fn(items[i])
        except BaseException as exc:      # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, len(items))]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


@np.errstate(over="ignore", invalid="ignore")   # overflow ends as mc_lambda's error
def _span_stats(run: MCRun, blocks: range, batch_edges: list[int]) -> list[tuple]:
    """(log-sum-exp, max, batch pieces) of alpha error^2 for each block of a span.

    Block b draws from counter block b: m normals for the parameter, then m
    for the observation noise when the estimator sees the observation (nb-ml
    draws only its m noise normals).  The blocks are processed _CHUNK at a
    time as rows of buffers the span owns, with every arithmetic step in
    place and in the order the per-block formulas fix, so the chunking
    changes no bits.  A block's batch pieces are one (batch, log-sum-exp,
    count) per batch it touches: its own log-sum-exp when it lies inside
    one batch, a log-sum-exp of its slice per batch when it straddles edges
    (at n = 1000 a single block covers all 20 batches).
    """
    n, alpha = run.n_samples, run.alpha
    two_draws = not (run.model_id in ("nb-ml", "phase-trivial")
                     or run.estimator_id == "zero" or run.es == 0.0)
    if run.model_id == "nb-ml":
        scale = math.sqrt(run.n0 / (2.0 * run.es))
    else:
        # the prior-only error is -theta; the sign drops out of (alpha e) e bit for bit
        scale = math.sqrt(run.sigma2)
    noise_scale = math.sqrt(run.es * run.n0 / 2.0)
    coef = run.sigma2 / (run.sigma2 * run.es + run.n0 / 2.0)

    gen, reset = _block_stream(run.master_seed)
    shape = (min(_CHUNK, len(blocks)), _BLOCK)
    # every row is drawn in full or, in a ragged last block, zeroed past its
    # samples, so no uninitialized value meets the arithmetic
    draws, work = np.empty(shape), np.empty(shape)
    noise = np.empty(shape) if two_draws else None
    results = []
    for first in range(blocks.start, blocks.stop, _CHUNK):
        chunk = range(first, min(first + _CHUNK, blocks.stop))
        k = len(chunk)
        sizes = [min(_BLOCK, n - b * _BLOCK) for b in chunk]
        ragged = int(sizes[-1] < _BLOCK)
        for r, (b, m) in enumerate(zip(chunk, sizes)):
            reset(b)
            gen.standard_normal(out=draws[r, :m])
            if two_draws:
                gen.standard_normal(out=noise[r, :m])
            if m < _BLOCK:
                draws[r, m:] = 0.0
                if two_draws:
                    noise[r, m:] = 0.0

        x = draws[:k]
        np.multiply(x, scale, out=x)
        if two_draws:        # error = coef (theta es + noise) - theta
            z, stat = noise[:k], work[:k]
            np.multiply(z, noise_scale, out=z)
            np.multiply(x, run.es, out=stat)
            np.add(stat, z, out=stat)
            np.multiply(stat, coef, out=stat)
            np.subtract(stat, x, out=stat)
            x, log_terms = stat, z
        else:
            log_terms = work[:k]
        np.multiply(x, alpha, out=log_terms)
        np.multiply(log_terms, x, out=log_terms)

        # straddling pieces and the ragged row come from the log terms, before
        # the in-place exp; a ragged row keeps logsumexp on its own slice,
        # since zero padding would change the pairwise sum
        pieces = []
        for r, (b, m) in enumerate(zip(chunk, sizes)):
            start = b * _BLOCK
            stop = start + m
            j = bisect_right(batch_edges, start) - 1
            if stop <= batch_edges[j + 1]:
                pieces.append(j)     # inside batch j: its piece is the block's own value
                continue
            per_batch, lo = [], start
            while lo < stop:
                hi = min(stop, batch_edges[j + 1])
                per_batch.append((j, logsumexp(log_terms[r, lo - start:hi - start]), hi - lo))
                lo, j = hi, j + 1
            pieces.append(per_batch)
        if ragged:
            row = log_terms[k - 1, :sizes[-1]]
            tail = (logsumexp(row), float(np.max(row)))

        full = log_terms[:k - ragged]
        maxes = full.max(axis=1)
        np.subtract(full, maxes[:, None], out=full)
        np.exp(full, out=full)
        sums = full.sum(axis=1).tolist()
        maxes = maxes.tolist()
        for r, (m, per_batch) in enumerate(zip(sizes, pieces)):
            if r < k - ragged:
                mx = maxes[r]
                lse = mx + math.log(sums[r]) if math.isfinite(mx) else mx
            else:
                lse, mx = tail
            if isinstance(per_batch, int):
                per_batch = [(per_batch, lse, m)]
            results.append((lse, mx, per_batch))
    return results


@np.errstate(over="ignore", invalid="ignore")   # a non-finite lambda_hat is the error
def mc_lambda(run: MCRun, workers: int = 1) -> MCResult:
    """Empirical ln E exp(alpha error^2) with batch-means error bars.

    Refuses to run above 80 percent of the model's known divergence
    threshold: the estimator's variance blows up there before its mean
    does.  Identical master seeds give bit-identical results for any
    worker count: the counter blocks are split into one contiguous span
    per worker (never more spans than blocks, one when serial), each span
    draws its blocks from their own Philox counters into chunk buffers of
    its own, and the blocks are reduced in index order by log-sum-exp.
    The batch means come from contiguous slices of each block, cut at the
    batch edges.  Threads pay because the draws and the chunk arithmetic
    run in numpy without the GIL.
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
    per_span = _in_threads(lambda blocks: _span_stats(run, blocks, batch_edges),
                           _spans(n_blocks, workers))

    total_lse = -math.inf
    max_log = -math.inf
    batch_lse = np.full(_N_BATCHES, -math.inf)
    batch_n = np.zeros(_N_BATCHES, dtype=int)
    for results in per_span:
        for lse, mx, per_batch in results:   # fixed block order keeps bits stable
            total_lse = np.logaddexp(total_lse, lse)
            max_log = max(max_log, mx)
            for j, blse, cnt in per_batch:
                batch_lse[j] = np.logaddexp(batch_lse[j], blse)
                batch_n[j] += cnt

    lambda_hat = float(total_lse - math.log(n))
    if not lambda_hat <= LOG_FLOAT_MAX:   # NaN, +inf, or an exp that overflows
        raise DomainError(
            f"Monte Carlo estimate lambda_hat = {lambda_hat:.6g} is beyond float range; "
            "the sampled moment cannot be represented"
        )
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


def _tilted_mean(post: GridDensity, alpha: float, eta: float) -> float:
    """Mean of p(theta) exp(alpha (theta - eta)^2), normalized."""
    log_f = post.log_density + alpha * (post.theta - eta) ** 2
    log_z = logsumexp(log_f, post.weights)
    return float(np.sum(post.weights * np.exp(log_f - log_z) * post.theta))


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

    It is the root of eta - m(eta), m the tilted posterior mean: the
    eta-derivative of the convex tilted log normalizer, over 2 alpha.  The
    gap increases, is <= 0 at the first grid point and >= 0 at the last, so
    bisection runs until it hits the root or the bracket cannot shrink.
    """
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    posterior.check_normalized(1e-4)
    if alpha == 0.0:
        return posterior.mean()
    _tail_probe(posterior, alpha)

    lo, hi = float(posterior.theta[0]), float(posterior.theta[-1])
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        gap = mid - _tilted_mean(posterior, alpha, mid)
        if gap == 0.0:
            return mid
        lo, hi = (mid, hi) if gap < 0.0 else (lo, mid)
    return mid


def certify(samples: int, seed: int) -> tuple[list[list], bool]:
    """Bound-versus-truth battery; returns (rows, any_violation)."""
    from . import bayes_bounds, nonbayes_bounds   # here, so that `verify mc` loads neither

    rows: list[list] = []

    def record(check: str, alpha: float, bound: float, truth: float, slack: float) -> None:
        margin = truth + slack - bound
        ok = bound <= truth + slack or (math.isinf(bound) and math.isinf(truth))
        rows.append([check, alpha, bound, truth, margin, "ok" if ok else "violation"])

    sigma2, es, n0 = 0.5, 1.0, 1.0
    model = bayes_bounds.LinearGaussianModel(sigma2, es, n0)
    ac = model.alpha_c()
    for frac in (0.1, 0.3, 0.5, 0.7):
        alpha = frac * ac
        exact = bayes_bounds.linear_gaussian_min_lambda(model, alpha).value
        jensen = bayes_bounds.generic_bayes_bound(alpha, model.mmse(), 0.0).value
        record("bayes-generic-vs-exact", alpha, jensen, exact, 0.0)
        record("bayes-exact-self", alpha, exact, exact, 1e-12)

    prior_only = bayes_bounds.LinearGaussianModel(sigma2, 0.0, n0)
    for frac in (0.3, 0.5, 0.7):
        alpha = frac / (2.0 * sigma2)
        exact = bayes_bounds.linear_gaussian_min_lambda(prior_only, alpha).value
        run = MCRun("phase-trivial", "zero", alpha=alpha, n_samples=samples,
                    master_seed=seed, sigma2=sigma2)
        mc = mc_lambda(run)
        lp = bayes_bounds.lpcb_bound(alpha, sigma2=sigma2, ex=0.05 * n0, n0=n0)
        record("bayes-lpcb-vs-mc", alpha, lp.value, mc.lambda_hat, 3.0 * mc.se)
        ph = bayes_bounds.phase_bound_large_sigma(alpha, sigma2, 0.05)
        record("bayes-phase-vs-exact", alpha, ph.value, exact, 0.0)

    for frac in (0.2, 0.5, 0.79):
        alpha = frac * es / n0
        run = MCRun("nb-ml", "ml", alpha=alpha, n_samples=samples,
                    master_seed=seed + 1, es=es, n0=n0)
        mc = mc_lambda(run)
        bd = nonbayes_bounds.scalar_linear_bound(alpha, es, n0)
        record("nonbayes-scalar-vs-mc", alpha, bd.value, mc.lambda_hat, 3.0 * mc.se)
        ml = nonbayes_bounds.scalar_ml_lambda(alpha, es, n0)
        record("nonbayes-scalar-vs-ml", alpha, bd.value, ml, 0.0)

    gamma = np.array([[1.0, 0.35], [0.35, 1.0]])
    vec_model = nonbayes_bounds.VectorLinearModel(gamma, es, n0)
    for t in (0.2, 0.5, 0.8):
        a_vec = t * np.array([0.7, 0.4])
        bd = nonbayes_bounds.vector_linear_bound(vec_model, a_vec)
        ml = nonbayes_bounds.vector_ml_lambda(vec_model, a_vec)
        record("nonbayes-vector-vs-ml", t, bd.value, ml, 0.0)

    n_bern, a_bern, theta_bern = 200, 1.0, 0.3
    lam = bernoulli_exact_lambda(
        BernoulliExact(n=n_bern, a=a_bern, theta=theta_bern, estimator=lambda q: q))
    qs = np.linspace(1e-9, 1 - 1e-9, 100001)
    div = qs * np.log(qs / theta_bern) + (1 - qs) * np.log((1 - qs) / (1 - theta_bern))
    exponent = float(np.max(a_bern * (qs - theta_bern) ** 2 - div))
    record("bernoulli-exponent-vs-exact", a_bern,
           exponent - math.log(n_bern + 1) / n_bern, lam / n_bern, 0.0)

    return rows, any(row[-1] == "violation" for row in rows)
