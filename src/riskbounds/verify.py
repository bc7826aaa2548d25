"""Ground truth for the bounds: Monte Carlo, exact sums and fixed points.

Monte Carlo runs simulate the continuous-time models through their
finite-dimensional sufficient statistics (the matched-filter output is
Gaussian with known moments), never by waveform discretization.  Streams
are counter-based: each block of 4096 samples draws from its own Philox
counter block, and a worker takes one contiguous span of blocks and works
through it a chunk of blocks at a time (a ragged last block is a chunk of
its own) with in-place numpy arithmetic, so serial and parallel execution
produce identical bits.  Every estimate ships with batch-means error bars,
from one rule that cuts every block at the batch edges (a batch's sample
count comes from its edges), and a heavy-tail diagnostic: near the
critical risk factor the empirical moment is dominated by rare samples
and the error bars stop being trustworthy, so runs above 80 percent of
the known threshold are refused outright.  ``divergence_threshold`` gives
that threshold for each simulated model/estimator pair; its Gaussian
critical factors are ``LinearGaussianModel.alpha_c``, so the threshold, the
CLI's ``--alpha-frac`` alpha and ``certify``'s alphas read one float.
Integer fields (sample counts, seeds, n) go through ``operator.index``,
so a float there is a ``DomainError``, not a ``TypeError`` deep in a kernel.

The Bernoulli model gets an exact finite-sample oracle (a log-space
binomial sum of n + 1 Python floats, shifted by its largest term and
added by ``math.fsum``).  ``certify`` runs the bound-versus-truth battery
behind ``riskbounds verify certify``.

numpy is imported only by the Monte Carlo kernels (``_block_stream``,
``_span_stats``, ``mc_lambda``) and by ``certify``, and the module
defines no dataclass (``MCResult`` is a ``NamedTuple``, the two
configurations ``__slots__`` classes), so ``verify bernoulli-exact``
loads neither numpy nor ``dataclasses``.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Callable, NamedTuple

from .closed_forms import (
    LOG_FLOAT_MAX,
    LinearGaussianModel,
    generic_bayes_bound,
    golden_section_max,
    linear_gaussian_min_lambda,
    phase_bound_large_sigma,
    scalar_linear_bound,
    scalar_ml_lambda,
)
from .errors import DivergenceRiskError, DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MCRun",
    "MCResult",
    "BernoulliExact",
    "divergence_threshold",
    "mc_lambda",
    "bernoulli_exact_lambda",
    "certify",
]

_BLOCK = 4096            # samples per counter block; fixed for reproducibility
_CHUNK = 8               # blocks per in-place chunk; any size gives the same bits
_N_BATCHES = 20
_MAX_SHARE_WARN = 0.01
_ALPHA_SAFETY = 0.8      # refuse runs above this fraction of the known threshold

_MC_PAIRS = (("lin-gauss", "cond-mean"), ("lin-gauss", "zero"), ("phase-trivial", "zero"),
             ("nb-ml", "ml"))   # the (model_id, estimator_id) pairs with a simulator


def _integer(value, name: str) -> int:
    """value as a Python int; a float or any other non-integer is a DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer") from None


class MCRun:
    """A reproducible Monte Carlo configuration.

    model_id selects the sufficient-statistic simulator, estimator_id the
    estimator applied to it.  Supported pairs:

    * ``lin-gauss`` with ``cond-mean`` or ``zero``  (params sigma2, es, n0)
    * ``phase-trivial`` with ``zero``               (params sigma2)
    * ``nb-ml`` with ``ml``                         (params es, n0)
    """

    __slots__ = ("model_id", "estimator_id", "alpha", "n_samples", "master_seed",
                 "sigma2", "es", "n0")

    def __init__(self, model_id: str, estimator_id: str, alpha: float, n_samples: int,
                 master_seed: int, sigma2: float = 1.0, es: float = 1.0, n0: float = 1.0):
        n_samples = _integer(n_samples, "n_samples")
        if n_samples < 1000:
            raise DomainError("n_samples must be at least 1e3")
        if not all(math.isfinite(v) for v in (alpha, sigma2, es, n0)):
            raise DomainError("alpha and the model parameters must be finite")
        if alpha <= 0:
            raise DomainError("alpha must be positive")
        if sigma2 <= 0 or n0 <= 0 or es < 0:
            raise DomainError("model parameters out of range")
        master_seed = _integer(master_seed, "master_seed")
        if not 0 <= master_seed < 2 ** 128:
            raise DomainError("master_seed must lie in [0, 2**128)")
        self.model_id, self.estimator_id = model_id, estimator_id
        self.alpha, self.n_samples, self.master_seed = alpha, n_samples, master_seed
        self.sigma2, self.es, self.n0 = sigma2, es, n0


class MCResult(NamedTuple):
    lambda_hat: float
    se: float
    max_share: float
    heavy_tail: bool
    n_samples: int
    threshold: float

    def covers(self, target: float, n_se: float = 3.0) -> bool:
        return abs(self.lambda_hat - target) <= n_se * self.se


def divergence_threshold(model_id: str, estimator_id: str, sigma2: float, es: float,
                         n0: float) -> float:
    """alpha_c of the pair: ``LinearGaussianModel.alpha_c``, with es = 0 for an
    estimator that ignores the observation, or es / n0 for the ML estimator."""
    if (model_id, estimator_id) not in _MC_PAIRS:
        raise DomainError(f"unsupported model/estimator pair {(model_id, estimator_id)!r}")
    if not (sigma2 > 0 and n0 > 0 and es >= 0):
        raise DomainError("model parameters out of range")
    if model_id == "nb-ml":
        return es / n0
    return LinearGaussianModel(sigma2, es if estimator_id == "cond-mean" else 0.0, n0).alpha_c()


def _block_stream(master_seed: int) -> tuple[np.random.Generator, Callable[[int], None]]:
    """A generator on the master seed's Philox key and ``reset(b)`` for it.

    ``reset(b)`` gives the bit generator the state of a freshly built
    ``Philox(key=master_seed, counter=[0, 0, b, 0])`` (counter block b,
    empty buffer, no pending 32-bit half), whatever was drawn before.  This
    is the reproducibility contract of the counter blocks; a reset costs
    about 1 us where a new Philox costs about 18 us.
    """
    import numpy as np

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


def _span_stats(run: MCRun, blocks: range, batch_edges: list[int]) -> list[tuple]:
    """(log-sum-exp, max, batch pieces) of alpha error^2 for each block of a span.

    Block b draws from counter block b: m normals for the parameter, then m
    for the observation noise when the estimator sees the observation (nb-ml
    draws only its m noise normals).  A chunk is up to _CHUNK full blocks,
    or the ragged last block alone, so its rows share one width: every
    arithmetic step runs in place on ``[:k, :width]`` views of buffers the
    span owns, in the order the per-block formulas fix, and the chunking
    changes no bits.  One rule cuts each block at the batch edges into
    (batch, log-sum-exp) pieces: inside one batch the block is one piece,
    its row's own log-sum-exp; a block that straddles edges gives one piece
    per slice (at n = 1000 a single block covers all 20 batches).
    """
    import numpy as np

    from .core import logsumexp

    with np.errstate(over="ignore", invalid="ignore"):   # overflow ends as mc_lambda's error
        n, alpha = run.n_samples, run.alpha
        two_draws = not (run.model_id in ("nb-ml", "phase-trivial")
                         or run.estimator_id == "zero" or run.es == 0.0)
        if run.model_id == "nb-ml":
            scale = math.sqrt(run.n0 / (2.0 * run.es))
        else:
            # the prior-only error is -theta; the sign drops out of (alpha e) e bit for bit
            scale = math.sqrt(run.sigma2)
        noise_scale = math.sqrt(run.es * run.n0 / 2.0)
        coef = LinearGaussianModel(run.sigma2, run.es, run.n0).estimator_coefficient()

        gen, reset = _block_stream(run.master_seed)
        shape = (min(_CHUNK, len(blocks)), _BLOCK)
        draws, work = np.empty(shape), np.empty(shape)
        noise = np.empty(shape) if two_draws else None
        full = min(blocks.stop, n // _BLOCK)      # the blocks before it hold _BLOCK samples
        cuts = sorted({*range(blocks.start, full, _CHUNK), full, blocks.stop})
        results = []
        for first, stop in zip(cuts, cuts[1:]):
            k, width = stop - first, min(_BLOCK, n - first * _BLOCK)
            for r in range(k):
                reset(first + r)
                gen.standard_normal(out=draws[r, :width])
                if two_draws:
                    gen.standard_normal(out=noise[r, :width])

            x = draws[:k, :width]
            np.multiply(x, scale, out=x)
            if two_draws:        # error = coef (theta es + noise) - theta
                z, stat = noise[:k, :width], work[:k, :width]
                np.multiply(z, noise_scale, out=z)
                np.multiply(x, run.es, out=stat)
                np.add(stat, z, out=stat)
                np.multiply(stat, coef, out=stat)
                np.subtract(stat, x, out=stat)
                x, log_terms = stat, z
            else:
                log_terms = work[:k, :width]
            np.multiply(x, alpha, out=log_terms)
            np.multiply(log_terms, x, out=log_terms)

            # each block's first batch and, if it straddles edges, the
            # (batch, log-sum-exp) of each slice, taken before the in-place exp
            split = []
            for r, start in enumerate(range(first * _BLOCK, stop * _BLOCK, _BLOCK)):
                j = bisect_right(batch_edges, start) - 1
                inside = batch_edges[j + 1:bisect_left(batch_edges, start + width)]
                bounds = [0, *(e - start for e in inside), width]
                split.append((j, [(j + i, logsumexp(log_terms[r, lo:hi]))
                                  for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
                              if inside else []))

            maxes = log_terms.max(axis=1)
            np.subtract(log_terms, maxes[:, None], out=log_terms)
            np.exp(log_terms, out=log_terms)
            for (j, pieces), mx, s in zip(split, maxes.tolist(), log_terms.sum(axis=1).tolist()):
                lse = mx + math.log(s) if math.isfinite(mx) else mx
                results.append((lse, mx, pieces or [(j, lse)]))
        return results


def mc_lambda(run: MCRun, workers: int = 1) -> MCResult:
    """Empirical ln E exp(alpha error^2) with batch-means error bars.

    Refuses to run above 80 percent of the model's known divergence
    threshold: the estimator's variance blows up there before its mean
    does.  Identical master seeds give bit-identical results for any
    worker count: the counter blocks are split into one contiguous span
    per worker (never more spans than blocks or than ``os.cpu_count()``,
    one when serial), each span draws its blocks from their own Philox
    counters into chunk buffers of its own, and the blocks are reduced in
    index order by log-sum-exp.
    The batch means come from contiguous slices of each block, cut at the
    batch edges, over the sample counts those edges give.  Threads pay
    because the draws and the chunk arithmetic run in numpy without the GIL.
    """
    import numpy as np

    threshold = divergence_threshold(run.model_id, run.estimator_id, run.sigma2, run.es, run.n0)
    if run.alpha > _ALPHA_SAFETY * threshold:
        raise DivergenceRiskError(
            f"alpha = {run.alpha:.6g} exceeds {_ALPHA_SAFETY:.0%} of the divergence "
            f"threshold {threshold:.6g}; the empirical moment would be untrustworthy"
        )

    n = run.n_samples
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    batch_edges = [i * n // _N_BATCHES for i in range(_N_BATCHES + 1)]
    workers = min(workers, os.cpu_count() or 1)   # more threads than CPUs cannot pay
    per_span = _in_threads(lambda blocks: _span_stats(run, blocks, batch_edges),
                           _spans(n_blocks, workers))

    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite lambda_hat is the error
        total_lse = max_log = -math.inf
        batch_lse = np.full(_N_BATCHES, -math.inf)
        for results in per_span:
            for lse, mx, pieces in results:   # fixed block order keeps bits stable
                total_lse = np.logaddexp(total_lse, lse)
                max_log = max(max_log, mx)
                for j, blse in pieces:
                    batch_lse[j] = np.logaddexp(batch_lse[j], blse)

        lambda_hat = float(total_lse - math.log(n))
        if not lambda_hat <= LOG_FLOAT_MAX:   # NaN, +inf, or an exp that overflows
            raise DomainError(
                f"Monte Carlo estimate lambda_hat = {lambda_hat:.6g} is beyond float range; "
                "the sampled moment cannot be represented"
            )
        mean = math.exp(lambda_hat)
        batch_means = np.exp(batch_lse - np.log(np.diff(batch_edges)))
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


class BernoulliExact:
    """Exact finite-n Bernoulli configuration with a count-indexed estimator."""

    __slots__ = ("n", "a", "theta", "estimator")

    def __init__(self, n: int, a: float, theta: float, estimator: Callable[[float], float]):
        n = _integer(n, "n")
        if not (1 <= n <= 100_000):
            raise DomainError("n must lie in [1, 1e5]")
        if not a >= 0:
            raise DomainError("a must be nonnegative")
        if not (0.0 < theta < 1.0):
            raise DomainError("theta must lie strictly inside (0, 1)")
        self.n, self.a, self.theta, self.estimator = n, a, theta, estimator


def _log_sum_exp(terms: list[float]) -> float:
    """ln sum exp(terms) of Python floats, shifted by the largest term and added by fsum.

    As ``core.logsumexp``: NaN if any term is NaN, and a largest term of
    +-inf is the result.
    """
    m = max(terms)
    if not math.isfinite(m):
        return math.nan if any(x != x for x in terms) else m
    return m + math.log(math.fsum([math.exp(x - m) for x in terms]))


def bernoulli_exact_lambda(spec: BernoulliExact) -> float:
    """ln sum_k C(n,k) theta^k (1-theta)^(n-k) exp{a n (that(k/n) - theta)^2}.

    Everything stays in log space, so the sum is exact to float rounding
    for any feasible n.  The n + 1 terms are Python floats: the log
    binomial mass from ``math.lgamma``, and the error term a n d d with
    d = that(k/n) - theta.
    """
    n, a, theta = spec.n, spec.a, spec.theta
    log_fact = [math.lgamma(i + 1.0) for i in range(n + 1)]
    log_theta, log_rest = math.log(theta), math.log1p(-theta)
    log_pmf = [log_fact[n] - log_fact[k] - log_fact[n - k] + k * log_theta + (n - k) * log_rest
               for k in range(n + 1)]
    check = _log_sum_exp(log_pmf)
    if abs(check) > 1e-12 * n:
        raise DomainError(f"binomial mass sums to exp({check:.3g}), not 1")
    scale = a * n
    log_terms = []
    for k, lp in enumerate(log_pmf):
        d = float(spec.estimator(k / n)) - theta
        log_terms.append(lp + scale * (d * d))
    return _log_sum_exp(log_terms)


def certify(samples: int, seed: int) -> tuple[list[list], bool]:
    """Bound-versus-truth battery; returns (rows, any_violation)."""
    import numpy as np

    from . import bayes_bounds, divergences, nonbayes_bounds   # here: `verify mc` loads none

    rows: list[list] = []

    def record(check: str, alpha: float, bound: float, truth: float, slack: float) -> None:
        margin = truth + slack - bound
        ok = bound <= truth + slack or (math.isinf(bound) and math.isinf(truth))
        rows.append([check, alpha, bound, truth, margin, "ok" if ok else "violation"])

    sigma2, es, n0 = 0.5, 1.0, 1.0
    model = LinearGaussianModel(sigma2, es, n0)
    ac = model.alpha_c()
    for frac in (0.1, 0.3, 0.5, 0.7):
        alpha = frac * ac
        exact = linear_gaussian_min_lambda(model, alpha).value
        jensen = generic_bayes_bound(alpha, model.mmse(), 0.0).value
        record("bayes-generic-vs-exact", alpha, jensen, exact, 0.0)
        record("bayes-exact-self", alpha, exact, exact, 1e-12)

    prior_only = LinearGaussianModel(sigma2, 0.0, n0)
    for frac in (0.3, 0.5, 0.7):
        alpha = frac * prior_only.alpha_c()
        exact = linear_gaussian_min_lambda(prior_only, alpha).value
        run = MCRun("phase-trivial", "zero", alpha=alpha, n_samples=samples,
                    master_seed=seed, sigma2=sigma2)
        mc = mc_lambda(run)
        lp = bayes_bounds.lpcb_bound(alpha, sigma2=sigma2, ex=0.05 * n0, n0=n0)
        record("bayes-lpcb-vs-mc", alpha, lp.value, mc.lambda_hat, 3.0 * mc.se)
        ph = phase_bound_large_sigma(alpha, sigma2, 0.05)
        record("bayes-phase-vs-exact", alpha, ph.value, exact, 0.0)

    for frac in (0.2, 0.5, 0.79):
        alpha = frac * divergence_threshold("nb-ml", "ml", sigma2, es, n0)
        run = MCRun("nb-ml", "ml", alpha=alpha, n_samples=samples,
                    master_seed=seed + 1, es=es, n0=n0)
        mc = mc_lambda(run)
        bd = scalar_linear_bound(alpha, es, n0)
        record("nonbayes-scalar-vs-mc", alpha, bd.value, mc.lambda_hat, 3.0 * mc.se)
        ml = scalar_ml_lambda(alpha, es, n0)
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
    # a (q - theta)^2 - D(q || theta) has second derivative 2a - 1 / (q (1 - q)) <= 2a - 4,
    # so it is concave, and the golden search finds its maximum, for a <= 2
    _, exponent = golden_section_max(
        lambda q: a_bern * (q - theta_bern) ** 2 - divergences.binary_divergence(q, theta_bern),
        0.0, 1.0)
    record("bernoulli-exponent-vs-exact", a_bern,
           exponent - math.log(n_bern + 1) / n_bern, lam / n_bern, 0.0)

    return rows, any(row[-1] == "violation" for row in rows)
