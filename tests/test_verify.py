"""Monte Carlo harness and the exact binomial oracle."""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import (
    BernoulliExact,
    DivergenceRiskError,
    DomainError,
    GridDensity,
    LinearGaussianModel,
    MCRun,
    bernoulli_exact_lambda,
    generic_bayes_bound,
    linear_gaussian_min_lambda,
    mc_lambda,
    nu_bound,
    phase_bound_large_sigma,
    scalar_linear_bound,
    scalar_ml_lambda,
    tilted_prior_bound,
    ww_rect_delay_bound,
)
from riskbounds import verify
from riskbounds.closed_forms import _interp
from riskbounds.phase_transition import bernoulli_bayes_exponent

from oracles import bernoulli_exact_oracle, bernoulli_nonbayes_exponent

LN2 = math.log(2.0)

# Runs whose (lambda_hat, se, max_share) are pinned bit for bit below.  The
# alphas are half of each model's divergence threshold; the es = 0 entry
# takes the cond-mean estimator down its prior-only path.
_PINNED_RUNS = {
    "lin-gauss/cond-mean": dict(model_id="lin-gauss", estimator_id="cond-mean", alpha=1.0,
                                master_seed=11, sigma2=0.5, es=1.0, n0=1.0),
    "lin-gauss/cond-mean/es0": dict(model_id="lin-gauss", estimator_id="cond-mean",
                                    alpha=0.35714285714285715, master_seed=12,
                                    sigma2=0.7, es=0.0, n0=1.0),
    "lin-gauss/zero": dict(model_id="lin-gauss", estimator_id="zero", alpha=0.4166666666666667,
                           master_seed=13, sigma2=0.6, es=2.0, n0=1.0),
    "phase-trivial/zero": dict(model_id="phase-trivial", estimator_id="zero", alpha=0.3125,
                               master_seed=14, sigma2=0.8),
    "nb-ml/ml": dict(model_id="nb-ml", estimator_id="ml", alpha=1.0, master_seed=15,
                     es=2.0, n0=1.0),
}

# n = 1000: one block covers all 20 batches; n = 81 921: the batch edges fall
# on block edges and a one-sample last block joins the last batch;
# n = 123 457: blocks straddle batch edges and the last block is ragged.
_PINNED_VALUES = {
    ("lin-gauss/cond-mean", 1_000):
        (0.3367919316120389, 0.0204430094966705, 0.012743752310618894),
    ("lin-gauss/cond-mean", 81_921):
        (0.34281785926312835, 0.0026148563176244953, 0.0007816463363506149),
    ("lin-gauss/cond-mean", 123_457):
        (0.34258991344179357, 0.0018717416066393552, 0.0005187866811563628),
    ("lin-gauss/cond-mean/es0", 1_000):
        (0.3592723964507325, 0.02228543882804914, 0.012274668358815632),
    ("lin-gauss/cond-mean/es0", 81_921):
        (0.34810595861257276, 0.002633592743720811, 0.0010090813375074172),
    ("lin-gauss/cond-mean/es0", 123_457):
        (0.3469601817163035, 0.00177174042626898, 0.0006703526096095228),
    ("lin-gauss/zero", 1_000):
        (0.31851366106320533, 0.014253422637138987, 0.005417415101047099),
    ("lin-gauss/zero", 81_921):
        (0.34886409898048676, 0.0024261298715000153, 0.000796298406553772),
    ("lin-gauss/zero", 123_457):
        (0.3494313320939, 0.0020897202683597023, 0.0005280913161629542),
    ("phase-trivial/zero", 1_000):
        (0.3509720158550369, 0.022604233712797784, 0.010574927182934514),
    ("phase-trivial/zero", 81_921):
        (0.34572422228700717, 0.003881955784724699, 0.001888831332056686),
    ("phase-trivial/zero", 123_457):
        (0.34707244607357346, 0.0027473330923033523, 0.0012516623178869591),
    ("nb-ml/ml", 1_000):
        (0.3736144854717729, 0.027996113107128077, 0.019979302977393934),
    ("nb-ml/ml", 81_921):
        (0.3431232922876468, 0.0031410590258637303, 0.0009517529486664778),
    ("nb-ml/ml", 123_457):
        (0.3468576120104707, 0.0028628368023205578, 0.001087616547997791),
}


class TestMcLambda:
    def test_conditional_mean_matches_exact_minimum(self):
        model = LinearGaussianModel(0.5, 1.0, 1.0)
        alpha = 0.5 * model.alpha_c()
        run = MCRun("lin-gauss", "cond-mean", alpha=alpha, n_samples=10 ** 6,
                    master_seed=7, sigma2=0.5, es=1.0, n0=1.0)
        res = mc_lambda(run)
        exact = linear_gaussian_min_lambda(model, alpha).value
        assert res.covers(exact, n_se=3.0)

    def test_trivial_estimator_matches_prior_moment(self):
        sigma2, alpha = 0.8, 0.4
        run = MCRun("phase-trivial", "zero", alpha=alpha, n_samples=5 * 10 ** 5,
                    master_seed=11, sigma2=sigma2)
        res = mc_lambda(run)
        exact = 0.5 * math.log(1.0 / (1.0 - 2.0 * alpha * sigma2))
        assert res.covers(exact, n_se=3.0)

    def test_ml_error_moment(self):
        run = MCRun("nb-ml", "ml", alpha=0.5, n_samples=5 * 10 ** 5,
                    master_seed=3, es=1.0, n0=1.0)
        res = mc_lambda(run)
        assert res.covers(0.5 * LN2, n_se=3.0)
        assert res.covers(scalar_ml_lambda(0.5, 1.0, 1.0), n_se=3.0)

    def test_zero_estimator_on_signal_model_sees_only_the_prior(self):
        # the zero estimator's error is minus the parameter, so the signal
        # path contributes nothing and the moment matches the prior's
        sigma2, alpha = 0.6, 0.5
        run = MCRun("lin-gauss", "zero", alpha=alpha, n_samples=2 * 10 ** 5,
                    master_seed=9, sigma2=sigma2, es=2.0, n0=1.0)
        res = mc_lambda(run)
        exact = 0.5 * math.log(1.0 / (1.0 - 2.0 * alpha * sigma2))
        assert res.covers(exact, n_se=3.0)

    def test_refuses_near_threshold(self):
        with pytest.raises(DivergenceRiskError):
            mc_lambda(MCRun("lin-gauss", "cond-mean", alpha=0.9, n_samples=10 ** 4,
                            master_seed=1, sigma2=0.5, es=0.0))

    def test_worker_count_does_not_change_bits(self):
        run = MCRun("lin-gauss", "cond-mean", alpha=0.4, n_samples=123_457,
                    master_seed=5, sigma2=0.5, es=1.0, n0=1.0)
        serial = mc_lambda(run, workers=1)
        threaded = mc_lambda(run, workers=3)
        assert serial.lambda_hat == threaded.lambda_hat
        assert serial.se == threaded.se
        assert serial.max_share == threaded.max_share

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case", list(_PINNED_VALUES), ids=lambda c: f"{c[0]}-{c[1]}")
    def test_bits_match_pinned_values(self, case, workers):
        name, n = case
        res = mc_lambda(MCRun(n_samples=n, **_PINNED_RUNS[name]), workers=workers)
        assert (res.lambda_hat, res.se, res.max_share) == _PINNED_VALUES[case]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1000, 200_000), workers=st.sampled_from([1, 2, 3, 5]),
           name=st.sampled_from(sorted(_PINNED_RUNS)))
    @example(n=1000, workers=5, name="lin-gauss/cond-mean")
    @example(n=8 * 4096, workers=3, name="nb-ml/ml")
    @example(n=8 * 4096 + 1, workers=2, name="lin-gauss/cond-mean")
    @example(n=8 * 4096 + 1, workers=5, name="phase-trivial/zero")
    @example(n=123_457, workers=5, name="lin-gauss/zero")
    @example(n=123_457, workers=2, name="lin-gauss/cond-mean/es0")
    @example(n=4096 + 1, workers=2, name="lin-gauss/cond-mean")
    @example(n=9 * 4096 + 5, workers=1, name="phase-trivial/zero")
    def test_any_worker_count_gives_the_serial_bits(self, n, workers, name):
        # spans cut the blocks anywhere, chunks end anywhere and the last
        # block may be ragged; none of it may move a bit or raise a warning.
        # 4096 + 1 on 2 workers: the second span holds only the ragged block;
        # 9 * 4096 + 5: a chunk of 8, a one-block chunk, then the ragged chunk
        run = MCRun(n_samples=n, **_PINNED_RUNS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            serial = mc_lambda(run, workers=1)
            spread = mc_lambda(run, workers=workers)
        assert (spread.lambda_hat, spread.se, spread.max_share) == \
            (serial.lambda_hat, serial.se, serial.max_share)

    @pytest.mark.parametrize("n_blocks, workers", [(1, 10_000), (1, 1), (2, 3), (5, 2),
                                                   (489, 2), (489, 7), (30, 30)])
    def test_spans_partition_the_blocks(self, n_blocks, workers):
        spans = verify._spans(n_blocks, workers)
        assert len(spans) == min(workers, n_blocks)
        assert all(len(s) > 0 for s in spans)
        assert [b for s in spans for b in s] == list(range(n_blocks))

    def test_one_block_runs_on_the_calling_thread(self, monkeypatch):
        calls = []
        span_stats = verify._span_stats

        def recording(run, blocks, edges):
            calls.append((blocks, threading.get_ident()))
            return span_stats(run, blocks, edges)

        monkeypatch.setattr(verify, "_span_stats", recording)
        mc_lambda(MCRun("nb-ml", "ml", alpha=0.3, n_samples=1000, master_seed=4), workers=8)
        assert calls == [(range(0, 1), threading.get_ident())]

    @pytest.mark.parametrize("cpus, threads", [(3, 2), (1, 0), (None, 0)])
    def test_threads_never_outnumber_the_cpus(self, monkeypatch, cpus, threads):
        # the caller runs the first span, so a cap of k spans starts k - 1
        # threads; the fake runs its span inline and starts no real thread
        started = []

        class CountingThread:
            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                started.append(self.args)
                self.target(*self.args)

            def join(self):
                pass

        run = MCRun("nb-ml", "ml", alpha=0.3, n_samples=40 * 4096, master_seed=4)
        serial = mc_lambda(run, workers=1)
        monkeypatch.setattr(verify.threading, "Thread", CountingThread)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        capped = mc_lambda(run, workers=100_000)
        assert len(started) == threads
        assert (capped.lambda_hat, capped.se, capped.max_share) == \
            (serial.lambda_hat, serial.se, serial.max_share)

    def test_a_failing_span_raises_on_the_caller(self, monkeypatch):
        span_stats = verify._span_stats

        def failing(run, blocks, edges):
            if blocks.start > 0:
                raise MemoryError("span")
            return span_stats(run, blocks, edges)

        monkeypatch.setattr(verify, "_span_stats", failing)
        with pytest.raises(MemoryError):
            mc_lambda(MCRun("nb-ml", "ml", alpha=0.3, n_samples=20_000, master_seed=4), workers=3)

    def test_block_reset_gives_a_fresh_philox(self):
        # the reproducibility contract: whatever was drawn before, block b
        # starts where Philox(key, counter=[0, 0, b, 0]) starts
        key = 2 ** 100 + 12345
        gen, reset = verify._block_stream(key)
        for b in (0, 5, 2 ** 40):
            gen.standard_normal(7)
            gen.integers(0, 10, dtype=np.uint32)
            assert gen.bit_generator.state["has_uint32"] == 1
            reset(b)
            fresh = np.random.Generator(
                np.random.Philox(key=key, counter=np.array([0, 0, b, 0], dtype=np.uint64)))
            assert gen.bytes(20) == fresh.bytes(20)
            reset(b)
            fresh = np.random.Philox(key=key, counter=np.array([0, 0, b, 0], dtype=np.uint64))
            assert gen.bit_generator.random_raw(9).tobytes() == fresh.random_raw(9).tobytes()

    @pytest.mark.parametrize("field", ["alpha", "sigma2", "es", "n0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, field, value):
        params = dict(alpha=0.3, n_samples=1000, master_seed=1, sigma2=0.5, es=1.0, n0=1.0)
        params[field] = value
        with pytest.raises(DomainError):
            MCRun("lin-gauss", "zero", **params)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        with pytest.raises(DomainError):
            MCRun("nb-ml", "ml", alpha=0.1, n_samples=1000, master_seed=seed)
        MCRun("nb-ml", "ml", alpha=0.1, n_samples=1000, master_seed=2 ** 128 - 1)

    def test_seed_reproducibility_and_sensitivity(self):
        base = MCRun("nb-ml", "ml", alpha=0.3, n_samples=10 ** 4, master_seed=2)
        again = MCRun("nb-ml", "ml", alpha=0.3, n_samples=10 ** 4, master_seed=2)
        other = MCRun("nb-ml", "ml", alpha=0.3, n_samples=10 ** 4, master_seed=3)
        assert mc_lambda(base).lambda_hat == mc_lambda(again).lambda_hat
        assert mc_lambda(base).lambda_hat != mc_lambda(other).lambda_hat

    def test_heavy_tail_flag_consistency(self):
        run = MCRun("phase-trivial", "zero", alpha=0.45, n_samples=2000,
                    master_seed=0, sigma2=0.8)
        res = mc_lambda(run)
        assert 0.0 < res.max_share <= 1.0
        assert res.heavy_tail == (res.max_share > 0.01)

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(DomainError):
            MCRun("nb-ml", "ml", alpha=0.1, n_samples=100, master_seed=0)

    def test_calibration_coverage_at_reduced_scale(self):
        # 100 independently seeded runs must cover the closed form within
        # three standard errors at least 95 times
        alpha, sigma2 = 0.3, 0.5
        exact = 0.5 * math.log(1.0 / (1.0 - alpha))
        hits = 0
        for seed in range(100):
            run = MCRun("lin-gauss", "cond-mean", alpha=alpha, n_samples=10 ** 4,
                        master_seed=seed, sigma2=sigma2, es=0.0, n0=1.0)
            hits += mc_lambda(run).covers(exact, n_se=3.0)
        assert hits >= 95


_POSITIVE = st.floats(1e-300, 1e300)


class TestDivergenceThreshold:
    @settings(max_examples=200, deadline=None)
    @given(sigma2=_POSITIVE, es=st.one_of(st.just(0.0), _POSITIVE), n0=_POSITIVE)
    def test_threshold_is_the_models_critical_factor(self, sigma2, es, n0):
        # one alpha_c: the Gaussian pairs read LinearGaussianModel.alpha_c bit
        # for bit (the estimators that ignore the observation at es = 0),
        # the ML estimator es / n0
        expected = {
            ("lin-gauss", "cond-mean"): LinearGaussianModel(sigma2, es, n0).alpha_c(),
            ("lin-gauss", "zero"): LinearGaussianModel(sigma2, 0.0, n0).alpha_c(),
            ("phase-trivial", "zero"): LinearGaussianModel(sigma2, 0.0, n0).alpha_c(),
            ("nb-ml", "ml"): es / n0,
        }
        for (model_id, estimator_id), alpha_c in expected.items():
            got = verify.divergence_threshold(model_id, estimator_id, sigma2, es, n0)
            assert got.hex() == alpha_c.hex()

    def test_unsupported_pair_is_reported_before_the_parameters(self):
        with pytest.raises(DomainError, match="unsupported model/estimator pair"):
            verify.divergence_threshold("nb-ml", "zero", -1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="model parameters out of range"):
            verify.divergence_threshold("nb-ml", "ml", -1.0, 1.0, 1.0)


def _estimator(q):
    return q


def _prior():
    theta = np.linspace(-10.0, 10.0, 801)
    return GridDensity(theta, np.exp(-theta ** 2 / 2.0))


@pytest.mark.parametrize("call", [
    pytest.param(call, id=name) for name, call in (
        ("LinearGaussianModel-sigma2-nan", lambda: LinearGaussianModel(math.nan, 1.0, 1.0)),
        ("linear_gaussian_min_lambda-alpha-nan",
         lambda: linear_gaussian_min_lambda(LinearGaussianModel(0.5, 1.0, 1.0), math.nan)),
        ("phase_bound_large_sigma-alpha-nan", lambda: phase_bound_large_sigma(math.nan, 1.0, 0.1)),
        ("phase_bound_large_sigma-ex-nan", lambda: phase_bound_large_sigma(0.3, 1.0, math.nan)),
        ("scalar_linear_bound-alpha-nan", lambda: scalar_linear_bound(math.nan, 1.0, 1.0)),
        ("scalar_ml_lambda-alpha-nan", lambda: scalar_ml_lambda(math.nan, 1.0, 1.0)),
        ("generic_bayes_bound-alpha-nan", lambda: generic_bayes_bound(math.nan, 0.5, 0.1)),
        ("generic_bayes_bound-mse-nan", lambda: generic_bayes_bound(1.0, math.nan, 0.1)),
        ("generic_bayes_bound-divergence-nan", lambda: generic_bayes_bound(1.0, 0.5, math.nan)),
        ("ww_rect_delay_bound-alpha-nan", lambda: ww_rect_delay_bound(math.nan, 1.0, 1.0)),
        ("tilted_prior_bound-alpha-nan", lambda: tilted_prior_bound(_prior(), math.nan, 1.0, 0.0)),
        ("nu_bound-alpha-nan",
         lambda: nu_bound(_prior(), math.nan, 1.0, 0.5, omega0=1.0, ex=1.0, n0=1.0)),
        ("BernoulliExact-a-nan",
         lambda: bernoulli_exact_lambda(BernoulliExact(10, math.nan, 0.3, _estimator))),
        ("BernoulliExact-n-float", lambda: BernoulliExact(10.5, 1.0, 0.3, _estimator)),
        ("MCRun-n_samples-float",
         lambda: MCRun("nb-ml", "ml", alpha=0.3, n_samples=1e4, master_seed=0)),
        ("MCRun-master_seed-float",
         lambda: MCRun("nb-ml", "ml", alpha=0.3, n_samples=1000, master_seed=1.5)),
    )])
def test_nan_and_non_integer_inputs_are_domain_errors(call):
    # a NaN range input or a float count ends as DomainError, never as a nan
    # labelled ok or a TypeError deep in a kernel
    with pytest.raises(DomainError):
        call()


class TestBernoulliExact:
    def test_zero_risk_scale_is_exactly_zero(self):
        spec = BernoulliExact(n=100, a=0.0, theta=0.3, estimator=lambda q: 0.77)
        assert bernoulli_exact_lambda(spec) == pytest.approx(0.0, abs=1e-12)

    def test_plugin_approaches_the_exponent(self):
        spec = BernoulliExact(n=200, a=1.0, theta=0.3, estimator=lambda q: q)
        lam = bernoulli_exact_lambda(spec)
        exponent = bernoulli_nonbayes_exponent(1.0, 0.3)
        assert abs(lam / 200 - exponent) <= 0.05

    def test_gap_shrinks_with_sample_size(self):
        exponent = bernoulli_nonbayes_exponent(1.0, 0.3)
        gaps = []
        for n in (200, 400):
            spec = BernoulliExact(n=n, a=1.0, theta=0.3, estimator=lambda q: q)
            gaps.append(abs(bernoulli_exact_lambda(spec) / n - exponent))
        assert 1.5 <= gaps[0] / gaps[1] <= 3.0

    def test_type_counting_floor(self):
        # the largest binomial term alone gives lambda_n / n >= exponent -
        # ln(n+1)/n, so the exact sum can never fall below that floor
        n, a, theta = 300, 2.5, 0.4
        spec = BernoulliExact(n=n, a=a, theta=theta, estimator=lambda q: q)
        lam = bernoulli_exact_lambda(spec)
        exponent = bernoulli_nonbayes_exponent(a, theta)
        assert lam / n >= exponent - math.log(n + 1) / n - 1e-12

    def test_saddle_optimal_estimator_wins_beyond_transition(self):
        # at a sharp risk scale the saddle-game estimator's moment must not
        # exceed the plugin's
        a, n, theta = 10.0, 400, 0.3
        _, q_grid, curve = bernoulli_bayes_exponent(a)
        est = lambda q: float(np.interp(q, q_grid, curve))
        lam_opt = bernoulli_exact_lambda(BernoulliExact(n=n, a=a, theta=theta, estimator=est))
        lam_plug = bernoulli_exact_lambda(BernoulliExact(n=n, a=a, theta=theta,
                                                         estimator=lambda q: q))
        assert lam_opt <= lam_plug

    @pytest.mark.parametrize("n", [1, 7, 200, 1000])
    @pytest.mark.parametrize("a, theta", [(0.0, 0.3), (0.5, 0.05), (1.0, 0.3), (2.5, 0.5),
                                          (10.0, 0.77)])
    @pytest.mark.parametrize("estimator", ["plugin", "optimal", "constant"])
    def test_matches_decimal_oracle(self, n, a, theta, estimator):
        if estimator == "plugin":
            est = lambda q: q
        elif estimator == "constant":
            est = lambda q: 0.61
        else:
            _, q_grid, curve = bernoulli_bayes_exponent(a)
            est = lambda q: _interp(q, q_grid, curve)
        lam = bernoulli_exact_lambda(BernoulliExact(n=n, a=a, theta=theta, estimator=est))
        exact = bernoulli_exact_oracle(n, a, theta, est)
        # the log binomial mass carries a few ulps of lgamma(n + 1)
        scale = max(math.lgamma(n + 1.0), abs(exact), 1.0)
        assert abs(lam - exact) <= 8.0 * np.finfo(float).eps * scale

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            BernoulliExact(n=0, a=1.0, theta=0.3, estimator=lambda q: q)
        with pytest.raises(DomainError):
            BernoulliExact(n=10, a=1.0, theta=0.0, estimator=lambda q: q)


@given(a=st.floats(0.0, 1e4), x=st.floats(-0.5, 1.5) | st.sampled_from([0.0, 0.5, 1.0, 0.005]),
       n=st.integers(1, 20_000), k=st.integers(0, 20_000))
@example(a=10.0, x=0.3, n=7, k=3)
@settings(max_examples=300, deadline=None)
def test_interp_is_numpy_interp_bit_for_bit(a, x, n, k):
    # the optimal estimator of `verify bernoulli-exact` reads the 201-point
    # curve at k / n in plain Python; it must be np.interp's value exactly
    _, q_grid, curve = bernoulli_bayes_exponent(a)
    xp, fp = np.array(q_grid), np.array(curve)
    for q in (x, min(k, n) / n):
        assert _interp(q, q_grid, curve) == float(np.interp(q, xp, fp))
