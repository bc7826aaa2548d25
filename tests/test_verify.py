"""Monte Carlo harness, exact binomial oracle and the posterior fixed point."""

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
    linear_gaussian_min_lambda,
    mc_lambda,
    risk_sensitive_posterior_estimator,
    scalar_ml_lambda,
)
from riskbounds import verify
from riskbounds.phase_transition import bernoulli_bayes_exponent

from oracles import bernoulli_nonbayes_exponent

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
    def test_any_worker_count_gives_the_serial_bits(self, n, workers, name):
        # spans cut the blocks anywhere, chunks end anywhere and the last
        # block may be ragged; none of it may move a bit or raise a warning
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

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            BernoulliExact(n=0, a=1.0, theta=0.3, estimator=lambda q: q)
        with pytest.raises(DomainError):
            BernoulliExact(n=10, a=1.0, theta=0.0, estimator=lambda q: q)


class TestPosteriorEstimator:
    def test_gaussian_posterior_fixed_point_is_its_mean(self):
        theta = np.linspace(-6.0, 8.0, 4097)
        dens = np.exp(-((theta - 1.0) ** 2) / (2 * 0.5))
        post = GridDensity(theta, dens / np.trapezoid(dens, theta))
        eta = risk_sensitive_posterior_estimator(post, 0.3)
        assert eta == pytest.approx(1.0, abs=1e-9)

    def test_zero_risk_recovers_posterior_mean(self):
        theta = np.linspace(-2.0, 6.0, 2049)
        dens = np.exp(-((theta - 0.7) ** 2) / 2) + 0.3 * np.exp(-((theta - 2.5) ** 2) / 0.5)
        post = GridDensity(theta, dens / np.trapezoid(dens, theta))
        assert risk_sensitive_posterior_estimator(post, 0.0) == pytest.approx(
            post.mean(), abs=1e-12)

    def _two_point_posterior(self, width=0.004, n=8001):
        theta = np.linspace(-0.5, 1.5, n)
        dens = (np.exp(-theta ** 2 / (2 * width ** 2))
                + np.exp(-((theta - 1.0) ** 2) / (2 * width ** 2)))
        return GridDensity(theta, dens / np.trapezoid(dens, theta))

    def test_two_point_posterior_fixed_point_matches_direct_minimization(self):
        post = self._two_point_posterior()
        eta = risk_sensitive_posterior_estimator(post, 3.0)
        # direct scan oracle of the tilted log normalizer
        # ln sum_theta w exp(log_p + 3 (theta - e)^2), vectorized over chunks of e
        w = np.gradient(post.theta)
        log_p = np.log(np.maximum(post.density, 1e-300))
        etas = np.linspace(0.2, 0.8, 60001)
        objective = []
        for chunk in np.array_split(etas, 240):
            expo = log_p + 3.0 * (post.theta - chunk[:, None]) ** 2
            top = expo.max(axis=1)
            objective.append(np.log(np.exp(expo - top[:, None]) @ w) + top)
        direct = etas[int(np.argmin(np.concatenate(objective)))]
        assert eta == pytest.approx(float(direct), abs=1e-8)

    def test_oscillatory_regime_falls_back_to_direct_minimization(self):
        # steep tilts destabilize a damped fixed-point iteration; the
        # bisection must still land on the symmetric minimizer
        post = self._two_point_posterior()
        eta = risk_sensitive_posterior_estimator(post, 10.0)
        assert eta == pytest.approx(0.5, abs=1e-6)

    def test_symmetric_posteriors_give_their_center_exactly(self):
        # bisection from the grid ends meets the center of a symmetric tilt
        # exactly, at a mild and at a steep tilt
        theta = np.linspace(-6.0, 8.0, 4097)
        dens = np.exp(-((theta - 1.0) ** 2) / (2 * 0.5))
        post = GridDensity(theta, dens / np.trapezoid(dens, theta))
        assert risk_sensitive_posterior_estimator(post, 0.3) == 1.0
        assert risk_sensitive_posterior_estimator(self._two_point_posterior(), 10.0) == 0.5

    def test_divergent_tilt_rejected(self):
        theta = np.linspace(-8.0, 8.0, 4097)
        v = 1.0
        dens = np.exp(-theta ** 2 / (2 * v))
        post = GridDensity(theta, dens / np.trapezoid(dens, theta))
        with pytest.raises(DivergenceRiskError):
            risk_sensitive_posterior_estimator(post, 0.7 / v)
