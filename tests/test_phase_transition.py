"""Saddle exponent, asymptotically optimal estimator and spin-model phases."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import (
    CurieWeissParams,
    DomainError,
    Phase,
    a_zero,
    asymptotic_estimator,
    bernoulli_bayes_exponent,
    classify_phase,
    error_exponent,
    magnetization_roots,
)

from riskbounds.phase_transition import _candidates, _certified, _estimator_point, _saddle

from oracles import (
    exponent_closed_form,
    exponent_oracle,
    golden_saddle_batch,
    saddle_value_and_argmin,
)

EPS = np.finfo(float).eps
Q_GRID = np.linspace(0.0, 1.0, 201)
# risk scales where Newton's method alone stalls on the q grid (q = 0.4;
# 0.375 and 0.625; 0.25 and 0.75) and the certificate sends it to the fallback
NEWTON_STALLS = (2.0833333333333335, 2.1333333333333333, 2.666666666666667)


def estimator_curve(a, q_grid=Q_GRID):
    """(that(q), whether the fallback ran) of the scalar kernel, as arrays over a q grid."""
    points = [_estimator_point(a, float(q)) for q in q_grid]
    return np.array([t for t, _ in points]), np.array([fell for _, fell in points])


def golden_saddle(a, q_grid=Q_GRID):
    """(per-q value, minimizing t) of the golden-section fallback, as arrays over a q grid."""
    points = [_saddle(a, float(q)) for q in q_grid]
    return np.array([g for g, _ in points]), np.array([t for _, t in points])


class TestErrorExponent:
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0])
    def test_vanishes_below_the_transition(self, a):
        assert abs(error_exponent(a)) <= 1e-4

    def test_positive_beyond_the_transition(self):
        assert error_exponent(2.5) >= 1e-3

    def test_matches_stationary_point_oracle(self):
        # frozen values from the cubic-stationarity oracle on an 801-point
        # q scan; the library solves the same cubic, so only rounding differs
        assert error_exponent(2.5) == pytest.approx(
            0.01342822, abs=1e-6)
        assert error_exponent(6.0) == pytest.approx(
            0.45069386, abs=1e-6)
        assert error_exponent(10.0) == pytest.approx(
            1.19528104, abs=1e-6)

    def test_zero_risk_scale(self):
        assert error_exponent(0.0) == 0.0

    def test_nondecreasing_in_risk_scale(self):
        vals = [error_exponent(float(a))
                for a in (0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert all(v >= -1e-12 for v in vals)


class TestClosedFormExponent:
    @pytest.mark.parametrize("a", [2.5, 3.0, 4.5, 6.0, 10.0])
    def test_equals_exponent_oracle(self, a):
        # a 201-point q scan holds q = 1/2, where the oracle's maximum sits
        want = exponent_oracle(a, n_q=201)
        assert abs(error_exponent(a) - want) <= 1e-15 * want

    @pytest.mark.parametrize("a", [2.0 + 10.0 ** -k for k in range(1, 13)]
                             + [2.5, 3.0, 4.0, 10.0, 1e4, 1e300])
    def test_matches_high_precision_closed_form(self, a):
        want = exponent_closed_form(a)
        tol = 5e-16 if a < 2.2 else 2e-15      # the series below u = 0.1, log1p above
        assert abs(error_exponent(a) - want) <= tol * want

    @pytest.mark.parametrize("k", range(12, 16))
    def test_leading_order_near_the_transition(self, k):
        a = 2.0 + 10.0 ** -k
        d = a - 2.0          # exact in floating point
        value = error_exponent(a)
        assert abs(value - d * d / 16.0) <= 1e-12 * (d * d / 16.0)

    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0, math.nextafter(2.0, 0.0)])
    def test_exactly_zero_up_to_the_transition(self, a):
        assert error_exponent(a) == 0.0

    def test_unbounded_and_undefined_risk_scales(self):
        assert error_exponent(math.inf) == math.inf
        with pytest.raises(DomainError):
            error_exponent(math.nan)

    @given(st.floats(min_value=2.0, max_value=1e4, exclude_min=True))
    @settings(max_examples=40, deadline=None)
    def test_no_q_beats_one_half(self, a):
        # golden per-q values sit at or above the true per-q minima, so none
        # of them may exceed E beyond rounding, and the one at q = 1/2 is E
        value = error_exponent(a)
        per_q, _ = golden_saddle_batch(a, Q_GRID)
        tol = 16.0 * EPS * (a + value)
        assert per_q.max() <= value + tol
        assert abs(per_q[100] - value) <= tol


class TestCertifiedCurve:
    A_GRID = np.concatenate([np.linspace(2.0, 3.0, 49)[1:], np.linspace(2.45, 2.5, 11),
                             np.geomspace(3.0, 1e4, 16), NEWTON_STALLS])

    def test_matches_golden_section_search(self):
        _, golden = golden_saddle_batch(self.A_GRID[:, None], Q_GRID)
        for a, row in zip(self.A_GRID, golden):
            curve, _ = estimator_curve(float(a))
            assert np.max(np.abs(curve - row)) <= 1e-15, a

    @pytest.mark.parametrize("n_q", [201, 401])
    def test_no_fallback_at_risk_scale_ten(self, n_q):
        _, fell_back = estimator_curve(10.0, np.linspace(0.0, 1.0, n_q))
        assert not fell_back.any()

    def test_fallback_runs_where_newton_stalls(self):
        _, fell_back = estimator_curve(NEWTON_STALLS[0])
        assert Q_GRID[fell_back].tolist() == [0.4]

    @pytest.mark.parametrize("a", [2.5, 10.0, 1000.0])
    def test_certificate_accepts_the_optimum_only(self, a):
        for q in (0.0, 0.2, 0.5, 0.9):
            _, t = _saddle(a, q)
            for shift, want in ((0.0, True), (1e-9, False), (-1e-9, False)):
                ts = t + shift
                assert _certified(a, ts, *_candidates(a, q, ts)[:2]) is want, (q, shift)

    def test_certificate_at_the_plugin_point(self):
        # for a <= 2 the minimizer is t = q with g(q) = 0
        for q, shift in ((0.0, 1e-9), (0.3, 1e-9), (0.5, -1e-9), (1.0, -1e-9)):
            assert _certified(1.5, q, *_candidates(1.5, q, q)[:2])
            assert not _certified(1.5, q + shift, *_candidates(1.5, q, q + shift)[:2])

    def test_candidates_where_the_discriminant_rounds_below_zero(self):
        # at this t the cubic sits on its one/three-root boundary: the root
        # count test says one root, yet r^2/4 + p^3/27 rounds to below 0, so
        # the root is NaN and, like any NaN root, takes the small-root form
        a, q, t = 4.0, 0.1, 0.09631942266578705
        theta, f, three = _candidates(a, q, t)
        assert not three
        assert theta == [0.5 * q / (a * t + 0.5), q]
        assert f[0] == pytest.approx(-8.27939408e-03, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("a", [1e14, 1e16, 1e20])
    def test_curve_stays_at_one_half_at_extreme_risk(self, a):
        # the outer roots sit within 1/(2a) of 0 and 1, below the rounding of
        # the trigonometric form; the tie, and so the curve, stays at 1/2
        curve, _ = estimator_curve(a)
        assert np.max(np.abs(curve - 0.5)) <= 1e-11
        assert abs(asymptotic_estimator(0.99, a) - 0.5) <= 1e-11

    @pytest.mark.parametrize("a", [8e307, 1e308, sys.float_info.max])
    def test_curve_stays_at_one_half_up_to_the_float_maximum(self, a):
        # 2a overflows from a = 9e307 on; the tie, its slope, the certificate
        # tolerance and the small-root form are evaluated without it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve, _ = estimator_curve(a)
            _, golden = golden_saddle(a)
        assert np.max(np.abs(curve - 0.5)) <= EPS
        assert np.max(np.abs(golden - 0.5)) <= EPS

    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
    def test_plugin_curve_up_to_the_transition(self, a):
        _, q_grid, curve = bernoulli_bayes_exponent(a)
        assert curve == q_grid

    @given(st.floats(min_value=2.0, max_value=sys.float_info.max, exclude_min=True),
           st.floats(min_value=0.0, max_value=1.0))
    @example(NEWTON_STALLS[0], 0.4)
    @example(sys.float_info.max, 0.0)
    @example(2.0 + 1e-15, 0.5)
    @settings(max_examples=300, deadline=None)
    def test_every_point_is_certified_or_falls_back(self, a, q):
        # the kernel raises nowhere on its domain; a Newton result it keeps
        # passes the certificate, and anything else is the golden search's
        t, fell_back = _estimator_point(a, q)
        assert 0.0 <= t <= 1.0
        if fell_back:
            assert t == _saddle(a, q)[1]
        else:
            assert _certified(a, t, *_candidates(a, q, t)[:2])


class TestAsymptoticEstimator:
    def test_symmetric_point_fixed(self):
        for a in (0.5, 3.0, 10.0):
            assert asymptotic_estimator(0.5, a) == pytest.approx(0.5, abs=1e-12)

    def test_extreme_frequency_values_match_exact_solver(self):
        # the exact stationarity solver puts the q = 0 minimizer at 0.32280
        # for risk scale 10 (and its mirror at one)
        _, t0 = saddle_value_and_argmin(10.0, 0.0)
        assert asymptotic_estimator(0.0, 10.0) == pytest.approx(t0, abs=5e-16)
        assert asymptotic_estimator(1.0, 10.0) == pytest.approx(1.0 - t0, abs=5e-16)

    def test_curve_matches_exact_argmins(self):
        # the polished oracle's argmin agrees to 1.7e-16 on all 201 q (8e-9 unpolished)
        _, q_grid, curve = bernoulli_bayes_exponent(10.0)
        for q, t in zip(q_grid[::10], curve[::10]):
            assert t == pytest.approx(saddle_value_and_argmin(10.0, float(q))[1], abs=5e-16)

    def test_symmetry_on_grid(self):
        for q in np.linspace(0.0, 1.0, 21):
            s = asymptotic_estimator(float(q), 10.0) + asymptotic_estimator(float(1 - q), 10.0)
            assert abs(s - 1.0) <= 1e-6

    def test_nondecreasing_in_q(self):
        _, q_grid, curve = bernoulli_bayes_exponent(10.0)
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_range_shrinks_with_risk_scale(self):
        lo_mild = asymptotic_estimator(0.0, 1.0)
        hi_mild = asymptotic_estimator(1.0, 1.0)
        lo_sharp = asymptotic_estimator(0.0, 10.0)
        hi_sharp = asymptotic_estimator(1.0, 10.0)
        assert lo_mild < lo_sharp and hi_sharp < hi_mild

    def test_zero_risk_recovers_plugin(self):
        for q in (0.0, 0.3, 0.8):
            assert asymptotic_estimator(q, 0.0) == q


class TestBernoulliBayesExponent:
    def test_zero_risk_scale(self):
        value, q_grid, curve = bernoulli_bayes_exponent(0.0)
        assert value == 0.0
        np.testing.assert_allclose(curve, q_grid, atol=1e-12)

    def test_at_the_transition_plugin_is_optimal(self):
        value, q_grid, curve = bernoulli_bayes_exponent(2.0)
        assert abs(value) <= 1e-4
        assert np.max(np.abs(np.asarray(curve) - q_grid)) <= 2.5e-3

    def test_sharp_risk_curve_range(self):
        _, _, curve = bernoulli_bayes_exponent(10.0)
        assert min(curve) == pytest.approx(0.32277, abs=1e-3)
        assert max(curve) == pytest.approx(0.67723, abs=1e-3)

    def test_consistent_with_error_exponent(self):
        value, _, _ = bernoulli_bayes_exponent(3.0)
        assert value == error_exponent(3.0)

    def test_empty_q_grid_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_bayes_exponent(3.0, n_q=0)

    def test_q_grid_minimum(self):
        # the grid's two ends are the fewest points; one point is a DomainError,
        # never the ZeroDivisionError of a linspace step over n_q - 1 = 0
        with pytest.raises(DomainError) as info:
            bernoulli_bayes_exponent(3.0, n_q=1)
        assert str(info.value) == "the q grid must have at least 2 points"
        _, q_grid, curve = bernoulli_bayes_exponent(3.0, n_q=2)
        _, _, full = bernoulli_bayes_exponent(3.0)
        assert q_grid == (0.0, 1.0) and curve == (full[0], full[-1])

    def test_returned_arrays_are_not_shared_between_calls(self):
        # tuples of floats: a caller cannot mutate what it or a later call gets back
        _, q_grid, curve = bernoulli_bayes_exponent(4.0)
        _, q_again, curve_again = bernoulli_bayes_exponent(4.0)
        for seq in (q_grid, curve, q_again, curve_again):
            assert type(seq) is tuple and all(type(x) is float for x in seq)
        assert q_again == q_grid and curve_again == curve
        assert np.array(q_grid).tobytes() == np.linspace(0.0, 1.0, 201).tobytes()


class TestMagnetizationRoots:
    def test_single_root_below_coupling_threshold(self):
        roots = magnetization_roots(CurieWeissParams(0.0, 0.4))
        assert len(roots) == 1
        assert roots[0].m == pytest.approx(0.0, abs=1e-12)
        assert roots[0].stable and roots[0].dominant

    def test_three_roots_above_coupling_threshold(self):
        roots = magnetization_roots(CurieWeissParams(0.0, 0.6))
        assert len(roots) == 3
        ms = sorted(r.m for r in roots)
        assert ms[0] == pytest.approx(-ms[2], abs=1e-10)
        assert ms[1] == pytest.approx(0.0, abs=1e-12)
        stable = {round(r.m, 6): r.stable for r in roots}
        assert not stable[0.0]
        assert stable[round(ms[0], 6)] and stable[round(ms[2], 6)]

    def test_fixed_point_residuals(self):
        params = CurieWeissParams(0.3, 0.8)
        for r in magnetization_roots(params):
            assert abs(r.m - math.tanh(params.coupling * r.m + params.field)) <= 1e-10

    def test_negative_dominant_above_field_reversal(self):
        # a exceeds the reversal curve at mu = 0.5 (which sits at ln(3)/2),
        # so the field is negative and the negative root dominates
        assert a_zero(0.5) == pytest.approx(0.5 * math.log(3.0), rel=1e-12, abs=0.0)
        roots = magnetization_roots(CurieWeissParams(0.5, 0.6))
        dominant = next(r for r in roots if r.dominant)
        assert dominant.m < 0

    def test_positive_dominant_below_field_reversal(self):
        roots = magnetization_roots(CurieWeissParams(0.5, 0.52))
        dominant = next(r for r in roots if r.dominant)
        assert dominant.m > 0

    @pytest.mark.parametrize("mu, a", [(0.2, 0.7), (0.1, 0.8), (-0.3, 1.2), (0.6, 0.55),
                                       (0.05, 0.45), (0.9, 1.5)])
    def test_roots_match_dense_scan(self, mu, a):
        params = CurieWeissParams(mu, a)
        b, j = params.field, params.coupling
        nodes = np.linspace(-1.0, 1.0, 200_001)
        fvals = nodes - np.tanh(j * nodes + b)
        # m = mu is always a fixed point and may fall on a node: a cell holds a
        # root when f changes sign across it or vanishes at its left end
        cells = np.flatnonzero((fvals[:-1] * fvals[1:] < 0.0) | (fvals[:-1] == 0.0))
        ms = [r.m for r in magnetization_roots(params)]
        assert len(ms) == cells.size
        for m, i in zip(ms, cells):
            assert nodes[i] - 1e-12 <= m <= nodes[i + 1] + 1e-12

    def test_three_roots_just_above_coupling_threshold(self):
        # 3e-9 above a = 1/2 the outer roots sit near +-1.34e-4, far inside
        # any fixed scan cell around zero; the point is outside the boundary band
        roots = magnetization_roots(CurieWeissParams(0.0, 0.5 + 3e-9))
        ms = [r.m for r in roots]
        assert len(ms) == 3
        assert ms[0] == pytest.approx(-1.3416e-4, rel=1e-3, abs=0.0)
        assert ms[1] == pytest.approx(0.0, abs=1e-15)
        assert ms[2] == pytest.approx(1.3416e-4, rel=1e-3, abs=0.0)
        dominant = next(r for r in roots if r.dominant)
        assert dominant.m == ms[2]
        assert classify_phase(0.0, 0.5 + 3e-9).dominant_m == dominant.m

    def test_symmetric_roots_at_zero_field(self):
        roots = magnetization_roots(CurieWeissParams(0.0, 0.9))
        ms = sorted(r.m for r in roots)
        np.testing.assert_allclose(ms, [-ms[2], 0.0, ms[2]], atol=1e-10)

    @pytest.mark.parametrize("a", [1e19, 1e100, 8e307])
    @pytest.mark.parametrize("mu", [-0.9, -0.1, -1e-12, 0.0, 1e-12, 0.1, 0.5, 0.999])
    def test_root_count_at_huge_coupling(self, mu, a):
        # m = mu is a root, unstable once J (1 - mu^2) > 1, so two stable
        # roots flank it: three roots in all.  Here the flanking roots round
        # to +-1, and at most a and mu the critical points to one float
        assert 2.0 * a * (1.0 - mu * mu) > 1.0
        roots = magnetization_roots(CurieWeissParams(mu, a))
        assert len(roots) == 3
        assert (roots[0].m, roots[2].m) == (-1.0, 1.0)
        assert math.isclose(roots[1].m, mu, rel_tol=1e-15)
        assert [r.stable for r in roots] == [True, False, True]
        assert sum(r.dominant for r in roots) == 1

    @pytest.mark.parametrize("a", [9e307, 1e308, math.inf, math.nan])
    def test_coupling_beyond_float_range_is_refused(self, a):
        with pytest.raises(DomainError, match="the coupling 2a overflows"):
            CurieWeissParams(0.1, a)


class TestClassifyPhase:
    def test_paramagnetic(self):
        label = classify_phase(0.0, 0.3)
        assert label.phase is Phase.PARAMAGNETIC
        assert not label.boundary and not label.multicritical
        assert label.dominant_m == pytest.approx(0.0, abs=1e-12)

    def test_multicritical_point(self):
        label = classify_phase(0.0, 0.5)
        assert label.multicritical and label.boundary

    def test_positive_bias_low_coupling(self):
        label = classify_phase(0.5, 0.52)
        assert label.phase is Phase.POSITIVE_M_LOW_A
        assert label.dominant_m > 0

    def test_positive_bias_high_coupling(self):
        label = classify_phase(0.5, 0.6)
        assert label.phase is Phase.NEGATIVE_M_HIGH_A
        assert label.dominant_m < 0

    def test_mirror_phases_for_negative_bias(self):
        assert classify_phase(-0.5, 0.52).phase is Phase.NEGATIVE_M_LOW_A
        assert classify_phase(-0.5, 0.6).phase is Phase.POSITIVE_M_HIGH_A

    def test_coexistence_line_flagged(self):
        label = classify_phase(0.0, 0.8)
        assert label.boundary
        assert label.dominant_m > 0  # positive branch by convention

    def test_boundary_band_on_coupling_threshold(self):
        assert classify_phase(0.3, 0.5).boundary
        assert not classify_phase(0.3, 0.52).multicritical

    def test_field_reversal_band(self):
        mu = 0.4
        assert classify_phase(mu, a_zero(mu)).boundary

    def test_bias_domain_enforced(self):
        with pytest.raises(DomainError):
            classify_phase(1.0, 0.4)


# within 1e-3 of the multicritical point (mu, a) = (0, 1/2)
NEAR_MU = st.floats(min_value=-1e-3, max_value=1e-3)
NEAR_A = st.floats(min_value=0.5 - 1e-3, max_value=0.5 + 1e-3)
SIGN_OF_PHASE = {Phase.POSITIVE_M_LOW_A: 1.0, Phase.POSITIVE_M_HIGH_A: 1.0,
                 Phase.NEGATIVE_M_LOW_A: -1.0, Phase.NEGATIVE_M_HIGH_A: -1.0}


class TestNearMulticriticalPoint:
    @given(NEAR_MU, NEAR_A)
    @example(-2.2250738585e-313, 0.5)    # flo * fmid underflowed to 0 in the bisection
    @settings(max_examples=300, deadline=None)
    def test_roots_are_fixed_points_in_order(self, mu, a):
        params = CurieWeissParams(mu, a)
        roots = magnetization_roots(params)
        ms = [r.m for r in roots]
        assert 1 <= len(ms) <= 3
        assert ms == sorted(set(ms))
        for m in ms:   # f' is near 0 here, so a root to the last bit leaves a few eps
            assert abs(m - math.tanh(params.coupling * m + params.field)) <= 4.0 * EPS
        assert sum(r.dominant for r in roots) == 1

    @given(NEAR_MU, NEAR_A)
    @example(8.47693439865365e-39, 0.499)   # ln((1+mu)/(1-mu)) rounded to 0
    @example(1e-4, 0.5000000516666667)      # 5e-8 past a_zero: free energies tie to 1e-13
    @example(5e-324, 0.499)                 # the field underflows to 0
    @settings(max_examples=300, deadline=None)
    def test_dominant_sign_follows_the_label(self, mu, a):
        # off the boundary bands the dominant magnetization has the sign its
        # phase names; a paramagnet follows the bias, and sits at 0 only
        # where the field mu (1 - 2a) underflows
        label = classify_phase(mu, a)
        if label.boundary:
            return
        want = SIGN_OF_PHASE.get(label.phase, math.copysign(1.0, mu) if mu else 0.0)
        if label.dominant_m == 0.0 and label.phase is Phase.PARAMAGNETIC:
            assert CurieWeissParams(mu, a).field == 0.0
        else:
            assert np.sign(label.dominant_m) == want, label
