"""Unbiased-estimator bounds: scalar, vector ellipsoid, nonlinear correlation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import (
    ConditioningError,
    CorrelationProfile,
    DomainError,
    VectorLinearModel,
    nonlinear_bound,
    scalar_linear_bound,
    scalar_ml_lambda,
    vector_linear_bound,
    vector_ml_lambda,
)
from riskbounds.core import divergence_onset

from oracles import critical_radius

LN2 = math.log(2.0)


def _random_correlation(k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((k, 2 * k))
    c = m @ m.T
    d = np.sqrt(np.diag(c))
    return c / np.outer(d, d)


class TestScalarLinearBound:
    def test_midpoint_value(self):
        es, n0 = 2.0, 1.0
        bv = scalar_linear_bound(es / (2 * n0), es, n0)
        assert bv.value == pytest.approx(0.25, rel=1e-15, abs=0.0)

    def test_divergence_above_threshold(self):
        assert scalar_linear_bound(1.2, 1.0, 1.0).value == math.inf
        assert scalar_linear_bound(1.0, 1.0, 1.0).value == pytest.approx(0.5)

    def test_critical_factor_by_bisection(self):
        es, n0 = 3.0, 2.0
        est = divergence_onset(
            lambda a: scalar_linear_bound(a, es, n0).value == math.inf,
            1e-9, 0.5, tol=1e-6)
        assert est == pytest.approx(es / n0, abs=1e-5)

    def test_assembles_from_reference_shift(self):
        # the closed form equals the supremum over reference values of
        # alpha * crlb + (alpha - es/n0) * shift^2, checked on a grid
        alpha, es, n0 = 0.6, 1.0, 1.0
        crlb = n0 / (2 * es)
        shifts = np.linspace(0, 50, 200001)
        grid_sup = np.max(alpha * crlb + (alpha - es / n0) * shifts ** 2)
        assert scalar_linear_bound(alpha, es, n0).value == pytest.approx(
            grid_sup, abs=1e-8)

    def test_unbiasedness_recorded(self):
        assert scalar_linear_bound(0.1, 1.0, 1.0).diagnostics["assumes_unbiased"]


class TestScalarMlLambda:
    def test_half_ratio_value(self):
        assert scalar_ml_lambda(0.5, 1.0, 1.0) == pytest.approx(0.5 * LN2, rel=1e-14, abs=0.0)

    def test_ratio_to_bound_near_one_at_small_alpha(self):
        es, n0 = 1.0, 1.0
        alpha = 1e-3 * es / n0
        ratio = scalar_ml_lambda(alpha, es, n0) / scalar_linear_bound(alpha, es, n0).value
        assert 1.0 <= ratio <= 1.001

    def test_dominates_bound_everywhere(self):
        for frac in np.linspace(0.01, 0.99, 50):
            ml = scalar_ml_lambda(float(frac), 1.0, 1.0)
            bd = scalar_linear_bound(float(frac), 1.0, 1.0).value
            assert ml >= bd - 1e-12

    def test_first_order_agreement_at_tiny_alpha(self):
        alpha = 1e-4
        ml = scalar_ml_lambda(alpha, 1.0, 1.0)
        bd = scalar_linear_bound(alpha, 1.0, 1.0).value
        assert ml - bd <= 1e-6

    def test_log_singularity(self):
        assert scalar_ml_lambda(1.0, 1.0, 1.0) == math.inf
        assert scalar_ml_lambda(1.0 - 1e-12, 1.0, 1.0) > 10.0


class TestVectorLinearBound:
    def test_single_dimension_matches_scalar_profile(self):
        # the vector cost squares the projection, so a one-dimensional
        # direction a corresponds to the scalar bound at risk factor a^2
        model = VectorLinearModel(np.array([[1.0]]), es=2.0, n0=1.0)
        for a in (0.3, 0.9, 1.2):
            vec = vector_linear_bound(model, np.array([a])).value
            scal = scalar_linear_bound(a * a, 2.0, 1.0).value
            assert vec == pytest.approx(scal, rel=1e-12, abs=0.0)

    def test_identity_correlation_reduces_to_norm(self):
        model = VectorLinearModel(np.eye(2), es=1.0, n0=1.0)
        a = np.array([0.3, 0.4])
        val = vector_linear_bound(model, a).value
        assert val == pytest.approx(1.0 * 0.25 / 2.0, rel=1e-12, abs=0.0)

    def test_boundary_and_outside_divergence(self):
        model = VectorLinearModel(np.eye(2), es=1.0, n0=1.0)
        u = np.array([1.0, 0.0])
        assert vector_linear_bound(model, u).value == math.inf        # contour
        assert vector_linear_bound(model, 1.2 * u).value == math.inf  # outside
        inside = vector_linear_bound(model, 0.99 * u)
        assert math.isfinite(inside.value)

    def test_against_dense_inverse_oracle(self):
        gamma = _random_correlation(3, seed=9)
        model = VectorLinearModel(gamma, es=2.0, n0=0.5)
        rng = np.random.default_rng(1)
        inv = np.linalg.inv(gamma)
        for _ in range(50):
            a = rng.standard_normal(3) * 0.2
            quad = float(a @ inv @ a)
            expected = 0.5 * quad / (2 * 2.0) if quad < 4.0 else math.inf
            assert vector_linear_bound(model, a).value == pytest.approx(
                expected, rel=1e-10, abs=0.0)

    def test_zero_vector(self):
        model = VectorLinearModel(np.eye(2), es=1.0, n0=1.0)
        assert vector_linear_bound(model, np.zeros(2)).value == 0.0
        assert vector_ml_lambda(model, np.zeros(2)) == 0.0

    def test_non_positive_definite_rejected(self):
        bad = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises((DomainError, ConditioningError)):
            VectorLinearModel(bad, es=1.0, n0=1.0)

    def test_near_collinear_rejected(self):
        g = np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])
        with pytest.raises((ConditioningError, DomainError)):
            VectorLinearModel(g, es=1.0, n0=1.0)

    def test_critical_radius_along_directions(self):
        gamma = _random_correlation(3, seed=4)
        model = VectorLinearModel(gamma, es=2.0, n0=1.0)
        rng = np.random.default_rng(10)
        for _ in range(20):
            u = rng.standard_normal(3)
            t = critical_radius(gamma, 2.0, 1.0, u)
            just_in = vector_linear_bound(model, 0.999 * t * u)
            at_edge = vector_linear_bound(model, 1.0001 * t * u)
            assert math.isfinite(just_in.value)
            assert at_edge.value == math.inf

    def test_direction_scaling_matches_scalar_profile(self):
        # along a fixed direction the bound is the scalar profile with an
        # effective energy es / (u' inv(gamma) u)
        gamma = _random_correlation(2, seed=3)
        es, n0 = 1.5, 0.7
        model = VectorLinearModel(gamma, es=es, n0=n0)
        u = np.array([0.8, -0.5])
        quad = float(u @ np.linalg.inv(gamma) @ u)
        es_eff = es / quad
        for t in (0.2, 0.6, 1.0):
            vec = vector_linear_bound(model, t * u).value
            scal = scalar_linear_bound(t * t, es_eff, n0).value if t * t < es_eff / n0 \
                else math.inf
            if math.isinf(vec) or math.isinf(scal):
                assert vec == scal
            else:
                assert vec == pytest.approx(scal, rel=1e-12, abs=0.0)


class TestVectorMlLambda:
    def test_determinant_identity(self):
        gamma = _random_correlation(4, seed=6)
        model = VectorLinearModel(gamma, es=3.0, n0=1.0)
        rng = np.random.default_rng(2)
        inv = np.linalg.inv(gamma)
        for _ in range(30):
            a = rng.standard_normal(4) * 0.3
            ratio = (1.0 / 3.0) * float(a @ inv @ a)
            if ratio >= 1.0:
                continue
            det_form = -0.5 * math.log(np.linalg.det(
                np.eye(4) - (1.0 / 3.0) * np.outer(a, a) @ inv))
            assert vector_ml_lambda(model, a) == pytest.approx(det_form, rel=1e-10, abs=0.0)

    def test_identity_gamma_matches_scalar(self):
        model = VectorLinearModel(np.eye(2), es=1.0, n0=1.0)
        a = np.array([0.5, 0.2])
        assert vector_ml_lambda(model, a) == pytest.approx(
            scalar_ml_lambda(float(a @ a), 1.0, 1.0), rel=1e-12, abs=0.0)

    def test_dominates_bound(self):
        gamma = _random_correlation(3, seed=8)
        model = VectorLinearModel(gamma, es=1.0, n0=1.0)
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.standard_normal(3) * 0.3
            ml = vector_ml_lambda(model, a)
            bd = vector_linear_bound(model, a).value
            if math.isfinite(ml) and math.isfinite(bd):
                assert ml >= bd - 1e-12


class TestNonlinearBound:
    def _gauss_profile(self, c=4.0, bounded=True):
        if bounded:
            return CorrelationProfile(
                ex=1.0, theta_range=(0.0, 1.0),
                rho_fn=lambda t, tt: math.exp(-c * (t - tt) ** 2))
        return CorrelationProfile(
            ex=1.0, theta_range=(-math.inf, math.inf),
            rho_fn=lambda t, tt: math.exp(-c * (t - tt) ** 2))

    def test_unbounded_range_diverges_for_any_alpha(self):
        profile = self._gauss_profile(bounded=False)
        bv = nonlinear_bound(profile, 1e-3, theta=0.0, l_nb=0.5, n0=1.0)
        assert bv.value == math.inf
        assert bv.status == "divergent"

    @given(alpha=st.floats(5e-324, 1e300), theta=st.floats(allow_nan=False, allow_infinity=False),
           floor=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_range_is_infinite_for_every_finite_floor(self, alpha, theta, floor):
        # alpha (theta - theta_tilde)^2 outgrows any finite floor term and the
        # correlation term, which is at least -4 ex / n0, however small alpha
        bv = nonlinear_bound(self._gauss_profile(bounded=False), alpha, theta=theta,
                             l_nb=floor, n0=1.0)
        assert bv.value == math.inf and bv.status == "divergent"
        assert bv.argmax["theta_tilde"] == math.inf and "witness" in bv.diagnostics

    @pytest.mark.parametrize("bounded", [True, False])
    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf])
    def test_non_finite_floor_rejected(self, floor, bounded):
        with pytest.raises(DomainError, match="floor"):
            nonlinear_bound(self._gauss_profile(bounded=bounded), 1e-50, theta=0.0,
                            l_nb=floor, n0=1.0)

    def test_matched_reference_recovers_mse_floor(self):
        profile = self._gauss_profile()
        alpha, floor = 0.8, 0.5
        bv = nonlinear_bound(profile, alpha, theta=0.3, l_nb=floor, n0=1.0)
        # the supremum includes the diagonal probe alpha * floor
        assert bv.value >= alpha * floor - 1e-12

    def test_bounded_range_matches_dense_grid(self):
        alpha, theta, floor, n0, c = 0.8, 0.3, 0.5, 1.0, 4.0
        profile = self._gauss_profile(c=c)
        bv = nonlinear_bound(profile, alpha, theta=theta, l_nb=floor, n0=n0)
        ths = np.linspace(0.0, 1.0, 100_001)
        vals = (alpha * floor + alpha * (theta - ths) ** 2
                - 2.0 * (1.0 - np.exp(-c * (theta - ths) ** 2)) / n0)
        assert bv.value == pytest.approx(float(vals.max()), abs=1e-4)

    def test_flat_top_reports_the_sweep_point(self):
        # a constant floor and alpha < 8 ex / n0 put the peak at theta_tilde =
        # theta, a point of the 2001-point sweep, where the polish only ties
        bv = nonlinear_bound(self._gauss_profile(), 0.5, theta=0.5, l_nb=0.5, n0=1.0)
        assert bv.argmax["theta_tilde"] == 0.5 and bv.value == 0.25

    @given(theta=st.floats(0.0, 1.0), alpha=st.floats(0.01, 3.0), c=st.floats(0.5, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_value_is_attained_and_never_below_the_sweep(self, theta, alpha, c):
        def f(tt):   # the library's objective, term for term
            return (alpha * 0.5 + alpha * (theta - tt) ** 2
                    - 2.0 * 1.0 * (1.0 - math.exp(-c * (theta - tt) ** 2)) / 1.0)

        bv = nonlinear_bound(self._gauss_profile(c=c), alpha, theta=theta, l_nb=0.5, n0=1.0)
        assert bv.value == f(bv.argmax["theta_tilde"])
        assert bv.value >= max(f(float(t)) for t in np.linspace(0.0, 1.0, 2001))

    @pytest.mark.parametrize("theta_range", [(1.0, 1.0), (1.0, 0.0), (math.nan, 1.0)])
    def test_empty_range_rejected(self, theta_range):
        with pytest.raises(DomainError):
            CorrelationProfile(ex=1.0, theta_range=theta_range, rho_fn=lambda t, tt: 1.0)

    @pytest.mark.parametrize("floor", [np.int64(1), np.array(1.0)])
    def test_numpy_number_lnb_is_a_constant_floor(self, floor):
        # anything that is not callable is a constant floor, a numpy integer
        # or a 0-d array included
        bv = nonlinear_bound(self._gauss_profile(), 0.5, theta=0.5, l_nb=floor, n0=1.0)
        assert bv == nonlinear_bound(self._gauss_profile(), 0.5, theta=0.5, l_nb=1.0, n0=1.0)
        assert bv.value == 0.5 and bv.argmax["theta_tilde"] == 0.5
