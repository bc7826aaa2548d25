"""Value types, grid containers and the scalar optimizers."""

import math

import numpy as np
import pytest

from riskbounds import DomainError, GridDensity, GridError, Waveform
from riskbounds.core import (
    classify,
    divergence_onset,
    golden_section_max,
    logsumexp,
    maximize_scalar,
)


class TestWaveform:
    def test_energy_by_trapezoid(self):
        t = np.linspace(0.0, 2.0, 40001)
        w = Waveform(t, np.sin(math.pi * t))
        assert w.energy() == pytest.approx(1.0, rel=1e-8)

    def test_grid_validation(self):
        with pytest.raises(GridError):
            Waveform(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(GridError):
            Waveform(np.array([0.0, 1.0]), np.zeros(3))
        with pytest.raises(GridError):
            Waveform(np.array([0.0]), np.array([1.0]))

    def test_shared_grid_detection(self):
        t = np.linspace(0, 1, 64)
        assert Waveform(t, np.ones(64)).same_grid(Waveform(t, np.zeros(64)))
        assert not Waveform(t, np.ones(64)).same_grid(
            Waveform(np.linspace(0, 2, 64), np.ones(64)))


class TestGridDensity:
    def test_moments(self):
        theta = np.linspace(-10, 14, 8193)
        dens = np.exp(-((theta - 2.0) ** 2) / (2 * 1.5))
        d = GridDensity(theta, dens / np.trapezoid(dens, theta))
        assert d.mean() == pytest.approx(2.0, abs=1e-9)
        assert d.variance() == pytest.approx(1.5, rel=1e-9)

    def test_normalization_check(self):
        theta = np.linspace(0, 1, 101)
        with pytest.raises(DomainError):
            GridDensity(theta, np.full(101, 2.0)).check_normalized()
        GridDensity(theta, np.full(101, 2.0)).normalized().check_normalized()

    def test_negative_density_rejected(self):
        theta = np.linspace(0, 1, 101)
        dens = np.ones(101)
        dens[3] = -0.1
        with pytest.raises(DomainError):
            GridDensity(theta, dens)

    def test_weights_and_log_density(self):
        theta = np.sort(np.random.default_rng(3).uniform(-2.0, 3.0, 257))
        dens = np.exp(-theta ** 2)
        dens[:5] = 0.0
        d = GridDensity(theta, dens)
        f = np.cos(theta)
        assert np.dot(d.weights, f) == pytest.approx(np.trapezoid(f, theta), rel=1e-13)
        assert np.all(d.log_density[:5] == -np.inf)
        np.testing.assert_allclose(d.log_density[5:], -theta[5:] ** 2, rtol=1e-13, atol=1e-15)
        assert d.weights is d.weights and d.log_density is d.log_density

    def test_arrays_are_read_only(self):
        theta = np.linspace(-1.0, 1.0, 33)
        d = GridDensity(theta, np.full(33, 0.5))
        for arr in (d.theta, d.density, d.weights, d.log_density):
            with pytest.raises(ValueError):
                arr[0] = 7.0

    def test_caller_arrays_are_copied(self):
        theta = np.linspace(-1.0, 1.0, 33)
        dens = np.full(33, 0.5)
        d = GridDensity(theta, dens)
        weights = d.weights.copy()
        theta[3] = 5.0
        dens[:] = 9.0
        assert d.theta[3] == pytest.approx(-1.0 + 3.0 / 16.0)
        assert np.all(d.density == 0.5)
        np.testing.assert_array_equal(d.weights, weights)
        assert theta.flags.writeable and dens.flags.writeable

    def test_with_density_shares_only_the_grid(self):
        d = GridDensity(np.linspace(-1.0, 1.0, 33), np.full(33, 0.5))
        dens = np.linspace(0.0, 1.0, 33)
        other = d.with_density(dens)
        assert other.theta is d.theta
        dens[:] = 9.0
        assert other.density[-1] == 1.0 and not other.density.flags.writeable
        assert d.normalized().theta is d.theta
        with pytest.raises(GridError):
            d.with_density(np.ones(32))
        with pytest.raises(DomainError):
            d.with_density(np.full(33, -1.0))


class TestLogSumExp:
    def test_matches_direct_sum(self):
        x = np.random.default_rng(5).normal(size=200)
        w = np.random.default_rng(6).uniform(0.0, 2.0, 200)
        assert logsumexp(x) == pytest.approx(math.log(np.sum(np.exp(x))), rel=1e-14)
        assert logsumexp(x, w) == pytest.approx(math.log(np.sum(w * np.exp(x))), rel=1e-14)

    def test_large_and_infinite_entries(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + math.log(2.0))
        assert logsumexp(np.array([-np.inf, 0.0])) == 0.0
        assert logsumexp(np.array([-np.inf, -np.inf])) == -math.inf
        assert logsumexp(np.array([])) == -math.inf
        assert logsumexp(np.array([0.0, np.inf])) == math.inf


class TestClassify:
    @pytest.mark.parametrize("value, status", [
        (math.inf, "divergent"), (-math.inf, "useless"), (0.3, "ok"), (-2.0, "ok"),
    ])
    def test_status_follows_value(self, value, status):
        bv = classify(value, {"beta": 1.0})
        assert bv.status == status
        assert bv.value == value and bv.argmax == {"beta": 1.0} and bv.diagnostics == {}


class TestOptimizers:
    def test_golden_section_on_smooth_peak(self):
        x, fx = golden_section_max(lambda u: -(u - 0.37) ** 2, 0.0, 1.0, tol=1e-12)
        assert x == pytest.approx(0.37, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_presweep_rescues_multimodal_profiles(self):
        # two humps: pure golden section from a full bracket could stall on
        # the wrong one; the coarse sweep locates the taller hump first
        def f(u):
            return math.exp(-80 * (u - 0.15) ** 2) + 1.4 * math.exp(-80 * (u - 0.8) ** 2)

        x, fx, _ = maximize_scalar(f, 0.0, 1.0, coarse=64)
        assert x == pytest.approx(0.8, abs=1e-6)
        assert fx == pytest.approx(1.4, rel=1e-9)

    def test_log_spaced_bracket(self):
        x, fx, _ = maximize_scalar(lambda u: -(math.log(u) - math.log(0.003)) ** 2,
                                   1e-5, 1.0, log_spaced=True)
        assert x == pytest.approx(0.003, rel=1e-6)

    def test_infinite_values_win_immediately(self):
        def f(u):
            return math.inf if u > 0.9 else u

        x, fx, _ = maximize_scalar(f, 0.0, 1.0, coarse=32)
        assert fx == math.inf

    def test_empty_bracket_rejected(self):
        with pytest.raises(DomainError):
            maximize_scalar(lambda u: u, 1.0, 1.0)

    def test_all_nan_profile_is_a_domain_error(self):
        with pytest.raises(DomainError):
            maximize_scalar(lambda u: math.nan, 0.0, 1.0)

    def test_evaluation_count_is_the_real_one(self):
        calls = []

        def f(u):
            calls.append(u)
            return -(u - 0.37) ** 2

        _, _, n_eval = maximize_scalar(f, 0.0, 1.0, coarse=64)
        assert n_eval == len(calls)


class TestDivergenceOnset:
    def test_threshold_recovery(self):
        onset = divergence_onset(lambda a: a > 0.62, 1e-9, 0.1, tol=1e-6)
        assert onset == pytest.approx(0.62, abs=1e-5)

    def test_no_divergence_returns_infinity(self):
        assert divergence_onset(lambda a: False, 1e-9, 0.1, hi_cap=100.0) == math.inf

    def test_expanding_upper_probe(self):
        onset = divergence_onset(lambda a: a > 37.0, 1e-9, 0.1, tol=1e-4)
        assert onset == pytest.approx(37.0, abs=1e-3)
