"""Value types, grid containers and the scalar optimizers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import (
    DelayDesignProblem,
    DomainError,
    GridDensity,
    GridError,
    VectorLinearModel,
    Waveform,
    raised_cosine_pulse,
    raised_cosine_reference,
    renyi_gaussian_linear,
    solve_reference_ode,
    vector_linear_bound,
    vector_ml_lambda,
)
from riskbounds.closed_forms import classify, divergence_onset, golden_section_max, maximize_scalar
from riskbounds.core import _golden_section_batch, _maximize_batch, _trapezoid, logsumexp


class TestWaveform:
    def test_energy_by_trapezoid(self):
        t = np.linspace(0.0, 2.0, 40001)
        w = Waveform(t, np.sin(math.pi * t))
        assert w.energy() == pytest.approx(1.0, rel=1e-8, abs=0.0)

    def test_caller_arrays_are_copied_and_read_only(self):
        t, v = np.linspace(0.0, 1.0, 5), np.ones(5)
        w = Waveform(t, v)
        t[1], v[:] = 0.9, 7.0
        assert np.all(np.diff(w.t) > 0) and np.all(w.values == 1.0)
        for arr in (w.t, w.values):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_grid_validation(self):
        with pytest.raises(GridError):
            Waveform(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(GridError):
            Waveform(np.array([0.0, 1.0]), np.zeros(3))
        with pytest.raises(GridError):
            Waveform(np.array([0.0]), np.array([1.0]))


_T = np.linspace(0.0, 1.0, 128)
_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: vector_linear_bound(VectorLinearModel(np.eye(2), _NAN, 1.0), [0.1, 0.1]),
                 "need es > 0", id="vector-es"),
    pytest.param(lambda: vector_linear_bound(VectorLinearModel(np.eye(2), 1.0, 1.0), [_NAN, 0.1]),
                 "alpha_vec must be finite", id="vector-alpha"),
    pytest.param(lambda: vector_ml_lambda(VectorLinearModel(np.eye(2), 1.0, _NAN), [0.1, 0.1]),
                 "need es > 0", id="vector-ml-n0"),
    pytest.param(lambda: vector_ml_lambda(VectorLinearModel(np.eye(2), 1.0, 1.0), [0.1, _INF]),
                 "alpha_vec must be finite", id="vector-ml-alpha"),
    pytest.param(lambda: renyi_gaussian_linear(2.0, sigma2=_NAN, sigma2_q=1, es=0, ex=1, n0=1),
                 "out of range", id="renyi-sigma2"),
    pytest.param(lambda: renyi_gaussian_linear(2.0, sigma2=1, sigma2_q=1, es=0, ex=_NAN, n0=1),
                 "out of range", id="renyi-ex"),
    pytest.param(lambda: solve_reference_ode(DelayDesignProblem(Waveform(_T, np.sin(_T)), _NAN)),
                 "lambda_mult must be positive", id="ode-lambda"),
    pytest.param(lambda: Waveform(np.r_[_T[:-1], _NAN], np.sin(_T)), "time grid must be finite",
                 id="waveform-t-nan"),
    pytest.param(lambda: Waveform(np.r_[_T[:-1], _INF], np.sin(_T)), "time grid must be finite",
                 id="waveform-t-inf"),
    pytest.param(lambda: Waveform(_T, np.r_[np.sin(_T[:-1]), _NAN]),
                 "waveform values must be finite", id="waveform-values"),
    pytest.param(lambda: raised_cosine_pulse(-1.0, _T, math.pi), "ex and omega0 must be positive",
                 id="pulse-ex-negative"),
    pytest.param(lambda: raised_cosine_pulse(_INF, _T, math.pi), "ex and omega0 must be positive",
                 id="pulse-ex-inf"),
    pytest.param(lambda: raised_cosine_pulse(1.0, _T, _NAN), "ex and omega0 must be positive",
                 id="pulse-omega0"),
    pytest.param(lambda: raised_cosine_pulse(1e308, _T, math.pi), "amplitude is beyond float range",
                 id="pulse-amplitude"),
    pytest.param(lambda: raised_cosine_pulse(1.0, 10.0 * _T, 1e308), "multiple of pi",
                 id="pulse-omega0-T"),
    pytest.param(lambda: raised_cosine_pulse(1.0, np.r_[_T[:-1], _NAN], math.pi),
                 "time grid must be finite", id="pulse-t"),
    pytest.param(lambda: raised_cosine_reference(1.0, _T, math.pi, _NAN),
                 "lam must be positive", id="reference-lam"),
])
def test_numpy_modules_reject_nan_first(call, error):
    # each range check is written NaN-first (not x > 0, isfinite), so a NaN
    # or an infinite input is a DomainError, never a NaN or inf result, a
    # numpy warning or a bare ValueError
    with pytest.raises(DomainError, match=error):
        call()


class TestGridDensity:
    @pytest.mark.filterwarnings("error")
    def test_normalization_check(self):
        theta = np.sort(np.random.default_rng(4).uniform(-2.0, 3.0, 101))
        dens = np.exp(-theta ** 2)
        stored = GridDensity(theta, 3.0 * dens).density
        assert _bits(stored) == _bits(3.0 * dens / np.trapezoid(3.0 * dens, theta))
        assert np.trapezoid(stored, theta) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        with pytest.raises(DomainError, match="integrates to inf and cannot be normalized"):
            GridDensity(theta, np.full(101, 1e308))
        with pytest.raises(DomainError, match="density must be finite"):   # 1 / z overflows
            GridDensity(np.arange(33) * 1e-320, np.ones(33))

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
        assert np.dot(d.weights, f) == pytest.approx(np.trapezoid(f, theta), rel=1e-13, abs=0.0)
        assert np.all(d.log_shift[:5] == -np.inf)
        assert np.max(d.log_shift) == 0.0
        log_z = math.log(np.trapezoid(dens, theta))
        np.testing.assert_allclose(d.log_shift[5:] + d.log_peak, -theta[5:] ** 2 - log_z,
                                   rtol=1e-13, atol=1e-15)

    def test_arrays_are_read_only(self):
        theta = np.linspace(-1.0, 1.0, 33)
        d = GridDensity(theta, np.full(33, 0.5))
        for arr in (d.theta, d.density, d.weights, d.log_shift, d.log_slope):
            with pytest.raises(ValueError):
                arr[0] = 7.0
        assert d.support_ends == (0, 32) and type(d.support_ends) is tuple

    def test_attributes_cannot_be_assigned_or_deleted(self):
        d = GridDensity(np.linspace(-1.0, 1.0, 33), np.full(33, 0.5))
        for name in (*GridDensity.__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
        with pytest.raises(AttributeError):
            del d.density

    def test_caller_arrays_are_copied(self):
        theta = np.linspace(-1.0, 1.0, 33)
        dens = np.full(33, 0.5)
        d = GridDensity(theta, dens)
        weights = d.weights.copy()
        theta[3] = 5.0
        dens[:] = 9.0
        assert d.theta[3] == pytest.approx(-1.0 + 3.0 / 16.0)
        assert np.all(d.density == 0.5)   # 0.5 integrates to 1 on [-1, 1]
        np.testing.assert_array_equal(d.weights, weights)
        assert theta.flags.writeable and dens.flags.writeable


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


_GRIDS = {
    "uniform": np.linspace(-3.0, 5.0, 513),
    "sinh": 4.0 * np.sinh(np.linspace(-2.0, 2.0, 513)) / math.sinh(2.0),
    # text round trip: a linspace whose spacings differ in the last bits
    "from-text": np.array([float(f"{v:.9g}") for v in np.linspace(-3.1, 5.2, 513)]),
}


class TestGridTrapezoidAndGradient:
    """One trapezoid over a grid and the log density's slope, bit for bit numpy's own."""

    @pytest.mark.parametrize("name", sorted(_GRIDS))
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_match_numpy_bit_for_bit(self, name, seed):
        theta = _GRIDS[name]
        rng = np.random.default_rng(seed)
        dens = rng.exponential(size=theta.size)
        d = GridDensity(theta, dens)
        f = rng.normal(size=theta.size) * np.exp(rng.normal(0.0, 3.0))
        assert _bits(_trapezoid(f, np.diff(theta))) == _bits(np.trapezoid(f, theta))
        assert _bits(d.density) == _bits(dens / np.trapezoid(dens, theta))
        assert _bits(d.log_slope) == _bits(np.diff(d.log_shift) / np.diff(theta))
        w = Waveform(theta, f)
        assert _bits(w.energy()) == _bits(np.trapezoid(f ** 2, theta))

    def test_log_slope_spans_the_support_only(self):
        theta = np.linspace(-2.0, 2.0, 101)
        dens = np.exp(-theta ** 2)
        dens[:3], dens[-5:] = 0.0, 0.0   # padding: -inf log density outside the support
        d = GridDensity(theta, dens)
        assert d.support_ends == (3, 95) and d.log_slope.shape == (92,)
        assert np.isfinite(d.log_slope).all()
        assert _bits(d.log_slope) == _bits(np.diff(d.log_shift[3:96]) / np.diff(theta[3:96]))
        flat = GridDensity(_GRIDS["sinh"], np.ones(513))
        assert flat.log_slope.shape == (512,) and not flat.log_slope.any()

    def test_support_pieces(self):
        theta = np.linspace(-2.0, 2.0, 101)
        padded = np.where(np.abs(theta) <= 1.0, 1.0, 0.0)
        grid = GridDensity(theta, padded)
        assert grid.support_ends == (25, 75) and not grid.has_hole
        assert grid.log_edge == 0.0   # flat up to the ends of its support
        holed = GridDensity(theta, np.abs(theta))
        assert holed.support_ends == (0, 100) and holed.has_hole
        left_pad = np.exp(-theta ** 2)
        left_pad[:3] = 0.0   # padding at one edge only is padding, not a hole
        left = GridDensity(theta, left_pad)
        assert left.support_ends == (3, 100) and not left.has_hole
        assert left.log_edge == left.log_shift[3] > left.log_shift[100]
        smooth = GridDensity(theta, np.exp(-theta ** 2))
        assert smooth.support_ends == (0, 100) and not smooth.has_hole
        assert smooth.log_edge == smooth.log_shift[0] == max(smooth.log_shift[[0, 100]])
        # a density whose ratio to the peak is below the smallest float is padding
        tall = np.full(101, 1e10)
        tall[0] = 1e-320
        edge = GridDensity(1e-10 * theta, tall)
        assert edge.density[0] > 0.0 and edge.log_shift[0] == -np.inf
        assert edge.support_ends == (1, 100) and not edge.has_hole

    def test_cached_arrays_are_read_only_and_never_shared(self):
        d = GridDensity(_GRIDS["sinh"], np.ones(513))
        assert d.support_ends == (0, 512)
        assert not d.log_slope.flags.writeable
        with pytest.raises(ValueError):
            d.log_slope[0] = 7.0
        for arr in (d.theta, d.density, d.weights, d.log_shift):
            assert not np.shares_memory(d.log_slope, arr)
        with pytest.raises(AttributeError):
            d.log_slope = np.ones(512)

    def test_all_zero_density_fails_the_normalization_check(self):
        with pytest.raises(DomainError, match="integrates to 0 and cannot be normalized"):
            GridDensity(np.linspace(0.0, 1.0, 33), np.zeros(33))


class TestLogSumExp:
    def test_matches_direct_sum(self):
        x = np.random.default_rng(5).normal(size=200)
        w = np.random.default_rng(6).uniform(0.0, 2.0, 200)
        assert logsumexp(x) == pytest.approx(math.log(np.sum(np.exp(x))), rel=1e-14, abs=0.0)
        assert logsumexp(x, w) == pytest.approx(math.log(np.sum(w * np.exp(x))), rel=1e-14,
                                                abs=0.0)

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
        assert fx == pytest.approx(1.4, rel=1e-9, abs=0.0)

    def test_log_spaced_bracket(self):
        x, fx, _ = maximize_scalar(lambda u: -(math.log(u) - math.log(0.003)) ** 2,
                                   1e-5, 1.0, log_spaced=True)
        assert x == pytest.approx(0.003, rel=1e-6, abs=0.0)

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

    def test_float_bracket_hands_the_objective_floats(self):
        # the linear grid is numpy's linspace, bit for bit, on plain floats
        seen = []

        def f(u):
            seen.append(u)
            return -(u - 0.37) ** 2

        maximize_scalar(f, 0.1, 0.9, coarse=17)
        assert all(type(u) is float for u in seen)
        assert seen[:17] == np.linspace(0.1, 0.9, 17).tolist()

    @pytest.mark.parametrize("lo, hi, coarse", [(1e-3, 50.0, 64), (1e-5, 1.0, 97), (0.3, 0.7, 33),
                                                (1e-300, 1e300, 48)])
    def test_log_spaced_grid_is_numpy_exp_bit_for_bit(self, lo, hi, coarse):
        # np.exp, not math.exp, spaces a log grid: the two differ in the last bit
        seen = []
        maximize_scalar(lambda u: seen.append(u) or -u, lo, hi, log_spaced=True, coarse=coarse)
        want = np.exp(np.linspace(math.log(lo), math.log(hi), coarse))
        assert all(type(u) is float for u in seen)
        assert np.array(seen[:coarse]).tobytes() == want.tobytes()

    def test_coarse_sweep_needs_two_points(self):
        with pytest.raises(DomainError):
            maximize_scalar(lambda u: u, 0.0, 1.0, coarse=1)
        with pytest.raises(DomainError):
            _maximize_batch(lambda u: u, np.zeros(2), np.ones(2), coarse=1)

    def test_first_maximum_with_nan_read_as_minus_inf(self):
        # numpy's nanargmax: NaN counts as -inf, so where every other value is
        # -inf the first point wins, NaN or not, and is returned unpolished
        vals = iter([math.nan, -math.inf, -math.inf, 2.0, 2.0, 1.0])
        x, fx, _ = maximize_scalar(lambda u: next(vals, -1.0), 0.0, 5.0, coarse=6)
        assert (x, fx) == (3.0, 2.0)
        g = lambda u: math.nan if u < 0.5 else -math.inf   # noqa: E731
        x, fx, n_eval = maximize_scalar(g, 0.25, 1.0, log_spaced=True, coarse=3)
        xb, fxb, nb = _maximize_batch(np.vectorize(g), np.full(1, 0.25), np.ones(1), coarse=3)
        assert n_eval == nb == 3 and x == xb[0] == 0.25 and _same(fx, fxb[0])

    def test_evaluation_count_is_the_real_one(self):
        calls = []

        def f(u):
            calls.append(u)
            return -(u - 0.37) ** 2

        _, _, n_eval = maximize_scalar(f, 0.0, 1.0, coarse=64)
        assert n_eval == len(calls)


def _profile(kind: int, lo: float, hi: float, p: float, q: float):
    """One scalar objective on [lo, hi]; p and q in [0, 1] place its features."""
    u0, u1 = lo + p * (hi - lo), lo + q * (hi - lo)
    scale = 1.0 / (hi - lo) ** 2 if hi > lo else 1.0
    if kind == 0:       # unimodal
        return lambda u: -(u - u0) * (u - u0)
    if kind == 1:       # two humps, the taller one not always first
        return lambda u: (1.0 / (1.0 + 80.0 * scale * (u - u0) * (u - u0))
                          + 1.3 / (1.0 + 80.0 * scale * (u - u1) * (u - u1)))
    if kind == 2:       # infeasible (-inf) on part of the bracket
        return lambda u: -math.inf if u < u0 else -(u - u1) * (u - u1)
    if kind == 3:       # divergent (+inf) on part of the bracket
        return lambda u: math.inf if u > u0 else u
    if kind == 4:       # flat: every comparison ties
        return lambda u: 0.25
    return lambda u: math.nan if u < u0 else -(u - u1) * (u - u1)   # NaN on part


def _batched(profiles, points: list):
    """Array objective applying column j's scalar profile to the last-axis column j."""
    def f(x):
        points.append(x.size)
        cols = np.broadcast_to(np.arange(len(profiles)), x.shape)
        return np.array([profiles[j](float(v)) for j, v in zip(cols.flat, x.flat)]).reshape(x.shape)
    return f


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


_COLUMN = st.tuples(st.integers(0, 5), st.floats(1e-3, 5.0), st.floats(1e-9, 10.0),
                    st.integers(0, 4), st.floats(0.0, 1.0), st.floats(0.0, 1.0))


def _brackets(columns):
    """(lo, hi) per column; a column whose fourth entry is 1 gets a bracket 4 ulps wide."""
    lo = np.array([c[1] for c in columns])
    tiny = np.array([c[3] == 1 for c in columns])
    return lo, np.where(tiny, lo + 4.0 * np.spacing(lo), lo + np.array([c[2] for c in columns]))


class TestBatchedSearch:
    """Array brackets: every element gives what a scalar search on it gives.

    The array searches are ``core``'s numpy loops (``_maximize_batch``,
    ``_golden_section_batch``) and the float searches the plain-Python
    ones of ``closed_forms``, so these tests pin the two implementations
    to each other.
    """

    @given(st.lists(_COLUMN, min_size=1, max_size=5), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    # one 4-ulp bracket, whose log step is 0, must not move the grid of the others
    @example(columns=[(0, 1.0, 1.0, 0, 0.0, 0.0), (0, 1.0, 1.0, 0, 0.0, 0.0),
                      (0, 3.625, 1.8361170095920754, 0, 0.875, 0.0),
                      (0, 0.005859375, 1.0, 1, 0.0, 0.0)], coarse=38)
    def test_maximize_matches_scalar_calls(self, columns, coarse):
        lo, hi = _brackets(columns)
        profiles = [_profile(c[0], lo[j], hi[j], c[4], c[5]) for j, c in enumerate(columns)]
        scalar = []
        for j, g in enumerate(profiles):
            try:
                scalar.append(maximize_scalar(g, float(lo[j]), float(hi[j]),
                                              log_spaced=True, coarse=coarse))
            except DomainError:
                # NaN at every coarse point of one bracket refuses the whole batch
                with pytest.raises(DomainError, match="NaN at every point"):
                    _maximize_batch(_batched(profiles, []), lo, hi, coarse=coarse)
                return
        points: list = []
        x, fx, n_eval = _maximize_batch(_batched(profiles, points), lo, hi, coarse=coarse)
        assert type(n_eval) is int and n_eval == sum(points)
        assert x.shape == fx.shape == lo.shape
        for j, (xs, fs, _) in enumerate(scalar):
            assert x[j] == xs and _same(fx[j], fs)

    @given(st.lists(_COLUMN, min_size=1, max_size=5), st.sampled_from([1e-10, 1e-4]))
    @settings(max_examples=60, deadline=None)
    def test_golden_matches_scalar_calls(self, columns, tol):
        lo, hi = _brackets(columns)
        profiles = [_profile(c[0], lo[j], hi[j], c[4], c[5]) for j, c in enumerate(columns)]
        x, fx = _golden_section_batch(_batched(profiles, []), lo, hi, tol=tol)
        for j, g in enumerate(profiles):
            xs, fs = golden_section_max(g, float(lo[j]), float(hi[j]), tol=tol)
            assert x[j] == xs and _same(fx[j], fs)

    def test_every_kind_in_one_batch(self):
        # unimodal, two humps, -inf region, +inf region (returns at once),
        # flat on a 4-ulp bracket (neighbouring grid points coincide, so the
        # grid point is returned unpolished) and a partly NaN profile
        columns = [(0, 0.5, 2.0, 0, 0.3, 0.0), (1, 1.0, 3.0, 0, 0.2, 0.85),
                   (2, 0.1, 1.0, 0, 0.6, 0.9), (3, 2.0, 1.0, 0, 0.7, 0.0),
                   (4, 1.5, 0.0, 1, 0.0, 0.0), (5, 0.2, 4.0, 0, 0.4, 0.75)]
        lo, hi = _brackets(columns)
        profiles = [_profile(c[0], lo[j], hi[j], c[4], c[5]) for j, c in enumerate(columns)]
        points: list = []
        x, fx, n_eval = _maximize_batch(_batched(profiles, points), lo, hi, coarse=32)
        assert type(n_eval) is int and n_eval == sum(points)
        assert fx[3] == math.inf and fx[2] > -math.inf
        assert fx[1] > 1.3 and abs(x[1] - 3.55) < 0.1     # the taller, second hump
        for j, g in enumerate(profiles):
            xs, fs, _ = maximize_scalar(g, float(lo[j]), float(hi[j]), log_spaced=True,
                                        coarse=32)
            assert x[j] == xs and _same(fx[j], fs)
        assert x[4] == lo[4]

    def test_all_nan_column_raises(self):
        profiles = [lambda u: -u * u, lambda u: math.nan]
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 1.0])
        with pytest.raises(DomainError):
            _maximize_batch(_batched(profiles, []), lo, hi)
        with pytest.raises(DomainError):
            maximize_scalar(profiles[1], 0.0, 1.0)

    def test_bad_brackets_rejected(self):
        f = _batched([lambda u: -u * u] * 2, [])
        with pytest.raises(DomainError):
            _maximize_batch(f, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            _maximize_batch(f, np.array([0.0, 0.5]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            _maximize_batch(f, np.zeros(2), np.ones(3))
        with pytest.raises(DomainError):
            _golden_section_batch(f, np.zeros(2), np.ones(3), 1e-10)


class TestDivergenceOnset:
    def test_threshold_recovery(self):
        onset = divergence_onset(lambda a: a > 0.62, 1e-9, 0.1, tol=1e-6)
        assert onset == pytest.approx(0.62, abs=1e-5)

    def test_no_divergence_returns_infinity(self):
        assert divergence_onset(lambda a: False, 1e-9, 0.1, hi_cap=100.0) == math.inf

    def test_expanding_upper_probe(self):
        onset = divergence_onset(lambda a: a > 37.0, 1e-9, 0.1, tol=1e-4)
        assert onset == pytest.approx(37.0, abs=1e-3)
