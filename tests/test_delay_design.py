"""Reference-pulse boundary value problem and the delay-estimation bound."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from riskbounds import (
    ConditioningError,
    DelayDesignProblem,
    DomainError,
    GridDensity,
    NuTradeoff,
    Waveform,
    nu_bound,
    raised_cosine_pulse,
    raised_cosine_reference,
    solve_reference_ode,
)
from riskbounds.cli import _load_prior

from oracles import delay_beta_grid

OMEGA0 = 2.0 * math.pi


def _pulse(n=4096, ex=1.5, t_horizon=1.0):
    t = np.linspace(0.0, t_horizon, n)
    return raised_cosine_pulse(ex, t, OMEGA0)


class TestReferenceOde:
    def test_constant_pulse_is_its_own_reference(self):
        t = np.linspace(0.0, 1.0, 512)
        x = Waveform(t, np.full(512, 0.7))
        s = solve_reference_ode(DelayDesignProblem(x, 10.0))
        np.testing.assert_allclose(s.values, 0.7, rtol=1e-12)

    @pytest.mark.parametrize("lam", [5.0, OMEGA0 ** 2, 200.0])
    def test_matches_analytic_raised_cosine(self, lam):
        x = _pulse()
        s_num = solve_reference_ode(DelayDesignProblem(x, lam))
        s_ana = raised_cosine_reference(1.5, x.t, OMEGA0, lam)
        assert np.max(np.abs(s_num.values - s_ana.values)) <= 1e-6

    @pytest.mark.parametrize("n, lam", [(64, 1.0), (513, 30.0), (8193, 30.0)])
    def test_matches_banded_cholesky(self, n, lam):
        from scipy.linalg import solveh_banded
        x = _pulse(n=n)
        c = 1.0 / (lam * (x.t[1] - x.t[0]) ** 2)
        ab = np.zeros((2, n))
        ab[0, 1:] = -c
        ab[1, :] = 1.0 + 2.0 * c
        ab[1, 0] = ab[1, -1] = 0.5 + c
        rhs = x.values.copy()
        rhs[0] *= 0.5
        rhs[-1] *= 0.5
        want = solveh_banded(ab, rhs)
        s = solve_reference_ode(DelayDesignProblem(x, lam))
        assert np.max(np.abs(s.values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_second_order_convergence(self):
        errs = []
        for n in (1024, 2048, 4096):
            x = _pulse(n=n)
            s_num = solve_reference_ode(DelayDesignProblem(x, 50.0))
            s_ana = raised_cosine_reference(1.5, x.t, OMEGA0, 50.0)
            errs.append(np.max(np.abs(s_num.values - s_ana.values)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_solution_is_a_lagrangian_minimum(self):
        # first-order optimality: random perturbations cannot lower the
        # derivative-energy-plus-distance objective
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 1.0, 1024)
        x_vals = np.cumsum(rng.standard_normal(1024))
        x_vals = x_vals - x_vals.mean()
        x = Waveform(t, x_vals / np.sqrt(np.trapezoid(x_vals ** 2, t)))
        lam = 30.0
        s = solve_reference_ode(DelayDesignProblem(x, lam))

        def lagrangian(v):
            dv = np.gradient(v, t)
            return np.trapezoid(dv ** 2, t) + lam * np.trapezoid((x.values - v) ** 2, t)

        base = lagrangian(s.values)
        eps = 1e-3
        for _ in range(50):
            r = rng.standard_normal(1024)
            r /= np.sqrt(np.trapezoid(r ** 2, t))
            assert lagrangian(s.values + eps * r) >= base - 1e-12

    def test_boundary_derivatives_vanish(self):
        x = _pulse()
        s = solve_reference_ode(DelayDesignProblem(x, 25.0))
        ds = np.gradient(s.values, s.t, edge_order=2)
        scale = np.max(np.abs(ds))
        assert abs(ds[0]) <= 1e-5 * scale
        assert abs(ds[-1]) <= 1e-5 * scale

    def test_stiff_discretization_rejected(self):
        t = np.linspace(0.0, 1.0, 128)
        x = Waveform(t, np.sin(2 * math.pi * t))
        with pytest.raises(ConditioningError):
            solve_reference_ode(DelayDesignProblem(x, 1e-10))

    def test_coarse_grid_rejected(self):
        t = np.linspace(0.0, 1.0, 32)
        with pytest.raises(DomainError):
            DelayDesignProblem(Waveform(t, np.sin(t)), 1.0)

    def test_nonpositive_multiplier_rejected(self):
        t = np.linspace(0.0, 1.0, 128)
        with pytest.raises(DomainError):
            DelayDesignProblem(Waveform(t, np.sin(t)), 0.0)


class TestNuTradeoff:
    @pytest.mark.parametrize("lam", [3.0, 50.0, 400.0])
    def test_energy_identities_match_quadrature(self, lam):
        ex, n0 = 1.5, 2.0
        x = _pulse(ex=ex)
        nu = lam / (lam + OMEGA0 ** 2)
        s = raised_cosine_reference(ex, x.t, OMEGA0, lam)
        tr = NuTradeoff(nu, OMEGA0, ex)
        ds = np.gradient(s.values, s.t)
        deriv_energy = np.trapezoid(ds ** 2, s.t)
        assert deriv_energy == pytest.approx(tr.derivative_energy(), rel=1e-6)
        dist = np.trapezoid((s.values - x.values) ** 2, s.t) / n0
        assert dist == pytest.approx(tr.distance_term(n0), rel=1e-6)

    def test_nu_range_enforced(self):
        with pytest.raises(DomainError):
            NuTradeoff(1.2, OMEGA0, 1.0)

    def test_endpoints(self):
        ex = 1.5
        assert NuTradeoff(0.0, OMEGA0, ex).derivative_energy() == 0.0
        assert NuTradeoff(1.0, OMEGA0, ex).distance_term(1.0) == 0.0


class TestNuBound:
    def test_endpoint_specializations(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0)
        alpha, ex, n0 = 0.3, 1.5, 20.0
        at_zero = nu_bound(prior, alpha, nu=0.0, omega0=OMEGA0, ex=ex, n0=n0)
        at_one = nu_bound(prior, alpha, nu=1.0, omega0=OMEGA0, ex=ex, n0=n0)
        # nu = 1: no distance penalty; nu = 0: no derivative energy
        assert at_one.argmax["nu"] == 1.0
        assert at_zero.argmax["nu"] == 0.0
        assert math.isfinite(at_zero.value) and math.isfinite(at_one.value)

    def test_joint_optimizer_dominates_endpoints(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0)
        alpha, ex, n0 = 0.3, 1.5, 20.0
        joint = nu_bound(prior, alpha, omega0=OMEGA0, ex=ex, n0=n0)
        for nu in (0.0, 1.0):
            endpoint = nu_bound(prior, alpha, nu=nu, omega0=OMEGA0, ex=ex, n0=n0)
            assert joint.value >= endpoint.value - 1e-6

    def test_zero_nu_matches_tilted_form(self, gaussian_prior_grid):
        # with no reference signal the bound is the pure information-
        # versus-divergence profile shifted by the fixed distance penalty
        from riskbounds import tilted_prior_bound
        prior = gaussian_prior_grid(1.0)
        alpha, ex, n0, beta = 0.3, 1.5, 20.0, 0.8
        via_nu = nu_bound(prior, alpha, beta=beta, nu=0.0, omega0=OMEGA0, ex=ex, n0=n0)
        direct = tilted_prior_bound(prior, alpha, beta, es_over_n0=0.0,
                                    corr_term=ex / (3 * n0))
        assert via_nu.value == pytest.approx(direct.value, rel=1e-12)

    def test_no_jump_discontinuities_in_nu(self, gaussian_prior_grid):
        # scan the profile at 1e-3 resolution: second differences stay at
        # the smooth-curvature scale, so there is no jump between cells
        prior = gaussian_prior_grid(1.0, n=2049)
        alpha, ex, n0, beta = 0.3, 1.5, 20.0, 0.8
        nus = np.linspace(0.0, 1.0, 1001)
        vals = np.array([nu_bound(prior, alpha, beta=beta, nu=float(v),
                                  omega0=OMEGA0, ex=ex, n0=n0).value for v in nus])
        second = np.abs(np.diff(vals, 2))
        span = vals.max() - vals.min()
        assert second.max() <= 1e-4 * max(span, 1.0)

    def test_infeasible_point_rejected(self, gaussian_prior_grid):
        with pytest.raises(DomainError):
            nu_bound(gaussian_prior_grid(1.0), 0.3, beta=0.5, nu=1.5,
                     omega0=OMEGA0, ex=1.0, n0=1.0)

    @pytest.mark.parametrize("beta", [None, 0.5])
    def test_nu_outside_unit_interval_rejected_up_front(self, gaussian_prior_grid, beta):
        with pytest.raises(DomainError, match=r"nu must lie in \[0, 1\]"):
            nu_bound(gaussian_prior_grid(1.0), 0.6, beta=beta, nu=2.0,
                     omega0=OMEGA0, ex=1.0, n0=1.0)

    def test_optimizer_argmax_reevaluates_to_its_value(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0)
        joint = nu_bound(prior, 0.3, omega0=OMEGA0, ex=1.5, n0=20.0)
        again = nu_bound(prior, 0.3, beta=joint.argmax["beta"], nu=joint.argmax["nu"],
                         omega0=OMEGA0, ex=1.5, n0=20.0)
        assert again.value == pytest.approx(joint.value, abs=1e-9)

    def test_profile_infeasible_everywhere_is_useless(self):
        # no tilt of a flat prior vanishes at the grid ends, so with nu = 0
        # no beta is feasible and the bound is -inf: useless, not ok
        theta = np.linspace(0.0, 1.0, 4097)
        flat = GridDensity(theta, np.ones_like(theta))
        bv = nu_bound(flat, 0.5, nu=0.0, omega0=OMEGA0, ex=1.0, n0=1.0)
        assert bv.value == -math.inf
        assert bv.status == "useless"
        assert math.isnan(bv.argmax["beta"])


_DELAY = dict(omega0=OMEGA0, ex=1.0, n0=1.0)   # the CLI's bayes-delay defaults


def _sinh_laplace(_) -> GridDensity:
    theta = 12.0 * np.sinh(np.linspace(-3.0, 3.0, 2049)) / math.sinh(3.0)
    return GridDensity(theta, np.exp(-np.abs(theta)))


def _mixture(_) -> GridDensity:
    theta = np.linspace(-8.0, 10.0, 2049)
    return GridDensity(theta, 0.6 * np.exp(-(theta + 1.0) ** 2)
                       + 0.4 * np.exp(-(theta - 2.0) ** 2 / 2.0))


@pytest.fixture(scope="module")
def cli_prior():
    """The CLI's prior for a --prior spec, loaded once so that its tilt memo serves every row."""
    loaded = {}

    def load(spec: str) -> GridDensity:
        if spec not in loaded:
            loaded[spec] = _load_prior(SimpleNamespace(prior=spec))
        return loaded[spec]

    return load


class TestSearchAgainstDenseOracle:
    """A searched delay row is never below the best of a dense grid over its free parameters."""

    @pytest.mark.parametrize("make", [lambda g: g(1.0), _sinh_laplace, _mixture],
                             ids=["gaussian", "sinh-laplace", "mixture"])
    def test_fixed_nu_rows_reach_the_dense_beta_best(self, gaussian_prior_grid, make):
        prior = make(gaussian_prior_grid)
        alphas, nus = (0.1, 0.4, 1.0), (0.0, 0.3, 1.0)
        best = delay_beta_grid(prior, alphas, nus, **_DELAY)
        for (i, alpha), (j, nu) in itertools.product(enumerate(alphas), enumerate(nus)):
            value = nu_bound(prior, alpha, nu=nu, **_DELAY).value
            assert value >= best[i, j] - 1e-9 * abs(best[i, j]), (alpha, nu, value, best[i, j])

    # Near alpha = 0.26 on gaussian:1.0, and from alpha = 0.5 on the wide
    # window, the best nu sits in a basin near nu = 0 apart from the one near
    # nu = 0.97.
    @pytest.mark.parametrize("alpha", [0.2, 0.25, 0.26, 0.27, 0.3, 0.6])
    def test_joint_rows_reach_the_dense_grid_best(self, cli_prior, alpha):
        _assert_joint_row_reaches_the_grid(cli_prior("gaussian:1.0"), alpha, 2001)

    # the wide window accepts nearly every beta, so its oracle tilts 1001
    # betas, not 2001, to keep the class near a second
    @pytest.mark.parametrize("alpha", [0.5, 0.52, 0.54])
    def test_wide_window_joint_rows_reach_the_dense_grid_best(self, cli_prior, alpha):
        _assert_joint_row_reaches_the_grid(cli_prior("gaussian:0.5,30,8193"), alpha, 1001)


def _assert_joint_row_reaches_the_grid(prior: GridDensity, alpha: float, n_beta: int):
    best = float(delay_beta_grid(prior, [alpha], np.linspace(0.0, 1.0, 201), n=n_beta,
                                 **_DELAY).max())
    value = nu_bound(prior, alpha, **_DELAY).value
    assert value >= best - 1e-9 * abs(best), (value, best)
