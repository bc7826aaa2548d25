"""Bayesian bound families: closed forms, optimizers, dominance, reductions."""

import functools
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import (
    DomainError,
    GridDensity,
    LinearGaussianModel,
    VectorLinearModel,
    alpha_c_estimate,
    alpha_c_upper,
    generic_bayes_bound,
    linear_gaussian_min_lambda,
    lpcb_bound,
    lpcb_sweep,
    nu_bound,
    phase_bound_large_sigma,
    scalar_ml_lambda,
    tilted_prior_bound,
    vector_ml_lambda,
    ww_rect_delay_bound,
)
from riskbounds import bayes_bounds

from oracles import (
    gaussian_moment_decimal,
    lpcb_beta_grid,
    lpcb_beta_grid_batch,
    phase_linear_ref_bound,
    prior_ceiling,
)

LN2 = math.log(2.0)


def _flat_prior() -> GridDensity:
    theta = np.linspace(0.0, 1.0, 4097)
    return GridDensity(theta, np.ones_like(theta))


class TestGenericBound:
    def test_arithmetic_contract(self):
        assert generic_bayes_bound(1.0, 0.5, 0.2).value == pytest.approx(0.3, abs=1e-15)

    def test_matched_reference_gives_jensen_baseline(self):
        model = LinearGaussianModel(0.5, 1.0, 1.0)
        bv = generic_bayes_bound(0.7, model.mmse(), 0.0)
        assert bv.value == pytest.approx(0.7 * model.mmse(), abs=1e-15)

    def test_infinite_divergence_is_flagged_useless(self):
        bv = generic_bayes_bound(1.0, 0.5, math.inf)
        assert bv.value == -math.inf
        assert bv.status == "useless"

    def test_negative_inputs_rejected(self):
        for bad in ((0.0, 0.5, 0.1), (1.0, -0.5, 0.1), (1.0, 0.5, -0.1)):
            with pytest.raises(DomainError):
                generic_bayes_bound(*bad)

    def test_jensen_never_beats_exact_minimum(self):
        model = LinearGaussianModel(0.5, 1.0, 1.0)
        for frac in np.linspace(0.05, 0.95, 19):
            alpha = frac * model.alpha_c()
            jensen = generic_bayes_bound(alpha, model.mmse(), 0.0).value
            exact = linear_gaussian_min_lambda(model, alpha).value
            assert jensen <= exact + 1e-9


class TestLinearGaussianMinimum:
    def test_critical_factor_prior_only(self):
        assert LinearGaussianModel(0.5, 0.0, 1.0).alpha_c() == pytest.approx(1.0)

    def test_half_critical_value(self):
        model = LinearGaussianModel(0.5, 1.0, 1.0)
        bv = linear_gaussian_min_lambda(model, model.alpha_c() / 2)
        assert bv.value == pytest.approx(0.5 * LN2, rel=1e-14)

    def test_divergence_at_and_above_critical(self):
        model = LinearGaussianModel(0.5, 1.0, 1.0)
        for alpha in (model.alpha_c(), 1.5 * model.alpha_c()):
            bv = linear_gaussian_min_lambda(model, alpha)
            assert bv.value == math.inf
            assert bv.status == "divergent"

    def test_estimator_coefficient(self):
        model = LinearGaussianModel(sigma2=2.0, es=3.0, n0=1.0)
        bv = linear_gaussian_min_lambda(model, 0.1)
        assert bv.argmax["estimator_coef"] == pytest.approx(2.0 / (2.0 * 3.0 + 0.5))

    def test_nondecreasing_in_alpha(self):
        model = LinearGaussianModel(1.0, 0.5, 1.0)
        alphas = np.linspace(0.01, 0.99, 60) * model.alpha_c()
        vals = [linear_gaussian_min_lambda(model, float(a)).value for a in alphas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestPhaseBoundLargeSigma:
    def test_divergence_threshold(self):
        for alpha in (0.02, 0.05):
            assert phase_bound_large_sigma(alpha, 25.0, 0.3).value == math.inf

    def test_quarter_critical_value(self):
        sigma2, ex_n0 = 2.0, 0.4
        bv = phase_bound_large_sigma(1.0 / (4 * sigma2), sigma2, ex_n0)
        assert bv.value == pytest.approx(0.5 * LN2 - ex_n0, rel=1e-12)

    def test_exposes_tight_critical_factor(self):
        bv = phase_bound_large_sigma(0.001, 25.0, 0.3)
        assert bv.argmax["alpha_c"] == pytest.approx(1.0 / 50.0)

    def test_matches_exact_phase_form_at_wide_prior(self):
        # at sigma2 = 25 the neglected damping terms are ~ exp(-50)
        sigma2, ex_n0 = 25.0, 0.3
        alpha = 1.0 / (4 * sigma2)
        approx = phase_bound_large_sigma(alpha, sigma2, ex_n0)
        exact = phase_linear_ref_bound(alpha, sigma2, approx.argmax["sigma2_q"], ex_n0)
        assert approx.value == pytest.approx(exact, abs=1e-3)

    def test_nondecreasing_in_alpha(self):
        vals = [phase_bound_large_sigma(float(a), 1.0, 0.2).value
                for a in np.linspace(0.01, 0.49, 49)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_zero_signal_energy_meets_the_exact_minimum(self):
        # with no signal penalty the optimized approximation coincides with
        # the exactly solvable signal-free minimum, so dominance is tight
        sigma2 = 0.7
        model = LinearGaussianModel(sigma2, 0.0, 1.0)
        for alpha in np.linspace(0.05, 0.65, 13):
            approx = phase_bound_large_sigma(float(alpha), sigma2, 0.0).value
            exact = linear_gaussian_min_lambda(model, float(alpha)).value
            assert approx == pytest.approx(exact, rel=1e-12)
            assert approx <= exact + 1e-12


# each Gaussian moment at inputs that make its argument x exactly
_GAUSSIAN_MOMENTS = {
    "linear_gaussian_min_lambda":   # alpha / alpha_c with alpha_c = 1
        lambda x: linear_gaussian_min_lambda(LinearGaussianModel(0.5, 0.0, 1.0), x).value,
    "phase_bound_large_sigma":      # 2 (alpha sigma2) with sigma2 = 1/2, no signal term
        lambda x: phase_bound_large_sigma(x, 0.5, 0.0).value,
    "scalar_ml_lambda": lambda x: scalar_ml_lambda(x, 1.0, 1.0),
    "vector_ml_lambda":             # (n0 / es) a' inv(gamma) a with a = gamma = 1
        lambda x: vector_ml_lambda(VectorLinearModel(np.eye(1), 1.0, x), np.ones(1)),
}


@pytest.mark.parametrize("form", sorted(_GAUSSIAN_MOMENTS))
@pytest.mark.parametrize("x", [5e-11, 4.5e-9, 5e-7, 0.15])
def test_gaussian_moments_meet_the_decimal_value(form, x):
    # the four closed forms share one log1p kernel; ln(1 / (1 - x)) would
    # err by up to 8.3e-8 relative at these small x
    expected = gaussian_moment_decimal(x)
    assert _GAUSSIAN_MOMENTS[form](x) == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestTiltedPriorBound:
    def test_identity_tilt_has_no_divergence_penalty(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0)
        bv = tilted_prior_bound(prior, alpha=0.3, beta=1.0, es_over_n0=0.5)
        assert bv.value == pytest.approx(0.3 / (1.0 + 2 * 0.5), rel=1e-6)

    def test_gaussian_critical_factor_upper_bound(self):
        sigma2 = 1.5
        half = 30.0 * math.sqrt(sigma2)
        theta = np.linspace(-half, half, 8193)
        dens = np.exp(-theta ** 2 / (2 * sigma2))
        prior = GridDensity(theta, dens / np.trapezoid(dens, theta))
        assert alpha_c_upper(prior) == pytest.approx(1.0 / (2 * sigma2), rel=2e-2)

    def test_uniform_prior_has_no_divergence_certificate(self):
        # compact support: no tilt drives the information to zero, so the
        # family cannot certify any finite critical factor
        assert alpha_c_upper(_flat_prior()) == math.inf

    @pytest.mark.parametrize("n", [9, 41])
    def test_zero_padded_triangle_has_no_divergence_certificate(self, n):
        # compact support: every kept tilt is sharper than the prior, and on
        # 9 points their information grows like 2^beta, which a fit taken for
        # a low-beta trend would read as a finite certificate
        assert alpha_c_upper(_ceiling_prior("triangle", -3.0, 5.0, n)) == math.inf

    def test_flat_prior_tilt_rejected_at_the_grid_ends(self):
        with pytest.raises(DomainError, match="does not vanish at the ends of its support"):
            tilted_prior_bound(_flat_prior(), alpha=0.3, beta=2.0, es_over_n0=0.0)

    @pytest.mark.parametrize("fisher_info", [0.0, -0.0, math.nan])
    def test_information_that_is_not_positive_is_rejected(self, fisher_info, monkeypatch,
                                                          gaussian_prior_grid):
        # zero or NaN total information raises DomainError, never ZeroDivisionError
        monkeypatch.setattr(GridDensity, "tilt_terms", lambda prior, beta: (fisher_info, 0.1))
        with pytest.raises(DomainError, match="total information is not positive"):
            tilted_prior_bound(gaussian_prior_grid(1.0), 0.3, 1.0, 0.0)
        assert alpha_c_upper(gaussian_prior_grid(1.0)) == math.inf

    def test_rescaled_prior_scales_the_critical_factor(self):
        # gaussian:1e10 is gaussian:1.0 with theta 1e5 times larger: alpha_c
        # scales by 1e-10, and no floor on I = 1e-10 refuses its tilts
        theta = np.linspace(-10.0, 10.0, 8193)
        dens = np.exp(-theta ** 2 / 2.0)
        unit = GridDensity(theta, dens)
        wide = GridDensity(1e5 * theta, dens)
        assert alpha_c_upper(wide) == pytest.approx(1e-10 * alpha_c_upper(unit), rel=1e-9)
        assert tilted_prior_bound(wide, 1e-11, 1.0, 0.0).value == pytest.approx(0.1, rel=1e-9)

    def test_nonpositive_beta_rejected(self, gaussian_prior_grid):
        with pytest.raises(DomainError):
            tilted_prior_bound(gaussian_prior_grid(1.0), 0.3, 0.0, 0.1)

    def test_corr_term_shifts_value(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0)
        a = tilted_prior_bound(prior, 0.3, 1.5, 0.2, corr_term=0.0)
        b = tilted_prior_bound(prior, 0.3, 1.5, 0.2, corr_term=0.35)
        assert a.value - b.value == pytest.approx(0.35, rel=1e-12)

    def test_gaussian_family_is_tight_at_the_best_tilt(self, gaussian_prior_grid):
        # for a Gaussian prior the supremum over tilts meets the exact
        # signal-free minimum: the best exponent is beta = 1 - 2 alpha s2
        sigma2, alpha = 1.0, 0.3
        prior = gaussian_prior_grid(sigma2)
        exact = 0.5 * math.log(1.0 / (1.0 - 2.0 * alpha * sigma2))
        beta_star = 1.0 - 2.0 * alpha * sigma2
        at_best = tilted_prior_bound(prior, alpha, beta_star, es_over_n0=0.0)
        assert at_best.value == pytest.approx(exact, rel=2e-4)
        # grid-quality dominance: representable probes never exceed the
        # exact value beyond the quadrature tolerance (tilts too flat for
        # the window are rejected by the escape guard and skipped)
        for beta in np.linspace(0.2, 3.0, 15):
            try:
                probe = tilted_prior_bound(prior, alpha, float(beta), es_over_n0=0.0)
            except DomainError:
                continue
            assert probe.value <= exact + 2e-4


@functools.lru_cache(maxsize=16)
def _ceiling_prior(kind: str, a: float, b: float, n: int) -> GridDensity:
    """A prior as the CLI builds it: ("window", sigma2, span, n) is `gaussian:sigma2,span,n`;
    ("flat", lo, hi, n) is flat on [lo, hi]; the "padded" kinds put the same support
    in the middle half of a grid twice as wide and set the density to 0 outside it;
    ("triangle", lo, hi, n) is max(2 - |theta|, 0) on n points of [lo, hi]."""
    if kind.endswith("window"):
        half = b * math.sqrt(a)
        edge = 2.0 * half if kind.startswith("padded") else half
        theta = np.linspace(-edge, edge, n)
        dens = np.where(np.abs(theta) <= half, np.exp(-theta ** 2 / (2.0 * a)), 0.0)
    elif kind == "triangle":
        theta = np.linspace(a, b, n)
        dens = np.maximum(2.0 - np.abs(theta), 0.0)
    else:
        pad = 0.5 * (b - a) if kind.startswith("padded") else 0.0
        theta = np.linspace(a - pad, b + pad, n)
        dens = np.where((theta >= a) & (theta <= b), 1.0, 0.0)
    return GridDensity(theta, dens)


_DELAY = {"omega0": 2.0 * math.pi, "ex": 1.0, "n0": 1.0}   # the CLI's defaults


def _assert_below_ceiling(spec, alpha, beta, es, nu, joint) -> None:
    """Every row of the tilt families on this prior is at most the prior-only ceiling."""
    prior = _ceiling_prior(*spec)
    rows = {
        "tilted": lambda: tilted_prior_bound(prior, alpha, beta, es),
        "delay (nu, beta)": lambda: nu_bound(prior, alpha, beta, nu, **_DELAY),
        "delay nu": lambda: nu_bound(prior, alpha, nu=nu, **_DELAY),
    }
    if joint:
        rows["delay joint"] = lambda: nu_bound(prior, alpha, **_DELAY)
    ceiling = prior_ceiling(prior, alpha)
    for name, row in rows.items():
        try:
            value = row().value
        except DomainError:   # a fixed beta or (nu, beta) with no regular tilt exits 3
            continue
        assert value <= ceiling + 1e-9, (name, value, ceiling)


@st.composite
def _edge_priors(draw):
    """Priors that do not decay at their support ends: truncated Gaussian windows
    and flat grids, each bare or padded with zeros."""
    kind = draw(st.sampled_from(["window", "flat", "padded window", "padded flat"]))
    n = draw(st.sampled_from([257, 1025, 4097]))
    if kind.endswith("window"):
        return kind, 1.0, draw(st.floats(0.5, 3.7)), n
    lo = draw(st.floats(-5.0, 5.0))
    return kind, lo, lo + draw(st.floats(0.1, 5.0)), n


def _gaussian_ceiling(alpha: float, sigma2: float) -> float:
    """C = -0.5 log1p(-2 alpha sigma2) of a N(0, sigma2) prior, at alpha raised by 8 ulps.

    C and the closed forms it caps are all -0.5 log(1 - u) at a u that
    carries a few ulps of rounding.  Within ulps of u = 1 that rounding
    moves them far apart: at u = 1 - 1.8e-16 the exact C reads 18.126,
    the float C 18.022 and ``linear_gaussian_min_lambda`` 18.368.  Taking
    C at alpha (1 + 8 eps) absorbs that rounding and nothing more; it is
    +inf where that alpha reaches 1/(2 sigma2).
    """
    u = 2.0 * (alpha * (1.0 + 8.0 * sys.float_info.epsilon)) * sigma2
    return -0.5 * math.log1p(-u) if u < 1.0 else math.inf


class TestPriorCeiling:
    """No Bayesian bound may exceed C(alpha), the moment of the best constant estimator."""

    @given(spec=_edge_priors(), alpha=st.floats(0.01, 3.0, exclude_min=True),
           beta=st.floats(1e-3, 60.0), es=st.floats(0.0, 1.0), nu=st.floats(0.0, 1.0),
           joint=st.just(False))
    # the rows that read far above C before the grid-end rule
    @example(spec=("flat", 0.0, 1.0, 4097), alpha=0.3, beta=0.8, es=1e-3, nu=0.0, joint=True)
    @example(spec=("window", 1.0, 1.0, 4097), alpha=0.3, beta=1.0, es=0.0, nu=0.5, joint=True)
    @example(spec=("window", 1.0, 2.0, 4097), alpha=0.3, beta=1.0, es=0.0, nu=0.5, joint=False)
    @example(spec=("window", 1.0, 3.0, 4097), alpha=0.3, beta=1.0, es=0.0, nu=0.0, joint=True)
    @example(spec=("window", 1.0, 3.0, 4097), alpha=0.29, beta=1e-3, es=0.0, nu=0.0, joint=False)
    @example(spec=("padded flat", 0.0, 1.0, 1025), alpha=2.0, beta=0.5, es=0.0, nu=0.3, joint=True)
    @example(spec=("padded window", 1.0, 2.0, 1025), alpha=1.0, beta=0.3, es=0.0, nu=0.3,
             joint=True)
    # gaussian:1e10 (sigma 1e5): accepted now that no floor on I depends on units
    @example(spec=("window", 1e10, 10.0, 8193), alpha=1e-11, beta=1.0, es=0.0, nu=0.0,
             joint=False)
    @settings(max_examples=40, deadline=None)
    def test_tilt_family_rows_stay_below_the_prior_ceiling(self, spec, alpha, beta, es, nu,
                                                           joint):
        _assert_below_ceiling(spec, alpha, beta, es, nu, joint)

    @given(sigma2=st.floats(1e-2, 1e2), q_ratio=st.none() | st.floats(-1.0, 1.0),
           es=st.just(0.0) | st.floats(1e-3, 10.0), ex=st.floats(1e-4, 10.0),
           q_const=st.just(0.0) | st.floats(-1.0, 1.0), t_horizon=st.floats(0.1, 10.0),
           fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                              min_size=1, max_size=4),
           split=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_gaussian_rows_stay_below_the_prior_ceiling(self, sigma2, q_ratio, es, ex, q_const,
                                                        t_horizon, fractions, split):
        # the lpcb rows, searched and at a fixed split, and the closed forms on
        # a N(0, sigma2) prior, at alpha below 1/(2 sigma2) where
        # C(alpha) = -0.5 log1p(-2 alpha sigma2) is finite
        alphas = [u / (2.0 * sigma2) for u in fractions]
        model = dict(sigma2=sigma2, ex=ex, es=es, q_const=q_const, t_horizon=t_horizon,
                     sigma2_q=None if q_ratio is None else sigma2 * 10.0 ** q_ratio)
        if not all(bayes_bounds._BETA_EDGE * a > 0.0 for a in alphas):
            # below about 5e-318 the low end of the split bracket underflows
            # to 0 and no split is left to search: a DomainError, exit 3
            with pytest.raises(DomainError):
                lpcb_sweep(alphas, **model)
            return
        beta = split * min(alphas)
        rows = {"lpcb": lpcb_sweep(alphas, **model)}
        if 0.0 < beta < min(alphas):   # split * alpha may round to 0 or to alpha
            rows["lpcb fixed split"] = lpcb_sweep(alphas, beta, **model)
        rows["phase"] = [phase_bound_large_sigma(a, sigma2, ex) for a in alphas]
        exact = LinearGaussianModel(sigma2, es, 1.0)
        rows["linear exact"] = [linear_gaussian_min_lambda(exact, a) for a in alphas]
        for name, bvs in rows.items():
            for alpha, bv in zip(alphas, bvs):
                ceiling = _gaussian_ceiling(alpha, sigma2)
                assert bv.value <= ceiling + 1e-12 * max(1.0, abs(ceiling)), (name, alpha, bv)

    # max(2 - |theta|, 0) on [-3, 5] has zeros at both grid ends and a kink
    # at the ends of its support; on 9 points it is the CSV -3,0 / -2,0 /
    # -1,1 / 0,2 / 1,1 / 2,0 / 3,0 / 4,0 / 5,0, whose beta = 1 row read 0.6
    # against C = 0.1612 while the 1e-3 rule looked at the grid ends
    @pytest.mark.parametrize("n", [9, 41, 161, 1025])
    def test_zero_padded_triangle_rows_stay_below_the_prior_ceiling(self, n):
        prior = _ceiling_prior("triangle", -3.0, 5.0, n)
        values = [nu_bound(prior, 0.3, **_DELAY).value,
                  nu_bound(prior, 0.3, nu=0.0, **_DELAY).value]
        for beta in np.exp(np.linspace(math.log(1e-3), math.log(60.0), 400)).tolist():
            try:
                values.append(tilted_prior_bound(prior, 0.3, beta, es_over_n0=0.0).value)
            except DomainError:
                pass
        ceiling = prior_ceiling(prior, 0.3)
        assert max(values) <= ceiling + 1e-9, (max(values), ceiling)

    @pytest.mark.xfail(strict=True, reason=(
        "decaying windows overshoot C near the 1e-3 grid-end gate: the truncated tilt "
        "underestimates I; open until the closed-form Gaussian tilt (ROADMAP direction 4) "
        "and a tuned gate"))
    @pytest.mark.parametrize("spec, alpha, beta", [
        (("window", 1.0, 8.0, 4097), 0.402, 0.2159),    # 0.823270 against C = 0.814423
        (("window", 1.0, 10.0, 8193), 0.41, 0.173),     # 0.859736 against C = 0.857377
    ], ids=["gaussian:1.0,8,4097", "gaussian:1.0"])
    def test_decaying_window_overshoot_near_the_gate(self, spec, alpha, beta):
        _assert_below_ceiling(spec, alpha, beta, es=0.0, nu=0.0, joint=False)


class TestRectPulseDelayBound:
    def test_reference_constants_at_unit_parameters(self):
        bv = ww_rect_delay_bound(1.0, 1.0, 1.0)
        assert bv.value == pytest.approx(0.2922, abs=1e-3)
        assert bv.argmax["tau_tilde"] == pytest.approx(1.1895, abs=1e-3)
        assert bv.diagnostics["nontrivial"]

    def test_zero_crossing_snr_coefficient(self):
        # gamma solving bound = 0 at alpha = tau = 1
        from scipy.optimize import brentq
        g0 = brentq(lambda g: ww_rect_delay_bound(1.0, g, 1.0).value, 0.9, 2.0, xtol=1e-12)
        assert g0 == pytest.approx(1.2552, abs=1e-3)

    def test_window_edge_snr_coefficient(self):
        from scipy.optimize import brentq
        g1 = brentq(lambda g: ww_rect_delay_bound(1.0, g, 1.0).argmax["tau_tilde"] - 1.0,
                    0.5, 1.2, xtol=1e-12)
        assert g1 == pytest.approx(0.8654, abs=1e-3)

    def test_out_of_window_is_status_not_crash(self):
        bv = ww_rect_delay_bound(1.0, 0.5, 1.0)
        assert bv.status == "out_of_window"

    def test_scaling_invariance(self):
        # the closed form depends on (alpha tau^2) and gamma only
        a1 = ww_rect_delay_bound(1.0, 1.1, 1.0)
        a2 = ww_rect_delay_bound(4.0, 1.1, 0.5)
        assert a1.value == pytest.approx(a2.value, rel=1e-12)


class TestLpcbBound:
    def test_matches_beta_grid_oracle(self):
        for alpha, snr in ((0.3, 0.001), (0.7, 0.01), (0.9, 0.1), (0.999, 0.001)):
            ours = lpcb_bound(alpha, sigma2=0.5, ex=snr, n0=1.0)
            oracle = lpcb_beta_grid(alpha, snr, 0.5)
            assert ours.value == pytest.approx(oracle, rel=1e-7)

    def test_headline_point_frozen_value(self):
        # beta-grid oracle value at the top of the sweep, snr = 0.001
        bv = lpcb_bound(0.999, sigma2=0.5, ex=0.001, n0=1.0)
        assert bv.value == pytest.approx(2.437448786, abs=1e-6)

    def test_divergence_just_above_critical(self):
        # alpha = (1 + eps) / (2 sigma2) with witness beta = eps / (2 sigma2)
        sigma2, eps = 0.5, 0.02
        alpha = (1 + eps) / (2 * sigma2)
        at_witness = lpcb_bound(alpha, eps / (2 * sigma2), sigma2=sigma2, ex=0.1, n0=1.0)
        assert at_witness.value == math.inf
        optimized = lpcb_bound(alpha, sigma2=sigma2, ex=0.1, n0=1.0)
        assert optimized.value == math.inf
        assert optimized.status == "divergent"

    def test_optimizer_dominates_log_spaced_probes(self):
        alpha, sigma2, snr = 0.8, 0.5, 0.01
        best = lpcb_bound(alpha, sigma2=sigma2, ex=snr, n0=1.0)
        betas = np.exp(np.linspace(math.log(1e-6 * alpha), math.log(alpha * (1 - 1e-6)), 200))
        for b in betas:
            probe = lpcb_bound(alpha, float(b), sigma2=sigma2, ex=snr, n0=1.0)
            assert probe.value <= best.value + 1e-9

    def test_small_split_limit_matches_reference_minimum_shape(self):
        # as the split vanishes, the comparison term alone approaches
        # 0.5 ln(1/(1 - 2 sigma2 alpha)); the divergence weight blows up
        sigma2, alpha = 0.5, 0.6
        first_term_limit = 0.5 * math.log(1 / (1 - 2 * sigma2 * alpha))
        beta = 1e-7 * alpha
        probe = lpcb_bound(alpha, beta, sigma2=sigma2, ex=0.0, n0=1.0)
        assert probe.value == pytest.approx(first_term_limit, rel=1e-5)
        with_snr = lpcb_bound(alpha, beta, sigma2=sigma2, ex=0.01, n0=1.0)
        assert with_snr.value < -1e4

    def test_wide_split_limit_recovers_kl_bound(self):
        # beta -> alpha reproduces the plain divergence bound
        # alpha * mmse - (prior kl + path divergence)
        sigma2, alpha, ex = 0.5, 0.6, 0.05
        probe = lpcb_bound(alpha, alpha * (1 - 1e-9), sigma2=sigma2, ex=ex, n0=1.0)
        generic = alpha * sigma2 - ex
        assert probe.value == pytest.approx(generic, rel=1e-6)

    def test_fig_style_curves_decrease_in_snr_and_increase_in_alpha(self):
        alphas = np.linspace(0.05, 0.95, 19)
        curves = {}
        for snr in (0.001, 0.01, 0.1):
            curves[snr] = [lpcb_bound(float(a), sigma2=0.5, ex=snr, n0=1.0).value
                           for a in alphas]
        for snr, vals in curves.items():
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for lo_snr, hi_snr in ((0.001, 0.01), (0.01, 0.1)):
            assert all(h <= l + 1e-12 for l, h in zip(curves[lo_snr], curves[hi_snr]))

    def test_critical_factor_estimate_by_bisection(self):
        est = alpha_c_estimate(
            lambda a: lpcb_bound(a, sigma2=0.5, ex=0.001, n0=1.0), 0.5)
        assert est == pytest.approx(1.0, abs=1e-3)

    def test_invalid_beta_rejected(self):
        with pytest.raises(DomainError):
            lpcb_bound(0.5, 0.7, sigma2=0.5, ex=0.1, n0=1.0)

    def test_dominance_on_exactly_solvable_model(self):
        # signal-free true model: any valid bound stays below the exact
        # minimum 0.5 ln(1/(1 - 2 alpha sigma2))
        sigma2 = 0.5
        model = LinearGaussianModel(sigma2, 0.0, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha = rng.uniform(0.05, 0.95)
            exact = linear_gaussian_min_lambda(model, alpha).value
            beta = rng.uniform(1e-3, alpha * (1 - 1e-3))
            probe = lpcb_bound(alpha, beta, sigma2=sigma2, ex=0.0, n0=1.0)
            assert probe.value <= exact + 1e-9


_WITNESS = "residual reaches the reference critical factor"


class TestLpcbSweep:
    @pytest.mark.parametrize("model", [
        dict(sigma2=0.5, ex=0.01),                             # divergent witness rows above 1
        dict(sigma2=0.5, ex=0.1, sigma2_q=1.0),                # Renyi term infinite at some witnesses
        dict(sigma2=0.5, ex=0.001, es=0.5),
        dict(sigma2=1.0, ex=0.01, es=0.2, q_const=0.3, t_horizon=2.0),
    ])
    def test_rows_equal_per_alpha_bounds(self, model):
        alphas = np.linspace(0.01, 3.0, 61)
        rows = lpcb_sweep(alphas, **model)
        singles = [lpcb_bound(float(a), **model) for a in alphas]
        for row, single in zip(rows, singles):
            assert (row.value, row.argmax, row.status) == (single.value, single.argmax, single.status)
            assert type(row.value) is float and type(row.argmax["beta"]) is float
        assert any(math.isfinite(r.value) for r in rows)
        fixed = lpcb_sweep(alphas[alphas > 0.4], 0.4, **model)
        assert fixed == [lpcb_bound(float(a), 0.4, **model) for a in alphas[alphas > 0.4]]

    def test_one_alpha_search_pin_with_a_signal_mean(self):
        # pinned bits: the Renyi term squares b as b * b, and a b ** 2 (C pow)
        # differs from it in the last bit at this alpha
        model = dict(sigma2=0.5, ex=0.001, es=0.2, q_const=0.3, sigma2_q=0.4, t_horizon=2.0)
        alpha = 1.7361779364733712
        single = lpcb_bound(alpha, **model)
        assert (single.value, single.argmax) == (0.7290350182331853, {"beta": 0.7235728294132404})
        assert lpcb_sweep([alpha, alpha], **model)[0] == single

    @pytest.mark.parametrize("model", [
        dict(sigma2=0.5, sigma2_q=1e308),      # 2 sigma2_q overflows: the reference factor reads 0
        dict(sigma2=0.5, sigma2_q=1.7e308),
        dict(sigma2=1e308),                    # sigma2_q defaults to sigma2
    ])
    def test_extreme_inputs_give_the_sweep_row_without_warnings(self, model):
        for alpha in (0.2, 0.5, 1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                single = lpcb_bound(alpha, ex=0.1, **model)
                row = lpcb_sweep([alpha, alpha], ex=0.1, **model)[0]
            assert single == row, alpha

    def test_divergent_rows_carry_a_real_witness(self):
        # sigma2 = 0.5: the reference critical factor is 1, so every alpha
        # above it splits off beta = (alpha - 1)(1 - 1e-9) and the residual
        # alone diverges
        alphas = [1.02, 1.5, 2.0, 3.0]
        for alpha, row in zip(alphas, lpcb_sweep(alphas, sigma2=0.5, ex=0.01)):
            assert row.value == math.inf and row.status == "divergent"
            assert row.diagnostics == {"witness": _WITNESS}
            assert row.argmax["beta"] == pytest.approx(alpha - 1.0, rel=1e-8)
            assert lpcb_bound(alpha, row.argmax["beta"], sigma2=0.5, ex=0.01).value == math.inf

    def test_infinite_renyi_term_is_no_witness(self):
        # with sigma2_q = 1 > sigma2 = 0.5 the Renyi term diverges at the
        # witness for alpha < 1; the bound must then stay below the prior-only
        # estimator's exact value -0.5 ln(1 - 2 alpha sigma2), which is finite
        alphas = np.linspace(0.55, 0.95, 9)
        for alpha, row in zip(alphas, lpcb_sweep(alphas, sigma2=0.5, sigma2_q=1.0, ex=0.1)):
            assert math.isfinite(row.value)
            assert row.value <= -0.5 * math.log(1.0 - alpha) + 1e-12

    def test_matches_beta_grid_oracle(self):
        # where the best split is interior the search must meet the dense
        # grid's supremum; at small alpha it sits on the split's upper edge,
        # which the search stops at (1 - 1e-6) alpha and the grid at
        # (1 - 1e-8) alpha, so there it may only fall short
        alphas = np.linspace(0.05, 0.999, 12)
        interior = 0
        for snr in (0.001, 0.01, 0.1):
            for alpha, row in zip(alphas, lpcb_sweep(alphas, sigma2=0.5, ex=snr)):
                oracle = lpcb_beta_grid(alpha, snr, 0.5)
                assert row.value <= oracle + 1e-7 * abs(oracle)
                if row.argmax["beta"] < (1.0 - 2e-6) * alpha:
                    interior += 1
                    assert row.value == pytest.approx(oracle, rel=1e-7)
        assert interior >= 24

    @given(log_sigma2=st.floats(math.log(0.05), math.log(20.0)),
           log_snr=st.floats(math.log(1e-4), 0.0),
           fracs=st.lists(st.floats(0.01, 1.2), min_size=1, max_size=24))
    @settings(max_examples=30, deadline=None)
    def test_rows_reach_the_dense_grid_best_on_their_bracket(self, log_sigma2, log_snr, fracs):
        # the search's own bracket, densely gridded: no row may fall below
        # its best by more than 1e-9 relative (a row that diverges passes)
        sigma2, snr = math.exp(log_sigma2), math.exp(log_snr)
        alphas = [f / (2.0 * sigma2) for f in fracs]
        best = lpcb_beta_grid_batch(alphas, snr, sigma2)
        for alpha, row, b in zip(alphas, lpcb_sweep(alphas, sigma2=sigma2, ex=snr), best.tolist()):
            assert row.value >= b - 1e-9 * abs(b), (alpha, row.value, b)

    @pytest.mark.parametrize("bad", [
        dict(sigma2_q=0.0), dict(n0=0.0), dict(t_horizon=0.0), dict(sigma2=-1.0),
        dict(es=-0.1), dict(ex=-0.1), dict(ex=math.nan), dict(sigma2=math.inf),
        dict(q_const=math.nan), dict(n0=math.inf),
    ])
    def test_bad_parameters_rejected(self, bad):
        model = dict(sigma2=0.5, ex=0.01) | bad
        with pytest.raises(DomainError):
            lpcb_sweep([0.3, 0.6], **model)
        with pytest.raises(DomainError):
            lpcb_bound(0.3, **model)

    @pytest.mark.parametrize("es, ex, q_const, sigma2_q",
                             itertools.product((0.0, 1.0), (0.0, 0.1), (0.0, 0.3), (None, 0.4, 0.6)))
    def test_tiny_splits_never_read_nan(self, es, ex, q_const, sigma2_q):
        # the order alpha / beta overflows a (a - 1) below beta ~ 1e-154 and
        # is itself +inf at beta = 5e-324; a term whose factor es, ex or
        # q_const is 0 must stay 0 there, not inf * 0, and no overflow warns
        alphas = [0.05, 0.5, 0.9]
        model = dict(sigma2=0.5, ex=ex, es=es, q_const=q_const, sigma2_q=sigma2_q)
        for beta in (5e-324, 1e-320, 1e-300, 1e-200, 1e-155, 1e-100, 1e-10):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rows = lpcb_sweep(alphas, beta, **model)
                singles = [lpcb_bound(a, beta, **model) for a in alphas]
            assert rows == singles
            assert not any(math.isnan(r.value) for r in rows), beta
            if es == ex == q_const == 0.0 and sigma2_q is None:
                # reference and truth coincide: no Renyi term, whatever the order
                for a, r in zip(alphas, rows):
                    res = a - beta
                    assert r.value == -a / (2.0 * res) * math.log1p(-res / 1.0)
                    assert r.status == "ok"

    @pytest.mark.parametrize("alphas", [[0.3, math.nan], [0.3, 0.0], [math.inf]])
    def test_bad_alphas_rejected(self, alphas):
        with pytest.raises(DomainError):
            lpcb_sweep(alphas, sigma2=0.5, ex=0.01)


class TestAlphaMonotonicityAcrossFamilies:
    def test_optimized_bounds_nondecreasing_in_alpha(self):
        alphas = np.linspace(0.05, 0.9, 18)
        lpcb_vals = [lpcb_bound(float(a), sigma2=0.5, ex=0.01, n0=1.0).value for a in alphas]
        assert all(b >= a - 1e-10 for a, b in zip(lpcb_vals, lpcb_vals[1:]))
        ww_vals = [ww_rect_delay_bound(float(a), 2.0, 1.0).value for a in np.linspace(1, 8, 15)]
        assert all(b >= a - 1e-10 for a, b in zip(ww_vals, ww_vals[1:]))

    def test_reevaluation_consistency_of_lpcb_argmax(self):
        bv = lpcb_bound(0.8, sigma2=0.5, ex=0.01, n0=1.0)
        again = lpcb_bound(0.8, bv.argmax["beta"], sigma2=0.5, ex=0.01, n0=1.0)
        assert again.value == pytest.approx(bv.value, abs=1e-9)
