"""Acceptance battery: one test per release criterion, with timing guards.

Each criterion runs at its stated tolerance and registers a one-line
verdict that the terminal summary echoes after the run.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from riskbounds import (
    BernoulliExact,
    DelayDesignProblem,
    LinearGaussianModel,
    MCRun,
    NuTradeoff,
    Phase,
    a_zero,
    alpha_c_estimate,
    bernoulli_bayes_exponent,
    bernoulli_exact_lambda,
    classify_phase,
    error_exponent,
    generic_bayes_bound,
    linear_gaussian_min_lambda,
    lpcb_bound,
    magnetization_roots,
    mc_lambda,
    raised_cosine_pulse,
    raised_cosine_reference,
    scalar_linear_bound,
    scalar_ml_lambda,
    solve_reference_ode,
    ww_rect_delay_bound,
)
from riskbounds import verify
from riskbounds.phase_transition import CurieWeissParams

from oracles import bernoulli_nonbayes_exponent, lpcb_beta_grid

LN2 = math.log(2.0)


def test_criterion_1_comparison_bound_curves(acceptance):
    """Three-SNR sweep: monotone in alpha, ordered in SNR, divergent at one."""
    t0 = time.perf_counter()
    sigma2 = 0.5
    alphas = np.linspace(0.005, 0.999, 200)
    curves = {}
    for snr in (0.001, 0.01, 0.1):
        curves[snr] = np.array(
            [lpcb_bound(float(a), sigma2=sigma2, ex=snr, n0=1.0).value for a in alphas])
    elapsed = time.perf_counter() - t0

    for snr, vals in curves.items():
        assert np.all(np.diff(vals) >= -1e-10), f"curve not monotone at snr {snr}"
    assert np.all(curves[0.001] >= curves[0.01] - 1e-10)
    assert np.all(curves[0.01] >= curves[0.1] - 1e-10)

    # divergence toward the critical factor at one: the top-of-sweep value
    # is pinned to the dense split-grid oracle (2.4374 nats at 0.999), the
    # curve keeps rising through the final decade, and the family first
    # diverges at one
    head = curves[0.001][-1]
    oracle = lpcb_beta_grid(0.999, 0.001, sigma2)
    assert head == pytest.approx(oracle, rel=1e-6)
    assert head == pytest.approx(2.437448786, abs=1e-6)
    assert head > curves[0.001][-40]
    onset = alpha_c_estimate(lambda a: lpcb_bound(a, sigma2=sigma2, ex=0.001, n0=1.0), 0.5)
    assert onset == pytest.approx(1.0, abs=1e-3)
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    acceptance("C1", f"three-curve sweep ok, head {head:.4f} nats, onset {onset:.4f}, "
                     f"{elapsed:.2f}s")


def test_criterion_2_exponent_zeros_and_rise(acceptance):
    """Saddle exponent vanishes through the transition and rises past it."""
    t0 = time.perf_counter()
    zeros = {a: error_exponent(a) for a in (0.5, 1.0, 1.5, 2.0)}
    beyond = error_exponent(2.5)
    elapsed = time.perf_counter() - t0
    for a, val in zeros.items():
        assert abs(val) <= 1e-4, f"exponent at {a} is {val}"
    assert beyond >= 1e-3
    assert elapsed < 30.0, f"exponent battery took {elapsed:.2f}s"
    acceptance("C2", f"E vanishes on [0,2], E(2.5) = {beyond:.5f}, {elapsed:.1f}s")


def test_criterion_3_estimator_curve_range(acceptance):
    """Estimator curve at sharp risk: target range windows.

    Known red: the exact saddle minimizer at zero frequency is 0.32280
    (the stationary-point oracle and the library's cubic kernel agree),
    which sits 0.003 outside the target window [0.326, 0.336].
    The assertion is kept as stated rather than loosened; the module tests
    pin the independently verified value.
    """
    _, _, curve = bernoulli_bayes_exponent(10.0)
    lo, hi = min(curve), max(curve)
    assert 0.326 <= lo <= 0.336, f"curve minimum {lo:.5f} outside target window"
    assert 0.664 <= hi <= 0.674, f"curve maximum {hi:.5f} outside target window"
    acceptance("C3", f"estimator range [{lo:.4f}, {hi:.4f}]")


def test_criterion_3_estimator_curve_symmetry(acceptance):
    """Estimator curve symmetry on the grid at sharp risk."""
    _, _, curve = bernoulli_bayes_exponent(10.0)
    curve = np.asarray(curve)
    defect = np.max(np.abs(curve + curve[::-1] - 1.0))
    assert defect <= 1e-6
    acceptance("C3-symmetry", f"max symmetry defect {defect:.2e}")


def test_criterion_4_mc_calibration(acceptance):
    """Exactly solvable model: empirical moment covers the closed form."""
    t0 = time.perf_counter()
    target = 0.5 * LN2
    hits = 0
    for seed in range(20):
        run = MCRun("lin-gauss", "cond-mean", alpha=0.5, n_samples=10 ** 6,
                    master_seed=seed, sigma2=0.5, es=0.0, n0=1.0)
        res = mc_lambda(run)
        hits += res.covers(target, n_se=3.0)
    elapsed = time.perf_counter() - t0
    assert hits >= 19, f"only {hits}/20 runs covered the closed form"
    assert elapsed < 20.0, f"calibration took {elapsed:.2f}s"
    acceptance("C4", f"{hits}/20 covered half-ln2 within 3 SE, {elapsed:.1f}s")


def test_criterion_5_finite_sample_exponent_convergence(acceptance):
    """Exact binomial moment approaches the grid exponent as n grows."""
    exponent = bernoulli_nonbayes_exponent(1.0, 0.3)
    gaps = {}
    for n in (200, 400):
        lam = bernoulli_exact_lambda(
            BernoulliExact(n=n, a=1.0, theta=0.3, estimator=lambda q: q))
        gaps[n] = abs(lam / n - exponent)
    assert gaps[200] <= 0.05
    assert gaps[400] < gaps[200]
    acceptance("C5", f"gap {gaps[200]:.5f} at n=200, {gaps[400]:.5f} at n=400")


def test_criterion_6_small_risk_tightness(acceptance):
    """ML moment matches the unbiased bound to first order at small risk."""
    es, n0 = 1.0, 1.0
    alpha = 1e-3 * es / n0
    ratio = scalar_ml_lambda(alpha, es, n0) / scalar_linear_bound(alpha, es, n0).value
    assert 1.0 <= ratio <= 1.001
    # both families flag the same critical factor es/n0: the bound turns
    # infinite just above it and the ML moment exactly at it
    alpha_c = es / n0
    assert scalar_linear_bound(alpha_c, es, n0).argmax["alpha_c"] == alpha_c
    assert scalar_ml_lambda(alpha_c, es, n0) == math.inf
    assert scalar_linear_bound(alpha_c * (1 + 1e-9), es, n0).value == math.inf
    acceptance("C6", f"ratio {ratio:.6f}, shared critical factor {alpha_c}")


def test_criterion_7_spin_model_structure(acceptance):
    """Root counts, multicritical flag and dominant-sign phase labels."""
    assert len(magnetization_roots(CurieWeissParams(0.0, 0.4))) == 1
    assert len(magnetization_roots(CurieWeissParams(0.0, 0.6))) == 3
    assert classify_phase(0.0, 0.5).multicritical
    assert a_zero(0.5) == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
    low = classify_phase(0.5, 0.52)
    high = classify_phase(0.5, 0.6)
    assert low.phase is Phase.POSITIVE_M_LOW_A and low.dominant_m > 0
    assert high.phase is Phase.NEGATIVE_M_HIGH_A and high.dominant_m < 0
    acceptance("C7", "root counts 1/3, multicritical flag and both phase signs ok")


def test_criterion_8_reference_ode_accuracy(acceptance):
    """Numeric reference solve against the closed-form pulse family."""
    ex, t_horizon = 1.5, 1.0
    omega0 = 2.0 * math.pi
    t = np.linspace(0.0, t_horizon, 4096)
    pulse = raised_cosine_pulse(ex, t, omega0)
    worst = 0.0
    for lam in (5.0, omega0 ** 2, 200.0):
        numeric = solve_reference_ode(DelayDesignProblem(pulse, lam))
        analytic = raised_cosine_reference(ex, t, omega0, lam)
        worst = max(worst, float(np.max(np.abs(numeric.values - analytic.values))))
    assert worst <= 1e-6

    lam, n0 = 50.0, 2.0
    nu = lam / (lam + omega0 ** 2)
    tr = NuTradeoff(nu, omega0, ex)
    reference = raised_cosine_reference(ex, t, omega0, lam)
    ds = np.gradient(reference.values, t)
    deriv_energy = float(np.trapezoid(ds ** 2, t))
    dist = float(np.trapezoid((reference.values - pulse.values) ** 2, t)) / n0
    assert deriv_energy == pytest.approx(tr.derivative_energy(), rel=1e-6)
    assert dist == pytest.approx(tr.distance_term(n0), rel=1e-6)
    acceptance("C8", f"max ODE error {worst:.2e}, energy identities within 1e-6")


def test_criterion_9_delay_bound_window_constants(acceptance):
    """Applicability and nontriviality windows recover the published constants."""
    alpha, tau = 1.0, 1.0
    g_zero = brentq(lambda g: ww_rect_delay_bound(alpha, g, tau).value, 0.9, 2.0,
                    xtol=1e-12)
    assert g_zero == pytest.approx(1.2552, abs=1e-3)
    g_edge = brentq(lambda g: ww_rect_delay_bound(alpha, g, tau).argmax["tau_tilde"] - tau,
                    0.5, 1.2, xtol=1e-12)
    assert g_edge == pytest.approx(0.8654, abs=1e-3)
    # the same coefficients govern scaled parameters via (alpha tau^2)^{1/3}
    alpha2, tau2 = 2.0, 0.7
    scale = (alpha2 * tau2 ** 2) ** (1.0 / 3.0)
    g_zero2 = brentq(lambda g: ww_rect_delay_bound(alpha2, g, tau2).value,
                     0.9 * scale, 2.0 * scale, xtol=1e-12)
    assert g_zero2 / scale == pytest.approx(1.2552, abs=1e-3)
    acceptance("C9", f"window constants {g_edge:.4f} / {g_zero:.4f}")


def test_criterion_10_certification_battery(acceptance):
    """No bound ever exceeds its matching exact or Monte Carlo truth."""
    rows, violated = verify.certify(samples=200_000, seed=3)
    assert not violated, [r for r in rows if r[-1] != "ok"]
    assert len(rows) >= 15

    # explicit reference-equals-truth probe across an alpha grid
    model = LinearGaussianModel(0.5, 1.0, 1.0)
    for frac in np.linspace(0.05, 0.95, 19):
        alpha = float(frac) * model.alpha_c()
        jensen = generic_bayes_bound(alpha, model.mmse(), 0.0).value
        exact = linear_gaussian_min_lambda(model, alpha).value
        assert jensen <= exact + 1e-12
    acceptance("C10", f"{len(rows)} certification checks, zero violations")
