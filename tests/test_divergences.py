"""Closed-form information measures against quadrature and identity oracles."""

import functools
import io
import math
import sys
import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import (
    DomainError,
    GridDensity,
    binary_divergence,
    renyi_gaussian_linear,
    nu_bound,
    tilt_prior,
    tilted_prior_bound,
)
from riskbounds import core, divergences
from riskbounds.cli import _load_prior
from riskbounds.core import logsumexp

from oracles import binary_entropy, gaussian_kl, renyi_by_quadrature, renyi_gaussian_pair

LN2 = math.log(2.0)


class TestBinaryDivergence:
    def test_matched_is_zero(self):
        assert binary_divergence(0.5, 0.5) == 0.0

    def test_certain_miss_costs_ln2(self):
        assert binary_divergence(0.0, 0.5) == pytest.approx(LN2, abs=1e-15)

    def test_known_value_and_quadratic_floor(self):
        # 0.4 * ln(7/3), frozen from the closed form
        val = binary_divergence(0.3, 0.7)
        assert val == pytest.approx(0.3389191441548813, abs=1e-14)
        assert val >= 2 * 0.4 ** 2

    def test_endpoint_theta_mismatch_is_infinite(self):
        assert binary_divergence(0.2, 0.0) == math.inf
        assert binary_divergence(0.2, 1.0) == math.inf

    def test_endpoint_theta_matched_is_zero(self):
        assert binary_divergence(0.0, 0.0) == 0.0
        assert binary_divergence(1.0, 1.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            binary_divergence(1.2, 0.5)
        with pytest.raises(DomainError):
            binary_divergence(0.5, -0.1)

    @given(st.floats(0.0, 1.0), st.floats(1e-9, 1.0 - 1e-9))
    @settings(max_examples=200)
    def test_nonnegative_and_quadratic_floor(self, q, th):
        val = binary_divergence(q, th)
        assert val >= 0.0
        assert val >= 2.0 * (q - th) ** 2 - 1e-12

    def test_zero_iff_equal(self):
        for q in np.linspace(0.05, 0.95, 10):
            assert binary_divergence(float(q), float(q)) == pytest.approx(0.0, abs=1e-15)
            assert binary_divergence(float(q), float(q) + 0.02) > 0.0


class TestBinaryEntropy:
    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_complement_identity_with_divergence(self, u):
        # h(u) = ln 2 - D(u || 1/2)
        assert binary_entropy(u) == pytest.approx(
            LN2 - binary_divergence(u, 0.5), abs=1e-12)


class TestRenyiGaussianLinear:
    def test_trivial_matched_prior_no_reference(self):
        # matched priors and no reference signal leave only the signal-energy term
        val = renyi_gaussian_linear(2.5, sigma2=0.5, sigma2_q=0.5, es=0.0, ex=0.3, n0=1.0)
        assert val == pytest.approx(2.5 * 0.3, rel=1e-14, abs=0.0)

    def test_against_theta_quadrature(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            a = rng.uniform(1.2, 4.0)
            sigma2 = rng.uniform(0.3, 1.5)
            sigma2_q = rng.uniform(0.3, 1.5)
            es = rng.uniform(0.0, 0.3)
            ex = rng.uniform(0.0, 1.0)
            q_const = rng.uniform(-0.5, 0.5)
            val = renyi_gaussian_linear(a, sigma2=sigma2, sigma2_q=sigma2_q, es=es,
                                        ex=ex, n0=1.0, q_const=q_const, t_horizon=1.0)
            if math.isinf(val):
                continue
            ref = renyi_by_quadrature(a, sigma2, sigma2_q, es, ex, 1.0, q_const, 1.0)
            assert val == pytest.approx(ref, rel=1e-8, abs=0.0)
            checked += 1

    def test_small_order_limit_matches_kl_plus_path(self):
        # Richardson extrapolation in the order toward 1 recovers the KL of
        # the joint laws: prior KL plus the reference-prior-averaged path term
        sigma2, sigma2_q, ex, es = 0.8, 1.1, 0.4, 0.2
        kl = gaussian_kl(sigma2, sigma2_q) + (ex + sigma2_q * es) / 1.0
        h = 1e-4
        f1 = renyi_gaussian_linear(1 + h, sigma2=sigma2, sigma2_q=sigma2_q, es=es, ex=ex, n0=1.0)
        f2 = renyi_gaussian_linear(1 + 2 * h, sigma2=sigma2, sigma2_q=sigma2_q, es=es, ex=ex, n0=1.0)
        assert 2 * f1 - f2 == pytest.approx(kl, abs=1e-6)

    def test_divergence_when_reference_prior_too_wide(self):
        val = renyi_gaussian_linear(4.0, sigma2=1.0, sigma2_q=10.0, es=0.0, ex=0.1, n0=1.0)
        assert val == math.inf

    def test_nondecreasing_in_order(self):
        orders = np.linspace(1.05, 3.0, 40)
        vals = [renyi_gaussian_linear(float(a), sigma2=1.0, sigma2_q=0.8, es=0.1,
                                      ex=0.3, n0=1.0, q_const=0.2)
                for a in orders]
        finite = [v for v in vals if math.isfinite(v)]
        assert all(b >= a - 1e-10 for a, b in zip(finite, finite[1:]))

    def test_array_orders_match_float_orders(self):
        kw = dict(sigma2=1.0, sigma2_q=0.8, es=0.1, ex=0.3, n0=1.0, q_const=0.2, t_horizon=2.0)
        orders = np.array([1.01, 1.5, 2.0, 3.0, 6.0])
        floats = [renyi_gaussian_linear(float(a), **kw) for a in orders]
        assert all(type(v) is float for v in floats)
        assert renyi_gaussian_linear(orders, **kw).tolist() == floats
        assert math.isfinite(floats[3]) and floats[4] == math.inf
        with pytest.raises(DomainError):
            renyi_gaussian_linear(np.array([2.0, 1.0]), **kw)

    @pytest.mark.filterwarnings("error")
    def test_variance_ratio_beyond_float_range_stays_finite(self):
        # 2 A sigma2 = a (1 - R) overflows once R passes 1e308: the term is
        # 0.5 a ln R - 0.5 ln(1 + a (R - 1)), formed in logs for the oracle
        assert renyi_gaussian_linear(2.0, sigma2=1e200, sigma2_q=1e-200, es=0.0, ex=0.0,
                                     n0=1.0) == pytest.approx(460.1704450085292, rel=1e-15,
                                                              abs=0.0)
        for a in (1.5, 2.0, 7.0):
            # past e = 615, 2 sigma2 itself overflows; at a = 7, a / (2 sigma2_q) does too
            for e in [*range(300, 601, 20), *((612, 616) if a < 7.0 else ())]:
                ln_r = e * math.log(10.0)
                want = (0.5 * a * ln_r - 0.5 * (math.log(a) + ln_r)) / (a - 1.0)
                got = renyi_gaussian_linear(a, sigma2=10.0 ** (e / 2), sigma2_q=10.0 ** (-e / 2),
                                            es=0.0, ex=0.0, n0=1.0)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (a, e)
        # A = 0: equal variances and no reference energy
        assert renyi_gaussian_linear(2.0, sigma2=1.0, sigma2_q=1.0, es=0.0, ex=0.0, n0=1.0) == 0.0

    def test_invalid_order_rejected(self):
        with pytest.raises(DomainError):
            renyi_gaussian_linear(1.0, sigma2=1.0, sigma2_q=1.0, es=0.0, ex=0.0, n0=1.0)

    def test_linear_pair_form_agrees_with_general_form(self):
        # two linear models differ by a signal of energy delta_es and have
        # no common component, which is the general form at ex = 0, q = 0
        rng = np.random.default_rng(8)
        for _ in range(40):
            a = rng.uniform(1.1, 3.5)
            v_from = rng.uniform(0.3, 2.0)
            v_to = rng.uniform(0.3, 2.0)
            delta = rng.uniform(0.0, 0.4)
            pair = renyi_gaussian_pair(a, sigma2_from=v_from, sigma2_to=v_to,
                                       delta_es=delta, n0=1.0)
            general = renyi_gaussian_linear(a, sigma2=v_from, sigma2_q=v_to,
                                            es=delta, ex=0.0, n0=1.0)
            if math.isinf(pair) or math.isinf(general):
                assert pair == general
            else:
                assert pair == pytest.approx(general, rel=1e-12, abs=0.0)


class TestTiltPrior:
    def test_identity_tilt(self, gaussian_prior_grid):
        fisher_info, kl = tilt_prior(gaussian_prior_grid(1.0), 1.0)
        assert kl == pytest.approx(0.0, abs=1e-9)
        assert fisher_info > 0.0

    @pytest.mark.parametrize("beta", [0.4, 1.0, 2.0, 3.5])
    def test_gaussian_family_closed_forms(self, gaussian_prior_grid, beta):
        # tilting a Gaussian rescales the variance by 1/beta, so the
        # information is beta/sigma2 and the divergence has a closed form
        sigma2 = 1.3
        prior = gaussian_prior_grid(sigma2)
        fisher_info, kl = tilt_prior(prior, beta)
        assert fisher_info == pytest.approx(beta / sigma2, rel=1e-4, abs=0.0)
        d_closed = 0.5 * math.log(beta) - (beta - 1.0) / (2.0 * beta)
        if beta < 1.0:
            # the 8-sigma window truncates the wider tilted tails
            assert kl == pytest.approx(d_closed, rel=1e-4, abs=1e-7)
        else:
            assert kl == pytest.approx(d_closed, abs=1e-13)

    def test_flat_base_is_rejected_for_every_beta(self):
        # a flat density never vanishes at the ends of its support, however it is tilted
        theta = np.linspace(0.0, 1.0, 4097)
        base = GridDensity(theta, np.ones_like(theta))
        message = r"does not vanish at the ends of its support \(edge ratio 1\)"
        for beta in (1e-3, 0.5, 1.0, 3.0, 60.0):
            with pytest.raises(DomainError, match=message):
                tilt_prior(base, beta)

    def test_zero_padded_flat_base_is_rejected(self):
        # zeros at both grid ends move the ends of the support inside the
        # grid, and every tilt of the flat part is flat up to those ends
        theta = np.linspace(-2.0, 2.0, 801)
        base = GridDensity(theta, np.where(np.abs(theta) <= 1.0, 1.0, 0.0))
        assert base.support_ends == (200, 600)
        message = r"does not vanish at the ends of its support \(edge ratio 1\)"
        for beta in (0.5, 1.0, 3.0):
            with pytest.raises(DomainError, match=message):
                tilt_prior(base, beta)

    def test_divergence_matches_analytic(self, gaussian_prior_grid):
        # D(Q_beta || P) = ln(beta) / 2 - (beta - 1) / (2 beta) for a Gaussian of
        # any variance; for beta >= 1 the window does not truncate Q_beta
        for sigma2 in (0.5, 1.0, 2.0):
            prior = gaussian_prior_grid(sigma2)
            for beta in (1.0, 2.0, 3.5):
                analytic = 0.5 * math.log(beta) - (beta - 1.0) / (2.0 * beta)
                assert tilt_prior(prior, beta)[1] == pytest.approx(analytic, abs=1e-13)

    @given(log_beta=st.floats(0.0, math.log(1e4)))
    @settings(max_examples=60, deadline=None)
    def test_divergence_meets_the_gaussian_kl_at_large_beta(self, log_beta):
        # Q_beta of N(0, 1) is N(0, 1/beta), and the CLI's +-10 sigma grid
        # resolves it up to beta = 1e4; D's two terms each grow like
        # beta |ln p|, so their difference must not carry their rounding
        beta = math.exp(log_beta)
        _, kl = _battery_priors()["gaussian:1.0"].tilt_terms(beta)
        exact = gaussian_kl(1.0, 1.0 / beta)
        assert abs(kl - exact) <= 1e-13 * max(1.0, exact)

    @given(log_sigma2=st.floats(-300.0, 300.0), log_beta=st.floats(0.0, 12.0))
    # I overflows here: beta / sigma2 is about 1.8e308
    @example(log_sigma2=-300.0, log_beta=math.log10(1.8e8))
    # tilts far narrower than the grid step: there the score form
    # beta^2 E_Q[(ln p)'^2] reads I near 0, and np.gradient of q read 6.5e23 beta
    @example(log_sigma2=0.0, log_beta=7.0)
    @example(log_sigma2=0.0, log_beta=12.0)
    # ln p is near 195 here, where ln p - ln peak rounded the step of ln p
    # next to the peak to 1e-8 of itself
    @example(log_sigma2=-170.49647631030584, log_beta=math.log10(42851706.80921782))
    @settings(max_examples=40, deadline=None)
    def test_information_is_beta_over_sigma2_on_every_gaussian_grid(self, log_sigma2, log_beta):
        # Q_beta of N(0, sigma2) is N(0, sigma2 / beta) however narrow it is
        # against the `gaussian:sigma2` grid: the interpolant's information
        # reads beta / sigma2, and +inf once that passes the float maximum
        sigma2, beta = 10.0 ** log_sigma2, 10.0 ** log_beta
        info, _ = _load_prior(SimpleNamespace(prior=f"gaussian:{sigma2!r}")).tilt_terms(beta)
        exact = beta / sigma2   # +inf past the float maximum
        if exact == math.inf:
            assert info == math.inf
        elif exact < sys.float_info.max * (1.0 - 1e-10):
            assert abs(info * sigma2 / beta - 1.0) <= 1e-10

    def test_information_on_the_unit_gaussian_is_beta_to_1e_11(self):
        prior = _battery_priors()["gaussian:1.0"]
        for beta in np.logspace(0.0, 8.0, 161).tolist():
            assert abs(prior.tilt_terms(beta)[0] / beta - 1.0) <= 1e-11, beta

    @pytest.mark.parametrize("variance", ["1e-309", "1e-310"])
    def test_information_past_the_float_maximum_reads_inf_without_a_warning(self, variance):
        # 1 / sigma2 overflows, and so does the sum behind I at beta = 1
        prior = _load_prior(SimpleNamespace(prior=f"gaussian:{variance}"))
        info, kl = prior.tilt_terms(1.0)
        assert info == math.inf and abs(kl) < 1e-12

    def test_returns_two_floats(self, gaussian_prior_grid):
        terms = tilt_prior(gaussian_prior_grid(1.0), np.float64(2.0))
        assert type(terms) is tuple and [type(x) for x in terms] == [float, float]

    def test_interior_zero_rejected(self):
        theta = np.linspace(-1, 1, 513)
        dens = np.abs(theta)  # vanishes mid-support
        dens /= np.trapezoid(dens, theta)
        with pytest.raises(DomainError):
            tilt_prior(GridDensity(theta, dens), 1.5)

    def test_escaping_tilt_rejected(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0, span=8.0)
        with pytest.raises(DomainError):
            tilt_prior(prior, 0.01)

    def test_nonpositive_beta_rejected(self, gaussian_prior_grid):
        with pytest.raises(DomainError):
            tilt_prior(gaussian_prior_grid(1.0), 0.0)

    def test_every_rejection_precedes_any_array_work(self, monkeypatch):
        # beta <= 0, a hole and the edge rule read only scalars the base stored
        # when it was built: with the tilt's exponential and log-sum-exp made
        # to fail, each rejection still raises its own DomainError
        theta = np.linspace(-3.0, 3.0, 4097)
        window = GridDensity(theta, np.exp(-theta ** 2 / 2.0))   # log_edge = -4.5
        left_pad = np.exp(-theta ** 2 / 8.0)
        left_pad[:2048] = 0.0   # the support starts at the peak
        cases = [(window, 0.0, "must be positive"), (window, -1.0, "must be positive"),
                 (GridDensity(theta, np.abs(theta)), 1.0, "vanishes at an interior grid point"),
                 (GridDensity(theta, np.abs(theta)), math.nan, "interior grid point"),
                 (GridDensity(theta, np.ones_like(theta)), 1.0, r"\(edge ratio 1\)"),
                 (window, 1.0, r"\(edge ratio 0\.0111\)"),
                 (GridDensity(theta, left_pad), 60.0, r"\(edge ratio 1\)")]

        def fail(*args, **kwargs):
            raise AssertionError("array work before a rejection")

        monkeypatch.setattr(np, "exp", fail)
        monkeypatch.setattr(core, "logsumexp", fail)
        monkeypatch.setattr(divergences, "logsumexp", fail)   # the name tilt_prior reads
        for base, beta, message in cases:
            with pytest.raises(DomainError, match=message):
                tilt_prior(base, beta)
        with pytest.raises(AssertionError, match="array work"):
            tilt_prior(window, 2.0)   # an accepted tilt reaches the patched functions

    def test_tilt_with_a_normalizer_near_the_float_maximum(self):
        # sum w exp(beta s) is about 1.4e308 here, near the float maximum: q is
        # near 1e-308 and so are the log slopes, and an information of order
        # 1e-616 reads 0, each term of its sum underflowing
        t = np.linspace(-1.0, 1.0, 4097)
        base = GridDensity(0.8e308 * t, np.exp(-(t / 0.9) ** 40))
        info, kl = tilt_prior(base, np.float64(1.0))
        assert info == 0.0 and abs(kl) < 1e-12
        # beta log_edge overflows to -inf, warning-free for a numpy beta too
        assert [type(x) for x in tilt_prior(base, np.float64(1e307))] == [float, float]

    def test_unnormalized_base_tilts_as_the_cli_prior(self):
        # the constructor normalizes: a base scaled by a power of two, which
        # scales its integral exactly, tilts to the bits of `--prior gaussian:1.0,8,4097`
        cli_prior = _load_prior(SimpleNamespace(prior="gaussian:1.0,8,4097"))
        theta = cli_prior.theta
        base = GridDensity(theta, 2.0 ** -20 * np.exp(-(theta ** 2) / 2.0))
        assert base.density.tobytes() == cli_prior.density.tobytes()
        for beta in (0.5, 1.0, 1.5):
            assert tilt_prior(base, beta) == tilt_prior(cli_prior, beta)


class TestTiltTerms:
    def test_hit_returns_the_fresh_bound(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0)
        first = tilted_prior_bound(prior, 0.3, 1.7, 0.5, 0.1)
        hit = tilted_prior_bound(prior, 0.3, 1.7, 0.5, 0.1)
        fresh = tilted_prior_bound(gaussian_prior_grid(1.0), 0.3, 1.7, 0.5, 0.1)
        assert hit == first == fresh
        assert prior.tilt_terms(1.7) == tilt_prior(prior, 1.7)

    def test_rejected_tilt_raises_the_same_message_on_every_call(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0)
        messages = []
        for _ in range(2):
            with pytest.raises(DomainError,
                               match="does not vanish at the ends of its support") as info:
                prior.tilt_terms(0.01)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        with pytest.raises(DomainError, match="does not vanish at the ends of its support"):
            tilted_prior_bound(prior, 0.3, 0.01, 0.5)

    def test_joint_delay_search_tilts_each_beta_once(self, gaussian_prior_grid, monkeypatch):
        import riskbounds.divergences as divergences

        tilted = Counter()
        original = divergences.tilt_prior

        def counting(base, beta):
            tilted[beta] += 1
            return original(base, beta)

        monkeypatch.setattr(divergences, "tilt_prior", counting)
        prior = gaussian_prior_grid(1.0)
        bv = nu_bound(prior, 0.6, omega0=2.0 * math.pi, ex=1.5, n0=20.0)
        assert math.isfinite(bv.value)
        assert tilted and max(tilted.values()) == 1
        assert set(tilted) == set(prior._tilts)

    def test_memo_holds_no_arrays(self, gaussian_prior_grid):
        prior = gaussian_prior_grid(1.0)
        for beta in (0.01, 0.5, 1.0, 2.0):
            try:
                prior.tilt_terms(beta)
            except DomainError:
                pass
        memo = prior._tilts
        assert len(memo) == 4
        for entry in memo.values():
            assert not isinstance(entry, np.ndarray)
            assert isinstance(entry, str) or all(type(x) is float for x in entry)

    def test_threads_sharing_a_prior_get_the_serial_floats(self, gaussian_prior_grid):
        betas = [0.5, 0.8, 1.0, 1.7, 2.5, 0.01]
        serial = {}
        for b in betas:
            try:
                serial[b] = gaussian_prior_grid(1.0, n=513).tilt_terms(b)
            except DomainError as exc:
                serial[b] = str(exc)
        prior = gaussian_prior_grid(1.0, n=513)
        results = []

        def work(offset):
            for i in range(60):
                b = betas[(i + offset) % len(betas)]
                try:
                    results.append((b, prior.tilt_terms(b)))
                except DomainError as exc:
                    results.append((b, str(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8 * 60
        assert all(serial[b] == got for b, got in results)
        assert set(prior._tilts) == set(betas)


# The tilt kernel written out from its formulas, with nothing cached on the
# grid: np.trapezoid for both normalizations, plain np.diff on the masked
# support for the interpolant's information beta sum dq d(ln p) / dtheta, a
# masked dot for phi' and a tilted density re-validated through GridDensity
# and checked to integrate to 1, with the divergence formed from the log of
# the density over its peak.  tilt_prior's I and D must match it bit for bit.
def _reference_tilt(base: GridDensity, beta: float) -> tuple[float, float]:
    """(I, D) of the tilt, or the DomainError it raises."""
    tol = 1e-6
    if beta <= 0:
        raise DomainError("tilt exponent beta must be positive")
    theta, p = base.theta, base.density
    z = float(np.trapezoid(p, theta))
    if abs(z - 1.0) > tol:
        raise DomainError(f"density integrates to {z:.6g}, not 1 within {tol:g}")
    w = np.empty_like(theta)
    w[1:-1] = 0.5 * (theta[2:] - theta[:-2])
    w[0] = 0.5 * (theta[1] - theta[0])
    w[-1] = 0.5 * (theta[-1] - theta[-2])
    with np.errstate(divide="ignore"):
        s = np.log(p / np.max(p))
    peak = math.log(np.max(p))
    positive = p > 0.0
    nz = np.nonzero(positive)[0]
    # zeros outside the support, at one grid end or both, are padding, not a hole
    if np.any(p[nz[0]: nz[-1] + 1] <= 0.0):
        raise DomainError("density vanishes at an interior grid point")
    with np.errstate(over="ignore"):
        log_z = logsumexp(beta * s, w)
        q = np.exp(beta * s - log_z)
    # the ends of the support: the first and last grid points of positive density
    tilt_edge = max(q[nz[0]], q[nz[-1]]) / np.max(q)
    if tilt_edge > 1e-3:
        raise DomainError(
            "tilted density does not vanish at the ends of its support "
            f"(edge ratio {tilt_edge:.3g}); supply a wider grid for this beta or a prior "
            "that decays there"
        )
    if not math.isfinite(log_z):
        raise DomainError("tilted density is not integrable on this grid")
    dphi = float(np.dot((w * q)[positive], s[positive]))
    q_density = GridDensity(theta, q)
    slope = np.diff(s[positive]) / np.diff(theta[positive])
    fisher = beta * float(np.dot(np.diff(q[positive]), slope))
    q_integral = float(np.trapezoid(q_density.density, theta))
    if abs(q_integral - 1.0) > 10.0 * tol:
        raise DomainError(f"density integrates to {q_integral:.6g}, not 1 within {10.0 * tol:g}")
    return fisher, (beta - 1.0) * dphi - peak - log_z


@functools.cache
def _battery_priors() -> dict[str, GridDensity]:
    """The CLI's Gaussian grids, non-uniform grids, zero padding and a hole."""
    def cli_gaussian(sigma2, span, n):
        theta = np.linspace(-span * math.sqrt(sigma2), span * math.sqrt(sigma2), n)
        return GridDensity(theta, np.exp(-theta ** 2 / (2.0 * sigma2)))

    sinh = 8.0 * np.sinh(np.linspace(-2.5, 2.5, 4097)) / math.sinh(2.5)
    padded = np.linspace(-2.0, 2.0, 801)
    holed = np.linspace(-1.0, 1.0, 513)
    # a prior file as `--prior PATH` reads it: a text round trip
    laplace = np.linspace(-12.0, 12.0, 2001)
    text = io.StringIO()
    np.savetxt(text, np.column_stack([laplace, 0.5 * np.exp(-np.abs(laplace))]), delimiter=",")
    data = np.loadtxt(io.StringIO(text.getvalue()), delimiter=",")
    return {
        "gaussian:1.0": cli_gaussian(1.0, 10.0, 8193),
        "gaussian:0.5,30,8193": cli_gaussian(0.5, 30.0, 8193),
        "gaussian:1.0,3,4097": cli_gaussian(1.0, 3.0, 4097),
        "sinh-spaced": GridDensity(sinh, np.exp(-sinh ** 2 / 2.0)),
        "zero-padded uniform": GridDensity(padded, np.where(np.abs(padded) <= 1.0, 1.0, 0.0)),
        "zero-padded window": GridDensity(padded, np.where(np.abs(padded) <= 1.0,
                                                           np.exp(-8.0 * padded ** 2), 0.0)),
        "holed": GridDensity(holed, np.abs(holed)),
        "laplace file": GridDensity(data[:, 0], data[:, 1]),
    }


def _assert_same_tilt(beta: float) -> None:
    for name, prior in _battery_priors().items():
        try:
            want = _reference_tilt(prior, beta)
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                tilt_prior(prior, beta)
            assert str(info.value) == str(exc), name
            continue
        assert tilt_prior(prior, beta) == want, name


class TestTiltBits:
    @given(beta=st.floats(1e-3, 60.0))
    @settings(max_examples=60, deadline=None)
    def test_every_field_matches_the_uncached_formula(self, beta):
        _assert_same_tilt(beta)

    # window escapes: gaussian:1.0 below beta ~0.138, gaussian:0.5,30 below
    # ~0.0154, the sinh grid below ~0.216, the Laplace file below ~0.576,
    # gaussian:1.0,3,4097 below ln(1000) / 4.5 ~ 1.53506 and the zero-padded
    # window, at the ends of its support, below ln(1000) / 8 ~ 0.86347
    @pytest.mark.parametrize("beta", [1e-3, 0.01, 0.0153, 0.0154, 0.1, 0.138, 0.139, 0.2,
                                      0.215, 0.217, 0.5, 0.575, 0.577, 1.0, 60.0,
                                      0.0, -1.0, math.nan, 1.535, 1.5351, 0.8634, 0.8635])
    def test_window_escapes_and_rejections(self, beta):
        _assert_same_tilt(beta)

    def test_battery_covers_even_and_uneven_spacings_and_every_rejection(self):
        priors = _battery_priors()
        for name, uniform in (("gaussian:1.0", True), ("gaussian:0.5,30,8193", False),
                              ("sinh-spaced", False), ("laplace file", False)):
            dx = np.diff(priors[name].theta)
            assert (dx == dx[0]).all() == uniform, name
        assert priors["zero-padded uniform"].support_ends == (200, 600)
        assert priors["zero-padded window"].support_ends == (200, 600)
        messages = []
        for beta in (0.01, 1.0, 0.0, math.nan):
            for prior in priors.values():
                try:
                    tilt_prior(prior, beta)
                except DomainError as exc:
                    messages.append(str(exc))
        # the truncated window is rejected at beta = 1, where the bare window is not
        with pytest.raises(DomainError, match="does not vanish at the ends of its support"):
            tilt_prior(priors["gaussian:1.0,3,4097"], 1.0)
        for reason in ("does not vanish at the ends of its support",
                       "vanishes at an interior grid point", "must be positive", "not integrable"):
            assert any(reason in m for m in messages), reason

    def test_cached_grid_pieces_are_never_aliased(self):
        for name, prior in _battery_priors().items():
            if prior.has_hole or name == "zero-padded uniform":   # every tilt is rejected
                continue
            cached = [prior.theta, prior.density, prior.weights, prior.log_shift,
                      prior.log_slope]
            assert not any(a.flags.writeable for a in cached)
            before = [a.tobytes() for a in cached]
            tilt_prior(prior, 1.7)
            assert [a.tobytes() for a in cached] == before
