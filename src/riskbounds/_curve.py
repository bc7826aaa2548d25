"""Estimator-curve kernel of the Bernoulli saddle game, on numpy arrays.

The inner game's candidate maximizers (``_candidates``), its value
(``_inner_max``), the certified Newton solve of the tie that gives the
curve that(q) (``_estimator_curve``), its subgradient certificate
(``_certified``) and the golden-section fallback (``_saddle``).
``phase_transition`` imports this module on the first call that needs the
curve, so the closed-form exponent and the spin-model kernels load no
numpy.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import golden_section_max

_NEWTON_STEPS = 50      # cap on Newton steps for the tie; about 5-10 are taken
_STEP_TOL = 4.0 * sys.float_info.epsilon    # a Newton step this small ends the iteration
_CERT_EPS = 16.0 * sys.float_info.epsilon   # rounding allowance of the certificate
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _candidates(a: float, q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate maximizers over theta in [0, 1] of f = a (t - theta)^2 - D(q || theta).

    Returns (theta, f(theta), three) with four candidate rows per element.
    Interior maximizers solve the stationarity cubic
    -2a theta^3 + 2a(1+t) theta^2 - (2at+1) theta + q = 0, whose roots come
    in closed form (trigonometric with three real roots, Cardano with one).
    With three real roots (``three``) rows 0, 1, 2 hold them in decreasing
    order: the outer two are the local maxima, the middle one a minimum.
    theta = q (value a (t - q)^2) is row 3 and always a candidate: it covers
    the endpoint maximizers theta = 0 at q = 0 and theta = 1 at q = 1, and
    stands in for roots outside (0, 1).

    From a ~ 1e14 on the outer roots lie closer to 0 and 1 (about 1/(2a))
    than x - b/3 resolves.  For 0 < q < 1 a root rounded to 0 or below
    takes the small-root form q / (2at + 1) that the cubic approaches
    there, and one rounded to 1 or above takes the largest float below 1,
    as 1 - theta is not representable there.  Either stand-in errs in f
    by O(a ulp), which moves the tie in t by O(ulp).  The small-root form
    is evaluated halved, (q/2) / (at + 1/2): the same float as
    q / (2at + 1), but 2at stays finite for a up to the float maximum.
    """
    # depressed form x^3 + p x + r = 0 of the monic cubic, theta = x + (1+t)/3;
    # the branches np.where discards may divide by zero (q = 0 or 1) or overflow
    with np.errstate(all="ignore"):
        b, c, d = -(1.0 + t), t + 0.5 / a, -0.5 * q / a
        p = c - b * b / 3.0
        r = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
        three = 4.0 * p ** 3 + 27.0 * r * r < 0.0
        amp = 2.0 * np.sqrt(np.where(three, -p / 3.0, 0.0))
        phi = np.arccos(np.clip(np.where(three, 3.0 * r / (p * amp), 0.0), -1.0, 1.0)) / 3.0
        s = np.sqrt(np.where(three, 0.0, r * r / 4.0 + p ** 3 / 27.0))
        single = np.cbrt(-0.5 * r + s) + np.cbrt(-0.5 * r - s)
        x = np.where(three, amp * np.cos(phi - 2.0 * math.pi / 3.0 * np.arange(3)[:, None]),
                     single)
        theta = x - b / 3.0
        theta = np.where(theta > 0.0, theta, 0.5 * q / (a * t + 0.5))
        theta = np.where((theta < 1.0) | (q == 1.0), theta, _BELOW_ONE)
        theta = np.vstack([np.where((theta > 0.0) & (theta < 1.0), theta, q), q])
        # D(q || theta) through log1p of theta - q, so it stays accurate near
        # theta = q; once theta (or 1 - theta) is below half of q (or 1 - q)
        # the gap has rounded and the plain ratio is the accurate log
        gap = theta - q
        log_lo = np.where(theta < 0.5 * q, np.log(theta / q), np.log1p(gap / q))
        log_hi = np.where(1.0 - theta < 0.5 * (1.0 - q), np.log((1.0 - theta) / (1.0 - q)),
                          np.log1p(-gap / (1.0 - q)))
        div = -(np.where(q > 0.0, q * log_lo, 0.0) + np.where(q < 1.0, (1.0 - q) * log_hi, 0.0))
        return theta, a * (t - theta) ** 2 - div, three


def _inner_max(a: float, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g(t) = max over theta in [0, 1] of a (t - theta)^2 - D(q || theta), elementwise."""
    return _candidates(a, q, t)[1].max(axis=0)


def _saddle(a: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min over t of the inner max, minimizing t), elementwise over q, for a > 0.

    The inner max is convex in t (a max of parabolas), so one golden-section
    search over t in [0, 1], batched over q, runs on its negation until
    every bracket reaches machine precision.  It is the fallback of
    ``_estimator_curve``.
    """
    t, neg_g = golden_section_max(lambda t: -_inner_max(a, q, t), np.zeros_like(q),
                                  np.ones_like(q), tol=np.finfo(float).eps)
    return -neg_g, t


def _certified(a: float, t: np.ndarray, theta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Where t minimizes g = max over theta of f, from the candidates of ``_candidates``.

    g is convex in t and each maximizer theta_i gives it the subgradient
    2a (t - theta_i), so t is optimal iff 0 lies in their hull: iff
    maximizers lie on both sides of t, or one at t (theta = q at t = q,
    where g(q) = 0).  A candidate counts as a maximizer when it attains g
    to rounding, relative to a (theta_hi - theta_lo) + |g|: the size of the
    terms of f and of the change of f over one ulp of t.  Each term is
    scaled by the power of two ``_CERT_EPS`` before the sum, which rounds
    as the scaled sum does but stays finite for a up to the float maximum.
    """
    g = f.max(axis=0)
    with np.errstate(invalid="ignore"):   # inf - inf where f overflows certifies nothing
        tol = _CERT_EPS * (a * (theta.max(axis=0) - theta.min(axis=0))) + _CERT_EPS * np.abs(g)
        top = f >= g - tol
    return (top & (theta <= t)).any(axis=0) & (top & (theta >= t)).any(axis=0)


def _estimator_curve(a: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(that(q), where the golden fallback ran), elementwise over q in [0, 1].

    For a <= 2 the curve is exactly q: theta = q gives value 0 at t = q,
    Pinsker's D(q || theta) >= 2 (q - theta)^2 keeps every other theta at
    or below 0, and any t != q pays a (t - q)^2 at theta = q.  For a > 2,
    t = q is kept where it is certified (g(q) = 0, near q = 0 and 1 for a
    close to 2); elsewhere Newton's method runs from t = q on the tie
    h(t) = f(theta_hi) - f(theta_lo) of the outer roots, whose derivative
    2a (theta_lo - theta_hi) follows from the envelope theorem; the step
    is taken as (h / 2) / (h' / 2), equal bit for bit to h / h' but finite
    for a up to the float maximum, where h' itself overflows.  At q = 0
    (or 1) theta = 0 (or 1) is an exact root, so the endpoints need no
    special case.  Every Newton result must pass ``_certified``; the rest
    fall back to the golden-section ``_saddle``.
    """
    t = q.copy()
    if a <= 2.0:
        return t, np.zeros(q.shape, dtype=bool)
    theta, f, three = _candidates(a, q, t)
    moving = ~_certified(a, t, theta, f)
    for _ in range(_NEWTON_STEPS):
        if not moving.any():
            break
        half_slope = a * (theta[2] - theta[0])
        with np.errstate(all="ignore"):
            step = np.where(moving & three & (half_slope != 0.0),
                            0.5 * (f[0] - f[2]) / half_slope, 0.0)
        t -= step
        moving &= np.abs(step) > _STEP_TOL
        theta, f, three = _candidates(a, q, t)
    fell_back = ~_certified(a, t, theta, f)
    if fell_back.any():
        _, t[fell_back] = _saddle(a, q[fell_back])
    return t, fell_back
