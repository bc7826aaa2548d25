"""Estimator-curve kernel of the Bernoulli saddle game, one q at a time in ``math``.

The inner game's candidate maximizers (``_candidates``), its value
(``_inner_max``), the certified Newton solve of the tie that gives the
estimate that(q) (``_estimator_point``), its subgradient certificate
(``_certified``) and the golden-section fallback (``_saddle``).  Each takes
one float q and one float t; ``phase_transition`` maps them over its q
grid.  The module imports only ``math``, ``sys`` and ``closed_forms``, so
the estimator curve loads no numpy.  Each function evaluates only the
branch it takes, and the three operations that raise in Python where an
array kernel returns inf or NaN are guarded: ``x ** 3`` past the float
range, the square root of a discriminant that rounds below 0, and a
small-root denominator of 0.
"""

from __future__ import annotations

import math
import sys

from .closed_forms import golden_section_max

_NEWTON_STEPS = 50      # cap on Newton steps for the tie; about 5-10 are taken
_STEP_TOL = 4.0 * sys.float_info.epsilon    # a Newton step this small ends the iteration
_CERT_EPS = 16.0 * sys.float_info.epsilon   # rounding allowance of the certificate
_BELOW_ONE = math.nextafter(1.0, 0.0)
_THIRD_TURN = 2.0 * math.pi / 3.0


def _cube(x: float) -> float:
    """x ** 3, with an overflow giving the signed infinity instead of raising."""
    try:
        return x ** 3
    except OverflowError:
        return math.copysign(math.inf, x)


def _candidates(a: float, q: float, t: float) -> tuple[list[float], list[float], bool]:
    """Candidate maximizers over theta in [0, 1] of f = a (t - theta)^2 - D(q || theta).

    Returns (theta, f(theta), three).  Interior maximizers solve the
    stationarity cubic -2a theta^3 + 2a(1+t) theta^2 - (2at+1) theta + q = 0,
    whose roots come in closed form (trigonometric with three real roots,
    Cardano with one).  With three real roots (``three``) entries 0, 1, 2
    hold them in decreasing order: the outer two are the local maxima, the
    middle one a minimum; with one, entry 0 holds it.  theta = q (value
    a (t - q)^2) is the last entry and always a candidate: it covers the
    endpoint maximizers theta = 0 at q = 0 and theta = 1 at q = 1, and
    stands in for roots outside (0, 1).

    From a ~ 1e14 on the outer roots lie closer to 0 and 1 (about 1/(2a))
    than x - b/3 resolves.  For 0 < q < 1 a root rounded to 0 or below
    takes the small-root form q / (2at + 1) that the cubic approaches
    there, and one rounded to 1 or above takes the largest float below 1,
    as 1 - theta is not representable there.  Either stand-in errs in f
    by O(a ulp), which moves the tie in t by O(ulp).  The small-root form
    is evaluated halved, (q/2) / (at + 1/2): the same float as
    q / (2at + 1), but 2at stays finite for a up to the float maximum.
    A NaN root (a NaN t, or a discriminant that rounds below 0 in the
    one-root branch) also takes the small-root form.
    """
    # depressed form x^3 + p x + r = 0 of the monic cubic, theta = x + (1+t)/3
    b, c, d = -(1.0 + t), t + 0.5 / a, -0.5 * q / a
    p = c - b * b / 3.0
    p3 = _cube(p)
    r = 2.0 * _cube(b) / 27.0 - b * c / 3.0 + d
    three = 4.0 * p3 + 27.0 * r * r < 0.0
    if three:
        amp = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(max(3.0 * r / (p * amp), -1.0), 1.0)) / 3.0
        xs = [amp * math.cos(phi - _THIRD_TURN * k) for k in range(3)]
    else:
        disc = r * r / 4.0 + p3 / 27.0
        s = math.sqrt(disc) if disc >= 0.0 else math.nan
        xs = [math.cbrt(-0.5 * r + s) + math.cbrt(-0.5 * r - s)]
    theta = []
    for x in xs:
        th = x - b / 3.0
        if not th > 0.0:
            denom = a * t + 0.5
            th = 0.5 * q / denom if denom else math.nan
        if not (th < 1.0 or q == 1.0):
            th = _BELOW_ONE
        theta.append(th if 0.0 < th < 1.0 else q)
    theta.append(q)
    # D(q || theta) through log1p of theta - q, so it stays accurate near
    # theta = q; once theta (or 1 - theta) is below half of q (or 1 - q)
    # the gap has rounded and the plain ratio is the accurate log
    q_bar = 1.0 - q
    f = []
    for th in theta:
        gap = th - q
        minus_d = 0.0
        if q > 0.0:
            minus_d += q * (math.log(th / q) if th < 0.5 * q else math.log1p(gap / q))
        if q < 1.0:
            minus_d += q_bar * (math.log((1.0 - th) / q_bar) if 1.0 - th < 0.5 * q_bar
                                else math.log1p(-gap / q_bar))
        dt = t - th
        f.append(a * (dt * dt) + minus_d)
    return theta, f, three


def _inner_max(a: float, q: float, t: float) -> float:
    """g(t) = max over theta in [0, 1] of a (t - theta)^2 - D(q || theta)."""
    return max(_candidates(a, q, t)[1])


def _saddle(a: float, q: float) -> tuple[float, float]:
    """(min over t of the inner max, minimizing t) at one q, for a > 0.

    The inner max is convex in t (a max of parabolas), so a golden-section
    search over t in [0, 1] runs on its negation until the bracket reaches
    machine precision.  It is the fallback of ``_estimator_point``.
    """
    t, neg_g = golden_section_max(lambda t: -_inner_max(a, q, t), 0.0, 1.0,
                                  tol=sys.float_info.epsilon)
    return -neg_g, t


def _certified(a: float, t: float, theta: list[float], f: list[float]) -> bool:
    """Whether t minimizes g = max over theta of f, from the candidates of ``_candidates``.

    g is convex in t and each maximizer theta_i gives it the subgradient
    2a (t - theta_i), so t is optimal iff 0 lies in their hull: iff
    maximizers lie on both sides of t, or one at t (theta = q at t = q,
    where g(q) = 0).  A candidate counts as a maximizer when it attains g
    to rounding, relative to a (theta_hi - theta_lo) + |g|: the size of the
    terms of f and of the change of f over one ulp of t.  Each term is
    scaled by the power of two ``_CERT_EPS`` before the sum, which rounds
    as the scaled sum does but stays finite for a up to the float maximum.
    A NaN t, or inf - inf where f overflows, puts the floor at NaN, where
    no candidate reaches it, and so certifies nothing.
    """
    g = max(f)
    floor = g - (_CERT_EPS * (a * (max(theta) - min(theta))) + _CERT_EPS * abs(g))
    top = [th for th, v in zip(theta, f) if v >= floor]
    return any(th <= t for th in top) and any(th >= t for th in top)


def _estimator_point(a: float, q: float) -> tuple[float, bool]:
    """(that(q), whether the golden fallback ran), for q in [0, 1].

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
    special case.  The Newton result must pass ``_certified``; otherwise
    the golden-section ``_saddle`` gives the estimate.
    """
    t = q
    if a <= 2.0:
        return t, False
    theta, f, three = _candidates(a, q, t)
    if not _certified(a, t, theta, f):
        for _ in range(_NEWTON_STEPS):
            half_slope = a * (theta[2] - theta[0]) if three else 0.0
            if half_slope == 0.0:
                break
            step = 0.5 * (f[0] - f[2]) / half_slope
            t -= step
            theta, f, three = _candidates(a, q, t)
            if not abs(step) > _STEP_TOL:
                break
        if not _certified(a, t, theta, f):
            return _saddle(a, q)[1], True
    return t, False
