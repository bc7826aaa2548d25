"""Asymptotic analysis of the Bernoulli estimation problem at scaled risk.

With the risk factor growing linearly in the sample size, the optimal
exponential moment is governed by the saddle value

    E(a) = max_q min_t max_theta [ a (t - theta)^2 - D(q || theta) ],

whose inner minimizer t = that(q) is the asymptotically optimal estimator.
E vanishes on a <= 2 (the quadratic gain cannot beat the quadratic floor
of the binary divergence) and turns positive beyond, a first phase
transition.  Both are solved without a search over q or t: E(a) has the
closed form (u - ln(1 + u)) / 2 with u = a/2 - 1, and that(q) is where the
two outer roots of the stationarity cubic in theta tie, found by Newton's
method and accepted only under a subgradient certificate of optimality
(a golden-section search over t is the fallback).  The moment of the
plug-in estimator maps onto a fully
connected spin model: the empirical mean plays the magnetization, solving
m = tanh(J m + B) with coupling J = 2a and a field B set by the source
bias, which yields a five-phase diagram with a multicritical point at
(mu, a) = (0, 1/2).

Every kernel here is scalar and imports no numpy, and the module defines
no dataclass (the two records are ``NamedTuple``s, the spin-model
parameters a ``__slots__`` class), so it loads no ``dataclasses`` or
``inspect`` either.  The estimator curve is solved one q at a time in
``math`` (``_candidates``, ``_inner_max``, ``_certified``,
``_estimator_point`` and the golden-section fallback ``_saddle``), and
``bernoulli_bayes_exponent`` returns its q grid and curve as tuples of
floats.  ``closed_forms`` is imported at call time, by ``_saddle`` and
``bernoulli_bayes_exponent``, so ``error_exponent`` and the spin-model
functions do not load it.  The three operations of the curve kernel that
raise in Python where an array kernel returns inf or NaN are guarded:
``x ** 3`` past the float range, the square root of a discriminant that
rounds below 0, and a small-root denominator of 0.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import DomainError

__all__ = [
    "CurieWeissParams",
    "Phase",
    "PhaseLabel",
    "MagnetizationRoot",
    "error_exponent",
    "asymptotic_estimator",
    "bernoulli_bayes_exponent",
    "magnetization_roots",
    "classify_phase",
    "a_zero",
]

_BOUNDARY_BAND = 1e-9
_SERIES_CUTOFF = 0.1    # below it, u - ln(1 + u) is summed as its Taylor series
_SERIES_TERMS = 16      # u^2/2 ... u^17/17: the first omitted term is < 2e-17 relative
_NEWTON_STEPS = 50      # cap on Newton steps for the tie; about 5-10 are taken
_STEP_TOL = 4.0 * sys.float_info.epsilon    # a Newton step this small ends the iteration
_CERT_EPS = 16.0 * sys.float_info.epsilon   # rounding allowance of the certificate
_BELOW_ONE = math.nextafter(1.0, 0.0)
_THIRD_TURN = 2.0 * math.pi / 3.0


class CurieWeissParams:
    """Spin-model parameters induced by source bias mu and risk scale a.

    field B = atanh(mu) - 2 a mu = 0.5 ln((1+mu)/(1-mu)) - 2 a mu, coupling
    J = 2 a.  atanh keeps B's sign right for tiny mu, where the logarithm
    of the rounded ratio loses every digit of mu.  a must keep J finite.
    """

    __slots__ = ("mu", "a")

    def __init__(self, mu: float, a: float):
        if not (-1.0 < mu < 1.0):
            raise DomainError("mu must lie strictly inside (-1, 1)")
        if a < 0:
            raise DomainError("a must be nonnegative")
        if not math.isfinite(2.0 * a):   # past a = 8.99e307
            raise DomainError(f"a = {a!r} is beyond the float range: the coupling 2a overflows")
        self.mu, self.a = mu, a

    @property
    def field(self) -> float:
        return math.atanh(self.mu) - 2.0 * self.a * self.mu

    @property
    def coupling(self) -> float:
        return 2.0 * self.a


class Phase(str, Enum):
    PARAMAGNETIC = "paramagnetic"
    POSITIVE_M_LOW_A = "positive_m_low_a"
    POSITIVE_M_HIGH_A = "positive_m_high_a"
    NEGATIVE_M_LOW_A = "negative_m_low_a"
    NEGATIVE_M_HIGH_A = "negative_m_high_a"


class PhaseLabel(NamedTuple):
    phase: Phase
    boundary: bool
    multicritical: bool
    dominant_m: float


class MagnetizationRoot(NamedTuple):
    m: float
    stable: bool
    dominant: bool


def _u_minus_log1p(u: float) -> float:
    """u - ln(1 + u) for u >= 0, without the cancellation of the direct form near 0.

    Below ``_SERIES_CUTOFF`` the alternating Taylor series
    u^2/2 - u^3/3 + ... is summed by Horner's rule.
    """
    if u < _SERIES_CUTOFF:
        acc = 0.0
        for k in range(_SERIES_TERMS + 1, 1, -1):
            acc = 1.0 / k - u * acc
        return u * u * acc
    return u - math.log1p(u) if u < math.inf else math.inf


def _exponent(a: float) -> float:
    """E(a) = (u - ln(1 + u)) / 2 with u = a/2 - 1 for a > 2, and 0 otherwise."""
    return 0.5 * _u_minus_log1p(0.5 * a - 1.0) if a > 2.0 else 0.0


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
    from .closed_forms import golden_section_max

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


def error_exponent(a: float) -> float:
    """Saddle value E(a) at risk scale a >= 0 (alpha = a n), in closed form: 0 on a <= 2.

    At q = 1/2 the game is symmetric about 1/2, so its minimizing t is 1/2,
    and at t = 1/2 the stationarity cubic factors as
    (theta - 1/2)(-2a theta^2 + 2a theta - 1).  For a > 2 its outer roots
    theta = 1/2 +- sqrt(1/4 - 1/(2a)) tie, with theta (1 - theta) = 1/(2a)
    and (theta - 1/2)^2 = 1/4 - 1/(2a); since D(1/2 || theta) =
    -ln(4 theta (1 - theta)) / 2, the value there is
    a/4 - 1/2 - ln(a/2) / 2 = (u - ln(1 + u)) / 2 with u = a/2 - 1.  For
    a <= 2 the value is 0 at every q (Pinsker's inequality, see
    ``_estimator_point``).  That q = 1/2 maximizes the per-q value,
    so that this is E(a) and not only a lower bound on it, is not proved
    here; it is checked numerically: in a property test over a in (2, 1e4] no
    golden-section per-q value on a 201-point q grid exceeds it and the
    one at q = 1/2 equals it, and it equals the q scan of
    ``tests/oracles.exponent_oracle`` at a = 2.5, 3, 4.5, 6 and 10.
    Near a = 2 the value is about (a - 2)^2 / 16 and is computed without
    cancellation (``_u_minus_log1p``).
    """
    if not a >= 0:
        raise DomainError("a must be nonnegative")
    return _exponent(a)


def asymptotic_estimator(q: float, a: float) -> float:
    """Minimizing t of the inner game at empirical frequency q.

    The curve is symmetric, that(q) + that(1 - q) = 1 to rounding, and
    nondecreasing in q.
    """
    if not (0.0 <= q <= 1.0):
        raise DomainError("q must lie in [0, 1]")
    if not a >= 0:
        raise DomainError("a must be nonnegative")
    return _estimator_point(a, float(q))[0]


def bernoulli_bayes_exponent(
    a: float, *, n_q: int = 201
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """E(a) (as ``error_exponent``) and the estimator curve on an n_q-point q grid.

    The grid is ``np.linspace(0, 1, n_q)`` bit for bit, so n_q >= 2 (its
    two ends); grid and curve come as tuples of floats.
    """
    if not a >= 0:
        raise DomainError("a must be nonnegative")
    if n_q < 2:
        raise DomainError("the q grid must have at least 2 points")
    from .closed_forms import _linspace

    q_grid = tuple(_linspace(0.0, 1.0, n_q))
    return _exponent(a), q_grid, tuple(_estimator_point(a, q)[0] for q in q_grid)


def magnetization_roots(params: CurieWeissParams) -> list[MagnetizationRoot]:
    """All fixed points of m = tanh(J m + B) on [-1, 1], in increasing order.

    f(m) = m - tanh(J m + B) has f' = 0 only at m = (+-arccosh(sqrt J) - B) / J,
    which exist when J > 1, so those points cut [-1, 1] into at most three
    pieces on which f is monotone; each piece holds at most one root, found
    by bisection to machine precision (signs are compared, not multiplied,
    so a tiny f cannot underflow the test).  Fixed-point iteration would
    skip the unstable middle root.  m = mu is always a root, since
    J mu + B = atanh(mu).  Beyond J of about 1e17 (more for a small |mu|)
    the two critical points round to one float and B has lost atanh(mu)
    to rounding, so the middle piece has no width and no sign change to
    bisect, and its root is mu itself.  Stability is judged by the slope
    of the tanh map at the root, J (1 - m^2).  The dominant root maximizes phi(m) = h((1+m)/2) + B m +
    (J/2) m^2, whose stationary points are the roots.  phi(m) - phi(-m) =
    2 B m, so the maximizer has the sign of B, and for B > 0 f is convex
    on m > 0 with f(0) < 0, so just one root is positive: the dominant root
    is the largest for B > 0 and, by symmetry, the smallest for B < 0.  At
    B = 0 (the zero-field coexistence line) the positive root wins by
    convention.
    """
    b, j = params.field, params.coupling

    def f(m: float) -> float:
        return m - math.tanh(j * m + b)

    nodes = [-1.0, 1.0]
    if j > 1.0:
        w = math.acosh(math.sqrt(j))
        nodes[1:1] = [m for m in ((-w - b) / j, (w - b) / j) if -1.0 < m < 1.0]
    roots: list[float] = []
    for lo, hi in zip(nodes, nodes[1:]):
        if lo == hi:   # the middle piece rounded to one float: its root is mu
            roots.append(params.mu)
            continue
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            roots.append(lo)
            continue
        if fhi != 0.0 and (fhi < 0.0) != (flo < 0.0):
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                fmid = f(mid)
                if fmid == 0.0:
                    break
                if (fmid < 0.0) != (flo < 0.0):
                    hi = mid
                else:
                    lo, flo = mid, fmid
                mid = 0.5 * (lo + hi)
            roots.append(mid)
    if f(1.0) == 0.0:
        roots.append(1.0)

    dominant_m = roots[-1] if b >= 0.0 else roots[0]
    # at a root tanh(J m + B) = m, so the map's slope J sech^2(J m + B) is
    # J (1 - m^2), free of the rounding that J m + B carries at large J
    return [MagnetizationRoot(m=m, stable=j * (1.0 - m * m) < 1.0, dominant=(m == dominant_m))
            for m in roots]


def a_zero(mu: float) -> float:
    """Field-reversal curve atanh(mu) / (2 mu), where the field changes sign; 1/2 at mu = 0."""
    if not (-1.0 < mu < 1.0):
        raise DomainError("mu must lie strictly inside (-1, 1)")
    return math.atanh(mu) / (2.0 * mu) if mu else 0.5


def classify_phase(mu: float, a: float) -> PhaseLabel:
    """Label a (mu, a) point by the sign rules of the dominant magnetization.

    Below a = 1/2 the map has a single root and the phase is paramagnetic.
    Above it, mu > 0 keeps the dominant root positive until a crosses
    a_zero(mu) where the field flips sign; mirror rules hold for mu < 0.
    Points within 1e-9 of a = 1/2, of the field-reversal curve, or of the
    coexistence line mu = 0 (with a >= 1/2) carry a boundary flag; the
    meeting point of all five regions (0, 1/2) is flagged multicritical.
    """
    params = CurieWeissParams(mu, a)
    roots = magnetization_roots(params)
    dominant_m = next(r.m for r in roots if r.dominant)

    near_half = abs(a - 0.5) <= _BOUNDARY_BAND
    near_axis = abs(mu) <= _BOUNDARY_BAND
    az = a_zero(mu)
    near_flip = a > 0.5 and abs(a - az) <= _BOUNDARY_BAND
    multicritical = near_half and near_axis
    boundary = near_half or near_flip or (near_axis and a >= 0.5)

    if a < 0.5:
        phase = Phase.PARAMAGNETIC
    elif mu > 0:
        phase = Phase.POSITIVE_M_LOW_A if a < az else Phase.NEGATIVE_M_HIGH_A
    elif mu < 0:
        phase = Phase.NEGATIVE_M_LOW_A if a < az else Phase.POSITIVE_M_HIGH_A
    else:
        phase = Phase.POSITIVE_M_HIGH_A if a > 0.5 else Phase.PARAMAGNETIC
    return PhaseLabel(phase=phase, boundary=boundary, multicritical=multicritical,
                      dominant_m=dominant_m)
