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
``inspect`` either.  The estimator curve is solved one q at a time in the
private ``_curve`` module, which ``bernoulli_bayes_exponent`` and
``asymptotic_estimator`` import on their first call, and
``bernoulli_bayes_exponent`` returns its q grid and curve as tuples of
floats.
"""

from __future__ import annotations

import math
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
_MIN_Q_STEPS = 101      # fewest points of the q grid
_SERIES_CUTOFF = 0.1    # below it, u - ln(1 + u) is summed as its Taylor series
_SERIES_TERMS = 16      # u^2/2 ... u^17/17: the first omitted term is < 2e-17 relative


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
    ``_curve._estimator_point``).  That q = 1/2 maximizes the per-q value,
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
    from ._curve import _estimator_point

    return _estimator_point(a, float(q))[0]


def bernoulli_bayes_exponent(
    a: float, *, n_q: int = 201
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """E(a) (as ``error_exponent``) and the estimator curve on an n_q-point q grid.

    The grid is ``np.linspace(0, 1, n_q)`` bit for bit; grid and curve come
    as tuples of floats.
    """
    if not a >= 0:
        raise DomainError("a must be nonnegative")
    if n_q < _MIN_Q_STEPS:
        raise DomainError(f"the q grid must have at least {_MIN_Q_STEPS} points")
    from ._curve import _estimator_point
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
