"""Shared grid containers and scalar optimizers.

Everything here is deliberately small: extended reals (``+inf`` for a
divergent bound, ``-inf`` for a useless one) are ordinary floats, and
``classify``, the one place that turns them into a status, lives with
``BoundValue`` in the numpy-free ``closed_forms``.  Grid functions are
plain numpy arrays wrapped with their abscissae (a ``GridDensity`` is
normalized and given the beta-independent half of a power tilt when it is
built, the slope of its log density on each grid segment included, so
that a tilt's information is one dot product; its ``tilt_terms`` method
tilts it once per beta, keeping each (information, divergence) pair in a
private memo that no other module reads), and the optimizers are a
bracketing golden-section search plus a 2-D profile, one 1-D search nested
in another.  The 1-D searches themselves,
``golden_section_max`` and the sweep-then-polish ``maximize_scalar``, live
in the numpy-free ``closed_forms`` as plain Python loops on float
brackets; what stays here is their batched form for arrays of brackets,
``_golden_section_batch`` and ``_maximize_batch``, which run every element
as a search of its own in numpy with the same result per element as the
float search.  ``lpcb_sweep`` calls them directly for every search of its
splits, one alpha included.  ``logsumexp`` is the package's one array
log-sum-exp (``verify`` adds the exact Bernoulli oracle's n + 1 terms as
Python floats with ``math.fsum``).  The exception classes live in the
numpy-free ``errors`` module.  The time-grid ``Waveform`` lives in
``delay_design``, its one user, so this module imports no ``dataclasses``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .closed_forms import _GOLDEN_MAX_ITER, GOLDEN, maximize_scalar
from .closed_forms import golden_section_max  # noqa: F401  (perfbench/tracer.py LAYERS)
from .errors import DomainError, GridError


def logsumexp(x: np.ndarray, w: np.ndarray | None = None) -> float:
    """ln sum w exp(x), shifted by the maximum; -inf for an empty or all -inf x."""
    m = float(np.max(x, initial=-math.inf))
    if not math.isfinite(m):
        return m
    e = np.exp(x - m)
    return m + math.log(float(np.sum(e if w is None else w * e)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _trapezoid(y: np.ndarray, dx: np.ndarray) -> float:
    """Trapezoid integral of y on a grid with spacings dx = np.diff(theta).

    This is numpy's own expression, so it equals ``np.trapezoid(y, theta)``
    bit for bit; it is the package's one trapezoid over a grid.
    """
    return float((dx * (y[1:] + y[:-1]) / 2.0).sum())


class GridDensity:
    """A probability density on a strictly increasing 1-D grid.

    The constructor validates copies of theta and density, divides the
    density by its trapezoid integral and sets, read-only, all a power
    tilt reads: trapezoid ``weights``, the log density shifted by its
    peak, ``log_shift = ln(p / peak)`` and ``log_peak = ln peak`` (0 at the
    peak, -inf where the density is 0 or its ratio to the peak underflows),
    the indices of the first and last grid points where ``log_shift`` is
    finite (``support_ends``), the slope of ``log_shift`` on each grid
    segment between them (``log_slope = np.diff(log_shift) / np.diff(theta)``
    over the support: a beta tilt q has information beta sum np.diff(q)
    log_slope, the exact information of the piecewise-linear q that the
    trapezoid rule integrates), the larger ``log_shift`` at the two support
    ends (``log_edge``, so a beta tilt's edge-to-peak ratio is exp(beta
    log_edge)), the ``has_hole`` flag for a zero between them (zeros
    outside them, at one grid end or both, are padding), and the empty
    memo of ``tilt_terms``.  Assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ("theta", "density", "weights", "log_shift", "log_peak", "log_slope",
                 "support_ends", "log_edge", "has_hole", "_tilts")

    def __init__(self, theta, density):
        th = np.array(theta, dtype=float)
        if th.ndim != 1:
            raise GridError("density needs matching 1-D grids")
        if th.size < 8:
            raise GridError("density grid too coarse")
        if not np.isfinite(th).all():
            raise GridError("theta grid must be finite")
        dx = np.diff(th)
        if np.any(dx <= 0):
            raise GridError("theta grid must be strictly increasing")
        p = np.array(density, dtype=float)
        if p.shape != th.shape:
            raise GridError("density needs matching 1-D grids")
        if not np.isfinite(p).all():
            raise DomainError("density must be finite")
        if np.any(p < 0):
            raise DomainError("density must be nonnegative")
        with np.errstate(over="ignore"):   # an inf integral or quotient is reported below
            z = _trapezoid(p, dx)
            if not 0.0 < z < math.inf:
                raise DomainError(f"density integrates to {z:.6g} and cannot be normalized")
            p /= z
        if not np.isfinite(p).all():   # z is subnormal on a grid with subnormal spacings
            raise DomainError("density must be finite")
        w = np.empty_like(th)
        w[1:-1] = 0.5 * (th[2:] - th[:-2])
        w[0] = 0.5 * (th[1] - th[0])
        w[-1] = 0.5 * (th[-1] - th[-2])
        peak = float(np.max(p))
        # ln(p / peak), not ln p - ln peak: next to the peak, where ln p moves
        # least between grid points, a log near 0 keeps the digits that a log
        # near ln peak rounds away, and a tilt's information is read from them
        with np.errstate(divide="ignore"):
            log_shift = np.log(p / peak)
        log_peak = math.log(peak)
        # never empty (the peak itself); p / peak below the smallest float is 0
        nz = np.flatnonzero(log_shift > -math.inf)
        first, last = int(nz[0]), int(nz[-1])
        # a hole's -inf makes inf or NaN here (every tilt of it is rejected), and a
        # subnormal spacing may overflow a slope to inf
        with np.errstate(over="ignore", invalid="ignore"):
            log_slope = np.diff(log_shift[first:last + 1]) / dx[first:last]
        fields = dict(theta=_read_only(th), density=_read_only(p), weights=_read_only(w),
                      log_shift=_read_only(log_shift), log_peak=log_peak,
                      log_slope=_read_only(log_slope), support_ends=(first, last),
                      log_edge=float(max(log_shift[first], log_shift[last])),
                      has_hole=nz.size != last - first + 1, _tilts={})
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a GridDensity is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a GridDensity is read-only")

    def tilt_terms(self, beta: float) -> tuple[float, float]:
        """``divergences.tilt_prior(self, beta)``, tilted once per beta.

        A hit returns the very floats the first tilt computed; a rejected
        tilt raises a fresh ``DomainError`` with its message on every call.
        The memo holds no array.  Threads sharing a prior may race on a
        missing beta; both compute and store the same floats.
        """
        memo = self._tilts
        beta = float(beta)
        terms = memo.get(beta)
        if terms is None:
            from .divergences import tilt_prior   # at call time: divergences imports core

            try:
                terms = tilt_prior(self, beta)
            except DomainError as exc:
                terms = str(exc)
            memo[beta] = terms
        if isinstance(terms, str):
            raise DomainError(terms)
        return terms


def _golden_section_batch(f, lo, hi, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """The scalar loop of ``golden_section_max`` run on every element at once.

    lo and hi are equal-shape arrays of brackets, and f maps an array of
    points to the array of their values.  Every element is a search of its
    own: it stops moving once its bracket meets the stopping rule, and it
    returns what ``golden_section_max`` on its bracket returns.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if a.shape != b.shape:
        raise DomainError("bracket arrays must have equal shapes")
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAX_ITER):
        live = np.abs(b - a) > tol * (1.0 + np.abs(a) + np.abs(b))
        if not live.any():
            break
        gt = fc > fd
        left, right = live & gt, live & ~gt
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, fc, d, fd = (np.where(right, d, c), np.where(right, fd, fc),
                        np.where(left, c, d), np.where(left, fc, fd))
        x = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
    x = np.where(fc > fd, c, d)
    return x, f(x)


# math.log, not np.log, on bracket ends: the two differ in the last bit for
# about one input in a thousand, and a batched search must match its scalar one
_math_log = np.vectorize(math.log, otypes=[float])


def _maximize_batch(f, lo, hi, *, coarse: int = 64):
    """``maximize_scalar(..., log_spaced=True)`` on array brackets, the sweeps in one call of f.

    lo and hi are equal-shape arrays of positive bracket ends, and f maps
    an array of points to the array of their values.  Returns (argmax,
    value, n_evaluations): argmax and value are arrays whose every element
    is what ``maximize_scalar`` on its bracket returns, and n_evaluations
    counts every point passed to f.  Each sweep is the rule of
    ``closed_forms._linspace`` on its own logs (numpy's array ``linspace``
    takes the zero-step formula everywhere once one step is 0).  An
    element whose values are all NaN raises DomainError for the whole call.
    """
    if coarse < 2:
        raise DomainError("the coarse sweep needs at least 2 points")
    lo_a, hi_a = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo_a.shape != hi_a.shape:
        raise DomainError("bracket arrays must have equal shapes")
    if not np.all(hi_a > lo_a):
        raise DomainError("empty bracket")
    if np.any(lo_a <= 0):
        raise DomainError("log-spaced bracket needs lo > 0")
    start, stop = _math_log(lo_a), _math_log(hi_a)
    div, delta = coarse - 1, stop - start
    step, i = delta / div, np.arange(float(coarse)).reshape((-1,) + (1,) * lo_a.ndim)
    log_grid = np.where(step == 0.0, i / div * delta + start, i * step + start)
    log_grid[-1] = stop
    grid = np.exp(log_grid)
    vals = np.asarray(f(grid), dtype=float)
    n_eval = grid.size
    if np.isnan(vals).all(axis=0).any():
        raise DomainError("objective is NaN at every point of the bracket")
    k = np.nanargmax(vals, axis=0)

    def at(idx):
        return np.take_along_axis(grid, np.expand_dims(idx, 0), axis=0)[0]

    x, fx = at(k), np.take_along_axis(vals, np.expand_dims(k, 0), axis=0)[0]
    blo, bhi = at(np.maximum(k - 1, 0)), at(np.minimum(k + 1, coarse - 1))
    polish = np.isfinite(fx) & (blo != bhi)
    if polish.any():
        def counted_batch(u: np.ndarray) -> np.ndarray:
            nonlocal n_eval
            n_eval += u.size
            return f(u)

        xp, fxp = _golden_section_batch(counted_batch, np.where(polish, blo, x),
                                        np.where(polish, bhi, x))
        keep = polish & ~(fxp < fx)
        x, fx = np.where(keep, xp, x), np.where(keep, fxp, fx)
    return x, fx, n_eval


def coordinate_descent_max(
    f: Callable[[float, float], float],
    bounds_x: tuple[float, float],
    bounds_y: tuple[float, float],
) -> tuple[float, float, float]:
    """Maximize f(x, y) as a profile: y outer on a log scale, x inner on a linear scale.

    The outer ``maximize_scalar`` over y (bounds_y must be positive) reads
    at each y the value of an inner ``maximize_scalar`` over x, each a
    33-point sweep and its golden polish.  The inner sweep sees every basin
    of x that its 33 points separate, so no start is drawn and the result
    is a function of f alone.  Returns (x, y, value): the inner argmax at
    the outer argmax, or (nan, nan, -inf) when f is -inf everywhere.
    """
    def inner(y: float) -> tuple[float, float, int]:
        return maximize_scalar(lambda u: f(u, y), *bounds_x, coarse=33)

    y, val, _ = maximize_scalar(lambda v: inner(v)[1], *bounds_y, log_spaced=True, coarse=33)
    if val == -math.inf:
        return (math.nan, math.nan, -math.inf)
    x, val, _ = inner(y)
    return x, y, val


def divergence_onset(
    is_divergent: Callable[[float], bool],
    lo: float,
    hi_start: float,
    *,
    tol: float = 1e-4,
    hi_cap: float = 1e9,
) -> float:
    """Smallest alpha at which ``is_divergent`` flips, found by bisection.

    Expands the upper probe geometrically first; returns +inf when no
    divergence is found below ``hi_cap``.
    """
    hi = hi_start
    while not is_divergent(hi):
        hi *= 2.0
        if hi > hi_cap:
            return math.inf
    lo = float(lo)
    if is_divergent(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_divergent(mid):
            hi = mid
        else:
            lo = mid
    return hi
