"""Shared grid containers and scalar optimizers.

Everything here is deliberately small: extended reals (``+inf`` for a
divergent bound, ``-inf`` for a useless one) are ordinary floats, and
``classify``, the one place that turns them into a status, lives with
``BoundValue`` in the numpy-free ``closed_forms``.  Grid functions are
plain numpy arrays wrapped with their abscissae (a ``GridDensity`` is
normalized and given the beta-independent half of a power tilt when it is
built, and its ``tilt_terms`` method tilts it once per beta, keeping each
(information, divergence) pair in a private memo that no other module
reads), and the optimizers are a bracketing golden-section search plus a
2-D profile, one 1-D search nested in another.  The 1-D searches themselves,
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
    tilt reads: ``dx = np.diff(theta)``, trapezoid ``weights``, the log
    density shifted by its peak, ``log_shift = ln p - log_peak`` (0 at the
    peak, -inf where the density is 0), ``np.gradient``'s
    spacing (the scalar ``step`` where numpy finds the grid uniform, all
    of ``dx`` equal to ``dx[0]``, else its interior ``coefs``), the
    indices of the first and last grid points of positive density
    (``support_ends``), the larger ``log_shift`` at those two points
    (``log_edge``, so a beta tilt's edge-to-peak ratio is exp(beta
    log_edge)), the ``has_hole`` flag for a zero between them (zeros
    outside them, at one grid end or both, are padding), and the empty
    memo of ``tilt_terms``.  Assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ("theta", "density", "dx", "weights", "log_shift", "log_peak", "step", "coefs",
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
        with np.errstate(divide="ignore"):
            log_shift = np.log(p)
        log_peak = float(np.max(log_shift))
        log_shift -= log_peak
        if (dx == dx[0]).all():
            step, coefs = float(dx[0]), None
        else:
            step = None
            dx1, dx2 = dx[:-1], dx[1:]
            # extreme spacings make these inf or NaN, and the tilt's I with them
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                coefs = (_read_only(-dx2 / (dx1 * (dx1 + dx2))),
                         _read_only((dx2 - dx1) / (dx1 * dx2)),
                         _read_only(dx1 / (dx2 * (dx1 + dx2))))
        nz = np.flatnonzero(p)   # never empty: the density integrates to z > 0
        first, last = int(nz[0]), int(nz[-1])
        fields = dict(theta=_read_only(th), density=_read_only(p), dx=_read_only(dx),
                      weights=_read_only(w), log_shift=_read_only(log_shift), log_peak=log_peak,
                      step=step, coefs=coefs, support_ends=(first, last),
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

    def integrate(self, y: np.ndarray) -> float:
        """Trapezoid integral over theta of y sampled on this grid."""
        return _trapezoid(y, self.dx)

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """``np.gradient(f, theta)`` bit for bit: numpy's operations in numpy's order."""
        out = np.empty_like(f)
        inner = out[1:-1]
        if self.step is not None:
            np.subtract(f[2:], f[:-2], out=inner)
            inner /= 2.0 * self.step
        else:
            a, b, c = self.coefs
            np.multiply(a, f[:-2], out=inner)
            inner += b * f[1:-1]
            inner += c * f[2:]
        out[0] = (f[1] - f[0]) / self.dx[0]
        out[-1] = (f[-1] - f[-2]) / self.dx[-1]
        return out


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
