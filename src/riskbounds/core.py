"""The numpy kernels shared by the grid prior, the lpcb search and the Monte Carlo.

``logsumexp`` is the package's one array log-sum-exp, ``_trapezoid`` its
one trapezoid over a grid and ``_read_only`` the flag of every cached
array; ``_golden_section_batch`` and ``_maximize_batch`` run the float
searches of ``closed_forms`` on arrays of brackets, each element with the
float search's result.  No class or plain-Python search lives here: the
float searches are bound from ``closed_forms`` only for perfbench's tracer,
and the grid prior lives with its tilt in ``divergences``.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import _GOLDEN_MAX_ITER, GOLDEN
from .closed_forms import coordinate_descent_max  # noqa: F401  (perfbench/tracer.py LAYERS)
from .closed_forms import divergence_onset  # noqa: F401  (perfbench/tracer.py LAYERS)
from .closed_forms import golden_section_max  # noqa: F401  (perfbench/tracer.py LAYERS)
from .closed_forms import maximize_scalar  # noqa: F401  (perfbench/tracer.py LAYERS)
from .errors import DomainError


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
