"""Lower bounds for unbiased estimators of a deterministic parameter.

The scalar and vector linear models in white noise admit closed forms
built from the information-based MSE floor shifted by a reference
parameter value: the bound is finite up to a critical risk factor (es/n0
for the scalar model, an ellipsoid contour for the vector one) and
infinite beyond it, a threshold the maximum-likelihood estimator attains.
Nonlinear constant-energy signals are handled through the normalized
signal correlation rho(theta, theta_tilde); on unbounded parameter ranges
the shifted-reference supremum diverges for every positive risk factor.
Unbiasedness is an assumption recorded in the output, not a checkable
property of a bound query.  The scalar closed forms (``scalar_linear_bound``
and ``scalar_ml_lambda``) live in the numpy-free ``closed_forms`` and are
re-exported here.

numpy is imported only where an array is used: by the vector model
(``VectorLinearModel``, ``vector_linear_bound``, ``vector_ml_lambda``) and
by a gridded ``CorrelationProfile``.  A callable rho runs on floats through
``closed_forms.maximize_scalar``, so the nonlinear bound with a callable
rho loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .closed_forms import (
    _META,
    BoundValue,
    classify,
    maximize_scalar,
    scalar_linear_bound,
    scalar_ml_lambda,
)
from .errors import ConditioningError, DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "VectorLinearModel",
    "CorrelationProfile",
    "scalar_linear_bound",
    "scalar_ml_lambda",
    "vector_linear_bound",
    "vector_ml_lambda",
    "nonlinear_bound",
]

_COND_CAP = 1e12
_DIVERGENCE_DECLARE = 1e6  # nats; a probe-doubling supremum past this is +inf


@dataclass(frozen=True)
class VectorLinearModel:
    """k orthonormal-energy signals with correlation matrix gamma."""

    gamma: np.ndarray
    es: float
    n0: float

    def __post_init__(self):
        import numpy as np

        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DomainError("gamma must be square")
        if not np.allclose(g, g.T, atol=1e-12):
            raise DomainError("gamma must be symmetric")
        if not np.allclose(np.diag(g), 1.0, atol=1e-9):
            raise DomainError("gamma must have unit diagonal")
        if self.es <= 0 or self.n0 <= 0:
            raise DomainError("need es > 0 and n0 > 0")
        eigvals = np.linalg.eigvalsh(g)
        if eigvals[0] <= 0:
            raise DomainError("gamma must be positive definite")
        if eigvals[-1] / eigvals[0] > _COND_CAP:
            raise ConditioningError(
                "gamma condition number exceeds 1e12; signals are near collinear"
            )
        object.__setattr__(self, "gamma", g)

    @property
    def k(self) -> int:
        return self.gamma.shape[0]

    def gamma_inv(self) -> np.ndarray:
        import numpy as np

        return np.linalg.inv(self.gamma)


@dataclass(frozen=True)
class CorrelationProfile:
    """Normalized correlation rho(theta, theta_tilde) of a signal family.

    Supply either a square grid sample (bounded parameter range) or a
    callable; an unbounded range (both ends of ``theta_range`` infinite)
    requires the callable form.  rho must be 1 on the diagonal and bounded
    by 1 in magnitude.
    """

    ex: float
    theta_range: tuple[float, float]
    theta_grid: np.ndarray | None = None
    rho_values: np.ndarray | None = None
    rho_fn: Callable[[float, float], float] | None = None

    def __post_init__(self):
        if self.ex <= 0:
            raise DomainError("ex must be positive")
        if not self.theta_range[0] < self.theta_range[1]:
            raise DomainError("theta_range needs lo < hi")
        if self.unbounded:
            if self.rho_fn is None:
                raise DomainError("unbounded profiles need a callable rho")
            return
        if self.rho_fn is not None:
            return
        if self.theta_grid is None or self.rho_values is None:
            raise DomainError("bounded profiles need a grid sample or a callable")
        import numpy as np

        th = np.asarray(self.theta_grid, dtype=float)
        r = np.asarray(self.rho_values, dtype=float)
        if r.shape != (th.size, th.size):
            raise DomainError("rho_values must be square on theta_grid")
        if np.max(np.abs(r)) > 1.0 + 1e-9:
            raise DomainError("|rho| must not exceed 1")
        if not np.allclose(np.diag(r), 1.0, atol=1e-9):
            raise DomainError("rho must be 1 on the diagonal")
        object.__setattr__(self, "theta_grid", th)
        object.__setattr__(self, "rho_values", r)

    @property
    def unbounded(self) -> bool:
        """Both ends of theta_range are infinite."""
        return math.isinf(self.theta_range[0]) and math.isinf(self.theta_range[1])

    def rho(self, theta: float, theta_tilde: float) -> float:
        if self.rho_fn is not None:
            return float(self.rho_fn(theta, theta_tilde))
        import numpy as np

        i = int(np.argmin(np.abs(self.theta_grid - theta)))
        j = int(np.argmin(np.abs(self.theta_grid - theta_tilde)))
        return float(self.rho_values[i, j])


def vector_linear_bound(model: VectorLinearModel, alpha_vec: np.ndarray) -> BoundValue:
    """Directional bound n0 a' inv(gamma) a / (2 es) inside the critical ellipsoid.

    Finite strictly inside a' inv(gamma) a < es/n0; +inf on the contour
    and outside, which is where no estimator's tail can keep up.
    """
    import numpy as np

    a = np.asarray(alpha_vec, dtype=float)
    if a.shape != (model.k,):
        raise DomainError("alpha_vec dimension mismatch")
    quad = float(a @ model.gamma_inv() @ a)
    threshold = model.es / model.n0
    diag = dict(_META, quad_form=quad, threshold=threshold)
    if quad >= threshold and quad > 0.0:
        return classify(math.inf, {}, diag)
    return classify(model.n0 * quad / (2.0 * model.es), {}, diag)


def vector_ml_lambda(model: VectorLinearModel, alpha_vec: np.ndarray) -> float:
    """Exact ML exponential moment -0.5 ln(1 - (n0/es) a' inv(gamma) a).

    The determinant form -0.5 ln|I - (n0/es) a a' inv(gamma)| collapses to
    the scalar form by the rank-one determinant identity.
    """
    import numpy as np

    a = np.asarray(alpha_vec, dtype=float)
    if a.shape != (model.k,):
        raise DomainError("alpha_vec dimension mismatch")
    ratio = model.n0 / model.es * float(a @ model.gamma_inv() @ a)
    if ratio >= 1.0:
        return math.inf
    return -0.5 * math.log1p(-ratio)


def _nonlinear_objective(
    profile: CorrelationProfile,
    alpha: float,
    theta: float,
    l_nb: Callable[[float], float],
    n0: float,
) -> Callable[[float], float]:
    def f(tt: float) -> float:
        return (
            alpha * l_nb(tt)
            + alpha * (theta - tt) ** 2
            - 2.0 * profile.ex * (1.0 - profile.rho(theta, tt)) / n0
        )

    return f


def nonlinear_bound(
    profile: CorrelationProfile,
    alpha: float,
    theta: float,
    l_nb: Callable[[float], float] | float,
    n0: float,
) -> BoundValue:
    """Shifted-reference bound for a constant-energy nonlinear signal.

    Takes the supremum over reference values theta_tilde of

        alpha L(theta_tilde) + alpha (theta - theta_tilde)^2
        - 2 ex (1 - rho(theta, theta_tilde)) / n0.

    Bounded ranges take the supremum over the sampled grid of a gridded
    profile, or a 2001-point sweep of theta_range polished by golden
    section for a callable rho.  On an unbounded range a finite constant
    floor gives +inf with no search: |rho| <= 1 keeps the objective at
    least alpha L + alpha (theta - theta_tilde)^2 - 4 ex / n0, which grows
    without bound as theta_tilde runs off, whatever the size of alpha or
    theta.  A callable floor may cancel the quadratic shift, so there the
    supremum is found by probe doubling, declaring +inf past 1e6 nats.
    """
    if alpha <= 0 or n0 <= 0:
        raise DomainError("alpha and n0 must be positive")
    if profile.unbounded and not callable(l_nb) and math.isfinite(float(l_nb)):
        return classify(math.inf, {"theta_tilde": math.inf},
                        dict(_META, witness="alpha (theta - theta_tilde)^2 grows without bound; "
                                            "the correlation term is at least -4 ex / n0"))
    l_fn = l_nb if callable(l_nb) else (lambda _t: float(l_nb))
    f = _nonlinear_objective(profile, alpha, theta, l_fn, n0)

    if profile.unbounded:
        delta = 1.0
        value, best_tt = f(theta), theta
        for _ in range(80):
            for tt in (theta + delta, theta - delta):
                ft = f(tt)
                if ft > value:
                    value, best_tt = ft, tt
            if value > _DIVERGENCE_DECLARE:
                return classify(math.inf, {"theta_tilde": best_tt}, dict(_META, probe_delta=delta))
            delta *= 2.0
        return classify(value, {"theta_tilde": best_tt}, dict(_META))

    lo, hi = profile.theta_range
    span = max(abs(theta - lo), abs(theta - hi))
    if not math.isfinite(span * span):
        raise DomainError("(theta - theta_range end)^2 is beyond float range")
    if profile.rho_fn is not None:   # a callable rho: grid sweep, then golden polish off the grid
        center, best, _ = maximize_scalar(f, lo, hi, coarse=2001)
        # on a flat top (theta_tilde = theta, say) the polish only ties the
        # sweep, and the sweep point nearest to it is the argmax to report
        step = (hi - lo) / 2000
        k = round((center - lo) / step)
        near = hi if k == 2000 else k * step + lo   # np.linspace's own point k
        if f(near) == best:
            center = near
        return classify(best, {"theta_tilde": center}, dict(_META))
    import numpy as np

    vals = np.array([f(tt) for tt in profile.theta_grid])
    k = int(np.argmax(vals))
    return classify(float(vals[k]), {"theta_tilde": float(profile.theta_grid[k])}, dict(_META))
