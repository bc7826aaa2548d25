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
and ``scalar_ml_lambda``) live in the numpy-free ``closed_forms``, and the
vector ML moment is its one Gaussian-moment kernel ``_gaussian_moment``.

numpy is imported only by the vector model (``VectorLinearModel``,
``vector_linear_bound``, ``vector_ml_lambda``).  The correlation profile
is a callable on floats, and the nonlinear bound's search over the
reference value is the float ``closed_forms.maximize_scalar``, so the
nonlinear bound loads no numpy.  The two model types are ``__slots__``
classes, not dataclasses, so the module does not load ``dataclasses``
either.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .closed_forms import _META, BoundValue, _gaussian_moment, classify, maximize_scalar
from .closed_forms import scalar_linear_bound  # noqa: F401  (perfbench/tracer.py LAYERS)
from .errors import ConditioningError, DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "VectorLinearModel",
    "CorrelationProfile",
    "vector_linear_bound",
    "vector_ml_lambda",
    "nonlinear_bound",
]

_COND_CAP = 1e12


class VectorLinearModel:
    """k orthonormal-energy signals with correlation matrix gamma."""

    __slots__ = ("gamma", "es", "n0")

    def __init__(self, gamma: np.ndarray, es: float, n0: float):
        import numpy as np

        g = np.asarray(gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DomainError("gamma must be square")
        if not np.allclose(g, g.T, atol=1e-12):
            raise DomainError("gamma must be symmetric")
        if not np.allclose(np.diag(g), 1.0, atol=1e-9):
            raise DomainError("gamma must have unit diagonal")
        if es <= 0 or n0 <= 0:
            raise DomainError("need es > 0 and n0 > 0")
        eigvals = np.linalg.eigvalsh(g)
        if eigvals[0] <= 0:
            raise DomainError("gamma must be positive definite")
        if eigvals[-1] / eigvals[0] > _COND_CAP:
            raise ConditioningError(
                "gamma condition number exceeds 1e12; signals are near collinear"
            )
        self.gamma, self.es, self.n0 = g, es, n0

    @property
    def k(self) -> int:
        return self.gamma.shape[0]

    def gamma_inv(self) -> np.ndarray:
        import numpy as np

        return np.linalg.inv(self.gamma)


class CorrelationProfile:
    """Normalized correlation rho(theta, theta_tilde) of a signal family.

    rho_fn takes two floats; it must be 1 on the diagonal and bounded by 1
    in magnitude.  Both ends of ``theta_range`` infinite make the range
    unbounded.
    """

    __slots__ = ("ex", "theta_range", "rho_fn")

    def __init__(self, ex: float, theta_range: tuple[float, float],
                 rho_fn: Callable[[float, float], float]):
        if ex <= 0:
            raise DomainError("ex must be positive")
        if not theta_range[0] < theta_range[1]:
            raise DomainError("theta_range needs lo < hi")
        self.ex, self.theta_range, self.rho_fn = ex, theta_range, rho_fn

    @property
    def unbounded(self) -> bool:
        """Both ends of theta_range are infinite."""
        return math.isinf(self.theta_range[0]) and math.isinf(self.theta_range[1])


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
    return _gaussian_moment(model.n0 / model.es * float(a @ model.gamma_inv() @ a))


def nonlinear_bound(
    profile: CorrelationProfile,
    alpha: float,
    theta: float,
    l_nb: float,
    n0: float,
) -> BoundValue:
    """Shifted-reference bound for a constant-energy nonlinear signal.

    Takes the supremum over reference values theta_tilde of

        alpha L + alpha (theta - theta_tilde)^2
        - 2 ex (1 - rho(theta, theta_tilde)) / n0

    for a finite MSE floor L = l_nb.  A bounded range takes it by a
    2001-point sweep of theta_range polished by golden section.  An
    unbounded range gives +inf with no search: |rho| <= 1 keeps the
    objective at least alpha L + alpha (theta - theta_tilde)^2 - 4 ex / n0,
    which grows without bound as theta_tilde runs off, whatever the size
    of alpha or theta.
    """
    if alpha <= 0 or n0 <= 0:
        raise DomainError("alpha and n0 must be positive")
    floor = float(l_nb)
    if not math.isfinite(floor):
        raise DomainError("the MSE floor l_nb must be finite")
    if profile.unbounded:
        return classify(math.inf, {"theta_tilde": math.inf},
                        dict(_META, witness="alpha (theta - theta_tilde)^2 grows without bound; "
                                            "the correlation term is at least -4 ex / n0"))
    lo, hi = profile.theta_range
    span = max(abs(theta - lo), abs(theta - hi))
    if not math.isfinite(span * span):
        raise DomainError("(theta - theta_range end)^2 is beyond float range")
    base, two_ex, rho = alpha * floor, 2.0 * profile.ex, profile.rho_fn

    def f(tt: float) -> float:
        return base + alpha * (theta - tt) ** 2 - two_ex * (1.0 - rho(theta, tt)) / n0

    center, best, _ = maximize_scalar(f, lo, hi, coarse=2001)
    # on a flat top (theta_tilde = theta, say) the polish only ties the
    # sweep, and the sweep point nearest to it is the argmax to report
    step = (hi - lo) / 2000
    k = round((center - lo) / step)
    near = hi if k == 2000 else k * step + lo   # np.linspace's own point k
    if f(near) == best:
        center = near
    return classify(best, {"theta_tilde": center}, dict(_META))
