"""Lower bounds on exponential moments of quadratic estimation error.

Bound families for the Bayesian and the unbiased non-Bayesian regime,
reference-signal design for delay estimation, the Bernoulli saddle-value
and spin-model phase analysis, and a Monte Carlo / exact-sum harness that
certifies every bound against ground truth.
"""

from .core import (
    BoundValue,
    ConditioningError,
    DegenerateSignalError,
    DivergenceRiskError,
    DomainError,
    GridDensity,
    GridError,
    ResolutionError,
    RiskBoundsError,
    Waveform,
    gaussian_density,
    uniform_density,
)
from .divergences import (
    GaussianPriorPair,
    QuadMgfCoeffs,
    RenyiOrder,
    TiltedPrior,
    binary_divergence,
    binary_entropy,
    gaussian_kl,
    gaussian_quad_mgf,
    path_divergence,
    renyi_gaussian_linear,
    renyi_gaussian_pair,
    tilt_prior,
    tilt_terms,
)
from .bayes_bounds import (
    LinearGaussianModel,
    LpcbChain,
    NonlinearBayesModel,
    alpha_c_estimate,
    alpha_c_upper,
    generic_bayes_bound,
    iterated_lpcb,
    linear_gaussian_min_lambda,
    lpcb_bound,
    lpcb_sweep,
    make_phase_model,
    nonlinear_linear_ref_bound,
    optimal_reference_signal,
    phase_bound_large_sigma,
    phase_model_bound,
    tilted_prior_bound,
    ww_rect_delay_bound,
)
from .delay_design import (
    DelayDesignProblem,
    NuTradeoff,
    nu_bound,
    raised_cosine_pulse,
    raised_cosine_reference,
    solve_reference_ode,
)
from .nonbayes_bounds import (
    CorrelationProfile,
    VectorLinearModel,
    critical_radius,
    nonlinear_bound,
    scalar_linear_bound,
    scalar_ml_lambda,
    vector_linear_bound,
    vector_ml_lambda,
)
from .phase_transition import (
    CurieWeissParams,
    ExponentProblem,
    MagnetizationRoot,
    Phase,
    PhaseLabel,
    a_zero,
    asymptotic_estimator,
    bernoulli_bayes_exponent,
    classify_phase,
    error_exponent,
    magnetization_roots,
)
from .verify import (
    BernoulliExact,
    MCResult,
    MCRun,
    bernoulli_exact_lambda,
    mc_lambda,
    risk_sensitive_posterior_estimator,
)

__version__ = "0.1.0"
