"""Lower bounds on exponential moments of quadratic estimation error.

Bound families for the Bayesian and the unbiased non-Bayesian regime,
reference-signal design for delay estimation, the Bernoulli saddle-value
and spin-model phase analysis, and a Monte Carlo / exact-sum harness that
certifies every bound against ground truth.

Importing the package loads none of its submodules: each public name below
is imported from its submodule on first access (PEP 562), so a caller pays
only for the modules it uses, and the numpy-free ones (``errors``,
``phase_transition``, ``cli``) run without numpy.  ``from riskbounds import
X`` and ``riskbounds.X`` work as for eager imports.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    name: module for module, names in (
        ("errors", (
            "ConditioningError", "DegenerateSignalError", "DivergenceRiskError", "DomainError",
            "GridError", "ResolutionError", "RiskBoundsError")),
        ("core", ("BoundValue", "GridDensity", "Waveform", "gaussian_density",
                  "uniform_density")),
        ("divergences", (
            "GaussianPriorPair", "QuadMgfCoeffs", "RenyiOrder", "TiltedPrior", "binary_divergence",
            "binary_entropy", "gaussian_kl", "gaussian_quad_mgf", "path_divergence",
            "renyi_gaussian_linear", "renyi_gaussian_pair", "tilt_prior", "tilt_terms")),
        ("bayes_bounds", (
            "LinearGaussianModel", "LpcbChain", "NonlinearBayesModel", "alpha_c_estimate",
            "alpha_c_upper", "generic_bayes_bound", "iterated_lpcb", "linear_gaussian_min_lambda",
            "lpcb_bound", "lpcb_sweep", "make_phase_model", "nonlinear_linear_ref_bound",
            "optimal_reference_signal", "phase_bound_large_sigma", "phase_model_bound",
            "tilted_prior_bound", "ww_rect_delay_bound")),
        ("delay_design", (
            "DelayDesignProblem", "NuTradeoff", "nu_bound", "raised_cosine_pulse",
            "raised_cosine_reference", "solve_reference_ode")),
        ("nonbayes_bounds", (
            "CorrelationProfile", "VectorLinearModel", "critical_radius", "nonlinear_bound",
            "scalar_linear_bound", "scalar_ml_lambda", "vector_linear_bound", "vector_ml_lambda")),
        ("phase_transition", (
            "CurieWeissParams", "MagnetizationRoot", "Phase", "PhaseLabel",
            "a_zero", "asymptotic_estimator", "bernoulli_bayes_exponent", "classify_phase",
            "error_exponent", "magnetization_roots")),
        ("verify", (
            "BernoulliExact", "MCResult", "MCRun", "bernoulli_exact_lambda", "mc_lambda",
            "certify", "risk_sensitive_posterior_estimator")),
    )
    for name in names
}

_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
