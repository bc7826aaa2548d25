"""Lower bounds on exponential moments of quadratic estimation error.

Bound families for the Bayesian and the unbiased non-Bayesian regime,
reference-signal design for delay estimation, the Bernoulli saddle-value
and spin-model phase analysis, and a Monte Carlo / exact-sum harness that
certifies every bound against ground truth.

Importing the package loads none of its submodules: each public name below
is imported from its submodule on first access (PEP 562), so a caller pays
only for the modules it uses, and the numpy-free ones (``errors``,
``closed_forms``, ``phase_transition``, ``cli``) run without numpy.
``from riskbounds import X`` and ``riskbounds.X`` work as for eager imports.
"""

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    name: module for module, names in (
        ("errors", (
            "ConditioningError", "DivergenceRiskError", "DomainError", "GridError",
            "RiskBoundsError")),
        ("closed_forms", (
            "BoundValue", "LinearGaussianModel", "generic_bayes_bound",
            "linear_gaussian_min_lambda", "NuTradeoff", "nu_bound", "phase_bound_large_sigma",
            "scalar_linear_bound", "scalar_ml_lambda", "tilted_prior_bound",
            "ww_rect_delay_bound")),
        ("divergences", (
            "GridDensity", "binary_divergence", "renyi_gaussian_linear", "tilt_prior")),
        ("bayes_bounds", ("alpha_c_estimate", "alpha_c_upper", "lpcb_bound", "lpcb_sweep")),
        ("delay_design", (
            "DelayDesignProblem", "Waveform", "raised_cosine_pulse", "raised_cosine_reference",
            "solve_reference_ode")),
        ("nonbayes_bounds", (
            "CorrelationProfile", "VectorLinearModel", "nonlinear_bound", "vector_linear_bound",
            "vector_ml_lambda")),
        ("phase_transition", (
            "CurieWeissParams", "MagnetizationRoot", "Phase", "PhaseLabel",
            "a_zero", "asymptotic_estimator", "bernoulli_bayes_exponent", "classify_phase",
            "error_exponent", "magnetization_roots")),
        ("verify", (
            "BernoulliExact", "MCResult", "MCRun", "bernoulli_exact_lambda", "mc_lambda",
            "certify")),
    )
    for name in names
}

_SUBMODULES = {*_EXPORTS.values(), "core", "cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # __import__, not importlib.import_module, so that -X importtime lists the submodule
    if name in _EXPORTS:
        value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=(name,)), name)
    elif name in _SUBMODULES:
        value = __import__(f"{__name__}.{name}", fromlist=(name,))
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
