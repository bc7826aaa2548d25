"""Command-line interface: bounds, sweeps, phase analysis, verification.

Subcommands

* ``bound``   evaluate a bound family, optionally sweeping one variable
* ``phase``   saddle exponent, estimator curve, magnetization roots, diagram
* ``verify``  Monte Carlo / exact-sum checks and the certification battery
* ``emit-plot``  write a gnuplot script for a CSV produced by this tool

Output is CSV on stdout (or ``--out``): header first, then the choice's
effective configuration (its command, its name and each flag it reads
that has a value) echoed as ``#`` comment lines, then data rows.  ``+inf``
is rendered as the literal ``inf``.  Sweeps use ``start:stop:steps``
syntax, log-spaced with ``--log``.  A sweep, the ``phase estimator`` q
grid and the ``phase diagram`` grid hold at most 10**7 points; a larger
one exits 3 before any point is made.  A ``--config`` file of ``key = value``
lines is read as ``--key=value`` flags placed before the explicit ones, so
explicit flags win and every config value is checked like its flag (a bad
one exits 2).  An on/off flag such as ``log`` takes ``true`` or ``false``;
a key the choice has no flag for is ignored.

One table, ``_COMMANDS``, maps every bound family, phase analysis and
verify check to its CSV header, its rows function and the flags that
function reads.  The command parser reads the command and its choice and
hands the rest of argv to a parser built for that choice alone, with
exactly those flags plus ``--out`` and ``--config``: ``riskbounds bound
<family> -h`` lists that family's flags and columns, and a flag the
choice does not read, or one placed before the choice, exits 2.  Each
flag's spec and default is declared once per command, in ``_FLAGS``;
``verify --estimator`` defaults per check.

Exit codes: 0 success, 2 usage error, 3 infeasible domain, 4 verification
failure.

Each command imports only the modules it runs, at the point of use: the
module itself loads argparse and the numpy-free ``errors``, linear sweeps
are spaced in plain Python by numpy's own ``linspace`` formula, and
the closed-form ``bound`` families (``bayes-linear``, ``bayes-phase``,
``bayes-ww``, ``nonbayes-linear``), ``nonbayes-nonlinear``, every
``phase`` analysis, ``verify bernoulli-exact`` and ``emit-plot`` run
without importing numpy, ``dataclasses`` or ``inspect`` at all.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from .errors import DomainError, RiskBoundsError

if TYPE_CHECKING:
    from .core import GridDensity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


_MAX_POINTS = 10 ** 7   # most points a sweep, the q grid or the phase diagram may have


def _check_points(n: int, what: str) -> None:
    if n > _MAX_POINTS:
        raise DomainError(f"{what} has {n} points, more than the {_MAX_POINTS} allowed")


def _sweep_spec(text: str, log: bool) -> tuple[float, float, int]:
    """Checked start, stop and steps of a ``start:stop:steps`` sweep; no point is made yet."""
    try:
        start_s, stop_s, steps_s = text.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError as exc:
        raise DomainError(f"bad sweep spec {text!r}, expected start:stop:steps") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"bad sweep spec {text!r}: the endpoints must be finite")
    if steps < 2:
        raise DomainError("sweep needs at least 2 steps")
    if log:
        if start <= 0 or stop <= 0:
            raise DomainError("log sweep needs positive endpoints")
    elif not math.isfinite(stop - start):
        raise DomainError(f"bad sweep spec {text!r}: stop - start is beyond the float range")
    _check_points(steps, f"sweep {text!r}")
    return start, stop, steps


def _parse_sweep(text: str, log: bool = False) -> list[float]:
    start, stop, steps = _sweep_spec(text, log)
    from .closed_forms import _linspace, _logspace

    return (_logspace if log else _linspace)(start, stop, steps)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise DomainError(f"bad {flag} value {text!r}, expected comma-separated numbers") from exc
    if not all(map(math.isfinite, values)):
        raise DomainError(f"bad {flag} value {text!r}: every number must be finite")
    return values


def _alpha_values(args) -> list[float]:
    if args.alpha_sweep:
        return _parse_sweep(args.alpha_sweep, args.log)
    if args.alpha is not None:
        return [args.alpha]
    raise DomainError("supply --alpha or --alpha-sweep")


def _read_text(path: str, kind: str) -> str:
    """A text file's contents; a file that is not UTF-8 exits 3."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"bad {kind} file {path!r}: {exc}") from exc


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in _read_text(path, "config").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"bad config line {raw.rstrip()!r}, expected key = value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The ``--config`` file's lines as ``--key=value`` flags of the parsed choice.

    ``true`` and ``false`` on an on/off flag become the bare flag or
    nothing.  A key the choice has no flag for is dropped here, so that
    argparse cannot take it for an abbreviation of another flag.
    """
    flags = []
    for key, text in _load_config(args.config).items():
        if key not in vars(args):
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if text not in ("true", "false"):
                raise DomainError(f"bad config value {key} = {text!r}, expected true or false")
            flags += [flag] if text == "true" else []
        else:
            flags.append(f"{flag}={text}")
    return flags


def _effective_config(args: argparse.Namespace) -> list[str]:
    """The choice's flags, its command and its name, as ``#`` lines; unset flags are left out."""
    items = sorted((k, v) for k, v in vars(args).items()
                   if k not in ("out", "config") and v is not None)
    return [f"# {k} = {_fmt(v)}" for k, v in items]


def _emit(args, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(_effective_config(args))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_PRIOR_USAGE = "gaussian:VAR[,SPAN,N] | CSV path"


def _prior_params(text: str) -> tuple[list[float], int | None]:
    """VAR, the optional SPAN and the optional grid size N of ``gaussian:VAR[,SPAN,N]``."""
    parts = text.split(":", 1)[1].split(",")
    try:
        values = [float(v) for v in parts[:2]]
        n = int(parts[2]) if len(parts) > 2 else None
    except ValueError:
        values, n = [], None
    if (not values or len(parts) > 3 or (n is not None and n < 2)
            or not all(map(math.isfinite, values))):
        raise DomainError(f"bad --prior {text!r}, expected {_PRIOR_USAGE}")
    if n is not None:
        _check_points(n, f"the grid of --prior {text!r}")
    return values, n


def _load_csv(path: str, kind: str):
    """A comma-separated file of numbers as a 2-D array; a cell that is no number exits 3."""
    import warnings

    import numpy as np

    try:
        with warnings.catch_warnings():   # an empty file is reported by the caller, not warned about
            warnings.simplefilter("ignore")
            return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:   # a cell that is not a number, e.g. a space-separated row
        raise DomainError(f"bad {kind} file {path!r}: {str(exc).splitlines()[0]}") from exc


def _load_prior(args) -> GridDensity:
    import numpy as np

    from .core import GridDensity

    text = args.prior
    if text.startswith("gaussian:"):
        (sigma2, *span), n = _prior_params(text)
        if not sigma2 > 0:
            raise DomainError(f"bad --prior {text!r}: the variance must be positive")
        half = (span[0] if span else 10.0) * math.sqrt(sigma2)
        with np.errstate(over="ignore", invalid="ignore"):   # GridDensity rejects inf and NaN
            theta = np.linspace(-half, half, 8193 if n is None else n)
            dens = np.exp(-(theta ** 2) / (2.0 * sigma2))
    else:
        try:
            data = _load_csv(text, "prior")
        except FileNotFoundError:
            kind = text.split(":", 1)[0]
            if ":" in text and kind.isidentifier():   # gaussain:1.0, uniform:0,1
                raise DomainError(f"unknown --prior kind {kind!r}, expected {_PRIOR_USAGE}; "
                                  "a flat prior is a theta,density CSV file") from None
            raise
        if data.shape[1:] != (2,):
            raise DomainError("prior file must have two columns: theta, density")
        theta, dens = data[:, 0], data[:, 1]
    return GridDensity(theta, dens)


# ------------------------------------------------ bound, phase and verify ---
#
# Each rows function takes the parsed arguments and returns the data rows of
# one `bound` family, `phase` analysis or `verify` check; _COMMANDS pairs it
# with its header and the flags it reads.  Each imports the modules it calls,
# so a command loads only those: `bayes-linear`, `bayes-phase`, `bayes-ww` and
# `nonbayes-linear` load only `closed_forms`, `nonbayes-nonlinear` adds
# `nonbayes_bounds` (its search over the reference value is the float
# `closed_forms.maximize_scalar`), and `verify bernoulli-exact` loads `verify`
# (its exact sum runs on Python floats) and, for the optimal estimator,
# `phase_transition` and `closed_forms._interp`.  They and every `phase`
# analysis load neither numpy nor `dataclasses`.  `bayes-tilted --beta` and
# `bayes-delay` load `closed_forms`, and numpy, `core` and `divergences` to tilt.

def _alpha_rows(args, row) -> list[list]:
    return [row(float(a)) for a in _alpha_values(args)]


def _bayes_linear_rows(args) -> list[list]:
    from . import closed_forms

    model = closed_forms.LinearGaussianModel(args.sigma2, args.es, args.n0)
    def row(a):
        bv = closed_forms.linear_gaussian_min_lambda(model, a)
        return [a, bv.value, bv.argmax["estimator_coef"], bv.argmax["alpha_c"], bv.status]
    return _alpha_rows(args, row)


def _bayes_phase_rows(args) -> list[list]:
    from . import closed_forms

    if not args.n0 > 0:
        raise DomainError("n0 must be positive")
    def row(a):
        bv = closed_forms.phase_bound_large_sigma(a, args.sigma2, args.ex / args.n0)
        return [a, bv.value, bv.argmax.get("sigma2_q", math.nan), bv.argmax["alpha_c"], bv.status]
    return _alpha_rows(args, row)


def _tilted_rows(args) -> list[list]:
    from . import closed_forms

    prior = _load_prior(args)
    if args.beta is None:
        raise DomainError("supply --beta for bayes-tilted")
    def row(a):
        bv = closed_forms.tilted_prior_bound(prior, a, args.beta, args.es_over_n0, args.corr)
        return [a, args.beta, bv.value, bv.status]
    return _alpha_rows(args, row)


def _delay_rows(args) -> list[list]:
    from . import closed_forms

    if args.beta is not None and args.nu is None:
        raise DomainError("--beta needs --nu for bayes-delay: without --nu the search picks beta")
    prior = _load_prior(args)
    def row(a):
        bv = closed_forms.nu_bound(prior, a, beta=args.beta, nu=args.nu,
                                   omega0=args.omega0, ex=args.ex, n0=args.n0)
        return [a, bv.value, bv.argmax["nu"], bv.argmax["beta"], bv.status]
    return _alpha_rows(args, row)


def _ww_rows(args) -> list[list]:
    from . import closed_forms

    def row(a):
        bv = closed_forms.ww_rect_delay_bound(a, args.gamma, args.tau)
        return [a, args.gamma, args.tau, bv.value, bv.argmax.get("tau_tilde", math.nan),
                bv.diagnostics.get("nontrivial", False), bv.status]
    return _alpha_rows(args, row)


def _lpcb_rows(args) -> list[list]:
    from . import bayes_bounds

    alphas = _alpha_values(args)
    rows = []
    for snr in _float_list(args.snr, "--snr"):
        bvs = bayes_bounds.lpcb_sweep(
            alphas, args.beta, sigma2=args.sigma2, ex=snr * args.n0, n0=args.n0,
            sigma2_q=args.sigma2q, es=args.es, q_const=args.q_const, t_horizon=args.t_horizon)
        rows.extend([float(a), snr, bv.value, bv.argmax.get("beta", math.nan), bv.status]
                    for a, bv in zip(alphas, bvs))
    return rows


def _nonbayes_linear_rows(args) -> list[list]:
    from . import closed_forms

    def row(a):
        bv = closed_forms.scalar_linear_bound(a, args.es, args.n0)
        ml = closed_forms.scalar_ml_lambda(a, args.es, args.n0)
        return [a, bv.value, ml, bv.argmax["alpha_c"], bv.status]
    return _alpha_rows(args, row)


def _vector_rows(args) -> list[list]:
    import numpy as np

    from . import nonbayes_bounds

    if args.gamma_file is None:
        raise DomainError("supply --gamma-file for nonbayes-vector")
    model = nonbayes_bounds.VectorLinearModel(_load_csv(args.gamma_file, "gamma"),
                                              args.es, args.n0)
    vec = np.array(_float_list(args.alpha_vec, "--alpha-vec"))
    scales = _parse_sweep(args.scale_sweep, args.log) if args.scale_sweep else [1.0]
    def row(t):
        a = t * vec
        bv = nonbayes_bounds.vector_linear_bound(model, a)
        ml = nonbayes_bounds.vector_ml_lambda(model, a)
        return [t, bv.diagnostics["quad_form"], bv.value, ml, bv.status]
    return [row(float(t)) for t in scales]


def _nonlinear_rows(args) -> list[list]:
    from . import nonbayes_bounds

    unbounded = args.range == "unbounded"
    theta_range = (-math.inf, math.inf) if unbounded else tuple(_float_list(args.range, "--range"))
    if len(theta_range) != 2:
        raise DomainError(f"bad --range value {args.range!r}, expected lo,hi or 'unbounded'")
    if args.rho_gauss < 0:
        raise DomainError("--rho-gauss must be nonnegative, so that |rho| <= 1")
    profile = nonbayes_bounds.CorrelationProfile(
        ex=args.ex, theta_range=theta_range,
        rho_fn=lambda t, tt: math.exp(-args.rho_gauss * (t - tt) ** 2))
    def row(a):
        bv = nonbayes_bounds.nonlinear_bound(profile, a, args.theta, args.lnb, args.n0)
        return [a, bv.value, bv.argmax.get("theta_tilde", math.nan), bv.status]
    return _alpha_rows(args, row)


def _exponent_rows(args) -> list[list]:
    from . import phase_transition

    a_vals = _parse_sweep(args.a_sweep, args.log) if args.a_sweep else [args.a]
    return [[a, phase_transition.error_exponent(a)] for a in map(float, a_vals)]


def _estimator_rows(args) -> list[list]:
    from . import phase_transition

    _check_points(args.q_steps, "--q-steps")
    _, q_grid, curve = phase_transition.bernoulli_bayes_exponent(args.a, n_q=args.q_steps)
    return [[q, t] for q, t in zip(q_grid, curve)]


def _roots_rows(args) -> list[list]:
    from . import phase_transition

    params = phase_transition.CurieWeissParams(args.mu, args.a)
    return [[r.m, r.stable, r.dominant] for r in phase_transition.magnetization_roots(params)]


def _diagram_rows(args) -> list[list]:
    from . import phase_transition

    if not (args.mu_sweep and args.a_sweep):
        raise DomainError("supply --mu-sweep and --a-sweep for the phase diagram")
    n_mu, n_a = (_sweep_spec(text, args.log)[2] for text in (args.mu_sweep, args.a_sweep))
    _check_points(n_mu * n_a, "the phase diagram")
    mus, a_vals = _parse_sweep(args.mu_sweep, args.log), _parse_sweep(args.a_sweep, args.log)
    rows = []
    for mu in map(float, mus):
        for a in map(float, a_vals):
            lab = phase_transition.classify_phase(mu, a)
            rows.append([mu, a, "multicritical" if lab.multicritical else lab.phase.value,
                         lab.dominant_m])
    return rows


def _mc_rows(args) -> list[list]:
    from . import verify

    threshold = verify.divergence_threshold(args.model, args.estimator, args.sigma2, args.es,
                                            args.n0)
    alpha = args.alpha if args.alpha is not None else args.alpha_frac * threshold
    run = verify.MCRun(args.model, args.estimator, alpha=alpha,
                       n_samples=args.samples, master_seed=args.seed,
                       sigma2=args.sigma2, es=args.es, n0=args.n0)
    workers = 1 if args.threads is None else args.threads
    if workers < 1:
        raise DomainError(f"--threads must be at least 1, got {workers}")
    res = verify.mc_lambda(run, workers=workers)
    if res.heavy_tail:
        print(f"warning: tail-dominated estimate: max_share {res.max_share:.6g} exceeds "
              f"{verify._MAX_SHARE_WARN:g}; divergence threshold {res.threshold:.6g}",
              file=sys.stderr)
    return [[args.model, args.estimator, alpha, args.samples, args.seed,
             res.lambda_hat, res.se, res.max_share]]


def _bernoulli_rows(args) -> list[list]:
    from . import verify

    if args.estimator not in ("optimal", "plugin"):
        raise DomainError(f"bad --estimator {args.estimator!r} for bernoulli-exact, "
                          "expected optimal or plugin")
    est = lambda q: q
    if args.estimator == "optimal":
        from . import phase_transition
        from .closed_forms import _interp

        _, q_grid, curve = phase_transition.bernoulli_bayes_exponent(args.a)
        est = lambda q: _interp(q, q_grid, curve)
    lam = verify.bernoulli_exact_lambda(
        verify.BernoulliExact(n=args.n, a=args.a, theta=args.theta, estimator=est))
    return [[args.n, args.a, args.theta, args.estimator, lam, lam / args.n]]


def _certify_rows(args) -> list[list]:
    from . import verify

    rows, violated = verify.certify(args.samples, args.seed)
    print("FAIL: bound violation detected" if violated else "PASS: no bound violations",
          file=sys.stderr)
    return rows


# Each command declares each of its flags once: flag -> add_argument keywords.
# A choice's parser gets the flags its _COMMANDS row names, and --out and
# --config; a flag the choice does not read is a usage error.
_LOG = {"action": "store_true", "help": "log-spaced sweeps"}
_FLAGS = {
    "bound": {
        "alpha": {"type": float},
        "alpha-sweep": {},
        "log": _LOG,
        "sigma2": {"type": float, "default": 1.0},
        "sigma2q": {"type": float},
        "es": {"type": float, "default": 0.0},
        "ex": {"type": float, "default": 1.0},
        "n0": {"type": float, "default": 1.0},
        "snr": {"default": "0.1", "help": "Ex/N0; comma list sweeps curves"},
        "beta": {"type": float},
        "q-const": {"type": float, "default": 0.0},
        "t-horizon": {"type": float, "default": 1.0},
        "gamma": {"type": float, "default": 1.0},
        "tau": {"type": float, "default": 1.0},
        "prior": {"default": "gaussian:1.0",
                  "help": f"{_PRIOR_USAGE}: a Gaussian on N points over +-SPAN sd (default "
                          "10, 8193) or a theta,density CSV file, which also gives the flat "
                          "prior the retired uniform: spec gave; a tilt whose density at "
                          "an end of its support exceeds 1e-3 of its peak is rejected: a "
                          "flat prior, zero-padded or not, exits 3 at a fixed beta and "
                          "reads -inf,useless when beta is searched"},
        "es-over-n0": {"type": float, "default": 0.0},
        "corr": {"type": float, "default": 0.0},
        "alpha-c": {"action": "store_true",
                    "help": "report the tilted-family critical-factor upper bound"},
        "nu": {"type": float},
        "omega0": {"type": float, "default": 2 * math.pi},
        "gamma-file": {"help": "dense correlation matrix as CSV"},
        "alpha-vec": {"default": "1.0"},
        "scale-sweep": {},
        "theta": {"type": float, "default": 0.0},
        "lnb": {"type": float, "default": 0.5},
        "rho-gauss": {"type": float, "default": 4.0},
        "range": {"default": "0,1", "help": "theta range lo,hi or 'unbounded'"},
    },
    "phase": {
        "a": {"type": float, "default": 1.0},
        "a-sweep": {},
        "mu": {"type": float, "default": 0.0},
        "mu-sweep": {},
        "q-steps": {"type": int, "default": 201},
        "log": _LOG,
    },
    "verify": {
        "suite": {"choices": ["default"], "default": "default",
                  "help": "certification suite to run (only 'default' exists)"},
        "model": {"default": "lin-gauss"},
        "estimator": {},   # each check names its default in its _COMMANDS row
        "a": {"type": float, "default": 1.0, "help": "risk scale for the exact binomial sum"},
        "alpha": {"type": float},
        "alpha-frac": {"type": float, "default": 0.5,
                       "help": "alpha as a fraction of the divergence threshold"},
        "samples": {"type": int, "default": 100_000},
        "seed": {"type": int, "default": 0},
        "sigma2": {"type": float, "default": 1.0},
        "es": {"type": float, "default": 1.0},
        "n0": {"type": float, "default": 1.0},
        "n": {"type": int, "default": 200},
        "theta": {"type": float, "default": 0.3},
        "threads": {"type": int, "help": "worker threads (default 1)"},
    },
    "emit-plot": {
        "csv": {"required": True},
        "out-script": {"required": True},
        "clip": {"type": float, "default": 10.0,
                 "help": "ceiling for divergent values in the plot"},
    },
}
_EVERY_CHOICE = {"out": {"help": "output CSV path (default stdout)"},
                 "config": {"help": "key = value config file; flags win"}}
_ALPHA = ("alpha", "alpha-sweep", "log")

# command -> choice -> (CSV header, rows function, the flags it reads); the
# choices, their parsers and -h column lists and the emit-plot schemas all
# come from this table.  A flag given as (flag, default) takes that default.
# A row whose last cell is "violation" (a failed certify check) makes the
# command exit 4.
_COMMANDS = {
    "bound": {
        "bayes-linear": (("alpha", "bound", "estimator_coef", "alpha_c", "status"),
                         _bayes_linear_rows, (*_ALPHA, "sigma2", "es", "n0")),
        "bayes-phase": (("alpha", "bound", "sigma2_q", "alpha_c", "status"), _bayes_phase_rows,
                        (*_ALPHA, "sigma2", "ex", "n0")),
        "bayes-tilted": (("alpha", "beta", "bound", "status"), _tilted_rows,
                         (*_ALPHA, "prior", "beta", "es-over-n0", "corr", "alpha-c")),
        "bayes-delay": (("alpha", "bound", "nu", "beta", "status"), _delay_rows,
                        (*_ALPHA, "prior", "beta", "nu", "omega0", "ex", "n0")),
        "bayes-ww": (("alpha", "gamma", "tau", "bound", "tau_tilde", "nontrivial", "status"),
                     _ww_rows, (*_ALPHA, "gamma", "tau")),
        "bayes-lpcb": (("alpha", "snr", "bound", "beta_star", "status"), _lpcb_rows,
                       (*_ALPHA, "snr", "sigma2", "sigma2q", "es", "n0", "beta", "q-const",
                        "t-horizon")),
        "nonbayes-linear": (("alpha", "bound", "ml_lambda", "alpha_c", "status"),
                            _nonbayes_linear_rows, (*_ALPHA, "es", "n0")),
        "nonbayes-vector": (("scale", "quad_form", "bound", "ml_lambda", "status"), _vector_rows,
                            ("gamma-file", "alpha-vec", "scale-sweep", "log", "es", "n0")),
        "nonbayes-nonlinear": (("alpha", "bound", "theta_tilde", "status"), _nonlinear_rows,
                               (*_ALPHA, "range", "rho-gauss", "theta", "lnb", "ex", "n0")),
    },
    "phase": {
        "exponent": (("a", "exponent"), _exponent_rows, ("a", "a-sweep", "log")),
        "estimator": (("q", "theta_hat"), _estimator_rows, ("a", "q-steps")),
        "roots": (("m", "stable", "dominant"), _roots_rows, ("mu", "a")),
        "diagram": (("mu", "a", "label", "dominant_m"), _diagram_rows,
                    ("mu-sweep", "a-sweep", "log")),
    },
    "verify": {
        "mc": (("model", "estimator", "alpha", "n_samples", "seed", "lambda_hat", "se",
                "max_share"), _mc_rows,
               ("model", ("estimator", "cond-mean"), "alpha", "alpha-frac", "samples", "seed",
                "sigma2", "es", "n0", "threads")),
        "bernoulli-exact": (("n", "a", "theta", "estimator", "lambda_n", "lambda_per_n"),
                            _bernoulli_rows, ("n", "a", "theta", ("estimator", "plugin"))),
        "certify": (("check", "alpha", "bound", "truth", "margin", "status"), _certify_rows,
                    ("suite", "samples", "seed")),
    },
}


def _alpha_c_rows(args) -> list[list]:
    from . import bayes_bounds

    return [[bayes_bounds.alpha_c_upper(_load_prior(args))]]


# `bound bayes-tilted --alpha-c` reports the critical-factor certificate instead
_ALPHA_C = {"bayes-tilted": (("alpha_c_upper",), _alpha_c_rows)}


def _run_table(command: str, choice: str, args) -> int:
    header, rows, _ = _COMMANDS[command][choice]
    if choice in _ALPHA_C and args.alpha_c:
        header, rows = _ALPHA_C[choice]
    data = rows(args)
    _emit(args, header, data)
    return EXIT_VERIFY if any(row[-1] == "violation" for row in data) else EXIT_OK


# ------------------------------------------------------------- emit-plot ---

_PLOT_SCHEMAS = {  # CSV header -> plot kind
    _COMMANDS[command][choice][0]: kind for command, choice, kind in (
        ("bound", "bayes-lpcb", "lpcb"), ("phase", "exponent", "exponent"),
        ("phase", "estimator", "estimator"), ("phase", "diagram", "diagram"))
}


def _cmd_emit_plot(args) -> int:
    first, *rest = _read_text(args.csv, "CSV").splitlines() or [""]
    header = tuple(first.strip().split(","))
    body = [line for line in rest if line.strip() and not line.startswith("#")]
    kind = _PLOT_SCHEMAS.get(header)
    if kind is None:
        raise DomainError(f"unknown CSV schema {header!r}")
    for line in body:
        if len(line.split(",")) != len(header):
            raise DomainError(f"bad CSV row {line!r}: the header has {len(header)} columns")
    lines = [
        "# gnuplot script; run: gnuplot -persist <this file>",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        # gnuplot's escape for a quote inside '...' is a doubled quote
        "csv = '" + args.csv.replace("'", "''") + "'",
        "set key left top",
    ]
    if kind == "lpcb":
        snrs = sorted({line.split(",")[1] for line in body})
        colors = ["red", "blue", "green", "orange", "purple"]
        lines += [
            "set xlabel 'alpha'", "set ylabel 'bound [nats]'",
            f"set yrange [0:{args.clip}]",
            "plot " + ", \\\n     ".join(
                f"csv skip 1 using 1:(stringcolumn(2) eq '{snr}' ? $3 : NaN) "
                f"with lines lc rgb '{colors[i % len(colors)]}' title 'SNR {snr}'"
                for i, snr in enumerate(snrs)),
        ]
    elif kind == "exponent":
        lines += ["set xlabel 'a'", "set ylabel 'E(a)'",
                  "plot csv skip 1 using 1:2 with lines title 'exponent'"]
    elif kind == "estimator":
        lines += ["set xlabel 'q'", "set ylabel 'estimate'",
                  "plot csv skip 1 using 1:2 with lines title 'estimator'"]
    else:
        lines += ["set xlabel 'mu'", "set ylabel 'a'",
                  "plot csv skip 1 using 1:($4 > 0 ? $2 : NaN) with points pt 7 title 'positive m', \\",
                  "     csv skip 1 using 1:($4 < 0 ? $2 : NaN) with points pt 5 title 'negative m'"]
    text = "\n".join(lines) + "\n"
    with open(args.out_script, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out_script}", file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------- main ---

_CHOICE_NAMES = {"bound": "family", "phase": "analysis", "verify": "check"}


def _command_parser() -> argparse.ArgumentParser:
    """The command and its choice; the flags after them go to ``_choice_parser``."""
    parser = argparse.ArgumentParser(
        prog="riskbounds",
        description="Bounds on exponential moments of quadratic estimation error",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (("bound", "evaluate a lower bound"),
                               ("phase", "saddle exponent and spin-model analysis"),
                               ("verify", "Monte Carlo and exact verification")):
        name = _CHOICE_NAMES[command]
        p = sub.add_parser(command, help=help_text,
                           epilog=f"riskbounds {command} {name.upper()} -h lists the {name}'s "
                                  "flags and columns")
        p.add_argument(name, choices=list(_COMMANDS[command]))
        p.add_argument("flags", nargs=argparse.REMAINDER, help=f"the {name}'s flags")
    # no option prefix here, so that every token, -h too, reaches emit-plot's own parser
    p = sub.add_parser("emit-plot", help="write a gnuplot script for a CSV", prefix_chars="+",
                       add_help=False)
    p.add_argument("flags", nargs=argparse.REMAINDER)
    return parser


def _choice_parser(command: str, choice: str | None) -> argparse.ArgumentParser:
    """The parser of one choice: the flags it reads, then --out and --config."""
    specs = {**_FLAGS[command], **_EVERY_CHOICE}
    if choice is None:   # emit-plot writes a script, not a CSV
        parser = argparse.ArgumentParser(prog="riskbounds emit-plot")
        flags = (*_FLAGS[command], "config")
    else:
        header, _, flags = _COMMANDS[command][choice]
        columns = ",".join(header)
        if choice in _ALPHA_C:
            columns += "; with --alpha-c: " + ",".join(_ALPHA_C[choice][0])
        parser = argparse.ArgumentParser(prog=f"riskbounds {command} {choice}",
                                         epilog=f"columns: {columns}")
        flags = (*flags, *_EVERY_CHOICE)
    for flag in flags:
        flag, default = (flag, {}) if isinstance(flag, str) else (flag[0], {"default": flag[1]})
        parser.add_argument("--" + flag, **specs[flag], **default)
    return parser


def _misplaced_flag(argv: list[str]) -> str | None:
    """The usage error for a flag placed before the command or before its choice, if any.

    argparse would skip such a flag and report its value as a bad choice.
    """
    head = argv[:2] if argv and argv[0] in _CHOICE_NAMES else argv[:1]
    for i, token in enumerate(head):
        if token.startswith("--") and not "--help".startswith(token):
            flag = token.split("=", 1)[0]
            if i == 0:
                return (f"{flag} is placed before the command: flags must follow the command "
                        "and its choice")
            name = _CHOICE_NAMES[argv[0]]
            return f"{flag} is placed before the {name}: flags must follow the {name}"
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command_parser = _command_parser()
    misplaced = _misplaced_flag(argv)
    if misplaced:
        command_parser.error(misplaced)
    cmd = command_parser.parse_args(argv)
    name = _CHOICE_NAMES.get(cmd.command)
    choice = getattr(cmd, name) if name else None
    parser = _choice_parser(cmd.command, choice)
    args = parser.parse_args(cmd.flags)
    try:
        if args.config:
            # config flags go before the explicit ones, and argparse keeps the
            # last value it reads
            args = parser.parse_args(_config_flags(args) + cmd.flags)
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"--{key.replace('_', '-')} must be finite, got {value}")
        if choice is None:
            return _cmd_emit_plot(args)
        vars(args).update({"command": cmd.command, name: choice})   # for the echo
        return _run_table(cmd.command, choice, args)
    except (RiskBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
