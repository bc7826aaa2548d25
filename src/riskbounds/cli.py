"""Command-line interface: bounds, sweeps, phase analysis, verification.

Subcommands

* ``bound``   evaluate a bound family, optionally sweeping one variable
* ``phase``   saddle exponent, estimator curve, magnetization roots, diagram
* ``verify``  Monte Carlo / exact-sum checks and the certification battery
* ``emit-plot``  write a gnuplot script for a CSV produced by this tool

Output is CSV on stdout (or ``--out``): header first, then the effective
configuration echoed as ``#`` comment lines, then data rows.  ``+inf`` is
rendered as the literal ``inf``.  Sweeps use ``start:stop:steps`` syntax,
log-spaced with ``--log``.  A ``--config`` file of ``key = value`` lines
is read as ``--key=value`` flags placed before the explicit ones, so
explicit flags win and every config value is checked like its flag (a bad
one exits 2).  An on/off flag such as ``log`` takes ``true`` or ``false``;
a key the command has no flag for is ignored.  Each default is declared
once, in its ``add_argument``; ``verify --estimator`` defaults per check.
One table, ``_COMMANDS``, maps every bound family, phase analysis and
verify check to its CSV header and rows function.

Exit codes: 0 success, 2 usage error, 3 infeasible domain, 4 verification
failure.

Each command imports only the modules it runs, at the point of use: the
module itself loads argparse and the numpy-free ``errors``, linear sweeps
are spaced in plain Python by numpy's own ``linspace`` formula, and
``phase exponent``, ``phase roots``, ``phase diagram`` and ``emit-plot``
run without importing numpy at all.
"""

from __future__ import annotations

import argparse
import math
import os
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


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``np.linspace(start, stop, n)`` for n >= 2, bit for bit, without numpy.

    numpy's own formula: point i is i * step + start with step =
    (stop - start) / (n - 1), or i / (n - 1) * (stop - start) + start when
    step rounds to 0 (a subnormal span), and the last point is stop.
    """
    div, delta = n - 1, stop - start
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(n)]
    else:
        points = [i * step + start for i in range(n)]
    points[-1] = stop
    return points


def _parse_sweep(text: str, log: bool = False) -> list[float]:
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
        import numpy as np   # np.exp, not math.exp: the two round differently

        return np.exp(_linspace(math.log(start), math.log(stop), steps)).tolist()
    if not math.isfinite(stop - start):
        raise DomainError(f"bad sweep spec {text!r}: stop - start is beyond the float range")
    return _linspace(start, stop, steps)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise DomainError(f"bad {flag} value {text!r}, expected comma-separated numbers") from exc
    if not all(map(math.isfinite, values)):
        raise DomainError(f"bad {flag} value {text!r}: every number must be finite")
    return values


def _alpha_values(args) -> list[float]:
    if getattr(args, "alpha_sweep", None):
        return _parse_sweep(args.alpha_sweep, args.log)
    if getattr(args, "alpha", None) is not None:
        return [args.alpha]
    raise DomainError("supply --alpha or --alpha-sweep")


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line {raw.rstrip()!r}, expected key = value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The ``--config`` file's lines as ``--key=value`` flags of the parsed command.

    ``true`` and ``false`` on an on/off flag become the bare flag or
    nothing.  A key the command has no flag for is dropped here, so that
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
    skip = {"func", "out", "config"}
    items = sorted(
        (k, v) for k, v in vars(args).items()
        if k not in skip and v is not None and not callable(v)
    )
    return [f"# {k} = {_fmt(v)}" for k, v in items]


def _emit(args, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(_effective_config(args))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_PRIOR_USAGE = "gaussian:VAR[,SPAN,N] | uniform:LO,HI[,N] | CSV path"


def _prior_params(text: str, n_min: int, n_max: int) -> tuple[list[float], int | None]:
    """The n_min..n_max floats and the optional trailing grid size of ``kind:V1,...[,N]``."""
    parts = text.split(":", 1)[1].split(",")
    try:
        values = [float(v) for v in parts[:n_max]]
        n = int(parts[n_max]) if len(parts) > n_max else None
    except ValueError:
        values, n = [], None
    if (len(values) < n_min or len(parts) > n_max + 1 or (n is not None and n < 2)
            or not all(map(math.isfinite, values))):
        raise DomainError(f"bad --prior {text!r}, expected {_PRIOR_USAGE}")
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

    from .core import GridDensity, uniform_density

    text = args.prior
    if text.startswith("uniform:"):
        (lo, hi), n = _prior_params(text, 2, 2)
        return uniform_density(lo, hi, 4097 if n is None else n)
    if text.startswith("gaussian:"):
        (sigma2, *span), n = _prior_params(text, 1, 2)
        if not sigma2 > 0:
            raise DomainError(f"bad --prior {text!r}: the variance must be positive")
        half = (span[0] if span else 10.0) * math.sqrt(sigma2)
        theta = np.linspace(-half, half, 8193 if n is None else n)
        dens = np.exp(-(theta ** 2) / (2.0 * sigma2))
    else:
        data = _load_csv(text, "prior")
        if data.shape[1:] != (2,):
            raise DomainError("prior file must have two columns: theta, density")
        theta, dens = data[:, 0], data[:, 1]
    return GridDensity(theta, dens).normalized()


# ------------------------------------------------ bound, phase and verify ---
#
# Each rows function takes the parsed arguments and returns the data rows of
# one `bound` family, `phase` analysis or `verify` check; _COMMANDS pairs it
# with its header.  Each imports the modules it calls, so a command loads
# only those (`phase exponent`, `roots` and `diagram` load no numpy).

def _alpha_rows(args, row) -> list[list]:
    return [row(float(a)) for a in _alpha_values(args)]


def _bayes_linear_rows(args) -> list[list]:
    from . import bayes_bounds

    model = bayes_bounds.LinearGaussianModel(args.sigma2, args.es, args.n0)
    def row(a):
        bv = bayes_bounds.linear_gaussian_min_lambda(model, a)
        return [a, bv.value, bv.argmax["estimator_coef"], bv.argmax["alpha_c"], bv.status]
    return _alpha_rows(args, row)


def _bayes_phase_rows(args) -> list[list]:
    from . import bayes_bounds

    if not args.n0 > 0:
        raise DomainError("n0 must be positive")
    def row(a):
        bv = bayes_bounds.phase_bound_large_sigma(a, args.sigma2, args.ex / args.n0)
        return [a, bv.value, bv.argmax.get("sigma2_q", math.nan), bv.argmax["alpha_c"], bv.status]
    return _alpha_rows(args, row)


def _tilted_rows(args) -> list[list]:
    from . import bayes_bounds

    prior = _load_prior(args)
    if args.beta is None:
        raise DomainError("supply --beta for bayes-tilted")
    def row(a):
        bv = bayes_bounds.tilted_prior_bound(prior, a, args.beta, args.es_over_n0, args.corr)
        return [a, args.beta, bv.value, bv.status]
    return _alpha_rows(args, row)


def _delay_rows(args) -> list[list]:
    from . import delay_design

    if args.beta is not None and args.nu is None:
        raise DomainError("--beta needs --nu for bayes-delay: without --nu the search picks beta")
    prior = _load_prior(args)
    def row(a):
        bv = delay_design.nu_bound(prior, a, beta=args.beta, nu=args.nu,
                                   omega0=args.omega0, ex=args.ex, n0=args.n0)
        return [a, bv.value, bv.argmax["nu"], bv.argmax["beta"], bv.status]
    return _alpha_rows(args, row)


def _ww_rows(args) -> list[list]:
    from . import bayes_bounds

    def row(a):
        bv = bayes_bounds.ww_rect_delay_bound(a, args.gamma, args.tau)
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
    from . import nonbayes_bounds

    def row(a):
        bv = nonbayes_bounds.scalar_linear_bound(a, args.es, args.n0)
        ml = nonbayes_bounds.scalar_ml_lambda(a, args.es, args.n0)
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

    _, q_grid, curve = phase_transition.bernoulli_bayes_exponent(args.a, n_q=args.q_steps)
    return [[float(q), float(t)] for q, t in zip(q_grid, curve)]


def _roots_rows(args) -> list[list]:
    from . import phase_transition

    params = phase_transition.CurieWeissParams(args.mu, args.a)
    return [[r.m, r.stable, r.dominant] for r in phase_transition.magnetization_roots(params)]


def _diagram_rows(args) -> list[list]:
    from . import phase_transition

    if not (args.mu_sweep and args.a_sweep):
        raise DomainError("supply --mu-sweep and --a-sweep for the phase diagram")
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

    if args.estimator is None:
        args.estimator = "cond-mean"   # set here, so that the echo names it
    key = (args.model, args.estimator)
    if key not in verify.MODEL_THRESHOLDS:
        raise DomainError(f"unsupported model/estimator pair {key!r}")
    run0 = verify.MCRun(args.model, args.estimator, alpha=1e-9, n_samples=1000,
                        master_seed=0, sigma2=args.sigma2, es=args.es, n0=args.n0)
    threshold = verify.MODEL_THRESHOLDS[key](run0)
    alpha = args.alpha if args.alpha is not None else args.alpha_frac * threshold
    run = verify.MCRun(args.model, args.estimator, alpha=alpha,
                       n_samples=args.samples, master_seed=args.seed,
                       sigma2=args.sigma2, es=args.es, n0=args.n0)
    source = "RISKBOUNDS_THREADS" if args.threads is None else "--threads"
    try:
        workers = int(os.environ.get(source, "1")) if args.threads is None else args.threads
    except ValueError as exc:
        raise DomainError(f"{source} must be an integer") from exc
    if workers < 1:
        raise DomainError(f"{source} must be at least 1, got {workers}")
    res = verify.mc_lambda(run, workers=workers)
    if res.heavy_tail:
        print(f"warning: tail-dominated estimate: max_share {res.max_share:.6g} exceeds "
              f"{verify._MAX_SHARE_WARN:g}; divergence threshold {res.threshold:.6g}",
              file=sys.stderr)
    return [[args.model, args.estimator, alpha, args.samples, args.seed,
             res.lambda_hat, res.se, res.max_share]]


def _bernoulli_rows(args) -> list[list]:
    from . import verify

    if args.estimator is None:
        args.estimator = "plugin"   # set here, so that the echo names it
    if args.estimator not in ("optimal", "plugin"):
        raise DomainError(f"bad --estimator {args.estimator!r} for bernoulli-exact, "
                          "expected optimal or plugin")
    est = lambda q: q
    if args.estimator == "optimal":
        import numpy as np

        from . import phase_transition

        _, q_grid, curve = phase_transition.bernoulli_bayes_exponent(args.a)
        est = lambda q: float(np.interp(q, q_grid, curve))
    lam = verify.bernoulli_exact_lambda(
        verify.BernoulliExact(n=args.n, a=args.a, theta=args.theta, estimator=est))
    return [[args.n, args.a, args.theta, args.estimator, lam, lam / args.n]]


def _certify_rows(args) -> list[list]:
    from . import verify

    rows, violated = verify.certify(args.samples, args.seed)
    print("FAIL: bound violation detected" if violated else "PASS: no bound violations",
          file=sys.stderr)
    return rows


# command -> choice -> (CSV header, rows function); the choices, the -h column
# lists and the emit-plot schemas all come from this table.  A row whose last
# cell is "violation" (a failed certify check) makes the command exit 4.
_COMMANDS = {
    "bound": {
        "bayes-linear": (("alpha", "bound", "estimator_coef", "alpha_c", "status"),
                         _bayes_linear_rows),
        "bayes-phase": (("alpha", "bound", "sigma2_q", "alpha_c", "status"), _bayes_phase_rows),
        "bayes-tilted": (("alpha", "beta", "bound", "status"), _tilted_rows),
        "bayes-delay": (("alpha", "bound", "nu", "beta", "status"), _delay_rows),
        "bayes-ww": (("alpha", "gamma", "tau", "bound", "tau_tilde", "nontrivial", "status"),
                     _ww_rows),
        "bayes-lpcb": (("alpha", "snr", "bound", "beta_star", "status"), _lpcb_rows),
        "nonbayes-linear": (("alpha", "bound", "ml_lambda", "alpha_c", "status"),
                            _nonbayes_linear_rows),
        "nonbayes-vector": (("scale", "quad_form", "bound", "ml_lambda", "status"), _vector_rows),
        "nonbayes-nonlinear": (("alpha", "bound", "theta_tilde", "status"), _nonlinear_rows),
    },
    "phase": {
        "exponent": (("a", "exponent"), _exponent_rows),
        "estimator": (("q", "theta_hat"), _estimator_rows),
        "roots": (("m", "stable", "dominant"), _roots_rows),
        "diagram": (("mu", "a", "label", "dominant_m"), _diagram_rows),
    },
    "verify": {
        "mc": (("model", "estimator", "alpha", "n_samples", "seed", "lambda_hat", "se",
                "max_share"), _mc_rows),
        "bernoulli-exact": (("n", "a", "theta", "estimator", "lambda_n", "lambda_per_n"),
                            _bernoulli_rows),
        "certify": (("check", "alpha", "bound", "truth", "margin", "status"), _certify_rows),
    },
}

def _alpha_c_rows(args) -> list[list]:
    from . import bayes_bounds

    return [[bayes_bounds.alpha_c_upper(_load_prior(args))]]


# `bound bayes-tilted --alpha-c` reports the critical-factor certificate instead
_ALPHA_C = {"bayes-tilted": (("alpha_c_upper",), _alpha_c_rows)}


def _run_table(table: dict, choice: str, args) -> int:
    header, rows = table[choice]
    if getattr(args, "alpha_c", False):
        header, rows = _ALPHA_C.get(choice, (header, rows))
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
    with open(args.csv, "r", encoding="utf-8") as fh:
        header = tuple(fh.readline().strip().split(","))
        body = [line for line in fh if line.strip() and not line.startswith("#")]
    kind = _PLOT_SCHEMAS.get(header)
    if kind is None:
        raise DomainError(f"unknown CSV schema {header!r}")
    lines = [
        "# gnuplot script; run: gnuplot -persist <this file>",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"csv = '{args.csv}'",
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbounds",
        description="Bounds on exponential moments of quadratic estimation error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--config", help="key = value config file; flags win")
        p.add_argument("--log", action="store_true", help="log-spaced sweeps")

    def columns(headers):
        return "columns: " + "; ".join(f"{name} -> {','.join(h)}" for name, h in headers)

    def table_parser(command, dest, help_text, extra_columns=()):
        table = _COMMANDS[command]
        headers = [(name, header) for name, (header, _) in table.items()] + list(extra_columns)
        p = sub.add_parser(command, help=help_text, epilog=columns(headers))
        p.add_argument(dest, choices=list(table))
        p.set_defaults(func=lambda args: _run_table(table, getattr(args, dest), args))
        return p

    pb = table_parser("bound", "family", "evaluate a lower bound",
                      [(f"{name} --alpha-c", header) for name, (header, _) in _ALPHA_C.items()])
    pb.add_argument("--alpha", type=float)
    pb.add_argument("--alpha-sweep")
    pb.add_argument("--sigma2", type=float, default=1.0)
    pb.add_argument("--sigma2q", type=float)
    pb.add_argument("--es", type=float, default=0.0)
    pb.add_argument("--ex", type=float, default=1.0)
    pb.add_argument("--n0", type=float, default=1.0)
    pb.add_argument("--snr", default="0.1", help="Ex/N0; comma list sweeps curves")
    pb.add_argument("--beta", type=float)
    pb.add_argument("--q-const", type=float, default=0.0)
    pb.add_argument("--t-horizon", type=float, default=1.0)
    pb.add_argument("--gamma", type=float, default=1.0)
    pb.add_argument("--tau", type=float, default=1.0)
    pb.add_argument("--prior", default="gaussian:1.0", help=_PRIOR_USAGE)
    pb.add_argument("--es-over-n0", type=float, default=0.0)
    pb.add_argument("--corr", type=float, default=0.0)
    pb.add_argument("--alpha-c", action="store_true",
                    help="report the tilted-family critical-factor upper bound")
    pb.add_argument("--nu", type=float)
    pb.add_argument("--omega0", type=float, default=2 * math.pi)
    pb.add_argument("--gamma-file", help="dense correlation matrix as CSV")
    pb.add_argument("--alpha-vec", default="1.0")
    pb.add_argument("--scale-sweep")
    pb.add_argument("--theta", type=float, default=0.0)
    pb.add_argument("--lnb", type=float, default=0.5)
    pb.add_argument("--rho-gauss", type=float, default=4.0)
    pb.add_argument("--range", default="0,1", help="theta range lo,hi or 'unbounded'")
    common(pb)

    pp = table_parser("phase", "analysis", "saddle exponent and spin-model analysis")
    pp.add_argument("--a", type=float, default=1.0)
    pp.add_argument("--a-sweep")
    pp.add_argument("--mu", type=float, default=0.0)
    pp.add_argument("--mu-sweep")
    pp.add_argument("--q-steps", type=int, default=201)
    common(pp)

    pv = table_parser("verify", "check", "Monte Carlo and exact verification")
    pv.add_argument("--suite", choices=["default"], default="default",
                    help="certification suite to run (only 'default' exists)")
    pv.add_argument("--model", default="lin-gauss")
    pv.add_argument("--estimator")
    pv.add_argument("--a", type=float, default=1.0, help="risk scale for the exact binomial sum")
    pv.add_argument("--alpha", type=float)
    pv.add_argument("--alpha-frac", type=float, default=0.5,
                    help="alpha as a fraction of the divergence threshold")
    pv.add_argument("--samples", type=int, default=100_000)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--sigma2", type=float, default=1.0)
    pv.add_argument("--es", type=float, default=1.0)
    pv.add_argument("--n0", type=float, default=1.0)
    pv.add_argument("--n", type=int, default=200)
    pv.add_argument("--theta", type=float, default=0.3)
    pv.add_argument("--threads", type=int,
                    help="worker threads for mc (default: RISKBOUNDS_THREADS, else 1)")
    common(pv)

    pe = sub.add_parser("emit-plot", help="write a gnuplot script for a CSV")
    pe.add_argument("--csv", required=True)
    pe.add_argument("--out-script", required=True)
    pe.add_argument("--clip", type=float, default=10.0,
                    help="ceiling for divergent values in the plot")
    common(pe)
    pe.set_defaults(func=_cmd_emit_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags go before the explicit ones, and argparse keeps the
            # last value it reads; leftovers can only be config keys naming
            # no flag (a positional, say), since argv alone parsed cleanly
            at = argv.index(args.command) + 1
            args, _ = parser.parse_known_args(argv[:at] + _config_flags(args) + argv[at:])
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"--{key.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (RiskBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
