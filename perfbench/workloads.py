"""The four benchmark workloads as lists of CLI commands, built from a seed.

Each workload is a closed loop: the benchmark process runs its commands in
order, each as a fresh ``python -m riskbounds.cli`` process, and starts the
next only when the previous one has ended.  The seed picks one of
``VARIANTS`` input variants; a variant fixes the Monte Carlo master seeds
and small offsets of the sweep endpoints, so the same seed always gives the
same argv and every variant has committed reference outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = 8

# default CSV headers, as riskbounds.cli prints them; the first four are the
# schemas `emit-plot` accepts
LPCB = ("alpha", "snr", "bound", "beta_star", "status")
EXPONENT = ("a", "exponent")
ESTIMATOR = ("q", "theta_hat")
DIAGRAM = ("mu", "a", "label", "dominant_m")
DELAY = ("alpha", "bound", "nu", "beta", "status")
TILTED = ("alpha", "beta", "bound", "status")
ALPHA_C = ("alpha_c_upper",)
MC = ("model", "estimator", "alpha", "n_samples", "seed", "lambda_hat", "se", "max_share")

# (rtol, atol) against the committed reference outputs.  Values default to
# DEFAULT_TOL; optimizer argmax columns sit on flat maxima and get ARGMAX_TOL;
# the saddle exponent and estimator curve get an absolute band that admits an
# exact kernel replacing the grid solver (about 1e-3 at a = 10) but not a
# wrong answer.
DEFAULT_TOL = (1e-6, 1e-9)
ARGMAX_TOL = (1e-3, 1e-6)
SADDLE_TOL = (0.0, 5e-3)

MC_SAMPLES = 2_000_000
MC_ALPHA_FRAC = 0.3   # 2 alpha var = 0.3: the weight exp(alpha e^2) has finite variance
GAMMA_CSV = "1.0,0.35\n0.35,1.0\n"


@dataclass(frozen=True)
class Command:
    """One CLI call and what its output must look like."""

    name: str                       # unique in the workload
    argv: tuple[str, ...]
    header: tuple[str, ...] = ()    # expected CSV header; empty for emit-plot
    rows: int = 1                   # expected data rows
    out: str | None = None          # file written through --out/--out-script
    tol: dict = field(default_factory=dict)   # column -> (rtol, atol)
    same_as: str | None = None      # data rows must equal this command's, bit for bit
    mc_var: float | None = None     # closed-form error variance of an MC pair

    @property
    def key(self) -> str:
        """Reference-data key: the argv, so seed-independent commands share one entry."""
        return " ".join(self.argv)


def variant(seed: int) -> int:
    return seed % VARIANTS


def _sweep(lo: float, hi: float, n: int) -> str:
    return f"{lo:.6g}:{hi:.6g}:{n}"


def _phase(k: int) -> list[Command]:
    d = 0.01 * k
    return [
        Command("exponent", ("phase", "exponent", "--a-sweep", _sweep(d, 6.0 - d, 4)),
                EXPONENT, 4, tol={"exponent": SADDLE_TOL}),
        Command("estimator", ("phase", "estimator", "--a", "10"),
                ESTIMATOR, 201, tol={"theta_hat": SADDLE_TOL}),
        Command("diagram", ("phase", "diagram", "--mu-sweep=" + _sweep(-0.9 + d, 0.9 - d, 16),
                            "--a-sweep", _sweep(d, 1.5 - d, 12)),
                DIAGRAM, 192),
    ]


def _tilt(k: int) -> list[Command]:
    d = 0.01 * k
    return [
        # the joint optimizer's work changes with alpha in whole descent sweeps,
        # so its alpha is the same for every seed
        Command("delay-joint", ("bound", "bayes-delay", "--prior", "gaussian:1.0", "--alpha", "0.6"),
                DELAY, 1, tol={"nu": ARGMAX_TOL, "beta": ARGMAX_TOL}),
        Command("delay-fixed-nu", ("bound", "bayes-delay", "--prior", "gaussian:1.0", "--nu", "0.5",
                                   "--alpha-sweep", _sweep(0.1 + d, 1.0 - d, 4)),
                DELAY, 4, tol={"beta": ARGMAX_TOL}),
        Command("tilted-fixed-beta", ("bound", "bayes-tilted", "--prior", "gaussian:1.0",
                                      "--beta", "0.8", "--es-over-n0", "0.5",
                                      "--alpha-sweep", _sweep(0.05 + d, 1.0 - d, 200)),
                TILTED, 200),
        Command("alpha-c", ("bound", "bayes-tilted", "--prior", "gaussian:0.5,30,8193", "--alpha-c"),
                ALPHA_C, 1),
    ]


def _cli_batch(k: int) -> list[Command]:
    d = 0.01 * k
    return [
        Command("lpcb-fig1", ("bound", "bayes-lpcb", "--alpha-sweep", "0.01:0.999:200",
                              "--sigma2", "0.5", "--snr", "0.001,0.01,0.1", "--out", "fig1.csv"),
                LPCB, 600, out="fig1.csv", tol={"beta_star": ARGMAX_TOL}),
        Command("emit-plot", ("emit-plot", "--csv", "fig1.csv", "--out-script", "fig1.gp"),
                out="fig1.gp"),
        Command("bayes-linear", ("bound", "bayes-linear", "--alpha-sweep", _sweep(0.1 + d, 2.0 - d, 50),
                                 "--sigma2", "0.5", "--es", "1", "--n0", "1"),
                ("alpha", "bound", "estimator_coef", "alpha_c", "status"), 50),
        Command("bayes-phase", ("bound", "bayes-phase", "--alpha-sweep", _sweep(0.1 + d, 0.9 - d, 50),
                                "--sigma2", "0.5", "--ex", "1", "--n0", "1"),
                ("alpha", "bound", "sigma2_q", "alpha_c", "status"), 50),
        Command("bayes-ww", ("bound", "bayes-ww", "--alpha-sweep", _sweep(0.1 + d, 2.0 - d, 50),
                             "--gamma", "1", "--tau", "1"),
                ("alpha", "gamma", "tau", "bound", "tau_tilde", "nontrivial", "status"), 50,
                tol={"tau_tilde": ARGMAX_TOL}),
        Command("nonbayes-linear", ("bound", "nonbayes-linear",
                                    "--alpha-sweep", _sweep(0.05 + d, 1.5 - d, 50), "--es", "1", "--n0", "1"),
                ("alpha", "bound", "ml_lambda", "alpha_c", "status"), 50),
        Command("nonbayes-vector", ("bound", "nonbayes-vector", "--gamma-file", "gamma.csv",
                                    "--es", "1", "--n0", "1", "--alpha-vec", "0.7,0.4",
                                    "--scale-sweep", _sweep(0.1 + d, 2.0 - d, 50)),
                ("scale", "quad_form", "bound", "ml_lambda", "status"), 50),
        Command("nonbayes-nonlinear", ("bound", "nonbayes-nonlinear",
                                       "--alpha-sweep", _sweep(0.01 + d, 1.0 - d, 20),
                                       "--theta", "0.5", "--lnb", "0.5", "--ex", "1", "--n0", "1",
                                       "--range", "0,1"),
                ("alpha", "bound", "theta_tilde", "status"), 20, tol={"theta_tilde": ARGMAX_TOL}),
        Command("phase-roots", ("phase", "roots", "--mu", "0.1", "--a", "0.8"),
                ("m", "stable", "dominant"), 3),
        Command("bernoulli-plugin", ("verify", "bernoulli-exact", "--n", "200", "--a", "1",
                                     "--theta", "0.3", "--estimator", "plugin"),
                ("n", "a", "theta", "estimator", "lambda_n", "lambda_per_n"), 1),
        Command("certify", ("verify", "certify", "--suite", "default", "--seed", str(100 + k)),
                ("check", "alpha", "bound", "truth", "margin", "status"), 24),
    ]


# (model, estimator, extra flags, closed-form error variance)
_MC_PAIRS = (
    ("lin-gauss", "cond-mean", ("--sigma2", "0.5", "--es", "1", "--n0", "1"),
     1.0 / (1.0 / 0.5 + 2.0 * 1.0 / 1.0)),
    ("lin-gauss", "zero", ("--sigma2", "0.5"), 0.5),
    ("phase-trivial", "zero", ("--sigma2", "0.5"), 0.5),
    ("nb-ml", "ml", ("--es", "1", "--n0", "1"), 1.0 / (2.0 * 1.0)),
)


def _mc(k: int) -> list[Command]:
    cmds = []
    for i, (model, est, flags, var) in enumerate(_MC_PAIRS):
        argv = ("verify", "mc", "--model", model, "--estimator", est, *flags,
                "--alpha-frac", str(MC_ALPHA_FRAC), "--samples", str(MC_SAMPLES),
                "--seed", str(1000 * (k + 1) + i))
        serial = f"{model}/{est}"
        cmds.append(Command(serial, argv, MC, 1, mc_var=var))
        cmds.append(Command(serial + "/threads2", argv + ("--threads", "2"), MC, 1,
                            same_as=serial, mc_var=var))
    return cmds


WORKLOADS = {
    "phase": _phase,
    "tilt": _tilt,
    "cli-batch": _cli_batch,
    "mc": _mc,
}


def build(workload: str, seed: int, work: Path) -> list[Command]:
    """Commands of one workload for this seed; writes their input files into ``work``."""
    (work / "gamma.csv").write_text(GAMMA_CSV)
    return WORKLOADS[workload](variant(seed))


def mc_exact_lambda(alpha: float, var: float) -> float:
    """ln E exp(alpha e^2) for a centred Gaussian error of variance ``var``."""
    return -0.5 * math.log(1.0 - 2.0 * alpha * var)
