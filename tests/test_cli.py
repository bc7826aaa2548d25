"""CSV schemas, determinism, config files and exit codes of the CLI."""

import argparse
import ast
import contextlib
import importlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riskbounds
from riskbounds import cli, closed_forms
from riskbounds.cli import _COMMANDS, _choice_parser, main
from riskbounds.closed_forms import _linspace


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_any(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call, argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def data_rows(out: str) -> list[list[str]]:
    lines = [l for l in out.strip().splitlines()[1:] if not l.startswith("#")]
    return [l.split(",") for l in lines]


def header(out: str) -> str:
    return out.splitlines()[0]


@pytest.fixture(scope="module")
def flat_prior_csv(tmp_path_factory):
    """A flat prior on [0, 1] as a two-column `--prior` file."""
    path = tmp_path_factory.mktemp("prior") / "flat.csv"
    path.write_text("".join(f"{k / 64!r},1.0\n" for k in range(65)))
    return str(path)


class TestSchemas:
    def test_nonbayes_linear_value(self, capsys):
        code, out, _ = run_cli(["bound", "nonbayes-linear", "--alpha", "0.25",
                                "--es", "1", "--n0", "1"], capsys)
        assert code == 0
        assert header(out) == "alpha,bound,ml_lambda,alpha_c,status"
        row = data_rows(out)[0]
        assert float(row[1]) == pytest.approx(0.125, rel=1e-12, abs=0.0)

    def test_ww_constants(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-ww", "--alpha", "1",
                                "--gamma", "1", "--tau", "1"], capsys)
        assert code == 0
        assert header(out) == "alpha,gamma,tau,bound,tau_tilde,nontrivial,status"
        row = data_rows(out)[0]
        assert float(row[3]) == pytest.approx(0.2922, abs=1e-3)
        assert float(row[4]) == pytest.approx(1.1895, abs=1e-3)

    def test_lpcb_sweep_schema(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-lpcb", "--alpha-sweep", "0.1:0.9:5",
                                "--sigma2", "0.5", "--snr", "0.001"], capsys)
        assert code == 0
        assert header(out) == "alpha,snr,bound,beta_star,status"
        assert len(data_rows(out)) == 5

    def test_bayes_linear_inf_literal(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-linear", "--alpha", "2.0",
                                "--sigma2", "0.5", "--es", "0", "--n0", "1"], capsys)
        assert code == 0
        row = data_rows(out)[0]
        assert row[1] == "inf"
        assert row[-1] == "divergent"

    def test_phase_exponent_schema(self, capsys):
        code, out, _ = run_cli(["phase", "exponent", "--a", "1.0"], capsys)
        assert code == 0
        assert header(out) == "a,exponent"
        assert abs(float(data_rows(out)[0][1])) <= 1e-4

    def test_phase_roots_schema(self, capsys):
        code, out, _ = run_cli(["phase", "roots", "--mu", "0", "--a", "0.6"], capsys)
        assert code == 0
        assert header(out) == "m,stable,dominant"
        assert len(data_rows(out)) == 3

    def test_phase_diagram_multicritical(self, capsys):
        code, out, _ = run_cli(["phase", "diagram", "--mu-sweep=-0.5:0.5:3",
                                "--a-sweep", "0.3:0.7:3"], capsys)
        assert code == 0
        assert header(out) == "mu,a,label,dominant_m"
        rows = data_rows(out)
        labels = {(r[0], r[1]): r[2] for r in rows}
        assert labels[("0", "0.5")] == "multicritical"

    def test_verify_mc_schema(self, capsys):
        code, out, _ = run_cli(["verify", "mc", "--model", "lin-gauss",
                                "--estimator", "cond-mean", "--alpha-frac", "0.5",
                                "--samples", "10000", "--seed", "7",
                                "--sigma2", "0.5", "--es", "0"], capsys)
        assert code == 0
        assert header(out) == "model,estimator,alpha,n_samples,seed,lambda_hat,se,max_share"
        row = data_rows(out)[0]
        assert float(row[5]) == pytest.approx(0.5 * math.log(2), abs=0.05)

    def test_verify_mc_heavy_tail_goes_to_stderr(self, capsys):
        base = ["verify", "mc", "--model", "phase-trivial", "--estimator", "zero",
                "--sigma2", "0.5", "--samples", "1000"]
        code, out, err = run_cli(base + ["--alpha-frac", "0.5", "--seed", "4"], capsys)
        assert code == 0
        row = data_rows(out)[0]
        assert float(row[7]) > 0.01
        assert err.count("\n") == 1
        assert "tail-dominated" in err and "exceeds 0.01" in err
        assert f"max_share {float(row[7]):.6g}" in err
        assert "divergence threshold 1" in err
        assert len(data_rows(out)) == 1 and header(out).endswith(",se,max_share")
        code, out, err = run_cli(base + ["--alpha-frac", "0.3", "--seed", "0"], capsys)
        assert code == 0
        assert float(data_rows(out)[0][7]) < 0.01
        assert err == ""

    def test_verify_bernoulli_schema(self, capsys):
        code, out, _ = run_cli(["verify", "bernoulli-exact", "--n", "200",
                                "--a", "1.0", "--theta", "0.3"], capsys)
        assert code == 0
        assert header(out) == "n,a,theta,estimator,lambda_n,lambda_per_n"
        assert float(data_rows(out)[0][5]) == pytest.approx(0.00136, abs=5e-4)

    def test_bernoulli_default_estimator_is_the_plugin_it_echoes(self, capsys):
        base = ["verify", "bernoulli-exact", "--n", "50", "--a", "1.0", "--theta", "0.3"]
        code, out, err = run_cli(base, capsys)
        assert code == 0 and err == ""
        assert "# estimator = plugin" in out.splitlines()
        assert data_rows(out)[0][3] == "plugin"
        assert (code, out) == run_cli(base + ["--estimator", "plugin"], capsys)[:2]

    @pytest.mark.parametrize("estimator", ["bogus", "cond-mean"])
    def test_bernoulli_unknown_estimator_is_three(self, capsys, estimator):
        code, out, err = run_cli(["verify", "bernoulli-exact", "--n", "50",
                                  "--estimator", estimator], capsys)
        assert code == 3 and out == ""
        assert err == (f"error: bad --estimator {estimator!r} for bernoulli-exact, "
                       "expected optimal or plugin\n")


class TestDeterminismAndConfig:
    def test_identical_invocations_are_byte_identical(self, capsys):
        argv = ["bound", "bayes-lpcb", "--alpha-sweep", "0.1:0.9:7",
                "--sigma2", "0.5", "--snr", "0.01"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ["bound", "nonbayes-linear", "--alpha-sweep", "0.05:0.95:12", "--es", "1", "--n0", "1",
         "--threads", "2"],
        ["phase", "exponent", "--a-sweep", "0:3:4", "--threads", "2"],
        ["verify", "certify", "--samples", "1000", "--threads", "-3"],
        ["verify", "certify", "--samples", "1000", "--threads", "2"],
        ["verify", "bernoulli-exact", "--n", "50", "--threads", "-3"],
        ["verify", "bernoulli-exact", "--n", "50", "--threads", "2"],
    ])
    def test_threads_flag_exists_only_on_verify(self, capsys, argv):
        # only verify mc runs workers, so only it has --threads
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --threads {argv[-1]}" in capsys.readouterr().err

    def test_mc_threads_bit_identical(self, capsys):
        base = ["verify", "mc", "--model", "nb-ml", "--estimator", "ml",
                "--alpha", "0.3", "--samples", "50000", "--seed", "5"]
        _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
        _, out3, _ = run_cli(base + ["--threads", "3"], capsys)
        assert data_rows(out1) == data_rows(out3)

    def test_config_file_fills_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("es = 1\nn0 = 1\nalpha = 0.25\n")
        code, out, _ = run_cli(["bound", "nonbayes-linear", "--config", str(cfg)], capsys)
        assert code == 0
        assert float(data_rows(out)[0][1]) == pytest.approx(0.125)
        assert "# alpha = 0.25" in out

    def test_explicit_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.25\nes = 1\nn0 = 1\n")
        code, out, _ = run_cli(["bound", "nonbayes-linear", "--config", str(cfg),
                                "--alpha", "0.5"], capsys)
        assert code == 0
        assert float(data_rows(out)[0][1]) == pytest.approx(0.25)
        assert "# alpha = 0.5" in out

    @pytest.mark.parametrize("argv, line, want", [
        (["verify", "mc", "--model", "nb-ml", "--estimator", "ml"], "samples = 1e6", 2),
        (["phase", "estimator"], "q_steps = 2.5e2", 2),
        (["verify", "bernoulli-exact"], "n = 1e2", 2),
        (["verify", "mc"], "seed = abc", 2),
        (["verify", "certify"], "suite = other", 2),
        (["verify", "mc"], "threads = 2.5", 2),
        (["bound", "bayes-linear", "--alpha", "0.3"], "log = yes", 3),
    ])
    def test_bad_config_value_is_one_error_line(self, tmp_path, argv, line, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_any(argv + ["--config", str(cfg)])
        assert code == want and out == ""
        lines = err.splitlines()
        assert sum("error:" in l for l in lines) == 1 and "error:" in lines[-1]

    def test_bad_config_value_exits_two_even_under_an_explicit_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 1e6\n")
        code, out, err = run_any(["verify", "mc", "--model", "nb-ml", "--estimator", "ml",
                                  "--alpha", "0.3", "--samples", "1000", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert "argument --samples: invalid int value: '1e6'" in err

    def test_config_keys_naming_no_flag_are_ignored(self, tmp_path):
        # neither a prefix of a flag (thet, alpha_s) nor a positional's name
        # may set anything
        argv = ["bound", "nonbayes-linear", "--alpha", "0.25", "--es", "1"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 2\nthet = 9\nalpha_s = 0:1:3\nfamily = bayes-phase\nsamples = 10\n")
        assert run_any(argv + ["--config", str(cfg)]) == run_any(argv)

    def test_effective_config_echoed_as_comments(self, capsys):
        _, out, _ = run_cli(["bound", "nonbayes-linear", "--alpha", "0.25",
                             "--es", "1", "--n0", "1"], capsys)
        comment_lines = [l for l in out.splitlines() if l.startswith("#")]
        assert any(l == "# alpha = 0.25" for l in comment_lines)
        assert out.splitlines()[0].startswith("alpha,")  # header stays first

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "res.csv"
        code, out, _ = run_cli(["bound", "nonbayes-linear", "--alpha", "0.25",
                                "--es", "1", "--n0", "1", "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("alpha,bound")


def _src_env(**extra) -> dict:
    src = os.path.dirname(os.path.dirname(riskbounds.__file__))
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


_NO_SCIPY = """
import importlib, pkgutil, sys
import numpy as np

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
import riskbounds
for info in pkgutil.iter_modules(riskbounds.__path__):
    importlib.import_module("riskbounds." + info.name)
t = np.linspace(0.0, 1.0, 256)
problem = riskbounds.DelayDesignProblem(riskbounds.Waveform(t, np.sin(3.0 * t)), 30.0)
riskbounds.solve_reference_ode(problem)
assert riskbounds.cli.main(["verify", "certify"]) == 0
"""


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, each module imports, the reference solve runs and certify passes
    subprocess.run([sys.executable, "-c", _NO_SCIPY], check=True, env=_src_env(),
                   capture_output=True, timeout=120)


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures is imported only by a run that starts threads
    code = ("import riskbounds.cli, sys; "
            "riskbounds.cli.main(['verify', 'mc', '--model', 'nb-ml', '--estimator', 'ml', "
            "'--alpha', '0.3', '--samples', '1000', '--threads', '8']); "
            "assert 'concurrent' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, env=_src_env(), capture_output=True,
                   timeout=120)


def test_alpha_c_loads_no_masked_arrays():
    # alpha_c_upper takes its median without np.median, which imports numpy.ma
    code = ("import riskbounds.cli, sys; "
            "riskbounds.cli.main(['bound', 'bayes-tilted', '--prior', 'gaussian:1.0', "
            "'--alpha-c']); "
            "assert 'numpy.ma' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, env=_src_env(), capture_output=True,
                   timeout=120)


def test_sweeps_load_no_thread_pool():
    # sweeps run serially; only verify mc has a worker count
    code = ("import riskbounds.cli, sys; "
            "riskbounds.cli.main(['bound', 'nonbayes-linear', '--alpha-sweep', '0.05:0.95:12', "
            "'--es', '1', '--n0', '1']); "
            "assert 'concurrent' not in sys.modules")
    out = subprocess.run([sys.executable, "-c", code], check=True, env=_src_env(),
                         capture_output=True, text=True, timeout=120).stdout
    assert len(data_rows(out)) == 12


_NO_NUMPY = """
import sys

BLOCKED = ("numpy", "dataclasses", "inspect")

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BLOCKED:
            raise ImportError(name + " is blocked")
        return None

sys.meta_path.insert(0, NoNumpy())
import riskbounds
import riskbounds.cli
from riskbounds.cli import main

argvs = [
    ["phase", "exponent", "--a-sweep", "0:6:7", "--out", "fig3.csv"],
    ["phase", "diagram", "--mu-sweep=-0.9:0.9:5", "--a-sweep", "0:1.5:4"],
    ["phase", "roots", "--mu", "0.1", "--a", "0.8"],
    ["emit-plot", "--csv", "fig3.csv", "--out-script", "fig3.gp"],
    ["bound", "bayes-linear", "--alpha-sweep", "0.1:2:5", "--sigma2", "0.5", "--es", "1",
     "--out", "linear.csv"],
    ["bound", "bayes-phase", "--alpha-sweep", "0.1:1.5:4", "--sigma2", "0.5", "--out", "phase.csv"],
    ["bound", "bayes-ww", "--alpha-sweep", "0.1:5:4", "--out", "ww.csv"],
    ["bound", "nonbayes-linear", "--alpha-sweep", "0.1:2:4", "--es", "1", "--out", "nonbayes.csv"],
    ["bound", "nonbayes-nonlinear", "--alpha-sweep", "0.01:1:4", "--theta", "0.5", "--range", "0,1",
     "--out", "nonlinear.csv"],
    ["bound", "nonbayes-nonlinear", "--alpha", "0.001", "--range", "unbounded",
     "--out", "unbounded.csv"],
    ["phase", "estimator", "--a", "10", "--q-steps", "401", "--out", "fig2.csv"],
    # Newton stalls at q = 0.4 and the golden-section fallback runs
    ["phase", "estimator", "--a", "2.0833333333333335", "--out", "stall.csv"],
    *(["phase", "estimator", "--a", a] for a in ("0", "2.5", "1e300")),
    *(["verify", "bernoulli-exact", "--n", "200", "--a", "10", "--theta", "0.3",
       "--estimator", est, "--out", est + ".csv"] for est in ("plugin", "optimal")),
]
for argv in argvs:
    assert main(argv) == 0, argv
loaded = set(BLOCKED) & set(sys.modules)
assert not loaded, loaded
"""


def test_phase_and_emit_plot_run_without_numpy(tmp_path):
    # the package, the CLI module, every phase command, emit-plot, the
    # closed-form bound families, the nonlinear family with its callable rho
    # and both estimators of the exact Bernoulli sum import neither numpy nor
    # dataclasses nor inspect: with every import of them made to fail, all of
    # them run, and none of the three is loaded at the end
    subprocess.run([sys.executable, "-c", _NO_NUMPY], check=True, env=_src_env(), cwd=tmp_path,
                   capture_output=True, timeout=120)
    _, q_grid, curve = riskbounds.bernoulli_bayes_exponent(10.0)
    estimators = {"plugin": lambda q: q,
                  "optimal": lambda q: float(np.interp(q, q_grid, curve))}
    for est, fn in estimators.items():
        lam = riskbounds.bernoulli_exact_lambda(
            riskbounds.BernoulliExact(n=200, a=10.0, theta=0.3, estimator=fn))
        row = data_rows((tmp_path / f"{est}.csv").read_text())[0]
        assert row[3:] == [est, f"{lam:.12g}", f"{lam / 200:.12g}"]
    assert (tmp_path / "fig3.gp").is_file()
    assert len(data_rows((tmp_path / "fig2.csv").read_text())) == 401
    stall = dict(data_rows((tmp_path / "stall.csv").read_text()))
    assert stall["0.4"] == f"{riskbounds.asymptotic_estimator(0.4, 2.0833333333333335):.12g}"
    statuses = {name: [row[-1] for row in data_rows((tmp_path / f"{name}.csv").read_text())]
                for name in ("linear", "phase", "ww", "nonbayes", "nonlinear", "unbounded")}
    assert statuses == {"linear": ["ok"] * 4 + ["divergent"],
                        "phase": ["ok", "ok", "divergent", "divergent"],
                        "ww": ["ok"] + ["out_of_window"] * 3,
                        "nonbayes": ["ok", "ok", "divergent", "divergent"],
                        "nonlinear": ["ok"] * 4,
                        "unbounded": ["divergent"]}


def test_verify_mc_loads_no_bound_modules():
    # each command imports only what it runs: the MC check needs verify and core
    code = ("import riskbounds.cli, sys; "
            "assert riskbounds.cli.main(['verify', 'mc', '--model', 'nb-ml', '--estimator', 'ml', "
            "'--alpha', '0.3', '--samples', '1000']) == 0; "
            "loaded = {'riskbounds.bayes_bounds', 'riskbounds.divergences', "
            "'riskbounds.delay_design'} & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True, env=_src_env(), capture_output=True,
                   timeout=120)


def _imported_modules(argv) -> set[str]:
    """The modules that ``python -X importtime -m riskbounds.cli ARGV`` lists; it must exit 0."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "riskbounds.cli", *argv],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    return {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, family", [
    (["phase", "exponent", "--a", "3"], "riskbounds.phase_transition"),
    (["bound", "bayes-tilted", "--alpha", "0.3", "--beta", "1.0"], "riskbounds.closed_forms"),
])
def test_importtime_lists_the_family_module(argv, family):
    # -X importtime times only imports made through the import statement machinery,
    # so a family module loaded by the package's lazy names must still show up there
    modules = _imported_modules(argv)
    assert family in modules
    if argv[0] == "phase":
        assert not any(m == "numpy" or m.startswith("numpy.") for m in modules)


@pytest.mark.parametrize("argv, absent", [
    (["bound", "bayes-delay", "--prior", "gaussian:1.0", "--nu", "0.5", "--alpha", "0.3"],
     {"riskbounds.bayes_bounds", "riskbounds.delay_design", "dataclasses"}),
    (["bound", "bayes-delay", "--prior", "gaussian:1.0,10,1025", "--alpha", "0.3"],
     {"riskbounds.bayes_bounds", "riskbounds.delay_design", "dataclasses"}),
    (["bound", "bayes-tilted", "--beta", "0.8", "--alpha", "0.3"], {"riskbounds.bayes_bounds"}),
])
def test_tilt_bounds_load_neither_the_lpcb_nor_the_ode_module(argv, absent):
    # the tilt bounds live in closed_forms and read the prior's own tilt memo
    modules = _imported_modules(argv)
    assert "riskbounds.closed_forms" in modules
    assert not absent & modules


def test_every_public_name_resolves():
    # in a fresh process, where no name has been resolved yet: dir() lists
    # every public name and submodule, and each resolves on first access
    code = ("import sys, riskbounds; "
            "names = set(dir(riskbounds)); "
            "assert set(riskbounds.__all__) | {'core', 'verify', 'cli'} <= names; "
            "assert 'riskbounds.core' not in sys.modules; "
            "assert all(getattr(riskbounds, n) is not None for n in riskbounds.__all__); "
            "assert riskbounds.verify is sys.modules['riskbounds.verify']; "
            "assert not hasattr(riskbounds, 'no_such_name')")
    subprocess.run([sys.executable, "-c", code], check=True, env=_src_env(), capture_output=True,
                   timeout=120)


def test_public_name_lists_agree():
    # each name the package exports from a module is in that module's
    # __all__, and each __all__ entry exists, so retiring a name must
    # clear it from both lists
    for name, module in riskbounds._EXPORTS.items():
        mod = importlib.import_module(f"riskbounds.{module}")
        assert name in getattr(mod, "__all__", (name,)), (module, name)
    for module in riskbounds._SUBMODULES:
        mod = importlib.import_module(f"riskbounds.{module}")
        assert all(hasattr(mod, n) for n in getattr(mod, "__all__", ())), module


def test_exceptions_are_one_set_of_classes():
    import riskbounds.errors

    for name in riskbounds.errors.__all__:
        assert getattr(riskbounds, name) is getattr(riskbounds.errors, name)


SRC = Path(riskbounds.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _sibling_imports(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, sibling module, bound name) of every ``from .x import`` binding of a module."""
    return [(node.lineno, node.module or "", alias.asname or alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_every_name_imported_from_a_sibling_is_read(monkeypatch):
    # a name lives in the module that defines it and in the modules that
    # read it; the one exception is a binding that perfbench's tracer looks
    # up by module, a LAYERS entry naming a function defined elsewhere
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    unread = []
    for module, tree in _modules().items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        traced = set(tracer.LAYERS.get(module, ())) - defined
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{module}.py:{line} {name}" for line, _, name in _sibling_imports(tree)
                   if name not in read and name not in traced]
    assert unread == []


def _numpy_random_reads(tree: ast.Module) -> list[int]:
    """Lines of a module that read numpy's random: an import of it, or ``np.random``."""
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = node.level == 0 and (module.startswith("numpy.random") or module == "numpy"
                                       and any(alias.name == "random" for alias in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in numpy_names)
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_verify_reads_numpy_random():
    # every bound is a deterministic function of its inputs: the Monte Carlo
    # oracle in verify is the one module that draws random numbers
    modules = _modules()
    assert _numpy_random_reads(modules["verify"])
    reads = {f"{module}.py": lines for module, tree in modules.items()
             if module != "verify" and (lines := _numpy_random_reads(tree))}
    assert reads == {}


def test_every_relative_approx_states_its_absolute_tolerance():
    # pytest.approx(x, rel=r) keeps a default absolute tolerance of 1e-12, so
    # a value near 1e-11 given rel alone is checked at about 10%
    loose = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "approx" in (getattr(node.func, "attr", None),
                                                           getattr(node.func, "id", None)):
                given_names = {k.arg for k in node.keywords}
                if "rel" in given_names and "abs" not in given_names:
                    loose.append(f"{path.name}:{node.lineno}")
    assert loose == []


def _closed_form_names() -> list[str]:
    """closed_forms' public names and every name another module imports from it."""
    imported = {name for tree in _modules().values()
                for _, module, name in _sibling_imports(tree) if module == "closed_forms"}
    return sorted(set(closed_forms.__all__) | imported)


@pytest.mark.parametrize("name", _closed_form_names())
def test_closed_forms_are_one_set_of_objects(name):
    # every module that binds a closed_forms name binds closed_forms' own
    # object, and the package exports it from closed_forms
    obj = getattr(closed_forms, name)
    for module in (*riskbounds._SUBMODULES, "_curve"):
        mod = importlib.import_module(f"riskbounds.{module}")
        assert getattr(mod, name, obj) is obj, module
    if name in riskbounds._EXPORTS:
        assert riskbounds._EXPORTS[name] == "closed_forms"
        assert getattr(riskbounds, name) is obj


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "no-such-family"])
        assert exc.value.code == 2

    def test_domain_error_is_three(self, capsys):
        code, _, err = run_cli(["bound", "nonbayes-linear", "--alpha", "0.25",
                                "--es", "-1", "--n0", "1"], capsys)
        assert code == 3
        assert err.strip().startswith("error:")

    @pytest.mark.parametrize("rows, message", [
        ([(k, 1e308) for k in range(33)], "density integrates to inf and cannot be normalized"),
        ([(k * 1e-320, 1.0) for k in range(33)], "density must be finite"),
    ])
    def test_prior_beyond_float_range_prints_only_the_error(self, tmp_path, rows, message):
        # numpy overflows while normalizing these priors; no RuntimeWarning may reach stderr
        path = tmp_path / "prior.csv"
        path.write_text("".join(f"{t!r},{p!r}\n" for t, p in rows))
        done = subprocess.run([sys.executable, "-m", "riskbounds.cli", "bound", "bayes-tilted",
                               "--alpha-c", "--prior", str(path)],
                              env=_src_env(), capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error: {message}\n")

    def test_bad_sweep_is_three(self, capsys):
        code, _, err = run_cli(["bound", "nonbayes-linear", "--alpha-sweep", "0.1:0.9:1",
                                "--es", "1", "--n0", "1"], capsys)
        assert code == 3

    def test_divergence_refusal_surfaced(self, capsys):
        code, _, err = run_cli(["verify", "mc", "--model", "lin-gauss",
                                "--estimator", "cond-mean", "--alpha-frac", "0.95",
                                "--samples", "1000", "--seed", "0",
                                "--sigma2", "0.5", "--es", "0"], capsys)
        assert code == 3
        assert "threshold" in err

    def test_alpha_frac_cap_is_the_thresholds_own_float(self, capsys):
        # the --alpha-frac alpha and mc_lambda's 80% cap read one threshold,
        # LinearGaussianModel(0.5, 1, 1).alpha_c() = 2: 0.8 of it runs and the
        # next float above 0.8 is refused
        argv = ["verify", "mc", "--model", "lin-gauss", "--estimator", "cond-mean",
                "--sigma2", "0.5", "--es", "1", "--samples", "1000", "--alpha-frac"]
        code, out, _ = run_cli(argv + ["0.8"], capsys)
        assert code == 0
        assert float(data_rows(out)[0][2]) == 1.6
        code, out, err = run_cli(argv + [repr(math.nextafter(0.8, 1.0))], capsys)
        assert (code, out) == (3, "")
        assert "exceeds 80% of the divergence threshold 2;" in err

    @pytest.mark.parametrize("bad", [["--seed", "-1"],
                                     ["--seed", "1", "--alpha-frac", "nan"],
                                     ["--seed", "1", "--sigma2", "nan"]])
    def test_bad_mc_inputs_are_three(self, capsys, bad):
        argv = ["verify", "mc", "--model", "lin-gauss", "--estimator", "zero",
                "--sigma2", "0.5", "--alpha-frac", "0.3", "--samples", "1000"]
        code, out, err = run_cli(argv + bad, capsys)
        assert code == 3
        assert err.strip().startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("env", ["two", "0"])
    def test_thread_variable_is_not_read(self, capsys, monkeypatch, env):
        # --threads is the only worker setting, absent meaning 1
        monkeypatch.setenv("RISKBOUNDS_THREADS", env)
        argv = ["verify", "mc", "--model", "nb-ml", "--estimator", "ml", "--alpha", "0.3",
                "--samples", "1000"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        monkeypatch.delenv("RISKBOUNDS_THREADS")
        assert run_cli(argv, capsys)[1] == out

    @pytest.mark.parametrize("flag, env, source, count", [
        (["--threads", "-3"], None, "--threads", "-3"),
        (["--threads", "0"], "2", "--threads", "0"),
    ])
    def test_worker_count_below_one_is_three(self, capsys, monkeypatch, flag, env, source, count):
        if env is None:
            monkeypatch.delenv("RISKBOUNDS_THREADS", raising=False)
        else:
            monkeypatch.setenv("RISKBOUNDS_THREADS", env)
        code, out, err = run_cli(["verify", "mc", "--model", "nb-ml", "--estimator", "ml",
                                  "--alpha", "0.3", "--samples", "1000"] + flag, capsys)
        assert code == 3 and out == ""
        assert err == f"error: {source} must be at least 1, got {count}\n"

    def test_mc_statistic_beyond_float_range_is_three(self, capsys):
        # theta * es overflows, so lambda_hat is far past ln(max float)
        code, out, err = run_cli(["verify", "mc", "--model", "lin-gauss",
                                  "--estimator", "cond-mean", "--sigma2", "0.5",
                                  "--es", "1e300", "--n0", "1", "--samples", "50000"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "beyond float range" in err

    @pytest.mark.filterwarnings("error")
    def test_mc_overflow_warns_nothing_before_its_error(self, capsys):
        # theta * es overflows and the estimator coefficient underflows to 0,
        # so the errors are NaN: numpy's warnings must not precede the error
        code, out, err = run_cli(["verify", "mc", "--samples", "1000", "--sigma2", "1e300",
                                  "--es", "1e300", "--n0", "1e300"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, what, n", [
        (["bound", "bayes-linear", "--alpha-sweep", f"1:2:{10 ** 14}"], f"sweep '1:2:{10 ** 14}'",
         10 ** 14),
        (["bound", "nonbayes-linear", "--alpha-sweep", f"1:2:{10 ** 14}", "--log"],
         f"sweep '1:2:{10 ** 14}'", 10 ** 14),
        (["phase", "estimator", "--a", "3", "--q-steps", str(10 ** 14)], "--q-steps", 10 ** 14),
        # each sweep is below the limit, the grid they span is not
        (["phase", "diagram", "--mu-sweep", "0:0.5:10000", "--a-sweep", "0.1:2:1001"],
         "the phase diagram", 10_010_000),
    ], ids=["sweep", "log-sweep", "q-steps", "diagram"])
    def test_oversized_grid_is_three_before_any_point_is_made(self, argv, what, n, monkeypatch):
        def no_points(*_):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(closed_forms, "_linspace", no_points)
        code, out, err = run_any(argv)
        assert (code, out) == (3, "")
        assert err == f"error: {what} has {n} points, more than the 10000000 allowed\n"

    @pytest.mark.parametrize("family, prior", [
        (["bayes-tilted", "--beta", "0.8", "--alpha", "0.3"], "gaussian:1.0,1,100000000000"),
        (["bayes-tilted", "--alpha-c"], "gaussian:1.0,10,10000001"),
        (["bayes-delay", "--alpha", "0.3"], "gaussian:1.0,10,100000000000"),
    ])
    def test_oversized_prior_grid_is_three_before_any_array_is_made(self, family, prior,
                                                                     monkeypatch):
        def no_points(*_, **__):
            raise AssertionError("a grid was built")

        for module in ("bayes_bounds", "delay_design"):   # their import builds grids of its own
            importlib.import_module(f"riskbounds.{module}")
        monkeypatch.setattr(np, "linspace", no_points)
        code, out, err = run_any(["bound", family[0], "--prior", prior, *family[1:]])
        assert (code, out) == (3, "")
        n = int(prior.rsplit(",", 1)[1])
        assert err == (f"error: the grid of --prior {prior!r} has {n} points, "
                       "more than the 10000000 allowed\n")

    def test_sweep_point_limit_is_ten_million(self):
        assert cli._sweep_spec("0:1:10000000", False) == (0.0, 1.0, 10 ** 7)
        with pytest.raises(riskbounds.DomainError):
            cli._sweep_spec("0:1:10000001", False)

    def test_estimator_q_grid_has_a_minimum(self, capsys):
        code, out, err = run_cli(["phase", "estimator", "--a", "3", "--q-steps", "100"], capsys)
        assert code == 3 and out == ""
        assert err == "error: the q grid must have at least 101 points\n"
        code, out, _ = run_cli(["phase", "estimator", "--a", "3", "--q-steps", "101"], capsys)
        assert code == 0
        assert len(data_rows(out)) == 101

    @pytest.mark.parametrize("argv, flag, choice", [
        (["bound", "--alpha", "0.3", "bayes-linear"], "--alpha", "family"),
        (["phase", "--a=3", "exponent"], "--a", "analysis"),
        (["verify", "--samples", "1000", "certify"], "--samples", "check"),
    ])
    def test_flag_before_the_choice_names_the_flag(self, argv, flag, choice):
        # argparse alone would skip the flag and call its value a bad choice
        code, out, err = run_any(argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (f"riskbounds: error: {flag} is placed before the "
                                        f"{choice}: flags must follow the {choice}")
        assert "invalid choice" not in err

    def test_flag_before_the_command_names_the_flag(self):
        code, out, err = run_any(["--alpha", "0.3", "bound", "bayes-linear"])
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == ("riskbounds: error: --alpha is placed before the command: "
                                        "flags must follow the command and its choice")

    def test_exponent_reads_no_q_grid(self):
        # E(a) is in closed form, so phase exponent has no --q-steps
        code, out, err = run_any(["phase", "exponent", "--a", "3", "--q-steps", "50"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --q-steps 50" in err

    @pytest.mark.parametrize("bad", [["--sigma2q", "0"], ["--n0", "0"], ["--snr", "abc"],
                                     ["--snr", "nan"], ["--alpha-sweep", "nan:1:3"]])
    def test_bad_lpcb_inputs_are_three(self, capsys, bad):
        argv = ["bound", "bayes-lpcb", "--alpha-sweep", "0.1:0.9:3", "--sigma2", "0.5"]
        code, out, err = run_cli(argv + bad, capsys)
        assert code == 3
        assert err.strip().startswith("error:") and "NaN at every point" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["bound", "nonbayes-nonlinear", "--alpha", "0.5", "--range", "abc"],
        ["bound", "nonbayes-nonlinear", "--alpha", "0.5", "--range", "0,1,2"],
        ["bound", "bayes-tilted", "--prior", "gaussian:abc", "--beta", "0.5", "--alpha", "0.3"],
        ["bound", "bayes-tilted", "--prior", "gaussian:-1", "--beta", "0.5", "--alpha", "0.3"],
        ["bound", "bayes-tilted", "--prior", "gaussian:1,10,-3", "--beta", "0.5", "--alpha", "0.3"],
        ["bound", "bayes-delay", "--prior", "gaussian:", "--alpha", "0.5"],
    ])
    def test_bad_range_and_prior_text_is_three(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_bad_alpha_vec_is_three(self, capsys, tmp_path):
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("1.0,0.35\n0.35,1.0\n")
        code, out, err = run_cli(["bound", "nonbayes-vector", "--gamma-file", str(gamma),
                                  "--es", "1", "--alpha-vec", "0.7,abc"], capsys)
        assert code == 3 and out == ""

    def test_large_lpcb_signal_mean_is_a_row(self, capsys):
        # the Renyi term's Gaussian moment exceeds the float range before its
        # logarithm does; the bound is computed from the logarithm
        code, out, _ = run_cli(["bound", "bayes-lpcb", "--alpha", "0.5", "--sigma2", "0.5",
                                "--es", "1", "--q-const", "1000"], capsys)
        assert code == 0
        assert math.isfinite(float(data_rows(out)[0][2]))

    @pytest.mark.parametrize("flags, row", [
        (["--beta", "1e-300", "--es", "1"], ["0.5", "0", "-inf", "1e-300", "useless"]),
        # es = ex = q_const = 0: the Renyi term is 0 and the bound is ln(2) / 2
        (["--beta", "1e-200", "--es", "0"], ["0.5", "0", "0.34657359028", "1e-200", "ok"]),
        (["--beta", "5e-324", "--es", "0"], ["0.5", "0", "0.34657359028", "4.94065645841e-324",
                                             "ok"]),
    ])
    def test_tiny_lpcb_split_reads_no_nan(self, capsys, flags, row):
        code, out, err = run_cli(["bound", "bayes-lpcb", "--alpha", "0.5", "--sigma2", "0.5",
                                  "--snr", "0", *flags], capsys)
        assert code == 0 and err == ""
        assert data_rows(out) == [row]

    def test_lpcb_alpha_below_the_split_search_is_three(self, capsys):
        # the split bracket starts at 1e-6 alpha, which underflows to 0 here
        code, out, err = run_cli(["bound", "bayes-lpcb", "--alpha", "1e-320", "--sigma2", "0.5"],
                                 capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: alpha = 1e-320 is below ") and len(err.splitlines()) == 1
        assert "bracket needs lo > 0" not in err
        smallest = float(err.split(" is below ")[1].split(",")[0])
        code, out, _ = run_cli(["bound", "bayes-lpcb", "--alpha", repr(smallest),
                                "--sigma2", "0.5"], capsys)
        assert code == 0 and data_rows(out)[0][-1] == "ok"
        code, _, _ = run_cli(["bound", "bayes-lpcb", "--alpha", repr(math.nextafter(smallest, 0)),
                              "--sigma2", "0.5"], capsys)
        assert code == 3

    @pytest.mark.parametrize("flags", [
        ["--sigma2", "1e-300", "--sigma2q", "1e300"],   # sigma2 / sigma2q underflows to 0
        ["--sigma2", "0.5", "--es", "1e10", "--n0", "1e-300"],   # es / n0 overflows to inf
        ["--sigma2", "0.5", "--es", "1e100", "--q-const", "1e100"],   # (a b)^2 overflows
    ])
    def test_lpcb_terms_beyond_float_range_read_useless(self, capsys, flags):
        code, out, err = run_cli(["bound", "bayes-lpcb", "--alpha", "0.5", "--snr", "0",
                                  *flags], capsys)
        assert code == 0 and err == ""
        row = data_rows(out)[0]
        assert (row[2], row[4]) == ("-inf", "useless")

    @pytest.mark.filterwarnings("error")
    def test_lpcb_ratio_beyond_float_range_matches_the_log_form(self, capsys):
        # sigma2 / sigma2q = R = 1e600 and 2 A sigma2 overflow (at R = 1e616, 2 sigma2
        # too), yet the Renyi term of order a = alpha / beta is finite:
        # 0.5 ln R - 0.5 ln(a) / (a - 1) in logs
        for e in (300, 308):
            code, out, err = run_cli(["bound", "bayes-lpcb", "--alpha", "0.5", "--snr", "0",
                                      "--sigma2", f"1e{e}", "--sigma2q", f"1e-{e}"], capsys)
            assert code == 0 and err == ""
            _, _, bound, beta, status = data_rows(out)[0]
            a = 0.5 / float(beta)
            renyi = 0.5 * 2 * e * math.log(10.0) - 0.5 * math.log1p(a - 1.0) / (a - 1.0)
            # the first term of the bound is alpha / (2 alpha_c), at most 5e-301 here
            assert status == "ok" and float(bound) == pytest.approx(-renyi, abs=1e-6), e

    def test_certify_passes_cleanly(self, capsys):
        code, out, err = run_cli(["verify", "certify", "--samples", "20000",
                                  "--seed", "1"], capsys)
        assert code == 0
        assert "PASS" in err
        assert header(out) == "check,alpha,bound,truth,margin,status"
        assert all(r[-1] == "ok" for r in data_rows(out))

    def test_certify_violation_row_exits_four(self, capsys, monkeypatch):
        # the verdict is read from the battery's rows: a violation exits 4
        from riskbounds import verify

        row = ["bayes-generic-vs-exact", 0.1, 2.0, 1.0, -1.0, "violation"]
        monkeypatch.setattr(verify, "certify", lambda samples, seed: ([row], True))
        code, out, err = run_cli(["verify", "certify"], capsys)
        assert code == 4
        assert err == "FAIL: bound violation detected\n"
        assert data_rows(out) == [["bayes-generic-vs-exact", "0.1", "2", "1", "-1", "violation"]]


# sweep endpoints: ordinary values, float-range extremes, subnormals and zeros
_SWEEP_ENDS = st.one_of(
    st.floats(-1e308, 1e308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)


_UNDERFLOWING_GAIN = ("error: sigma2 es + n0 / 2 underflows to 0: the estimator gain "
                      "is beyond float range\n")


class TestClosedFormEdges:
    @pytest.mark.parametrize("argv", [
        ["bound", "bayes-linear", "--alpha", "0.5", "--sigma2", "0.5", "--es", "0",
         "--n0", "5e-324"],
        ["verify", "mc", "--model", "lin-gauss", "--estimator", "cond-mean", "--es", "0",
         "--n0", "5e-324", "--samples", "1000"],
    ])
    def test_underflowing_gain_denominator_is_three(self, capsys, argv):
        # sigma2 es + n0 / 2 rounds to 0, so the conditional-mean gain has no float value
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert err == _UNDERFLOWING_GAIN

    def test_phase_bound_where_two_alpha_overflows(self, capsys):
        # 2 alpha is beyond float range, 2 alpha sigma2 is not
        code, out, _ = run_cli(["bound", "bayes-phase", "--alpha", "1e308", "--sigma2", "5e-324"],
                               capsys)
        assert code == 0
        assert data_rows(out) == [["1e+308", "-1", "4.94065645841e-324", "inf", "ok"]]

    @pytest.mark.parametrize("alpha, gamma", [(1e300, 1e103), (1.0, 1e200)])
    def test_ww_bound_where_gamma_cubed_overflows(self, capsys, alpha, gamma):
        # gamma^3 is beyond float range, tau_tilde = (gamma^3 sqrt(tau) / (0.648 alpha))^0.4
        # is not; the value is gamma (2.5 sqrt(tau / tau_tilde) - 2) at the optimum (at
        # gamma = 1e200 tau_tilde^2 overflows too, and the value is formed that way)
        code, out, _ = run_cli(["bound", "bayes-ww", "--alpha", repr(alpha), "--gamma", repr(gamma),
                                "--tau", "1"], capsys)
        assert code == 0
        (row,) = data_rows(out)
        tau_tilde = math.exp(0.4 * (3.0 * math.log(gamma) - math.log(0.648 * alpha)))
        assert float(row[4]) == pytest.approx(tau_tilde, rel=1e-11, abs=0.0)   # 12 printed digits
        want = gamma * (2.5 * math.sqrt(1.0 / tau_tilde) - 2.0)
        assert float(row[3]) == pytest.approx(want, rel=1e-11, abs=0.0)
        assert row[5:] == ["false", "ok"]

    def test_ww_tau_tilde_beyond_float_range_is_three(self, capsys):
        code, out, err = run_cli(["bound", "bayes-ww", "--alpha", "1e-300", "--gamma", "1e300",
                                  "--tau", "1"], capsys)
        assert code == 3 and out == ""
        assert err == "error: gamma^3 sqrt(tau) / alpha is beyond float range\n"

    def test_nonlinear_bound_where_the_objective_overflows(self, tmp_path):
        # alpha L and alpha (theta - theta_tilde)^2 are beyond float range:
        # the supremum is +inf, with no warning on stderr
        argv = ["bound", "nonbayes-nonlinear", "--alpha", "1e150", "--theta", "1e150",
                "--lnb", "1.7e308", "--ex", "4", "--n0", "4", "--range", "0,1"]
        done = subprocess.run([sys.executable, "-m", "riskbounds.cli", *argv], env=_src_env(),
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        assert data_rows(done.stdout) == [["1e+150", "inf", "0", "divergent"]]

    def test_unbiased_bound_where_two_es_overflows(self, capsys):
        # 2 es is beyond float range, alpha n0 / (2 es) = 5e-9 is not
        code, out, _ = run_cli(["bound", "nonbayes-linear", "--alpha", "1", "--es", "1e308",
                                "--n0", "1e300"], capsys)
        assert code == 0
        assert data_rows(out) == [["1", "5e-09", "5.000000025e-09", "100000000", "ok"]]


class TestSweeps:
    def test_linear_sweep_endpoints(self, capsys):
        _, out, _ = run_cli(["bound", "nonbayes-linear", "--alpha-sweep", "0.2:0.8:4",
                             "--es", "1", "--n0", "1"], capsys)
        alphas = [float(r[0]) for r in data_rows(out)]
        np.testing.assert_allclose(alphas, [0.2, 0.4, 0.6, 0.8], rtol=1e-12)

    def test_log_sweep_spacing(self, capsys):
        _, out, _ = run_cli(["bound", "nonbayes-linear", "--alpha-sweep", "0.01:1:3",
                             "--log", "--es", "10", "--n0", "1"], capsys)
        alphas = [float(r[0]) for r in data_rows(out)]
        np.testing.assert_allclose(alphas, [0.01, 0.1, 1.0], rtol=1e-9)

    @given(start=_SWEEP_ENDS, stop=_SWEEP_ENDS, n=st.integers(2, 2000))
    @example(start=1.0, stop=1.0, n=5)
    @example(start=6.0, stop=0.0, n=7)
    @example(start=0.0, stop=5e-324, n=4)
    @example(start=-1e308, stop=1e308, n=5)
    @example(start=1e308, stop=-1e308, n=2000)
    @settings(max_examples=300, deadline=None)
    def test_linear_sweep_is_numpy_linspace_bit_for_bit(self, start, stop, n):
        with np.errstate(all="ignore"):   # numpy warns where the span overflows
            expected = np.linspace(start, stop, n)
        assert np.array(_linspace(start, stop, n)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", ["-1e308:1e308:3", "1e308:-1e308:2"])
    def test_linear_sweep_span_beyond_float_range_is_three(self, capsys, spec):
        # stop - start overflows, which would put NaN and inf into the sweep
        code, out, err = run_cli(["bound", "bayes-linear", f"--alpha-sweep={spec}"], capsys)
        assert code == 3 and out == ""
        assert err == f"error: bad sweep spec {spec!r}: stop - start is beyond the float range\n"

    def test_diagram_log_sweeps_are_log_spaced(self, capsys):
        code, out, _ = run_cli(["phase", "diagram", "--log", "--mu-sweep", "0.01:0.81:3",
                                "--a-sweep", "0.1:10:3"], capsys)
        assert code == 0
        rows = data_rows(out)
        mus = sorted({float(r[0]) for r in rows})
        a_vals = sorted({float(r[1]) for r in rows})
        np.testing.assert_allclose(mus, [0.01, 0.09, 0.81], rtol=1e-12)
        np.testing.assert_allclose(a_vals, [0.1, 1.0, 10.0], rtol=1e-12)

    def test_diagram_log_sweep_needs_positive_endpoints(self, capsys):
        code, _, err = run_cli(["phase", "diagram", "--log", "--mu-sweep=-0.5:0.5:3",
                                "--a-sweep", "0.1:1:3"], capsys)
        assert code == 3
        assert err == "error: log sweep needs positive endpoints\n"

    def test_tilted_bound_with_named_prior(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-tilted", "--prior", "gaussian:1.0",
                                "--alpha", "0.3", "--beta", "1.0",
                                "--es-over-n0", "0.5"], capsys)
        assert code == 0
        assert header(out) == "alpha,beta,bound,status"
        assert float(data_rows(out)[0][2]) == pytest.approx(0.15, rel=1e-5, abs=0.0)

    def test_tilted_critical_factor_mode(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-tilted", "--prior", "gaussian:0.5,30,8193",
                                "--alpha-c"], capsys)
        assert code == 0
        assert header(out) == "alpha_c_upper"
        assert float(data_rows(out)[0][0]) == pytest.approx(1.0, rel=5e-2, abs=0.0)

    def test_tilted_uniform_prior_reports_inf(self, capsys, flat_prior_csv):
        code, out, _ = run_cli(["bound", "bayes-tilted", "--prior", flat_prior_csv,
                                "--alpha-c"], capsys)
        assert code == 0
        assert data_rows(out)[0][0] == "inf"

    def test_flat_prior_at_a_fixed_beta_is_three(self, capsys, flat_prior_csv):
        code, out, err = run_cli(["bound", "bayes-tilted", "--prior", flat_prior_csv,
                                  "--beta", "0.8", "--alpha", "0.3"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: tilted density does not vanish at the ends of its support "
                              "(edge ratio 1)")

    def test_delay_bound_useless_row_has_no_beta(self, capsys, flat_prior_csv):
        code, out, _ = run_cli(["bound", "bayes-delay", "--prior", flat_prior_csv,
                                "--nu", "0", "--alpha", "0.5"], capsys)
        assert code == 0
        assert data_rows(out) == [["0.5", "-inf", "0", "nan", "useless"]]
        # the joint search finds no regular tilt either
        code, out, _ = run_cli(["bound", "bayes-delay", "--prior", flat_prior_csv,
                                "--alpha", "0.3"], capsys)
        (row,) = data_rows(out)
        assert (code, row[1], row[4]) == (0, "-inf", "useless")

    def test_nonlinear_row_at_the_range_end_reads_the_correlation_term(self, capsys):
        # above alpha ~5.06 the supremum moves to theta_tilde = 0, where the
        # --rho-gauss profile exp(-4 (0 - 0.5)^2) = exp(-1) enters the bound
        code, out, _ = run_cli(["bound", "nonbayes-nonlinear", "--alpha", "5.5",
                                "--theta", "0.5", "--lnb", "0.5", "--ex", "1", "--n0", "1",
                                "--range", "0,1"], capsys)
        assert code == 0
        (row,) = data_rows(out)
        assert row[2] == "0" and row[3] == "ok"
        closed = 5.5 * (0.5 + 0.25) - 2.0 * (1.0 - math.exp(-1.0))
        assert closed == pytest.approx(2.86075888234, abs=5e-12)
        assert float(row[1]) == pytest.approx(closed, rel=1e-11, abs=0.0)

    def test_delay_beta_without_nu_is_three(self, capsys):
        # without --nu the joint search picks beta, so a given --beta is refused
        code, out, err = run_cli(["bound", "bayes-delay", "--prior", "gaussian:1.0",
                                  "--alpha", "0.6", "--beta", "0.5"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: --beta needs --nu") and err.count("\n") == 1

    @pytest.mark.parametrize("beta", [[], ["--beta", "0.5"]])
    def test_delay_nu_outside_unit_interval_is_three(self, capsys, beta):
        code, out, err = run_cli(["bound", "bayes-delay", "--prior", "gaussian:1.0",
                                  "--alpha", "0.6", "--nu", "2"] + beta, capsys)
        assert code == 3 and out == ""
        assert err == "error: nu must lie in [0, 1]\n"

    def test_delay_bound_fixed_point(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-delay", "--prior", "gaussian:1.0",
                                "--alpha", "0.3", "--nu", "0.5", "--beta", "0.8",
                                "--omega0", "6.2832", "--ex", "1.5", "--n0", "20"], capsys)
        assert code == 0
        assert header(out) == "alpha,bound,nu,beta,status"
        assert math.isfinite(float(data_rows(out)[0][1]))

    @pytest.mark.parametrize("argv", [
        ["phase", "roots", "--mu", "0", "--a", "1e308"],
        ["phase", "roots", "--mu", "0.1", "--a", "9e307"],
        ["phase", "diagram", "--mu-sweep=-0.9:0.9:3", "--a-sweep", "0:1e308:3"],
    ])
    def test_coupling_overflow_is_three(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: a = ") and err.count("\n") == 1
        assert "the coupling 2a overflows" in err

    def test_roots_at_a_huge_coupling_keep_the_root_at_mu(self, capsys):
        code, out, _ = run_cli(["phase", "roots", "--mu", "0.1", "--a", "1e19"], capsys)
        assert code == 0
        assert [row[0] for row in data_rows(out)] == ["-1", "0.1", "1"]

    @pytest.mark.parametrize("beta", ["1e11", "1e13", "1e307"])
    def test_delay_row_at_a_huge_beta_stays_below_the_prior_ceiling(self, capsys, beta):
        # any estimator, a constant one too, bounds the truth from above:
        # on N(0, 1) at alpha = 0.3 that ceiling is -ln(1 - 0.6) / 2.  The
        # tilt is a point mass on the grid here, its divergence a difference
        # of two terms of size beta |ln p|, and beta ln p overflows at 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["bound", "bayes-delay", "--prior", "gaussian:1.0",
                                      "--alpha", "0.3", "--nu", "0.5", "--beta", beta], capsys)
        assert (code, err) == (0, "")
        (row,) = data_rows(out)
        assert row[4] == "ok"
        assert float(row[1]) <= -0.5 * math.log1p(-0.6)

    @pytest.mark.parametrize("beta", ["1e7", "1e9"])
    def test_tilted_row_at_a_huge_beta_stays_below_the_prior_ceiling(self, capsys, beta):
        # the tilt is a point mass on the grid, and its information is still
        # beta / sigma2: the score form beta^2 E_Q[(ln p)'^2] reads 0 here and
        # printed 2200.03 at 1e7, far above the ceiling -ln(1 - 0.6) / 2
        code, out, err = run_cli(["bound", "bayes-tilted", "--prior", "gaussian:1.0",
                                  "--alpha", "0.3", "--beta", beta], capsys)
        assert (code, err) == (0, "")
        (row,) = data_rows(out)
        assert row[3] == "ok"
        assert float(row[2]) <= -0.5 * math.log1p(-0.6)

    @pytest.mark.parametrize("prior, alpha_c, at_beta", [
        pytest.param(*case, id=case[0]) for case in (
            ("gaussian:1e-200", "4.9951777303e+199", "0.3,1,3e-201,ok"),
            ("gaussian:1e-300", "4.9951777303e+299", "0.3,1,3e-301,ok"),
            ("gaussian:1e200", "4.9951777303e-201", "0.3,1,3e+199,ok"),
            ("gaussian:1e300", "4.9951777303e-301", "0.3,1,3e+299,ok"),
            ("gaussian:1.0,1e308,8193", "error: theta grid must be finite",
             "error: theta grid must be finite"),
            ("gaussian:1.0,1e-300,8193", "inf", "error: tilted density does not vanish"),
            ("gaussian:1.0,1e200,8193", "inf", "error: tilted density does not vanish"))])
    def test_extreme_gaussian_prior_ends_in_its_row_or_one_error(self, capsys, prior, alpha_c,
                                                                  at_beta):
        # a span near either end of the float range overflows the grid or
        # leaves a support too flat to tilt: numpy warns nothing, and --alpha-c
        # finds no tilt to fit.  A variance there keeps its rows: the tilt's
        # information is a sum of nonnegative terms, none larger than I itself,
        # and reads beta / sigma2, so the beta = 1 row is the analytic
        # alpha sigma2 and --alpha-c is 1 / (2 sigma2) times the grid fit's
        # 0.99903554606, as on gaussian:1.0
        at_beta_flags = ["--beta", "1", "--alpha", "0.3"]
        for flags, ends in ((["--alpha-c"], alpha_c), (at_beta_flags, at_beta)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(["bound", "bayes-tilted", "--prior", prior, *flags],
                                         capsys)
            if ends.startswith("error: "):
                assert (code, out) == (3, "") and err.startswith(ends) and err.count("\n") == 1
            else:
                assert (code, err) == (0, "")
                assert data_rows(out) == [ends.split(",")]

    @pytest.mark.parametrize("variance", ["1e-306", "1e-307", "1e-308"])
    def test_narrow_gaussian_keeps_its_certificate(self, capsys, variance):
        # I = beta / sigma2 overflows to inf at the larger betas of these grids;
        # such a tilt counts as a large information in the low-beta trend, so
        # the certificate stays near 1 / (2 sigma2) instead of becoming inf
        code, out, _ = run_cli(["bound", "bayes-tilted", "--prior", f"gaussian:{variance}",
                                "--alpha-c"], capsys)
        assert code == 0
        assert float(data_rows(out)[0][0]) == pytest.approx(0.5 / float(variance), rel=1e-3,
                                                            abs=0.0)

    @given(k=st.integers(-300, 300), beta=st.sampled_from([0.5, 1.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    @example(k=-300, beta=1.0)
    @example(k=300, beta=1.0)
    def test_gaussian_prior_rows_are_unit_invariant(self, k, beta):
        # the bound is unit-free and alpha has the units of 1 / theta^2: a prior
        # of variance s at alpha / s gives the gaussian:1.0 row at alpha, and its
        # --alpha-c certificate is gaussian:1.0's divided by s.  At a fixed alpha
        # the row would be alpha s / (I s) - D, whose D rounds in absolute terms
        s = float(f"1e{k}")

        def rows(spec, alpha):
            args = argparse.Namespace(prior=spec, alpha=alpha, alpha_sweep=None, log=False,
                                      beta=beta, es_over_n0=0.0, corr=0.0)
            (row,) = cli._tilted_rows(args)
            ((alpha_c,),) = cli._alpha_c_rows(args)
            return row, alpha_c

        (_, _, want, status), want_c = rows("gaussian:1.0", 0.3)
        (_, _, got, got_status), got_c = rows(f"gaussian:1e{k}", 0.3 / s)
        assert status == got_status == "ok"
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert got_c * s == pytest.approx(want_c, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("left, right", [(5, 0), (1, 0), (0, 5), (5, 5)])
    def test_zero_padding_at_one_end_is_not_a_hole(self, capsys, tmp_path, left, right):
        # zeros at one grid end only move that end of the support inward, as
        # zeros at both ends do; a hole is a zero between the ends of the support
        theta = np.linspace(-10.0, 10.0, 801)
        dens = np.exp(-theta ** 2 / 2.0)
        dens[:left] = 0.0
        dens[dens.size - right:] = 0.0
        path = tmp_path / "pad.csv"
        np.savetxt(path, np.column_stack([theta, dens]), delimiter=",")
        code, out, err = run_cli(["bound", "bayes-tilted", "--prior", str(path), "--beta", "1",
                                  "--alpha", "0.3"], capsys)
        assert (code, err) == (0, "")
        assert data_rows(out) == [["0.3", "1", "0.3", "ok"]]   # alpha sigma2, analytic
        code, out, err = run_cli(["bound", "bayes-tilted", "--prior", str(path), "--alpha-c"],
                                 capsys)
        assert (code, err) == (0, "")
        assert float(data_rows(out)[0][0]) == pytest.approx(0.5, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("spec, kind", [("uniform:0,1", "uniform"),
                                            ("gaussain:1.0", "gaussain")])
    def test_unknown_prior_kind_is_three(self, capsys, tmp_path, monkeypatch, spec, kind):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["bound", "bayes-tilted", "--prior", spec, "--alpha", "0.3",
                                  "--beta", "0.8"], capsys)
        assert code == 3 and out == ""
        assert err == (f"error: unknown --prior kind {kind!r}, expected gaussian:VAR[,SPAN,N] | "
                       "CSV path; a flat prior is a theta,density CSV file\n")

    def test_prior_file_named_like_a_kind_loads(self, capsys, tmp_path, monkeypatch):
        theta = np.linspace(-6, 6, 2001)
        np.savetxt(tmp_path / "wide:1.csv", np.column_stack([theta, np.exp(-theta ** 2 / 2)]),
                   delimiter=",")
        monkeypatch.chdir(tmp_path)
        argv = ["bound", "bayes-tilted", "--alpha", "0.3", "--beta", "1.0", "--es-over-n0", "0.5"]
        code, out, _ = run_cli(argv + ["--prior", "wide:1.csv"], capsys)
        assert code == 0
        _, want, _ = run_cli(argv + ["--prior", str(tmp_path / "wide:1.csv")], capsys)
        assert data_rows(out) == data_rows(want)

    def test_prior_file_input(self, capsys, tmp_path):
        theta = np.linspace(-6, 6, 2001)
        dens = np.exp(-theta ** 2 / 2)
        dens /= np.trapezoid(dens, theta)
        path = tmp_path / "prior.csv"
        np.savetxt(path, np.column_stack([theta, dens]), delimiter=",")
        code, out, _ = run_cli(["bound", "bayes-tilted", "--prior", str(path),
                                "--alpha", "0.3", "--beta", "1.0",
                                "--es-over-n0", "0.5"], capsys)
        assert code == 0
        assert float(data_rows(out)[0][2]) == pytest.approx(0.15, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("defect, message", [
        ("nan-theta", "theta grid must be finite"),
        ("nan-density", "density must be finite"),
        ("inf-density", "density must be finite"),
        ("text-cell", "could not convert string 'abc'"),
        ("whitespace", "bad prior file"),
        ("one-column", "two columns"),
        ("unsorted-theta", "strictly increasing"),
        ("zero-density", "cannot be normalized"),
        ("empty", "two columns"),
    ])
    def test_bad_prior_file_is_three(self, capsys, tmp_path, defect, message):
        theta = np.linspace(-5.0, 5.0, 513)
        dens = np.exp(-theta ** 2 / 2)
        cells = [[repr(float(t)), repr(float(p))] for t, p in zip(theta, dens)]
        sep = ","
        if defect == "nan-theta":
            cells[200][0] = "nan"
        elif defect == "nan-density":
            cells[200][1] = "nan"
        elif defect == "inf-density":
            cells[200][1] = "inf"
        elif defect == "text-cell":
            cells[7][1] = "abc"
        elif defect == "whitespace":
            sep = " "
        elif defect == "one-column":
            cells = [row[:1] for row in cells]
        elif defect == "unsorted-theta":
            cells[10], cells[11] = cells[11], cells[10]
        elif defect == "zero-density":
            cells = [[t, "0.0"] for t, _ in cells]
        elif defect == "empty":
            cells = []
        path = tmp_path / "prior.csv"
        path.write_text("".join(sep.join(row) + "\n" for row in cells))
        code, out, err = run_cli(["bound", "bayes-tilted", "--prior", str(path), "--alpha-c"],
                                 capsys)
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert message in err

    @given(alpha=st.floats(5e-324, 1e300), theta=st.floats(allow_nan=False, allow_infinity=False),
           rho_gauss=st.floats(0.0, allow_infinity=False))
    @example(alpha=0.001, theta=0.0, rho_gauss=4.0)
    @example(alpha=1e-50, theta=0.0, rho_gauss=4.0)
    @example(alpha=0.3, theta=1e300, rho_gauss=4.0)
    @settings(max_examples=200, deadline=None)
    def test_nonlinear_family_unbounded_range(self, alpha, theta, rho_gauss):
        # |rho| <= 1 keeps the objective at least alpha L + alpha (theta - theta_tilde)^2
        # - 4 ex / n0, so the supremum over an unbounded range is +inf
        code, out, err = run_any(["bound", "nonbayes-nonlinear", f"--alpha={alpha!r}",
                                  f"--theta={theta!r}", f"--rho-gauss={rho_gauss!r}",
                                  "--range", "unbounded"])
        assert (code, err) == (0, "")
        assert data_rows(out) == [[f"{alpha:.12g}", "inf", "inf", "divergent"]]

    def test_missing_config_file_is_domain_exit(self, capsys, tmp_path):
        code, _, err = run_cli(["bound", "nonbayes-linear", "--alpha", "0.2",
                                "--config", str(tmp_path / "nope.cfg")], capsys)
        assert code == 3

    def test_non_utf8_config_file_is_three(self, capsys, tmp_path):
        cfg = tmp_path / "bin.dat"
        cfg.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe alpha = 0.3\n")
        code, out, err = run_cli(["bound", "bayes-linear", "--alpha", "0.3", "--config", str(cfg)],
                                 capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"error: bad config file {str(cfg)!r}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_vector_bound_with_gamma_file(self, capsys, tmp_path):
        gamma_path = tmp_path / "gamma.csv"
        gamma_path.write_text("1.0,0.3\n0.3,1.0\n")
        code, out, _ = run_cli(["bound", "nonbayes-vector", "--gamma-file", str(gamma_path),
                                "--es", "1", "--n0", "1", "--alpha-vec", "0.4,0.2",
                                "--scale-sweep", "0.5:1.5:3"], capsys)
        assert code == 0
        assert header(out) == "scale,quad_form,bound,ml_lambda,status"
        assert len(data_rows(out)) == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, message", [
        ("1 0.3\n0.3 1\n", "bad gamma file"),
        ("1.0,abc\n0.3,1.0\n", "could not convert string 'abc'"),
        ("", "gamma must be square"),
    ])
    def test_bad_gamma_file_is_one_error_line(self, capsys, tmp_path, text, message):
        gamma_path = tmp_path / "gamma.csv"
        gamma_path.write_text(text)
        code, out, err = run_cli(["bound", "nonbayes-vector", "--gamma-file", str(gamma_path),
                                  "--es", "1"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert message in err


class TestEmitPlot:
    def test_lpcb_three_curve_script(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(["bound", "bayes-lpcb", "--alpha-sweep", "0.1:0.9:5",
                              "--sigma2", "0.5", "--snr", "0.001,0.01,0.1",
                              "--out", str(csv_path)], capsys)
        assert code == 0
        script_path = tmp_path / "fig.gp"
        code, _, err = run_cli(["emit-plot", "--csv", str(csv_path),
                                "--out-script", str(script_path)], capsys)
        assert code == 0
        script = script_path.read_text()
        assert str(csv_path) in script
        for color in ("red", "blue", "green"):
            assert color in script
        # the script references the CSV rather than embedding data rows
        assert "0.001," not in script

    def test_exponent_script(self, capsys, tmp_path):
        csv_path = tmp_path / "exp.csv"
        run_cli(["phase", "exponent", "--a-sweep", "0:3:4", "--out", str(csv_path)], capsys)
        script_path = tmp_path / "exp.gp"
        code, _, _ = run_cli(["emit-plot", "--csv", str(csv_path),
                              "--out-script", str(script_path)], capsys)
        assert code == 0
        assert "plot" in script_path.read_text()

    def test_quote_in_csv_path_is_escaped(self, capsys, tmp_path, monkeypatch):
        # gnuplot reads a quote inside '...' as a doubled quote
        monkeypatch.chdir(tmp_path)
        run_cli(["phase", "exponent", "--a-sweep", "0:3:4", "--out", "it's.csv"], capsys)
        code, _, _ = run_cli(["emit-plot", "--csv", "it's.csv", "--out-script", "o.gp"], capsys)
        assert code == 0
        (line,) = [l for l in (tmp_path / "o.gp").read_text().splitlines()
                   if l.startswith("csv = ")]
        assert line == "csv = 'it''s.csv'"
        assert line[len("csv = '"):-1].replace("''", "'") == "it's.csv"

    def test_unknown_schema_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code, _, err = run_cli(["emit-plot", "--csv", str(bad),
                                "--out-script", str(tmp_path / "o.gp")], capsys)
        assert code == 3

    def test_non_utf8_csv_is_three(self, capsys, tmp_path):
        data = tmp_path / "bin.dat"
        data.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\n")
        code, out, err = run_cli(["emit-plot", "--csv", str(data),
                                  "--out-script", str(tmp_path / "o.gp")], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"error: bad CSV file {str(data)!r}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert not (tmp_path / "o.gp").exists()

    @pytest.mark.parametrize("row", ["garbage", "0.1,0.01,0.5,1,ok,extra"])
    def test_row_of_another_width_is_three(self, capsys, tmp_path, row):
        csv_path = tmp_path / "fig.csv"
        csv_path.write_text(f"alpha,snr,bound,beta_star,status\n# snr = 0.01\n{row}\n")
        code, out, err = run_cli(["emit-plot", "--csv", str(csv_path),
                                  "--out-script", str(tmp_path / "o.gp")], capsys)
        assert code == 3 and out == ""
        assert err == f"error: bad CSV row {row!r}: the header has 5 columns\n"
        assert not (tmp_path / "o.gp").exists()


def _choice_flags(command: str, choice: str) -> list[argparse.Action]:
    """The flags of a choice, as its parser built from the command table declares them."""
    return [a for a in _choice_parser(command, choice)._actions
            if a.option_strings and a.dest not in ("help", "out", "config")]


def _flag_names(command: str, choice: str) -> set[str]:
    return {a.option_strings[-1] for a in _choice_flags(command, choice)}


# every table command with numeric flags drawn from zeros, signs, float-range
# extremes, non-finite values and ordinary values
_FLOAT_FLAGS = {(command, choice): [a.option_strings[-1] for a in _choice_flags(command, choice)
                                    if a.type in (float, int)]
                for command in _COMMANDS for choice in _COMMANDS[command]}
_NUMBERS = st.sampled_from(["0", "-1", "-0.25", "1e300", "-1e300", "1e-300", "-1e-300",
                            "nan", "inf", "-inf", "0.3", "0.6", "1", "2.5"])
_SMALL_PRIOR = "gaussian:1.0,10,513"
# the base flags of each command, each given to the choices that have it;
# --samples stays small, so that a verify draw runs fast
_TABLE_BASES = {
    "bound": {"--alpha": "0.3", "--prior": _SMALL_PRIOR},
    "phase": {"--mu-sweep": "-0.5:0.5:3", "--a-sweep": "0.3:0.7:3"},
    "verify": {"--samples": "1000"},
}
_SWEEPS = {"bound": "--alpha-sweep", "phase": "--a-sweep"}


def _base_argv(command: str, choice: str, bases: dict[str, str]) -> list[str]:
    flags = _flag_names(command, choice)
    return [command, choice, *(f"{flag}={value}" for flag, value in bases.items() if flag in flags)]


@pytest.fixture(scope="module")
def gamma_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("gamma") / "gamma.csv"
    path.write_text("1.0,0.35\n0.35,1.0\n")
    return str(path)


@st.composite
def _table_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    choice = draw(st.sampled_from(list(_COMMANDS[command])))
    argv = _base_argv(command, choice, _TABLE_BASES[command])
    float_flags = _FLOAT_FLAGS[command, choice]   # phase diagram has none
    drawn = float_flags and draw(st.lists(st.sampled_from(float_flags), unique=True, max_size=4))
    for flag in drawn:
        argv.append(f"{flag}={draw(_NUMBERS)}")
    if _SWEEPS.get(command) in _flag_names(command, choice) and draw(st.booleans()):
        argv.append(f"{_SWEEPS[command]}={draw(_NUMBERS)}:{draw(_NUMBERS)}:3")
    return argv


@given(_table_argv())
@example(["bound", "bayes-linear", "--alpha=nan", "--sigma2=inf"])
@example(["bound", "bayes-ww", "--alpha=nan", "--gamma=1e-300"])
@example(["bound", "bayes-phase", "--alpha", "0.3", "--n0", "0"])
@example(["bound", "bayes-ww", "--alpha", "0.3", "--gamma", "1e300"])
@example(["bound", "bayes-delay", "--prior", _SMALL_PRIOR, "--nu", "0.5", "--beta", "0.5",
          "--alpha", "0.3", "--omega0", "1e300"])
@example(["phase", "roots", "--mu", "0.1", "--a", "1e300"])
@example(["bound", "bayes-tilted", "--prior", "gaussian:1e-6", "--beta", "200", "--alpha", "0.3"])
@example(["verify", "certify", "--samples=1000", "--seed=1"])
@example(["verify", "mc", "--samples=1000", "--threads=0"])
@example(["verify", "bernoulli-exact", "--a=1e300"])
@example(["bound", "bayes-lpcb", "--alpha", "0.5", "--beta", "1e-300", "--sigma2", "0.5",
          "--es", "1", "--snr", "0"])
@example(["bound", "bayes-lpcb", "--alpha", "0.5", "--sigma2", "1e-300", "--sigma2q", "1e300"])
@example(["bound", "bayes-lpcb", "--alpha", "0.5", "--es", "1e100", "--q-const", "1e100"])
@example(["bound", "bayes-lpcb", "--alpha", "0.5", "--sigma2", "0.5", "--sigma2q", "1e308"])
@settings(max_examples=150, deadline=None)
def test_table_commands_end_in_an_exit_code(gamma_csv, argv):
    if argv[1] == "nonbayes-vector":
        argv = argv + ["--gamma-file", gamma_csv]
    code, _, err = run_any(argv)   # code 2: argparse rejects the text of a flag
    assert code in (0, 2, 3, 4)
    assert code == 0 or err.startswith(("error:", "usage:"))


# finite values of every flag the closed-form families read: zeros, subnormals,
# the float maximum and anything else hypothesis draws
_CLOSED_FORM_FLAGS = ("--alpha", "--sigma2", "--es", "--ex", "--n0", "--gamma", "--tau")
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


def _closed_form_values(**given_values) -> dict:
    return {flag: given_values.get(flag[2:], 1.0) for flag in _CLOSED_FORM_FLAGS}


@given(st.sampled_from(["bayes-linear", "bayes-phase", "bayes-ww", "nonbayes-linear"]),
       st.fixed_dictionaries({flag: _FINITE for flag in _CLOSED_FORM_FLAGS}))
@example("bayes-linear", _closed_form_values(alpha=0.5, sigma2=0.5, es=0.0, n0=5e-324))
@example("bayes-phase", _closed_form_values(alpha=1e308, sigma2=5e-324))
@settings(max_examples=300, deadline=None)
def test_closed_form_families_end_in_zero_or_three(family, values):
    flags = _flag_names("bound", family)
    argv = ["bound", family, *(f"{flag}={value!r}" for flag, value in values.items()
                               if flag in flags)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3)
    assert code == 0 or err.getvalue().startswith("error:")


# a cheap command per choice; drawn flags other than these are set either
# on the command line or in a config file
_CONFIG_BASES = [
    *(_base_argv("bound", family, {"--alpha": "0.3", "--prior": _SMALL_PRIOR, "--beta": "0.5"})
      for family in ("bayes-linear", "bayes-phase", "bayes-tilted", "bayes-ww", "bayes-lpcb",
                     "nonbayes-linear", "nonbayes-nonlinear")),
    *(_base_argv("phase", analysis, _TABLE_BASES["phase"]) for analysis in _COMMANDS["phase"]),
    ["verify", "mc", "--model", "nb-ml", "--estimator", "ml", "--alpha=0.3", "--samples=1000"],
    ["verify", "bernoulli-exact", "--n=20"],
]
_CONFIG_VALUES = st.sampled_from(["0.3", "1", "2", "-1", "0", "1e2", "2.5", "abc", "nan", "",
                                  "0:1:3", "0.1,1", "default", "lin-gauss", "unbounded",
                                  "gaussian:0.5,10,513", "true"])


def _config_flags(command: str, choice: str) -> list[tuple[str, str, bool]]:
    """(flag, config key, is on/off) for each flag of a choice a config file may set."""
    return [(a.option_strings[-1], a.dest, a.nargs == 0) for a in _choice_flags(command, choice)
            if a.dest != "gamma_file"]


@st.composite
def _flags_two_ways(draw):
    """A base command, and the same flags as argv tokens and as config lines."""
    base = draw(st.sampled_from(_CONFIG_BASES))
    given_flags = {token.split("=")[0] for token in base}
    free = [f for f in _config_flags(*base[:2]) if f[0] not in given_flags]
    argv, lines = [], []
    for flag, key, switch in draw(st.lists(st.sampled_from(free), min_size=1, max_size=3,
                                           unique=True)):
        if switch:
            on = draw(st.booleans())
            argv += [flag] if on else []
            lines.append(f"{key} = {'true' if on else 'false'}")
        else:
            value = draw(_CONFIG_VALUES)
            argv.append(f"{flag}={value}")
            lines.append(f"{key} = {value}")
    return base, argv, lines


@given(_flags_two_ways())
@example((["verify", "mc", "--model", "nb-ml", "--estimator", "ml", "--alpha=0.3"],
          ["--samples=1e6"], ["samples = 1e6"]))
@example((["bound", "bayes-linear", "--alpha=0.3"], ["--log", "--sigma2=abc"],
          ["log = true", "sigma2 = abc"]))
@example((["bound", "bayes-tilted", "--prior", _SMALL_PRIOR], [], ["alpha_c = false"]))
@settings(max_examples=80, deadline=None)
def test_config_file_and_flags_give_identical_output(tmp_path_factory, case):
    base, argv, lines = case
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    assert run_any(base + ["--config", str(cfg)]) == run_any(base + argv)


def _alpha_runs(*flags: str) -> list[list[str]]:
    return [[*flags, "--alpha", "0.3"], [*flags, "--alpha-sweep", "0.1:0.3:2", "--log"]]


_VECTOR = ("--gamma-file", "GAMMA", "--es", "1", "--alpha-vec", "0.4,0.2")
# valid flags of each choice; what their runs read together, and what their
# echoes list together, is what the choice declares ("GAMMA" is a gamma file)
_HONEST_ARGVS = {
    ("bound", "bayes-linear"): _alpha_runs(),
    ("bound", "bayes-phase"): _alpha_runs(),
    ("bound", "bayes-tilted"): [*_alpha_runs("--prior", _SMALL_PRIOR, "--beta", "0.8"),
                                ["--prior", _SMALL_PRIOR, "--alpha-c"]],
    ("bound", "bayes-delay"): _alpha_runs("--prior", _SMALL_PRIOR, "--nu", "0.5", "--beta", "0.8"),
    ("bound", "bayes-ww"): _alpha_runs(),
    ("bound", "bayes-lpcb"): _alpha_runs("--sigma2q", "0.5", "--beta", "0.05"),
    ("bound", "nonbayes-linear"): _alpha_runs("--es", "1"),
    ("bound", "nonbayes-vector"): [[*_VECTOR], [*_VECTOR, "--scale-sweep", "0.5:1:2", "--log"]],
    ("bound", "nonbayes-nonlinear"): _alpha_runs(),
    ("phase", "exponent"): [["--a", "3"], ["--a-sweep", "1:3:2", "--log"]],
    ("phase", "estimator"): [["--a", "3", "--q-steps", "101"]],
    ("phase", "roots"): [["--mu", "0.1", "--a", "0.8"]],
    ("phase", "diagram"): [["--mu-sweep", "0.1:0.5:2", "--a-sweep", "0.3:0.7:2", "--log"]],
    ("verify", "mc"): [["--model", "nb-ml", "--estimator", "ml", "--samples", "1000",
                        "--alpha", "0.3", "--threads", "1"],
                       ["--model", "nb-ml", "--estimator", "ml", "--samples", "1000"]],
    ("verify", "bernoulli-exact"): [["--n", "20"]],
    ("verify", "certify"): [["--samples", "1000"]],
}


@pytest.mark.parametrize("command, choice", [(command, choice) for command in _COMMANDS
                                             for choice in _COMMANDS[command]])
def test_each_choice_reads_and_echoes_exactly_its_flags(monkeypatch, gamma_csv, command, choice):
    declared = {a.dest for a in _choice_flags(command, choice)}
    name = cli._CHOICE_NAMES[command]
    reads, echoed = set(), set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, attr):
            reads.add(attr)
            return super().__getattribute__(attr)

    run_table = cli._run_table
    monkeypatch.setattr(cli, "_run_table", lambda command, choice, args:
                        run_table(command, choice, Recorder(**vars(args))))
    for argv in _HONEST_ARGVS[command, choice]:
        argv = [gamma_csv if token == "GAMMA" else token for token in argv]
        code, out, err = run_any([command, choice, *argv])
        assert code == 0, err
        keys = {line[2:].split(" = ")[0] for line in out.splitlines() if line.startswith("# ")}
        given = vars(_choice_parser(command, choice).parse_args(argv))
        assert keys == {k for k in declared if given[k] is not None} | {"command", name}
        echoed |= keys
    # --out is read by the CSV writer, and certify has one suite, so reads no --suite
    assert {r for r in reads if not r.startswith("_")} - {"out"} == declared - {"suite"}
    assert echoed == declared | {"command", name}
