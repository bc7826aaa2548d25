"""CSV schemas, determinism, config files and exit codes of the CLI."""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riskbounds
from riskbounds.cli import _COMMANDS, _build_parser, _linspace, main


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


class TestSchemas:
    def test_nonbayes_linear_value(self, capsys):
        code, out, _ = run_cli(["bound", "nonbayes-linear", "--alpha", "0.25",
                                "--es", "1", "--n0", "1"], capsys)
        assert code == 0
        assert header(out) == "alpha,bound,ml_lambda,alpha_c,status"
        row = data_rows(out)[0]
        assert float(row[1]) == pytest.approx(0.125, rel=1e-12)

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
        ["bound", "nonbayes-linear", "--alpha-sweep", "0.05:0.95:12", "--es", "1", "--n0", "1"],
        ["phase", "exponent", "--a-sweep", "0:3:4"],
    ])
    def test_threads_flag_exists_only_on_verify(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

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
problem = riskbounds.DelayDesignProblem(riskbounds.Waveform(t, np.sin(3.0 * t)), 30.0, 1.0)
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


def test_sweeps_load_no_thread_pool():
    # sweeps run serially whatever RISKBOUNDS_THREADS says; only verify mc reads it
    code = ("import riskbounds.cli, sys; "
            "riskbounds.cli.main(['bound', 'nonbayes-linear', '--alpha-sweep', '0.05:0.95:12', "
            "'--es', '1', '--n0', '1']); "
            "assert 'concurrent' not in sys.modules")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=_src_env(RISKBOUNDS_THREADS="4"), capture_output=True,
                         text=True, timeout=120).stdout
    assert len(data_rows(out)) == 12


_NO_NUMPY = """
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError("numpy is blocked")
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
]
for argv in argvs:
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules
"""


def test_phase_and_emit_plot_run_without_numpy(tmp_path):
    # the package, the CLI module, the scalar phase commands and emit-plot
    # import no numpy: with every numpy import made to fail, all of them run
    subprocess.run([sys.executable, "-c", _NO_NUMPY], check=True, env=_src_env(), cwd=tmp_path,
                   capture_output=True, timeout=120)
    assert (tmp_path / "fig3.gp").is_file()


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


def test_exceptions_are_one_set_of_classes():
    import riskbounds.core
    import riskbounds.errors

    assert riskbounds.DomainError is riskbounds.core.DomainError is riskbounds.errors.DomainError
    for name in riskbounds.errors.__all__:
        assert getattr(riskbounds, name) is getattr(riskbounds.core, name)


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

    def test_bad_thread_variable_is_three(self, capsys, monkeypatch):
        monkeypatch.setenv("RISKBOUNDS_THREADS", "two")
        code, out, err = run_cli(["verify", "mc", "--model", "nb-ml", "--estimator", "ml",
                                  "--alpha", "0.3", "--samples", "1000"], capsys)
        assert code == 3 and out == ""
        assert err == "error: RISKBOUNDS_THREADS must be an integer\n"

    @pytest.mark.parametrize("flag, env, source, count", [
        (["--threads", "-3"], None, "--threads", "-3"),
        (["--threads", "0"], "2", "--threads", "0"),
        ([], "-2", "RISKBOUNDS_THREADS", "-2"),
        ([], "0", "RISKBOUNDS_THREADS", "0"),
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

    def test_estimator_q_grid_has_a_minimum(self, capsys):
        code, out, err = run_cli(["phase", "estimator", "--a", "3", "--q-steps", "100"], capsys)
        assert code == 3 and out == ""
        assert err == "error: the q grid must have at least 101 points\n"
        code, out, _ = run_cli(["phase", "estimator", "--a", "3", "--q-steps", "101"], capsys)
        assert code == 0
        assert len(data_rows(out)) == 101

    def test_exponent_reads_no_q_grid(self, capsys):
        # E(a) is in closed form: --q-steps is only echoed, whatever its value
        _, want, _ = run_cli(["phase", "exponent", "--a", "3"], capsys)
        code, out, err = run_cli(["phase", "exponent", "--a", "3", "--q-steps", "50"], capsys)
        assert code == 0 and err == ""
        assert out == want.replace("# q_steps = 201", "# q_steps = 50")

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
        ["bound", "bayes-tilted", "--prior", "uniform:0,1,-3", "--beta", "0.5", "--alpha", "0.3"],
        ["bound", "bayes-delay", "--prior", "uniform:0", "--alpha", "0.5"],
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
        assert float(data_rows(out)[0][2]) == pytest.approx(0.15, rel=1e-5)

    def test_tilted_critical_factor_mode(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-tilted", "--prior", "gaussian:0.5,30,8193",
                                "--alpha-c"], capsys)
        assert code == 0
        assert header(out) == "alpha_c_upper"
        assert float(data_rows(out)[0][0]) == pytest.approx(1.0, rel=5e-2)

    def test_tilted_uniform_prior_reports_inf(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-tilted", "--prior", "uniform:0,1",
                                "--alpha-c"], capsys)
        assert code == 0
        assert data_rows(out)[0][0] == "inf"

    def test_delay_bound_useless_row_has_no_beta(self, capsys):
        code, out, _ = run_cli(["bound", "bayes-delay", "--prior", "uniform:0,1",
                                "--nu", "0", "--alpha", "0.5"], capsys)
        assert code == 0
        assert data_rows(out) == [["0.5", "-inf", "0", "nan", "useless"]]

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
        assert float(data_rows(out)[0][2]) == pytest.approx(0.15, rel=1e-4)

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

    def test_nonlinear_family_unbounded_range(self, capsys):
        code, out, _ = run_cli(["bound", "nonbayes-nonlinear", "--alpha", "0.001",
                                "--theta", "0", "--lnb", "0.5", "--ex", "1",
                                "--n0", "1", "--range", "unbounded"], capsys)
        assert code == 0
        row = data_rows(out)[0]
        assert row[1] == "inf" and row[-1] == "divergent"

    def test_missing_config_file_is_domain_exit(self, capsys, tmp_path):
        code, _, err = run_cli(["bound", "nonbayes-linear", "--alpha", "0.2",
                                "--config", str(tmp_path / "nope.cfg")], capsys)
        assert code == 3

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

    def test_unknown_schema_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code, _, err = run_cli(["emit-plot", "--csv", str(bad),
                                "--out-script", str(tmp_path / "o.gp")], capsys)
        assert code == 3


# every table command with numeric flags drawn from zeros, signs, float-range
# extremes, non-finite values and ordinary values
_FLOAT_FLAGS = {
    "bound": ["--alpha", "--sigma2", "--sigma2q", "--es", "--ex", "--n0", "--beta", "--q-const",
              "--t-horizon", "--gamma", "--tau", "--es-over-n0", "--corr", "--nu", "--omega0",
              "--theta", "--lnb", "--rho-gauss"],
    "phase": ["--a", "--mu", "--q-steps"],
    "verify": ["--a", "--alpha", "--alpha-frac", "--sigma2", "--es", "--n0", "--theta", "--n",
               "--seed", "--threads"],
}
_NUMBERS = st.sampled_from(["0", "-1", "-0.25", "1e300", "-1e300", "1e-300", "-1e-300",
                            "nan", "inf", "-inf", "0.3", "0.6", "1", "2.5"])
_SMALL_PRIOR = "gaussian:1.0,10,513"
# the base argv of each command; --samples stays small, so that a verify draw runs fast
_TABLE_BASES = {
    "bound": ["--alpha=0.3", "--prior", _SMALL_PRIOR],
    "phase": ["--mu-sweep=-0.5:0.5:3", "--a-sweep=0.3:0.7:3"],
    "verify": ["--samples=1000"],
}
_SWEEPS = {"bound": "--alpha-sweep", "phase": "--a-sweep"}


@pytest.fixture(scope="module")
def gamma_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("gamma") / "gamma.csv"
    path.write_text("1.0,0.35\n0.35,1.0\n")
    return str(path)


@st.composite
def _table_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    choice = draw(st.sampled_from(list(_COMMANDS[command])))
    argv = [command, choice, *_TABLE_BASES[command]]
    for flag in draw(st.lists(st.sampled_from(_FLOAT_FLAGS[command]), unique=True, max_size=4)):
        argv.append(f"{flag}={draw(_NUMBERS)}")
    if command in _SWEEPS and draw(st.booleans()):
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
@example(["verify", "bernoulli-exact", "--samples=1000", "--a=1e300"])
@settings(max_examples=150, deadline=None)
def test_table_commands_end_in_an_exit_code(gamma_csv, argv):
    if argv[1] == "nonbayes-vector":
        argv = argv + ["--gamma-file", gamma_csv]
    code, _, err = run_any(argv)   # code 2: argparse rejects the text of a flag
    assert code in (0, 2, 3, 4)
    assert code == 0 or err.startswith(("error:", "usage:"))


# a cheap command per subparser; drawn flags other than these are set either
# on the command line or in a config file
_CONFIG_BASES = [
    *(["bound", family, "--alpha=0.3", "--prior", _SMALL_PRIOR, "--beta=0.5"]
      for family in ("bayes-linear", "bayes-phase", "bayes-tilted", "bayes-ww", "bayes-lpcb",
                     "nonbayes-linear", "nonbayes-nonlinear")),
    *(["phase", analysis, "--mu-sweep=-0.5:0.5:3", "--a-sweep=0.3:0.7:3"]
      for analysis in _COMMANDS["phase"]),
    ["verify", "mc", "--model", "nb-ml", "--estimator", "ml", "--alpha=0.3", "--samples=1000"],
    ["verify", "bernoulli-exact", "--n=20"],
]
_CONFIG_VALUES = st.sampled_from(["0.3", "1", "2", "-1", "0", "1e2", "2.5", "abc", "nan", "",
                                  "0:1:3", "0.1,1", "default", "lin-gauss", "unbounded",
                                  "gaussian:0.5,10,513", "true"])


def _config_flags(command: str) -> list[tuple[str, str, bool]]:
    """(flag, config key, is on/off) for each flag of a command a config file may set."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings[-1], a.dest, a.nargs == 0)
            for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "out", "config", "gamma_file")]


_CONFIG_FLAGS = {command: _config_flags(command) for command in ("bound", "phase", "verify")}


@st.composite
def _flags_two_ways(draw):
    """A base command, and the same flags as argv tokens and as config lines."""
    base = draw(st.sampled_from(_CONFIG_BASES))
    given_flags = {token.split("=")[0] for token in base}
    free = [f for f in _CONFIG_FLAGS[base[0]] if f[0] not in given_flags]
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
