"""The benchmark's in-process workloads, run against its committed outputs.

Every ``cli-batch``, ``phase`` and ``tilt`` command of
``perfbench/workloads.py`` runs for each input variant through
``riskbounds.cli.main`` in a fresh directory, and perfbench's own
``checks.check_command`` compares the result with
``perfbench/reference.json`` at the benchmark's tolerances.  A change that
moves a benchmark output fails here, before the benchmark runs.  ``mc``
is left to the benchmark: its 2e6-sample runs take about 4 s.  The ``tilt``
commands also run once each under ``perfbench/tracer.py``, as a traced
benchmark run spawns them, so a move that breaks traced runs fails here too.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import riskbounds
from riskbounds.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``checks`` and ``workloads`` modules, imported without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    return checks, workloads


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _check_workload(perfbench, workload: str, seed: int, tmp_path) -> dict:
    """perfbench's problems with each command of one workload variant, by command name."""
    checks, workloads = perfbench
    reference = checks.load_reference()["outputs"]
    done, problems = {}, {}
    for cmd in workloads.build(workload, seed, tmp_path):
        code, out, err = _run(cmd.argv)
        output = (tmp_path / cmd.out).read_text(encoding="utf-8") if cmd.out else out
        result = {"timeout": False, "exit": code, "stderr": err, "output": output}
        found = checks.check_command(cmd, result, reference.get(cmd.key), done)
        done[cmd.name] = output
        if found:
            problems[cmd.name] = found
    return problems


@pytest.mark.parametrize("seed", range(8))
def test_cli_batch_commands_match_the_benchmark_reference(perfbench, seed, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _check_workload(perfbench, "cli-batch", seed, tmp_path) == {}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("workload", ["phase", "tilt"])
def test_workload_commands_match_the_benchmark_reference(perfbench, workload, seed, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _check_workload(perfbench, workload, seed, tmp_path) == {}


def test_tilt_commands_run_under_the_tracer(perfbench, tmp_path):
    # every layer binding is wrapped, and every layer the workload dominates records calls
    _, workloads = perfbench
    import run

    src = str(Path(riskbounds.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    calls = Counter()
    for cmd in workloads.build("tilt", 0, tmp_path):
        summary = tmp_path / f"{cmd.name}.json"
        done = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(summary),
                               *cmd.argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, (cmd.name, done.stderr)
        trace = json.loads(summary.read_text(encoding="utf-8"))
        assert trace["unwrapped"] == [], cmd.name
        calls.update({name: layer["calls"] for name, layer in trace["layers"].items()})
    assert [name for name in run.DOMINANT["tilt"] if not calls[name]] == []
