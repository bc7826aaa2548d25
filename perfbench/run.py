"""Benchmark of the riskbounds CLI, end to end and per layer.

    python3 perfbench/run.py --workload phase --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Each command of the workload (see ``workloads.py``) runs as a fresh
``python -m riskbounds.cli`` process, so import cost is included, and its
output is checked (see ``checks.py``).  Passes over the command list repeat
until ``--seconds`` is used up; figures are medians over passes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``      median wall time of a fresh ``import riskbounds.cli``
* ``wall_s``       wall time of one pass (sum over its commands)
* ``cpu_s``        user + system CPU time of the pass's processes
* ``peak_rss_mb``  largest max-RSS among the pass's processes

``--trace 1`` reports the per-layer metrics instead: for every function in
``tracer.LAYERS``, ``<module>.<func>.calls``, ``.self_s`` and ``.total_s``
from passes that run each command through ``tracer.py``; objective
evaluation counts of the ``core`` optimizers; ``import.*_s`` from
``python -X importtime``; and ``trace.overhead_s``, the traced minus the
untraced pass wall time, measured in alternating passes of the same run.
A traced run also checks that every traced command writes the same bytes
as its untraced twin and that each layer is seen on the workload it
dominates.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A command that exits non-zero,
times out or fails its check counts as failed.  A per-run report with the
environment record, every pass and every problem is written to
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from checks import check_command, load_reference, oracle_error
from tracer import OPTIMIZERS, TRACED
from workloads import WORKLOADS, build, variant

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

SETUP_REPS = 5
IMPORTTIME_REPS = 5
COMMAND_TIMEOUT_S = 90.0
BLAS_THREADS = "1"   # pinned for every run, at most nproc
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_LAYERS = ("numpy", "scipy.special", "scipy.linalg", "riskbounds")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# functions that must record calls on the workload they dominate
DOMINANT = {
    "phase": ("phase_transition.error_exponent", "phase_transition.bernoulli_bayes_exponent",
              "phase_transition.classify_phase", "phase_transition.magnetization_roots"),
    "tilt": ("divergences.tilt_prior", "bayes_bounds.tilted_prior_bound",
             "bayes_bounds.alpha_c_upper", "delay_design.nu_bound",
             "core.maximize_scalar", "core.golden_section_max", "core.coordinate_descent_max"),
    "cli-batch": ("bayes_bounds.lpcb_bound", "core.maximize_scalar",
                  "nonbayes_bounds.scalar_linear_bound", "nonbayes_bounds.vector_linear_bound",
                  "nonbayes_bounds.nonlinear_bound", "verify.bernoulli_exact_lambda"),
    "mc": ("verify.mc_lambda",),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # import from cached bytecode, as an install does
    env["PYTHONPATH"] = str(ROOT / "src")
    env["RISKBOUNDS_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def environment(seed: int, env: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "seed": seed,
        "variant": variant(seed),
        "RISKBOUNDS_THREADS": env["RISKBOUNDS_THREADS"],
        **{var: env[var] for var in BLAS_VARS},
    }


def spawn(argv: list[str], cwd: Path, env: dict) -> dict:
    """Run one process to its end; wall time, rusage, exit code and streams."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "timeout": bool(killed),
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


def run_pass(cmds, cwd: Path, env: dict, traced: bool) -> dict:
    results = {}
    for cmd in cmds:
        if cmd.out:
            (cwd / cmd.out).unlink(missing_ok=True)
        if traced:
            summary = cwd / ".trace.json"
            summary.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(summary), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "riskbounds.cli", *cmd.argv]
        res = spawn(argv, cwd, env)
        out_file = cwd / cmd.out if cmd.out else None
        if out_file is None:
            res["output"] = res["stdout"]
        else:
            res["output"] = out_file.read_text(encoding="utf-8") if out_file.exists() else ""
        if traced and summary.exists():
            res["trace"] = json.loads(summary.read_text(encoding="utf-8"))
        results[cmd.name] = res
    return {
        "results": results,
        "wall": sum(r["wall"] for r in results.values()),
        "cpu": sum(r["cpu"] for r in results.values()),
        "rss_mb": max(r["rss_mb"] for r in results.values()),
    }


def check_pass(cmds, run: dict, reference: dict) -> dict:
    """Problems per failed command of one pass."""
    done, problems = {}, {}
    for cmd in cmds:
        res = run["results"][cmd.name]
        found = check_command(cmd, res, reference["outputs"].get(cmd.key), done)
        done[cmd.name] = res["output"]
        if found:
            problems[cmd.name] = found
    return problems


def repeat(cycle, seconds: float) -> None:
    """Call ``cycle`` at least once, and again while another call fits in ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycle()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def import_breakdown(env: dict, cwd: Path) -> dict:
    res = spawn([sys.executable, "-X", "importtime", "-c", "import riskbounds.cli"], cwd, env)
    cumulative = {}
    for line in res["stderr"].splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {name: cumulative.get(name, 0.0) for name in IMPORT_LAYERS}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Tally:
    """Attempted and failed checks, with the problems kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def timed_run(workload, cmds, cwd, env, seconds, reference, tally) -> tuple[dict, list, dict]:
    setup = []
    for i in range(SETUP_REPS):
        res = spawn([sys.executable, "-c", "import riskbounds.cli"], cwd, env)
        tally.add(f"setup {i}", [] if res["exit"] == 0 else [res["stderr"][-300:]])
        setup.append(res["wall"])
    passes = []

    def cycle():
        run = run_pass(cmds, cwd, env, traced=False)
        problems = check_pass(cmds, run, reference)
        for cmd in cmds:
            tally.add(f"pass {len(passes)} {cmd.name}", problems.get(cmd.name))
        run["ok"] = not problems
        passes.append(run)

    repeat(cycle, seconds)
    samples = {
        "setup_s": setup,
        "wall_s": [p["wall"] for p in passes],
        "cpu_s": [p["cpu"] for p in passes],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
    }
    metrics = {name: (statistics.median(vals), END_TO_END[name], vals) for name, vals in samples.items()}
    return metrics, passes, {"command_wall_s": {c.name: [p["results"][c.name]["wall"] for p in passes]
                                                for c in cmds}}


def traced_run(workload, cmds, cwd, env, seconds, reference, tally) -> tuple[dict, list, dict]:
    imports = [import_breakdown(env, cwd) for _ in range(IMPORTTIME_REPS)]
    plain, traced = [], []

    def cycle():
        base = run_pass(cmds, cwd, env, traced=False)
        run = run_pass(cmds, cwd, env, traced=True)
        base_problems = check_pass(cmds, base, reference)
        problems = check_pass(cmds, run, reference)
        for cmd in cmds:
            res = run["results"][cmd.name]
            found = list(problems.get(cmd.name, [])) + base_problems.get(cmd.name, [])
            if res["output"] != base["results"][cmd.name]["output"]:
                found.append("traced output differs from untraced output")
            if "trace" not in res:
                found.append("tracer wrote no summary")
            elif res["trace"]["unwrapped"]:
                found.append(f"unwrapped bindings {res['trace']['unwrapped']}")
            tally.add(f"traced pass {len(traced)} {cmd.name}", found)
        run["ok"] = base["ok"] = not problems and not base_problems
        plain.append(base)
        traced.append(run)

    repeat(cycle, seconds)

    # per pass: sum each layer figure over the pass's commands
    per_pass = []
    for run in traced:
        totals = {name: Counter() for name in TRACED}
        for res in run["results"].values():
            for name, row in res.get("trace", {}).get("layers", {}).items():
                totals[name].update(row)
        per_pass.append(totals)

    metrics = {}
    counts_repeat = True
    for name in TRACED:
        fields = ["calls", "self_s", "total_s"]
        if name in OPTIMIZERS:
            fields.append("evals")
        if name == "core.maximize_scalar":
            fields.append("evals_reported")
        for field in fields:
            vals = [p[name][field] for p in per_pass]
            if field.endswith("_s"):
                metrics[f"{name}.{field}"] = (statistics.median(vals), "s", vals)
            else:
                counts_repeat &= len(set(vals)) == 1
                metrics[f"{name}.{field}"] = (vals[0], "count", vals)
    rates = [p["verify.mc_lambda"]["samples"] / p["verify.mc_lambda"]["total_s"]
             if p["verify.mc_lambda"]["total_s"] > 0 else 0.0 for p in per_pass]
    metrics["verify.mc_lambda.samples_per_s"] = (statistics.median(rates), "1/s", rates)
    for layer in IMPORT_LAYERS:
        vals = [imp[layer] for imp in imports]
        metrics[f"import.{layer}_s"] = (statistics.median(vals), "s", vals)
    overhead = [t["wall"] - p["wall"] for t, p in zip(traced, plain)]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s", overhead)

    tally.add("counts repeat exactly across traced passes", [] if counts_repeat else ["counts differ"])
    silent = [f for f in DOMINANT[workload] + ("cli.main",) if metrics[f"{f}.calls"][0] == 0]
    tally.add("dominant layers record calls", [f"no calls to {f}" for f in silent])
    return metrics, plain + traced, {"untraced_wall_s": [p["wall"] for p in plain],
                                     "traced_wall_s": [t["wall"] for t in traced]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "riskbounds" / "cli.py").is_file():
        print(f"error: no riskbounds sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    cwd = WORK / args.workload
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    env = child_env()
    # compile the bytecode once, outside every timed region
    warm = spawn([sys.executable, "-c", "import riskbounds.cli"], cwd, env)
    if warm["exit"] != 0:
        print(f"error: cannot import riskbounds.cli:\n{warm['stderr']}", file=sys.stderr)
        return 3

    reference = load_reference()
    cmds = build(args.workload, args.seed, cwd)
    tally = Tally()
    measure = traced_run if args.trace else timed_run
    metrics, passes, extra = measure(args.workload, cmds, cwd, env, args.seconds, reference, tally)

    good = [p for p in passes if p["ok"]]
    oracle = None
    if good:
        outputs = {name: res["output"] for name, res in good[-1]["results"].items()}
        oracle = oracle_error(args.workload, cmds, outputs, reference)
    record = environment(args.seed, env)

    print("env " + " ".join(f"{k}={v}" for k, v in record.items()))
    for name, (value, unit, vals) in metrics.items():
        q1, q3 = quartiles(vals)
        print(f"{args.workload} {name} = {value:.6g} {unit} "
              f"(median of {len(vals)}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"{args.workload} fail_ratio = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    if oracle is not None:
        print(f"{args.workload} oracle_err = {oracle[0]:.6g} {oracle[1]} ({oracle[2]})")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")

    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": record,
        "commands": [list(c.argv) for c in cmds],
        "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in metrics.items()},
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "oracle_err": None if oracle is None else {"value": oracle[0], "unit": oracle[1],
                                                   "what": oracle[2]},
        **extra,
    }
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
