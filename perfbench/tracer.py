"""Run one riskbounds CLI command in this process, with spans around each layer.

    python perfbench/tracer.py SUMMARY.json ARGV...

Before calling ``riskbounds.cli.main(ARGV)`` every function in ``LAYERS`` is
wrapped, and every binding of it in a loaded ``riskbounds`` module is
replaced, so calls through ``from .core import maximize_scalar`` are traced
too.  Each wrapper records a span (name, start, end, parent) in memory; the
per-function calls, total time and self time (span minus the time covered
by its child spans) are written to SUMMARY.json when the command ends.  The
objective passed to the ``core`` optimizers is wrapped as well, so their
real evaluation counts sit next to the ``n_eval`` that ``maximize_scalar``
reports.  The library itself is not modified, and the command's CSV output
is the same as without tracing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter

LAYERS = {
    "cli": ("main",),
    "core": ("maximize_scalar", "golden_section_max", "coordinate_descent_max", "divergence_onset"),
    "divergences": ("tilt_prior",),
    "bayes_bounds": ("tilted_prior_bound", "alpha_c_upper", "lpcb_bound"),
    "delay_design": ("nu_bound",),
    "nonbayes_bounds": ("scalar_linear_bound", "vector_linear_bound", "nonlinear_bound"),
    "phase_transition": ("error_exponent", "bernoulli_bayes_exponent", "classify_phase",
                         "magnetization_roots", "asymptotic_estimator"),
    "verify": ("mc_lambda", "bernoulli_exact_lambda"),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
# functions whose first argument is an objective to count
OPTIMIZERS = ("core.maximize_scalar", "core.golden_section_max",
              "core.coordinate_descent_max", "core.divergence_onset")


class Recorder:
    """Spans and counters of one process, kept in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.evals: Counter = Counter()      # objective calls per optimizer
        self.evals_reported = 0              # sum of n_eval returned by maximize_scalar
        self.mc_samples = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _counting(self, name: str, objective):
        def counted(*args, **kwargs):
            with self._lock:
                self.evals[name] += 1
            return objective(*args, **kwargs)
        return counted

    def wrap(self, name: str, fn):
        objective_param = next(iter(inspect.signature(fn).parameters)) if name in OPTIMIZERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if objective_param is not None:
                if args:
                    args = (self._counting(name, args[0]),) + args[1:]
                else:
                    kwargs[objective_param] = self._counting(name, kwargs[objective_param])
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if name == "core.maximize_scalar":
                self.evals_reported += result[2]
            elif name == "verify.mc_lambda":
                self.mc_samples += result.n_samples
            return result

        return traced

    def summary(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
        for (name, start, end, _), child in zip(self.spans, covered):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        for name in OPTIMIZERS:
            out[name]["evals"] = self.evals[name]
        out["core.maximize_scalar"]["evals_reported"] = self.evals_reported
        out["verify.mc_lambda"]["samples"] = self.mc_samples
        return out


def install(recorder: Recorder) -> list[str]:
    """Wrap every LAYERS function in every riskbounds module that binds it.

    Returns the bindings still pointing at an unwrapped original (empty
    when coverage is complete).
    """
    importlib.import_module("riskbounds.cli")
    originals = {}
    for mod_name, names in LAYERS.items():
        mod = importlib.import_module(f"riskbounds.{mod_name}")
        for fn_name in names:
            fn = getattr(mod, fn_name)
            originals[id(fn)] = (fn, recorder.wrap(f"{mod_name}.{fn_name}", fn))
    modules = [m for name, m in sys.modules.items()
               if name == "riskbounds" or name.startswith("riskbounds.")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return [f"{mod.__name__}.{attr}" for mod in modules for attr, value in vars(mod).items()
            if id(value) in originals and originals[id(value)][0] is value]


def main(argv: list[str]) -> int:
    summary_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    unwrapped = install(recorder)
    cli = importlib.import_module("riskbounds.cli")
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:   # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "unwrapped": unwrapped, "layers": recorder.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
