"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads phase,tilt --seeds 10-19
    python3 perfbench/spread.py --seeds 30-39 --write-baseline
    python3 perfbench/spread.py --seeds 30-32 --trace 1 --write-baseline

For every metric it prints the median of the per-run values and the
distance between their first and third quartile as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them; for an end-to-end
metric compare it with the metric's ``bound`` in BENCHMARK.json.
``--write-baseline`` stores the figures under ``trace0`` or ``trace1`` in
``perfbench/baseline.json``, the reference for later changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        env = None
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            env = env or next(line for line in lines if line.startswith("env "))
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload} {name}: median {median:.6g}, quartiles {q1:.6g} .. {q3:.6g}, "
                  f"spread {spread:.3f} (bound {bounds.get(name, '-')}), {len(vals)} runs")
        baseline.setdefault(workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "run_seconds": bench["run_seconds"], "environment": env,
            "metrics": rows}
    if args.write_baseline:
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
