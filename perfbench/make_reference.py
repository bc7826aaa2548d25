"""Regenerate ``reference.json``: the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every command of every workload variant once, untraced, with the
program in ``src`` and stores its CSV rows (or the emit-plot script text)
under the command's argv.  For the `phase exponent` sweeps it also stores
E(a) at each sweep point from ``tests/oracles.exponent_oracle``, the exact
cubic saddle solver (about 2 s per point, too slow for every pass).  The
committed file was made when the benchmark was added; regenerate it only when a
change of output is intended, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from checks import REFERENCE, parse_csv
from run import ROOT, WORK, child_env, run_pass, spawn
from workloads import VARIANTS, WORKLOADS, build


def exact_exponent(a: float) -> float:
    sys.path.insert(0, str(ROOT))
    from tests.oracles import exponent_oracle

    return exponent_oracle(a)


def main() -> int:
    cwd = WORK / "reference"
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    env = child_env()
    spawn([sys.executable, "-c", "import riskbounds.cli"], cwd, env)
    outputs, sweeps = {}, {}
    for workload in WORKLOADS:
        for k in range(VARIANTS):
            cmds = build(workload, k, cwd)
            run = run_pass(cmds, cwd, env, traced=False)
            for cmd in cmds:
                res = run["results"][cmd.name]
                if res["exit"] != 0:
                    raise SystemExit(f"{cmd.key}: exit {res['exit']}\n{res['stderr']}")
                if cmd.header:
                    outputs[cmd.key] = {"rows": [",".join(r) for r in parse_csv(res["output"])[1]]}
                else:
                    outputs[cmd.key] = {"text": res["output"]}
                if cmd.name == "exponent":
                    sweeps[cmd.key] = [float(row.split(",")[0]) for row in outputs[cmd.key]["rows"]]
            print(f"{workload} variant {k}: {run['wall']:.1f} s", flush=True)

    points = sorted({a for a_vals in sweeps.values() for a in a_vals})
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        exact = dict(zip(points, pool.map(exact_exponent, points)))
    oracle = {key: [exact[a] for a in a_vals] for key, a_vals in sweeps.items()}

    REFERENCE.write_text(json.dumps({
        "generated_by": "perfbench/make_reference.py",
        "variants": VARIANTS,
        "outputs": outputs,
        "oracle": oracle,
    }, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE} ({len(outputs)} commands, {len(points)} oracle points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
