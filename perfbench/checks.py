"""Output checks of the benchmark commands and their oracle errors.

Every command is checked for its exit code, its CSV header (the schemas
`emit-plot` reads are pinned in ``workloads``), its row count and its
values against ``reference.json``, the program's outputs when the
benchmark was added, within the tolerances fixed in ``workloads``.  `verify certify` must report PASS, and
each Monte Carlo pair must give bit-identical rows serially and with
``--threads 2``.  The oracle errors are reported, not checked: the
reference check already bounds the values, and the known upward bias of
the grid saddle solver must stay visible.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import DEFAULT_TOL, Command, mc_exact_lambda

REFERENCE = Path(__file__).resolve().parent / "reference.json"
MC_MAX_Z = 5.0           # |lambda_hat - lambda| / se above this is a failed run
TILT_PRIOR_SIGMA2 = 0.5  # prior variance of the alpha-c command: alpha_c = 1 / (2 sigma2)


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_csv(text: str) -> tuple[tuple[str, ...], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return (), []
    header = tuple(lines[0].split(","))
    rows = [line.split(",") for line in lines[1:] if line and not line.startswith("#")]
    return header, rows


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _cell_ok(got: str, want: str, rtol: float, atol: float) -> bool:
    g, w = _float(got), _float(want)
    if g is None or w is None:
        return got == want
    if math.isinf(w) or math.isnan(w):
        return got == want
    return math.isfinite(g) and abs(g - w) <= atol + rtol * abs(w)


def compare_rows(cmd: Command, rows: list[list[str]], ref_rows: list[list[str]]) -> list[str]:
    problems = []
    for i, (row, want) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(want):
            problems.append(f"row {i}: {len(row)} columns, reference has {len(want)}")
            continue
        for col, got, exp in zip(cmd.header, row, want):
            rtol, atol = cmd.tol.get(col, DEFAULT_TOL)
            if not _cell_ok(got, exp, rtol, atol):
                problems.append(f"row {i} {col}: {got} vs reference {exp}")
    return problems[:5]


def check_command(cmd: Command, result: dict, ref: dict | None, done: dict) -> list[str]:
    """Problems with one command's output; ``done`` maps names to earlier outputs."""
    if result["timeout"]:
        return ["timed out"]
    if result["exit"] != 0:
        return [f"exit code {result['exit']}: {result['stderr'][-300:]!r}"]
    text = result["output"]
    if ref is None:
        return [f"no reference output for {cmd.key!r}"]
    if not cmd.header:   # emit-plot: the script is deterministic text
        return [] if text == ref["text"] else ["script differs from reference"]
    header, rows = parse_csv(text)
    problems = []
    if header != cmd.header:
        problems.append(f"header {','.join(header)!r}, expected {','.join(cmd.header)!r}")
    if len(rows) != cmd.rows:
        problems.append(f"{len(rows)} data rows, expected {cmd.rows}")
    if problems:
        return problems
    problems += compare_rows(cmd, rows, [r.split(",") for r in ref["rows"]])
    if cmd.name == "certify":
        if "PASS" not in result["stderr"]:
            problems.append("certify did not report PASS")
        problems += [f"certify row {r[0]} alpha {r[1]}: {r[-1]}" for r in rows if r[-1] != "ok"]
    if cmd.same_as is not None:
        _, base_rows = parse_csv(done[cmd.same_as])
        if rows != base_rows:
            problems.append(f"rows differ from {cmd.same_as}: {rows} vs {base_rows}")
    if cmd.mc_var is not None:
        z = mc_z(cmd, rows[0])
        if not z <= MC_MAX_Z:
            problems.append(f"lambda_hat is {z:.3g} se from the closed form")
    return problems


def mc_z(cmd: Command, row: list[str]) -> float:
    alpha, lam_hat, se = float(row[2]), float(row[5]), float(row[6])
    return abs(lam_hat - mc_exact_lambda(alpha, cmd.mc_var)) / se


def oracle_error(workload: str, cmds: list[Command], outputs: dict, reference: dict):
    """(value, unit, what) of the largest deviation from an independent truth, or None."""
    by_name = {c.name: c for c in cmds}
    if workload == "phase":
        _, rows = parse_csv(outputs["exponent"])
        exact = reference["oracle"][by_name["exponent"].key]
        err = max(abs(float(r[1]) - e) for r, e in zip(rows, exact))
        return err, "abs", "max |E(a) - tests/oracles.exponent_oracle(a)|"
    if workload == "tilt":
        _, rows = parse_csv(outputs["alpha-c"])
        return (abs(float(rows[0][0]) - 1.0 / (2.0 * TILT_PRIOR_SIGMA2)), "abs",
                "|alpha_c_upper - 1/(2 sigma2)|")
    if workload == "mc":
        z = max(mc_z(c, parse_csv(outputs[c.name])[1][0]) for c in cmds)
        return z, "se", "max |lambda_hat - closed form| / se"
    return None
