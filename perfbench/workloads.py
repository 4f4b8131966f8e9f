"""Workload definitions: operation specs generated from the benchmark seed,
and the output check applied to every operation.

Seed 0 reproduces the reference configurations exactly and is checked
against the exact values they produce; every other seed is checked only
for invariants that hold on any input.

What the seed varies, and why:

* ``va2_run`` and ``m1000_compare`` keep their logistic problem instance
  fixed and vary the graph and the index streams.  The reference solver
  stalls on many logistic instances (4 of 6 problem seeds at m=1000 did
  not converge within 3000 oracle calls), which ``ref_stall`` measures on
  purpose; a stall here would turn a round-cost workload into a timeout.
* ``loc_compare`` varies everything: its reference is the known optimum.
* ``ref_stall`` picks one of the instances on which the solver exhausts
  its 2000-call budget (measured by the benchmark's author by running
  ``reference_solution`` on problem seeds 0-11; seeds 0, 1, 5, 6 and 9
  converged within 300 calls and are excluded).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

CANONICAL_SEED = 0

# Problem seeds on which reference_solution(m=100, q_i=30, n=4) spends its
# whole 2000-call budget without reaching a 1e-10 gradient.
STALL_SEEDS = (3, 2, 4, 7, 8, 10, 11)
STALL_BUDGET = 2000

WORKLOADS = ("va2_run", "loc_compare", "m1000_compare", "ref_stall")

# Wall-time cap of one operation; an operation past it is killed and
# counted as failed.  Each is several times the measured duration.
CAPS_S = {"va2_run": 60, "loc_compare": 60, "m1000_compare": 90,
          "ref_stall": 60}

CSV_HEADER = "round,residual_log10,consensus_gap,grad_evals,wall_ms"


def _ini(problem: dict, topology: dict, algorithm: dict, output=None) -> str:
    sections = [("problem", problem), ("topology", topology),
                ("algorithm", algorithm)]
    if output:
        sections.append(("output", output))
    lines = []
    for name, values in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        lines.append("")
    return "\n".join(lines)


def make_spec(workload: str, seed: int) -> dict:
    """The operation a workload repeats, as data the child process runs.

    ``kind`` is ``cli`` (``argv`` goes to ``cli.main``, with the text of
    the config file in ``config``) or ``reference`` (a library call).
    """
    if workload == "va2_run":
        config = _ini(
            {"family": "gaussian_logistic", "q": 30, "n": 4, "seed": 3},
            {"kind": "random_gnp", "m": 20, "p": 0.4, "seed": 3 + seed},
            {"name": "sdiging", "alpha": 0.02, "rounds": 10000,
             "seed": 11 + seed},
            {"prefix": "va2"})  # the CLI's --output-dir sets the directory
        return {"workload": workload, "seed": seed, "kind": "cli", "m": 20,
                "config": config,
                "argv": ["--quiet", "--output-dir", "{out}", "run", "{config}"]}
    if workload == "loc_compare":
        config = _ini(
            {"family": "localization", "q": 20, "sigma": 0, "seed": 9 + seed},
            {"kind": "random_gnp", "m": 10, "p": 0.4, "seed": 9 + seed},
            {"name": "sdiging", "alpha": 0.1, "rounds": 2000,
             "seed": 11 + seed})
        return {"workload": workload, "seed": seed, "kind": "cli", "m": 10,
                "config": config,
                "argv": ["--quiet", "compare", "{config}", "--algos",
                         "diging,sdiging,primal_dual", "--target", "-6"]}
    if workload == "m1000_compare":
        config = _ini(
            {"family": "gaussian_logistic", "q": 10, "n": 4, "seed": 3},
            {"kind": "random_gnp", "m": 1000, "p": 0.02, "seed": 3 + seed},
            {"name": "sdiging", "alpha": 0.02, "rounds": 30,
             "seed": 11 + seed})
        return {"workload": workload, "seed": seed, "kind": "cli", "m": 1000,
                "config": config,
                "argv": ["--quiet", "compare", "{config}", "--algos",
                         "sdiging,primal_dual", "--target", "0.4"]}
    if workload == "ref_stall":
        return {"workload": workload, "seed": seed, "kind": "reference", "m": 100,
                "problem": {"m": 100, "q_i": 30, "n": 4,
                            "seed": STALL_SEEDS[seed % len(STALL_SEEDS)]},
                "max_oracle": STALL_BUDGET}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------

def parse_compare_table(stdout: str) -> dict:
    """``{algorithm: rounds_to_target or None}`` from the compare table."""
    rows = {}
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) >= 2:
            rows[parts[0]] = None if parts[1] == "not" else int(parts[1])
    return rows


def _check_runs(result: dict, expected_algos) -> list:
    problems = []
    runs = result.get("runs", [])
    if [r["algorithm"] for r in runs] != list(expected_algos):
        problems.append(f"engine.run calls {[r['algorithm'] for r in runs]}, "
                        f"expected {list(expected_algos)}")
    for r in runs:
        if not r["finite"]:
            problems.append(f"{r['algorithm']}: non-finite residual")
    return problems


def _check_va2(spec, result, out_dir: Path) -> list:
    problems = _check_runs(result, ["sdiging"])
    path = out_dir / "va2.csv"
    if not path.is_file():
        return problems + ["trace CSV missing"]
    with path.open() as fh:
        header = fh.readline().strip()
        rows = list(csv.reader(fh))
    if header != CSV_HEADER:
        problems.append(f"CSV header {header!r}")
    if len(rows) != 2001:
        problems.append(f"{len(rows)} CSV rows, expected 2001")
    residuals = [float(r[1]) for r in rows]
    if not all(math.isfinite(v) for v in residuals):
        problems.append("non-finite residual in CSV")
    if spec["seed"] == CANONICAL_SEED and residuals and \
            abs(residuals[-1] - (-9.5457)) > 5e-5:
        problems.append(f"final residual_log10 {residuals[-1]:.6f}, "
                        "expected -9.5457")
    return problems


def _check_compare(spec, result, algos, canonical: dict) -> list:
    problems = _check_runs(result, algos)
    table = parse_compare_table(result.get("stdout", ""))
    if list(table) != list(algos):
        return problems + [f"compare table rows {list(table)}"]
    if table["sdiging"] != table["primal_dual"]:
        problems.append(f"sdiging reached the target at {table['sdiging']}, "
                        f"primal_dual at {table['primal_dual']}")
    # The two rules agree to machine precision; compare the final mean
    # distances to the reference, not their logarithms, which near 1e-13
    # differ by rounding alone.
    runs = {r["algorithm"]: r for r in result.get("runs", [])}
    if "sdiging" in runs and "primal_dual" in runs and \
            abs(10 ** runs["sdiging"]["final_residual"]
                - 10 ** runs["primal_dual"]["final_residual"]) > 1e-9:
        problems.append("sdiging and primal_dual end at different residuals")
    if spec["seed"] == CANONICAL_SEED and table != canonical:
        problems.append(f"rounds to target {table}, expected {canonical}")
    return problems


# Oracle calls at which the solver gives up on problem seed 3 at this
# commit: a backtracking step in flight may finish past the budget.
CANONICAL_STALL_CALLS = 2002


def _check_reference(spec, result) -> list:
    """Either a verified answer within budget, or a ReferenceFailure that
    spent the budget (at seed 0: exactly CANONICAL_STALL_CALLS calls)."""
    calls = result.get("oracle_calls")
    budget = spec["max_oracle"]
    outcome = result.get("reference_outcome")
    if outcome == "ReferenceFailure":
        expected = [CANONICAL_STALL_CALLS] if spec["seed"] == CANONICAL_SEED \
            else range(budget, budget + 3)
        if calls not in expected:
            return [f"ReferenceFailure after {calls} oracle calls, "
                    f"budget {budget}"]
        return []
    if outcome == "solved":
        problems = []
        if calls is None or calls > budget:
            problems.append(f"solved after {calls} oracle calls, "
                            f"budget {budget}")
        if not result.get("grad_norm", math.inf) < 1e-10:
            problems.append(f"returned point has gradient norm "
                            f"{result.get('grad_norm')}")
        return problems
    return [f"reference outcome {outcome!r}"]


def check(spec: dict, result: dict, out_dir: Path) -> list:
    """Problems with one finished operation's output; empty means correct."""
    if result.get("exception"):
        return [f"raised {result['exception']}"]
    if spec["kind"] == "reference":
        return _check_reference(spec, result)
    if result.get("exit_code") != 0:
        return [f"exit code {result.get('exit_code')}: "
                f"{result.get('stderr', '').strip()}"]
    if spec["workload"] == "va2_run":
        return _check_va2(spec, result, out_dir)
    if spec["workload"] == "loc_compare":
        return _check_compare(spec, result, ["diging", "sdiging", "primal_dual"],
                              {"diging": 465, "sdiging": 581,
                               "primal_dual": 581})
    return _check_compare(spec, result, ["sdiging", "primal_dual"],
                          {"sdiging": 27, "primal_dual": 27})
