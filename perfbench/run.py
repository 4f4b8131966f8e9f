"""sdiging benchmark driver.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Closed loop: one operation at a time, each in a fresh Python process, until
``--seconds`` have passed (and at least a few operations have finished).
Every operation's output is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work"
# Every run must end well inside 180 s, whatever its operations do.
RUN_LIMIT_S = 165.0
MIN_OPS = 3          # untraced operations per --trace 0 run
MIN_TRACED = 2       # traced operations (and as many untraced) per --trace 1 run
# BLAS threads for every operation: one, so that runs on a shared 2-core
# machine do not compete with themselves.
BLAS_THREADS = "1"

END_TO_END = {"run_s": "s", "setup_s": "s", "step_us": "us", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_op(spec: dict, spec_path: Path, out_dir: Path, traced: bool, op_id: str,
           cap: float) -> dict:
    """One operation in a child process, writing into ``out_dir``; returns
    its record.

    ``problems`` lists what went wrong (empty: a correct operation);
    ``wrong`` is set when the program ran but its output failed the check.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if "config" in spec:
        (out_dir / "config.ini").write_text(spec["config"])
    cmd = [sys.executable, str(HERE / "op.py"), str(spec_path), str(out_dir),
           "1" if traced else "0", op_id]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return {"op": op_id, "traced": traced, "wall_s": time.perf_counter() - t0,
                "problems": [f"killed at the {cap:.0f} s wall-time cap"]}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"op": op_id, "traced": traced, "wall_s": wall,
                "problems": [f"no result (exit {proc.returncode}): "
                             f"{proc.stderr.strip()[-300:]}"]}
    problems = workloads.check(spec, result, out_dir)
    return {"op": op_id, "traced": traced, "wall_s": wall, "result": result,
            "problems": problems, "wrong": bool(problems)}


def step_us(result: dict) -> float:
    """µs per inner step of one operation: per engine round over all of
    its rules, or per reference-solver oracle call when it runs no rounds."""
    runs = result["runs"]
    if runs:
        return 1e6 * sum(r["wall_s"] for r in runs) / sum(r["rounds"] for r in runs)
    return 1e6 * result["run_s"] / result["oracle_calls"]


def end_to_end(ok: list) -> dict:
    """Medians over the run's operations (times at nominal speed)."""
    per_op = {"run_s": [r["run_s"] for r in ok],
              "setup_s": [r["setup_s"] for r in ok],
              "step_us": [step_us(r) for r in ok],
              "peak_rss_mb": [r["peak_rss_mb"] for r in ok]}
    return {k: statistics.median(v) for k, v in per_op.items()}


def round_us_by_rule(ok: list) -> dict:
    """Median over operations of each rule's µs per round (0: rule unused)."""
    out = {}
    for rule in layers.RULES:
        vals = [1e6 * r["wall_s"] / r["rounds"] for res in ok for r in res["runs"]
                if r["algorithm"] == rule]
        out[rule] = statistics.median(vals) if vals else 0.0
    return out


def per_layer(traced: list, untraced: list) -> tuple[dict, list]:
    """Per-layer metrics (median over traced operations for times, the
    common value for counts) and any count that differed between them."""
    layer_runs = [r["layers"] for r in traced]
    metrics, mismatched = {}, []
    for name in layer_runs[0]:
        values = [lr[name] for lr in layer_runs]
        if name in layers.COUNT_METRICS:
            if len(set(values)) != 1:
                mismatched.append(f"{name}: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.import_s"] = statistics.median(
        r["import_s"] for r in traced + untraced)
    for rule, v in round_us_by_rule(untraced).items():
        metrics[f"engine.round_us.{rule}"] = v
    metrics["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in untraced))
    return metrics, mismatched


def unit_of(name: str) -> str:
    if name in layers.COUNT_METRICS:
        return "bytes" if name.endswith("_bytes") else "count"
    return "us" if "_us" in name else "s"


def enough(ops: list, trace: bool) -> bool:
    done = [o for o in ops if "result" in o]
    n_traced = sum(o["traced"] for o in done)
    if trace:
        return n_traced >= MIN_TRACED and len(done) - n_traced >= MIN_TRACED
    return len(done) >= MIN_OPS


def summarize(ops: list, trace: bool, m: int) -> tuple[dict, list]:
    """The result object of a run, and human-readable lines about it.

    Every operation whose record lists a problem counts as failed; the run
    is ``correct`` unless some operation's output was wrong or a count
    differed between traced operations.
    """
    ok = [o["result"] for o in ops if not o["problems"]]
    failed = len(ops) - len(ok)
    correct = not any(o.get("wrong") for o in ops)
    ok_untraced = [r for r in ok if not r["traced"]]
    ok_traced = [r for r in ok if r["traced"]]
    notes, values, units = [], {}, {}
    if trace and ok_traced and ok_untraced:
        values, mismatched = per_layer(ok_traced, ok_untraced)
        notes += [f"count differs between traced operations: {x}" for x in mismatched]
        correct = correct and not mismatched
        absent = sorted({a for r in ok_traced for a in r["absent"]})
        if absent:
            notes.append(f"absent (not wrapped): {', '.join(absent)}")
        units = {k: unit_of(k) for k in values}
    elif not trace and ok_untraced:
        values, units = end_to_end(ok_untraced), END_TO_END
        notes += [f"round_us.{rule} {v:.1f} us ({v / m:.2f} us/agent-round)"
                  for rule, v in round_us_by_rule(ok_untraced).items() if v]
    if ok:
        notes.append("wall time, not normalized: median run_s %.4g s; "
                     "machine speed factor median %.3f" % (
                         statistics.median(r["raw_run_s"] for r in ok),
                         statistics.median(r["speed"]["factor"] for r in ok)))
    notes.append(f"fail_rate {failed / len(ops):.3f} ({failed}/{len(ops)} operations)")
    notes += [f"{k} {v:.6g} {units[k]}" for k, v in values.items()]
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return ({"correct": correct, "attempted": len(ops), "failed": failed,
             "metrics": metrics}, notes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.CANONICAL_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sdiging" / "__init__.py").is_file():
        print(f"error: no sdiging sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = workloads.make_spec(args.workload, args.seed)
    run_dir = WORK / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    trace = bool(args.trace)
    cap_s = workloads.CAPS_S[args.workload]

    ops: list = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        cap = min(cap_s, RUN_LIMIT_S - elapsed)
        longest = max((o["wall_s"] for o in ops), default=0.0)
        if ops and (cap < 2 * longest or
                    (enough(ops, trace) and elapsed + longest > args.seconds)):
            break
        traced = trace and len(ops) % 2 == 1
        op = run_op(spec, spec_path, run_dir / "op", traced,
                    f"{args.workload}-s{args.seed}-{len(ops)}", cap)
        ops.append(op)
        status = "ok" if not op["problems"] else "FAILED " + "; ".join(op["problems"])
        print(f"op {op['op']} traced={int(traced)} wall={op['wall_s']:.3f}s {status}",
              flush=True)
    logged = ("run_s", "raw_run_s", "setup_s", "peak_rss_mb", "runs",
              "oracle_calls", "import_s", "speed")
    with (WORK / "ops.jsonl").open("a") as log:    # read by baseline.py
        for op in ops:
            record = {"workload": args.workload, "seed": args.seed,
                      **{k: v for k, v in op.items() if k != "result"},
                      **{k: op.get("result", {}).get(k) for k in logged}}
            log.write(json.dumps(record) + "\n")

    result, notes = summarize(ops, trace, spec["m"])
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
