"""Alternating A/B pairs of the end-to-end benchmark: a parent commit
against the working tree.

    python3 tools/ab_pairs.py --parent REV --pr N \\
        --runs m1000_compare:0:10 m1000_compare:1:5 va2_run:0:10

Both sides are exported with ``git archive`` into sibling directories
``parent`` and ``change`` of one temporary directory (no network, nothing
registered in the repository): the parent from REV, the change from
``git stash create`` (the working tree's tracked files, staged new files
included) or HEAD when the tree is clean.  Each ``workload:seed:pairs``
entry runs that many pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, T being ``run_seconds`` of BENCHMARK.json, odd pairs
parent first and even pairs change first, with one BLAS thread.
``ROOT/BENCH_<pr>.json`` gets every run, the CPU and thread settings, and
per workload, seed and metric, each side's median and quartiles, the pairs
the change won, the median gap over the parent's quartile spread, and the
no-regression verdict against the metric's ``bound`` in BENCHMARK.json;
per workload and seed, each side's share of failed operations.

SIGTERM or Ctrl-C stops the perfbench run in progress, with the operations
it started (each run has its own session), and removes both trees.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in _BENCHMARK["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in _BENCHMARK["end_to_end"]}
SECONDS = _BENCHMARK["run_seconds"]
# Set for every perfbench process, so that the driver and the operations it
# starts use one BLAS thread whatever the calling shell holds.
BLAS_ENV = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def quartiles(values: list) -> dict:
    """Median and quartiles (``statistics.quantiles``' default method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The no-regression reading of one metric's paired runs, ``bound``
    being a fraction of the parent's median: "worse" when the change's
    median is worse than the parent's by more than the bound, "unresolved"
    when the parent's quartile spread is wider than the bound and not every
    change run beats every parent run, and "within bound" otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    margin = bound * abs(p["median"])
    if sign * (c["median"] - p["median"]) > margin:
        return "worse"
    beats_all = max(sign * v for v in change) < min(sign * v for v in parent)
    if p["q3"] - p["q1"] > margin and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(runs: list, metrics: dict = METRICS,
              bounds: dict = BOUNDS) -> dict:
    """Per metric: each side's quartiles, the pairs the change won (ties
    count for neither side), the median change in percent, the median
    gap in the better direction over the parent's quartile spread (inf
    when the spread is 0 and the medians differ) and, for a metric in
    ``bounds``, its ``verdict``.

    ``runs`` holds one dict per run with ``pair``, ``side`` ("parent" or
    "change") and a value per metric; ``metrics`` maps each metric to
    "lower" or "higher", the better direction.
    """
    pairs = sorted({r["pair"] for r in runs})
    out = {"pairs": len(pairs)}
    for name, better in metrics.items():
        side = {s: {r["pair"]: r[name] for r in runs if r["side"] == s}
                for s in ("parent", "change")}
        both = [p for p in pairs if p in side["parent"] and p in side["change"]]
        if not both:
            continue
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (side["parent"][p] - side["change"][p]) > 0 for p in both)
        values = {s: [side[s][p] for p in both] for s in side}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gap = sign * (parent["median"] - change["median"])
        spread = parent["q3"] - parent["q1"]
        out[name] = {
            "parent": parent, "change": change,
            "change_better_in_pairs": f"{won}/{len(both)}",
            "median_change_pct": 100.0 * (change["median"] - parent["median"])
            / parent["median"],
            "median_gap_over_parent_iqr": gap / spread if spread
            else math.copysign(math.inf, gap) if gap else 0.0,
        }
        if name in bounds:
            out[name]["verdict"] = verdict(values["parent"], values["change"],
                                           better, bounds[name])
    return out


def failed_share(runs: list) -> dict:
    """Each side's failed operations over its attempted ones, summed over
    its runs, and the verdict: "worse" when the change's share is larger,
    which the no-regression check refuses, "within bound" otherwise."""
    share = {}
    for s in ("parent", "change"):
        mine = [r for r in runs if r["side"] == s]
        attempted = sum(r["attempted"] for r in mine)
        share[s] = sum(r["failed"] for r in mine) / attempted if attempted \
            else 0.0
    share["verdict"] = "worse" if share["change"] > share["parent"] \
        else "within bound"
    return share


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; returns the full hash."""
    sha = git("rev-parse", rev)
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def run_group(cmd: list, cwd: Path, env: dict | None = None
              ) -> subprocess.CompletedProcess:
    """``cmd`` run to its end in a session of its own, with one BLAS
    thread and the variables of ``env``; should this process be stopped
    meanwhile, the session's process group, ``cmd`` and every process it
    started, is killed."""
    proc = subprocess.Popen(cmd, cwd=cwd,
                            env={**os.environ, **BLAS_ENV, **(env or {})},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):    # none left
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def bench(tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in ``tree``: its metrics and run counts."""
    proc = run_group(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"], tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {**{k: result["metrics"][k]["value"] for k in METRICS},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"]}


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in (tree / "src").rglob("*.py"))


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    return next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("model name")), platform.processor())


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)     # unwinds, so the trees are removed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    ap.add_argument("--runs", nargs="+", required=True,
                    help="workload:seed:pairs entries, run in this order")
    ap.add_argument("--description", default="")
    args = ap.parse_args(argv)

    plan = []
    for entry in args.runs:
        workload, seed, n = entry.split(":")
        plan.append((workload, int(seed), int(n)))
    out = ROOT / f"BENCH_{args.pr}.json"
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {"parent": export(args.parent, trees["parent"]),
                   "change": export(git("stash", "create") or "HEAD",
                                    trees["change"])}
        record = {
            "description": args.description,
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {SECONDS} --trace 0",
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "environment": {"python": platform.python_version(),
                            **{lib: importlib.metadata.version(lib)
                               for lib in ("numpy", "scipy")},
                            "nproc": os.cpu_count(),
                            "machine": platform.machine(),
                            "cpu": cpu_model(), **BLAS_ENV},
            "order": "pairs alternate: odd pairs run parent first, "
                     "even pairs change first",
            "src_lines": {s: src_lines(t) for s, t in trees.items()},
            "summary": {}, "runs": {},
        }
        for workload, seed, n in plan:
            key = f"{workload}_seed{seed}"
            runs = record["runs"].setdefault(key, [])
            for pair in range(len(runs) // 2 + 1, len(runs) // 2 + n + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    runs.append({"pair": pair, "side": side,
                                 **bench(trees[side], workload, seed)})
                    print(key, json.dumps(runs[-1]), flush=True)
                record["summary"][key] = {**summarize(runs),
                                          "failed_share": failed_share(runs)}
                out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
