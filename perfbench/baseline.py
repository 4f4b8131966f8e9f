"""Write perfbench/BASELINE.json from the operations the benchmark logged.

    python3 perfbench/baseline.py

Every run of perfbench/run.py appends its operations to
.bench_work/ops.jsonl.  This script groups the untraced, correct
operations by workload and records, for each timing, the median, the
highest percentile that still has at least ten samples above it, and the
sample count, together with the environment the numbers were measured in.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

TAIL = 10


def summary(values: list) -> dict:
    """Median, the highest percentile with TAIL samples beyond it, count."""
    values = sorted(values)
    out = {"median": statistics.median(values), "samples": len(values)}
    k = len(values) - TAIL
    if k >= 1:
        out[f"p{100 * k / len(values):.0f}"] = values[k - 1]
    return out


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration", blas.get("name")),
            "blas_threads": int(run.BLAS_THREADS), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit,
            "speed_nominal_s": speed.NOMINAL_S}


def main() -> int:
    by_workload = defaultdict(lambda: defaultdict(list))
    for line in (run.WORK / "ops.jsonl").read_text().splitlines():
        op = json.loads(line)
        if op["traced"] or op["problems"]:
            continue
        samples = by_workload[op["workload"]]
        samples["run_s"].append(op["run_s"])
        samples["raw_run_s"].append(op["raw_run_s"])
        samples["setup_s"].append(op["setup_s"])
        samples["step_us"].append(run.step_us(op))
        samples["peak_rss_mb"].append(op["peak_rss_mb"])
        samples["speed_factor"].append(op["speed"]["factor"])
    out = {"environment": environment(),
           "operations": {w: {k: summary(v) for k, v in m.items()}
                          for w, m in sorted(by_workload.items())}}
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
