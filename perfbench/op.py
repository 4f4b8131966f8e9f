"""Run one benchmark operation in this fresh process; print its result as
one JSON line.

    python3 perfbench/op.py <spec.json> <out_dir> <trace 0|1> <op id>

The operation's clock starts at the call into ``cli.main`` (or the first
library call) and stops at its return, so interpreter start-up and import
are excluded; import is reported on its own as ``import_s``.  Times are
reported at the nominal machine speed (see speed.py); ``raw_run_s`` is the
plain wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _count_calls(obj, attr, counter):
    """Shadow a bound method with one that counts its calls."""
    bound = getattr(obj, attr)

    def counted(*args, **kwargs):
        counter[0] += 1
        return bound(*args, **kwargs)

    setattr(obj, attr, counted)


def _reference_op(spec, result, harness, errors):
    """harness.reference_solution on a logistic instance with a budget.

    Returns the end time and, when solved, the problem and its solution.
    """
    problem = harness.gaussian_logistic_instance(**spec["problem"])
    calls = [0]
    _count_calls(problem, "aggregate_gradient", calls)
    _count_calls(problem, "aggregate_value", calls)
    try:
        sol = harness.reference_solution(problem, seed=spec["problem"]["seed"],
                                         max_oracle=spec["max_oracle"])
    except errors.ReferenceFailure:
        sol = None
    end = time.perf_counter()
    result["oracle_calls"] = calls[0]
    result["reference_outcome"] = "ReferenceFailure" if sol is None else "solved"
    return end, (problem, sol) if sol is not None else None


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    out_dir, traced, op_id = Path(argv[2]), argv[3] == "1", argv[4]
    t_import = time.perf_counter()
    from sdiging import cli, errors, harness
    import_s = time.perf_counter() - t_import

    import numpy as np

    import layers
    from speed import SpeedSampler
    from tracer import Tracer
    tracer = Tracer()
    tracer.install(layers.targets(full=traced))
    result = {"traced": traced, "absent": tracer.absent}
    stdout, stderr = io.StringIO(), io.StringIO()
    solved = None
    with SpeedSampler() as sampler:
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                begin = time.perf_counter()
                if spec["kind"] == "cli":
                    args = [a.format(config=out_dir / "config.ini", out=out_dir)
                            for a in spec["argv"]]
                    result["exit_code"] = cli.main(args)
                    end = time.perf_counter()
                else:
                    end, solved = _reference_op(spec, result, harness, errors)
        except Exception as exc:  # reported as a failed operation
            result["exception"] = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        finally:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["stdout"], result["stderr"] = stdout.getvalue(), stderr.getvalue()

    factor = sampler.factor(begin, end)
    first_run = layers.first_start(tracer, "engine.run", default=end)
    result.update(
        raw_run_s=end - begin,
        run_s=sampler.normalized(begin, end),
        setup_s=sampler.normalized(begin, first_run, factor),
        import_s=import_s * factor,
        speed={"samples": len(sampler.durations), "factor": factor})
    runs = layers.engine_runs(tracer)
    for r in runs:
        r["wall_s"] = sampler.normalized(r.pop("start"), r.pop("end"), factor)
    result["runs"] = runs
    if solved is not None:
        problem, sol = solved
        result["grad_norm"] = float(np.linalg.norm(
            type(problem).aggregate_gradient(problem, sol.x)))
    if traced:
        result["layers"] = {k: v * factor if k.endswith("_s") else v
                            for k, v in layers.layer_metrics(tracer).items()}
        np.savez(out_dir / "spans.npz", op_id=op_id,
                 names=np.array(tracer.names), **tracer.arrays())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
