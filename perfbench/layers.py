"""The functions of sdiging the benchmark wraps, and the per-layer metrics
derived from their spans.

Wrappers go on the names the callers look up: ``engine`` imports
``stochastic_avg_gradient`` and ``spectral_quantities`` by name, so those
are wrapped in ``engine``'s namespace.  Every ``*_s`` metric is a self
time (span minus the time its child spans cover), summed over the
operation.
"""

from __future__ import annotations

import math

import numpy as np

from tracer import Target, self_times

RULES = ("diging", "sdiging", "primal_dual")

# Per-layer metrics that count work; they must repeat exactly for a seed.
COUNT_METRICS = (
    "harness.reference_grad_calls", "harness.reference_value_calls",
    "harness.reference_failures",
    *(f"engine.steps.{r}" for r in RULES),
    "engine.records", "saga.draws", "saga.table_bytes",
    "objectives.component_grads", "objectives.full_grads",
)


def _run_note(args, kwargs, result):
    """What the output check needs from one ``engine.run``."""
    trace, state = result
    res = trace.residual_log10
    return {"algorithm": args[0] if args else kwargs["algorithm"],
            "rounds": int(state.k),
            "final_residual": float(res[-1]),
            "finite": all(math.isfinite(v) for v in res)}


def _nbytes(tables):
    """Bytes of every numpy array held by the returned tables (computed)."""
    return sum(v.nbytes for t in tables for v in vars(t).values()
               if isinstance(v, np.ndarray))


def targets(full: bool) -> list:
    """``engine.run`` alone (untraced runs need its boundary), or every
    layer boundary the traced run records."""
    from sdiging import cli, engine, graph, harness, objectives, saga
    run = [Target(engine, "run", "engine.run", _run_note)]
    if not full:
        return run
    return run + [
        Target(cli, "main", "cli.main"),
        Target(harness, "build_mixing", "harness.build_mixing"),
        Target(harness, "build_problem", "harness.build_problem"),
        Target(harness, "gaussian_logistic_instance", "harness.logistic_instance"),
        Target(harness, "reference_solution", "harness.reference_solution"),
        Target(harness, "run_experiment", "harness.run_experiment"),
        Target(graph, "build_topology", "graph.build_topology"),
        Target(graph, "metropolis_weights", "graph.metropolis_weights"),
        Target(engine, "spectral_quantities", "graph.spectral_quantities"),
        Target(engine, "certificate_for_problem", "engine.certificate_for_problem"),
        *(Target(engine, f"{r}_step", f"engine.step.{r}") for r in RULES),
        Target(engine, "residual_log10", "engine.residual_log10"),
        Target(engine, "consensus_gap", "engine.consensus_gap"),
        Target(engine, "make_tables", "saga.make_tables",
               lambda a, k, result: _nbytes(result)),
        Target(engine, "stochastic_avg_gradient", "saga.stochastic_avg_gradient"),
        Target(saga.GradientTable, "draw_index", "saga.draw_index"),
        Target(objectives.LocalObjective, "full_gradient", "objectives.full_gradient"),
        Target(objectives.ProblemInstance, "aggregate_gradient",
               "objectives.aggregate_gradient"),
        Target(objectives.ProblemInstance, "aggregate_value",
               "objectives.aggregate_value"),
        *(Target(cls, "gradient", "objectives.component_gradient")
          for cls in (objectives.Quadratic, objectives.LogisticSample,
                      objectives.DiskDistance, objectives.KMeansPoint)),
    ]


def engine_runs(tracer) -> list:
    """One dict per completed ``engine.run`` call: its note plus the
    span's start and end."""
    if "engine.run" not in tracer.names:
        return []
    spans = tracer.arrays()
    sel = (spans["name_id"] == tracer.names.index("engine.run")) & ~spans["raised"]
    return [dict(note, start=float(a), end=float(b))
            for note, a, b in zip(tracer.notes["engine.run"],
                                  spans["start"][sel], spans["end"][sel])]


def first_start(tracer, name: str, default: float) -> float:
    """Start of the first span called ``name`` (``default`` if none)."""
    if name not in tracer.names:
        return default
    spans = tracer.arrays()
    starts = spans["start"][spans["name_id"] == tracer.names.index(name)]
    return float(starts.min()) if len(starts) else default


def layer_metrics(tracer) -> dict:
    """Every per-layer metric of one traced operation (0 where unused)."""
    spans = tracer.arrays()
    name_id, parent = spans["name_id"], spans["parent"]
    start, end = spans["start"], spans["end"]
    own = self_times(parent, start, end)
    ids = {n: i for i, n in enumerate(tracer.names)}
    parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)

    def is_(name):
        return name_id == ids.get(name, -2)

    def under(name, parent_of):
        return is_(name) & (parent_name == ids.get(parent_of, -2))

    def self_s(*names):
        return float(sum(own[is_(n)].sum() for n in names))

    def count(mask):
        return int(mask.sum())

    in_run = ["engine.residual_log10", "engine.consensus_gap"]
    record_mask = under("engine.consensus_gap", "engine.run")
    record_s = float(sum((end - start)[under(n, "engine.run")].sum()
                         for n in in_run))

    # write-out: run_experiment's self time after its engine.run returns
    writeout = 0.0
    for r in np.flatnonzero(is_("harness.run_experiment")):
        kids = np.flatnonzero(parent == r)
        runs = kids[is_("engine.run")[kids]]
        if len(runs):
            after = end[runs].max()
            later = kids[start[kids] >= after]
            writeout += (end[r] - after) - float((end - start)[later].sum())

    notes = tracer.notes.get("saga.make_tables", [])
    m = {
        "harness.build_problem_s": self_s("harness.build_problem",
                                          "harness.logistic_instance"),
        "harness.reference_s": self_s("harness.reference_solution"),
        "harness.reference_grad_calls": count(under(
            "objectives.aggregate_gradient", "harness.reference_solution")),
        "harness.reference_value_calls": count(under(
            "objectives.aggregate_value", "harness.reference_solution")),
        "harness.reference_failures": count(
            is_("harness.reference_solution") & spans["raised"]),
        "harness.writeout_s": writeout,
        "graph.build_topology_s": self_s("graph.build_topology"),
        "graph.metropolis_s": self_s("graph.metropolis_weights"),
        "graph.spectral_s": self_s("graph.spectral_quantities"),
        "engine.certificate_s": self_s("engine.certificate_for_problem"),
    }
    for r in RULES:
        m[f"engine.steps.{r}"] = count(is_(f"engine.step.{r}"))
        m[f"engine.step_self_s.{r}"] = self_s(f"engine.step.{r}")
    m.update({
        "engine.records": count(record_mask),
        "engine.record_s": record_s,
        "engine.run_self_s": self_s("engine.run"),
        "saga.table_init_s": self_s("saga.make_tables"),
        "saga.table_bytes": max(notes, default=0),
        "saga.draws": count(is_("saga.draw_index")),
        "saga.draw_s": self_s("saga.draw_index"),
        "saga.update_self_s": self_s("saga.stochastic_avg_gradient"),
        "objectives.component_grads": count(is_("objectives.component_gradient")),
        "objectives.component_grad_s": self_s("objectives.component_gradient"),
        "objectives.full_grads": count(is_("objectives.full_gradient")),
        "objectives.full_grad_s": self_s("objectives.full_gradient"),
        "objectives.aggregate_s": self_s("objectives.aggregate_gradient",
                                         "objectives.aggregate_value"),
    })
    return m
