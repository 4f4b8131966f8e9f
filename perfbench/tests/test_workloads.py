"""Inputs follow the seed, and failures are counted where they belong."""

import json

import pytest

import run
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_config_generation_is_deterministic_in_the_seed(name):
    assert workloads.make_spec(name, 5) == workloads.make_spec(name, 5)
    assert workloads.make_spec(name, 1) != workloads.make_spec(name, 2)
    json.dumps(workloads.make_spec(name, 1))   # the child reads it as JSON


def test_seed_zero_is_the_reference_configuration():
    va2 = workloads.make_spec("va2_run", 0)["config"]
    assert "seed = 3" in va2.split("[topology]")[0]
    assert "m = 20\np = 0.4\nseed = 3" in va2
    assert "rounds = 10000\nseed = 11" in va2
    stall = workloads.make_spec("ref_stall", 0)
    assert stall["problem"] == {"m": 100, "q_i": 30, "n": 4, "seed": 3}
    assert stall["max_oracle"] == 2000


def _op(result=None, problems=(), traced=False, wrong=None):
    rec = {"op": "x", "traced": traced, "wall_s": 1.0, "problems": list(problems)}
    if result is not None:
        rec["result"] = dict(result, traced=traced)
        rec["wrong"] = bool(problems) if wrong is None else wrong
    return rec


GOOD = {"run_s": 2.0, "raw_run_s": 2.5, "speed": {"factor": 0.8}, "setup_s": 0.5,
        "peak_rss_mb": 60.0, "import_s": 0.4,
        "runs": [{"algorithm": "sdiging", "rounds": 100, "wall_s": 0.1,
                  "final_residual": -3.0, "finite": True}]}


def test_end_to_end_metrics_of_a_run():
    summary, notes = run.summarize([_op(GOOD), _op(dict(GOOD, run_s=4.0)),
                                    _op(dict(GOOD, run_s=3.0))], trace=False, m=20)
    assert summary["metrics"] == {
        "run_s": {"value": 3.0, "unit": "s"},
        "setup_s": {"value": 0.5, "unit": "s"},
        "step_us": {"value": 1000.0, "unit": "us"},
        "peak_rss_mb": {"value": 60.0, "unit": "MB"}}
    assert "round_us.sdiging 1000.0 us (50.00 us/agent-round)" in notes


def test_reference_failure_in_a_compare_is_a_failed_operation():
    spec = workloads.make_spec("loc_compare", 0)
    result = {"exit_code": 3, "stderr": "reference_failure: no point",
              "stdout": "", "runs": []}
    problems = workloads.check(spec, result, None)
    assert problems and "exit code 3" in problems[0]
    summary, notes = run.summarize(
        [_op(GOOD), _op(result, problems)], trace=False, m=10)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert "fail_rate 0.500 (1/2 operations)" in notes


def test_operation_killed_at_the_cap_is_failed_but_not_wrong():
    summary, _ = run.summarize(
        [_op(GOOD), _op(problems=["killed at the 60 s wall-time cap"])],
        trace=False, m=20)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == \
        (2, 1, True)
    assert summary["metrics"]["run_s"] == {"value": 2.0, "unit": "s"}


def test_reference_outcomes():
    spec = workloads.make_spec("ref_stall", 0)
    spent = {"reference_outcome": "ReferenceFailure", "oracle_calls": 2002}
    assert workloads.check(spec, spent, None) == []
    assert workloads.check(spec, dict(spent, oracle_calls=2001), None)
    other_seed = workloads.make_spec("ref_stall", 3)
    assert workloads.check(other_seed, dict(spent, oracle_calls=2000), None) == []
    early = {"reference_outcome": "ReferenceFailure", "oracle_calls": 1500}
    assert workloads.check(spec, early, None)
    solved = {"reference_outcome": "solved", "oracle_calls": 300, "grad_norm": 1e-11}
    assert workloads.check(spec, solved, None) == []
    assert workloads.check(spec, dict(solved, grad_norm=1e-3), None)
    crashed = {"exception": "ValueError: bad"}
    assert workloads.check(spec, crashed, None)


def test_traced_counts_that_differ_make_the_run_incorrect():
    layers_a = {"saga.draws": 10, "saga.draw_s": 0.1}
    layers_b = {"saga.draws": 11, "saga.draw_s": 0.2}
    ops = [_op(GOOD), _op(dict(GOOD, layers=layers_a, absent=[]), traced=True),
           _op(GOOD), _op(dict(GOOD, layers=layers_b, absent=[]), traced=True)]
    summary, notes = run.summarize(ops, trace=True, m=20)
    assert summary["correct"] is False
    assert any("saga.draws" in n for n in notes)


def test_two_traced_operations_of_one_seed_count_the_same(tmp_path):
    """A real child process, on a small va2-like run: every count repeats."""
    spec = workloads.make_spec("va2_run", 4)
    spec["config"] = spec["config"].replace("rounds = 10000", "rounds = 200")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    recs = [run.run_op(spec, spec_path, tmp_path / "op", True, f"t{i}", 60)
            for i in range(2)]
    for rec in recs:
        assert "result" in rec, rec["problems"]
        # only the row count differs from the full-length configuration
        assert rec["problems"] == ["201 CSV rows, expected 2001"]
    a, b = (r["result"]["layers"] for r in recs)
    assert a["engine.steps.sdiging"] == 200
    assert a["saga.draws"] == 200 * 20
    for name in run.layers.COUNT_METRICS:
        assert a[name] == b[name], name
