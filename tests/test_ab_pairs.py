import importlib.util
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def runs_of(parent, change, name="step_us"):
    """Alternating runs, pair k holding parent[k-1] and change[k-1]."""
    out = []
    for k, (p, c) in enumerate(zip(parent, change), start=1):
        order = (("parent", p), ("change", c)) if k % 2 else \
            (("change", c), ("parent", p))
        out += [{"pair": k, "side": s, name: v} for s, v in order]
    return out


def test_summary_of_ten_pairs():
    parent = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 96.0]
    change = [90.0, 92.0, 88.0, 91.0, 99.0, 89.0, 87.0, 93.0, 90.0, 97.0]
    got = ab_pairs.summarize(runs_of(parent, change), {"step_us": "lower"})
    assert got["pairs"] == 10
    s = got["step_us"]
    q1, med, q3 = statistics.quantiles(parent, n=4)
    assert s["parent"] == {"median": med, "q1": q1, "q3": q3}
    assert s["change"]["median"] == statistics.median(change)
    # pair 5 ties (99 = 99) and pair 10 is worse: neither counts as won
    assert s["change_better_in_pairs"] == "8/10"
    assert s["median_change_pct"] == pytest.approx(
        100 * (statistics.median(change) - med) / med)
    assert s["median_gap_over_parent_iqr"] == pytest.approx(
        (med - statistics.median(change)) / (q3 - q1))


def test_higher_is_better_flips_the_sign():
    parent, change = [10.0, 11.0, 12.0, 13.0], [9.0, 10.0, 11.0, 14.0]
    s = ab_pairs.summarize(runs_of(parent, change, "ops"), {"ops": "higher"})["ops"]
    assert s["change_better_in_pairs"] == "1/4"
    assert s["median_gap_over_parent_iqr"] < 0


def test_zero_spread_and_unpaired_runs():
    runs = runs_of([5.0, 5.0, 5.0], [4.0, 4.0, 4.0])
    runs.append({"pair": 4, "side": "parent", "step_us": 1.0})   # no partner
    s = ab_pairs.summarize(runs, {"step_us": "lower"})["step_us"]
    assert s["change_better_in_pairs"] == "3/3"
    assert s["parent"]["median"] == 5.0
    assert s["median_gap_over_parent_iqr"] == math.inf
    same = ab_pairs.summarize(runs_of([5.0, 5.0], [5.0, 5.0]),
                              {"step_us": "lower"})["step_us"]
    assert same["median_gap_over_parent_iqr"] == 0.0
    assert same["change_better_in_pairs"] == "0/2"


def test_metrics_follow_the_benchmark():
    assert ab_pairs.METRICS == {"run_s": "lower", "setup_s": "lower",
                                "step_us": "lower", "peak_rss_mb": "lower"}
    assert ab_pairs.SECONDS == 25


@pytest.mark.parametrize("parent, change, better, expected", [
    # a 30% worse median, past the 25% bound
    ([100.0, 101.0, 99.0, 100.0], [130.0, 131.0, 129.0, 130.0], "lower", "worse"),
    # 20% worse, a narrow parent spread: inside the bound
    ([100.0, 101.0, 99.0, 100.0], [120.0, 121.0, 119.0, 120.0], "lower",
     "within bound"),
    # the parent's quartiles span more than the bound, and one change run
    # (95) is worse than one parent run (70)
    ([70.0, 130.0, 100.0, 60.0, 140.0, 100.0], [95.0, 90.0, 85.0, 80.0, 88.0,
                                               92.0], "lower", "unresolved"),
    # the same spread, but every change run beats every parent run
    ([70.0, 130.0, 100.0, 60.0, 140.0, 100.0], [55.0, 50.0, 45.0, 40.0, 48.0,
                                               52.0], "lower", "within bound"),
    # a worse median past the bound wins over a wide spread
    ([70.0, 130.0, 100.0, 60.0, 140.0, 100.0], [150.0] * 6, "lower", "worse"),
    # higher is better: 30% fewer is worse, 30% more is within bound
    ([100.0, 101.0, 99.0, 100.0], [70.0, 71.0, 69.0, 70.0], "higher", "worse"),
    ([100.0, 101.0, 99.0, 100.0], [130.0, 131.0, 129.0, 130.0], "higher",
     "within bound"),
    # identical runs
    ([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], "lower", "within bound"),
], ids=["worse", "within", "unresolved", "wide-but-all-better",
        "worse-and-wide", "higher-worse", "higher-better", "equal"])
def test_verdict(parent, change, better, expected):
    assert ab_pairs.verdict(parent, change, better, 0.25) == expected
    runs = runs_of(parent, change, "m")
    s = ab_pairs.summarize(runs, {"m": better}, {"m": 0.25})["m"]
    assert s["verdict"] == expected


def test_verdict_uses_each_metrics_bound():
    # 15% worse: inside run_s's 25% bound, past peak_rss_mb's 10% bound
    parent, change = [100.0, 100.5, 99.5, 100.0], [115.0, 115.5, 114.5, 115.0]
    runs = [{**r, "run_s": r["m"], "peak_rss_mb": r["m"]}
            for r in runs_of(parent, change, "m")]
    s = ab_pairs.summarize(runs, {"run_s": "lower", "peak_rss_mb": "lower",
                                  "m": "lower"})
    assert s["run_s"]["verdict"] == "within bound"
    assert s["peak_rss_mb"]["verdict"] == "worse"
    assert "verdict" not in s["m"]      # no bound, no verdict
    assert ab_pairs.BOUNDS == {"run_s": 0.25, "setup_s": 0.25,
                               "step_us": 0.25, "peak_rss_mb": 0.1}


def test_failed_share_per_side():
    runs = [{"pair": 1, "side": "parent", "attempted": 20, "failed": 0},
            {"pair": 1, "side": "change", "attempted": 18, "failed": 1},
            {"pair": 2, "side": "change", "attempted": 22, "failed": 1},
            {"pair": 2, "side": "parent", "attempted": 20, "failed": 2}]
    assert ab_pairs.failed_share(runs) == {
        "parent": 2 / 40, "change": 2 / 40, "verdict": "within bound"}
    runs[0]["failed"] = 1
    assert ab_pairs.failed_share(runs)["verdict"] == "within bound"
    runs[3]["failed"] = 0
    share = ab_pairs.failed_share(runs)
    assert share["parent"] == 1 / 40 and share["change"] == 2 / 40
    assert share["verdict"] == "worse"
    none = [{"pair": 1, "side": s, "attempted": 0, "failed": 0}
            for s in ("parent", "change")]
    assert ab_pairs.failed_share(none)["verdict"] == "within bound"


# A perfbench run replaced by a sleeping child that starts a sleeping
# grandchild, as a run starts its operations, and writes both pids.
SLEEPER = """\
import os, subprocess, sys, time
grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open(sys.argv[1] + ".part", "w") as f:
    f.write(f"{os.getpid()} {grandchild.pid}")
os.replace(sys.argv[1] + ".part", sys.argv[1])
time.sleep(60)
"""

# tools/ab_pairs.py's main with git, the export and the benchmark stubbed
# out: argv is the tool, the sleeper, its pid file and a root to write in.
DRIVER = """\
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("ab_pairs", sys.argv[1])
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
ab.ROOT = Path(sys.argv[4])
ab.git = lambda *args: ""
ab.export = lambda rev, dest: dest.mkdir(parents=True) or rev
ab.src_lines = lambda tree: 0
ab.bench = lambda tree, workload, seed: ab.run_group(
    [sys.executable, sys.argv[2], sys.argv[3]], tree)
sys.exit(ab.main(["--parent", "HEAD", "--pr", "x", "--runs", "w:0:1"]))
"""


def alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie, killed but not reaped, does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    return not (stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] == "Z")


def wait_until(condition, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.05)


def test_sigterm_stops_the_run_and_removes_the_trees(tmp_path):
    tmp, root, pid_file = tmp_path / "tmp", tmp_path / "root", tmp_path / "pids"
    tmp.mkdir()
    root.mkdir()
    (tmp_path / "sleeper.py").write_text(SLEEPER)
    (tmp_path / "driver.py").write_text(DRIVER)
    driver = subprocess.Popen(
        [sys.executable, str(tmp_path / "driver.py"), str(_PATH),
         str(tmp_path / "sleeper.py"), str(pid_file), str(root)],
        env={**os.environ, "TMPDIR": str(tmp)})
    pids = []
    try:
        wait_until(lambda: pid_file.exists() or driver.poll() is not None)
        assert driver.poll() is None
        pids = [int(p) for p in pid_file.read_text().split()]
        [trees] = tmp.iterdir()
        assert sorted(p.name for p in trees.iterdir()) == ["change", "parent"]
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(tmp.iterdir()) == []
        assert list(root.iterdir()) == []
        wait_until(lambda: not any(alive(p) for p in pids))
    finally:
        driver.kill()
        for pid in pids:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
