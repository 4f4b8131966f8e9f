import dataclasses
import math

import numpy as np
import pytest

from sdiging import engine, harness
from sdiging.errors import ConfigError, InvalidArgumentError, ReferenceFailure
from sdiging.objectives import quadratic_family


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gaussian_logistic_shape_and_determinism():
    p1 = harness.gaussian_logistic_instance(m=6, q_i=10, n=4, seed=3)
    p2 = harness.gaussian_logistic_instance(m=6, q_i=10, n=4, seed=3)
    assert p1.m == 6 and p1.q_min == p1.q_max == 10 and p1.dim == 4
    for a, b in zip(p1.locals, p2.locals):
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.c, cb.c) and ca.label == cb.label


def test_gaussian_logistic_rejects_odd_q():
    with pytest.raises(InvalidArgumentError):
        harness.gaussian_logistic_instance(m=2, q_i=5, seed=0)


def test_gaussian_logistic_class_separation():
    # CLT check on the difference of class means; the generator separation
    # is [4, 4, -4, -4] with per-coordinate s.e. sqrt(2)*2/sqrt(N/2)
    prob = harness.gaussian_logistic_instance(m=20, q_i=40, n=4, seed=1)
    plus, minus = [], []
    for lo in prob.locals:
        for c in lo.components:
            (plus if c.label == 1 else minus).append(c.c)
    diff = np.mean(plus, axis=0) - np.mean(minus, axis=0)
    se = np.sqrt(2.0) * np.sqrt(2.0) / math.sqrt(len(plus))
    assert np.abs(diff - np.array([4.0, 4.0, -4.0, -4.0])).max() < 4 * se


def test_localization_geometry_noiseless():
    prob, source = harness.localization_instance(m=8, q_i=5, sigma=0.0, seed=2)
    assert np.array_equal(prob.known_optimum, source)
    for lo in prob.locals:
        for c in lo.components:
            assert c.value(source) == pytest.approx(0.0, abs=1e-18)
    assert prob.aggregate_value(source) == pytest.approx(0.0, abs=1e-18)


def test_localization_sensor_distance_floor():
    prob, source = harness.localization_instance(m=30, q_i=2, sigma=0.0, seed=4)
    for lo in prob.locals:
        r = lo.components[0].r
        assert np.linalg.norm(source - r) > 1.0


def test_localization_noisy_solution_near_source():
    # sigma = 0.01 * a: the optimum sits within O(sigma) of the source.
    # The observed constant is about 10 (far sensors have tiny clean
    # measurements, so additive noise distorts their disk radii a lot).
    prob, source = harness.localization_instance(m=40, q_i=50, sigma=1.0,
                                                 a=100.0, seed=5)
    ref = harness.reference_solution(prob, seed=5)
    assert np.linalg.norm(ref.x - source) < 12.0


def test_kmeans_partition_integrity():
    prob = harness.kmeans_instance(m=5, q_i=30, k=3, seed=6)
    assert sum(lo.q for lo in prob.locals) == 150
    assert prob.dim == 6


def test_kmeans_rejects_indivisible_points():
    pts = np.zeros((7, 2))
    with pytest.raises(InvalidArgumentError):
        harness.kmeans_instance(points=pts, m=2, q_i=4, k=2, seed=0)


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

def test_reference_quadratic_matches_closed_form():
    prob = quadratic_family(3, 4, 3, (1.0, 3.0), seed=7)
    expected = prob.known_optimum.copy()
    prob.known_optimum = None        # force an actual solve from zero
    ref = harness.reference_solution(prob, seed=0)
    assert np.linalg.norm(ref.x - expected) < 1e-8
    assert ref.grad_norm < 1e-10
    assert ref.certified


def test_reference_multistart_agreement():
    prob = harness.gaussian_logistic_instance(m=4, q_i=6, n=3, seed=8)
    rng = np.random.default_rng(0)
    sols = [harness._accelerated_descent(prob, rng.standard_normal(3),
                                         tol=1e-10, max_oracle=10 ** 6).x
            for _ in range(5)]
    for s in sols[1:]:
        assert np.linalg.norm(s - sols[0]) < 1e-8


def test_reference_cached_and_idempotent():
    prob = quadratic_family(2, 2, 2, (1.0, 2.0), seed=9)
    r1 = harness.reference_solution(prob, seed=0)
    r2 = harness.reference_solution(prob, seed=0)
    assert r1 is r2
    assert np.array_equal(r1.x, r2.x)


def test_reference_cache_keyed_on_arguments():
    prob = harness.gaussian_logistic_instance(m=4, q_i=6, n=3, seed=2)
    loose = harness.reference_solution(prob, tol=1e-2)
    tight = harness.reference_solution(prob)
    assert tight is not loose
    assert tight.grad_norm < harness.REFERENCE_TOL
    assert harness.reference_solution(prob, tol=1e-2) is loose


def count_oracle_calls(prob):
    """Count calls of the instance's aggregate oracle, as the benchmark does."""
    calls = [0]
    for attr in ("aggregate_gradient", "aggregate_value"):
        bound = getattr(prob, attr)

        def counted(*args, _bound=bound):
            calls[0] += 1
            return _bound(*args)

        setattr(prob, attr, counted)
    return calls


def test_reference_oracle_calls_pinned():
    # m = 1000 ends certified; m = 100 stalls against its budget, and a
    # step's backtracking in flight takes it two calls past.  Both counts
    # move if the oracle's rounding does.
    prob = harness.gaussian_logistic_instance(1000, 10, n=4, seed=3)
    calls = count_oracle_calls(prob)
    ref = harness.reference_solution(prob, seed=3)
    assert calls[0] == ref.oracle_calls == 299
    assert ref.grad_norm < 1e-10 and ref.certified
    prob = harness.gaussian_logistic_instance(100, 30, n=4, seed=3)
    calls = count_oracle_calls(prob)
    with pytest.raises(ReferenceFailure):
        harness.reference_solution(prob, seed=3, max_oracle=2000)
    assert calls[0] == 2002


def test_reference_localization_noiseless():
    prob, source = harness.localization_instance(m=10, q_i=5, sigma=0.0, seed=10)
    ref = harness.reference_solution(prob, seed=0)
    assert np.linalg.norm(ref.x - source) < 1e-6


def test_reference_kmeans_centroid_and_recovery():
    # K=1: the optimum is the global centroid
    prob = harness.kmeans_instance(m=3, q_i=10, k=1, seed=11)
    pts = np.stack([c.p for lo in prob.locals for c in lo.components])
    ref = harness.reference_solution(prob, seed=0)
    assert not ref.certified
    assert np.linalg.norm(ref.x - pts.mean(axis=0)) < 1e-8

    # 3 well-separated synthetic blobs: permutation-matched recovery
    prob3 = harness.kmeans_instance(m=5, q_i=30, k=3, seed=12)
    ref3 = harness.reference_solution(prob3, seed=0)
    centers = ref3.x.reshape(3, 2)
    means = np.stack([6.0 * np.array([np.cos(2 * np.pi * j / 3),
                                      np.sin(2 * np.pi * j / 3)])
                      for j in range(3)])
    for mean_j in means:
        assert np.min(np.linalg.norm(centers - mean_j, axis=1)) < 0.1


def test_residual_helper_examples():
    x = np.array([[1.0, 0.0], [10.0, 0.0]])
    assert engine.residual_log10(x, np.zeros(2)) == pytest.approx(math.log10(5.5))
    assert engine.residual_log10(np.zeros((2, 2)), np.zeros(2)) == -16.0


def test_residual_monotone_in_single_distance():
    x_star = np.zeros(2)
    base = np.array([[1.0, 0.0], [2.0, 0.0]])
    bumped = base.copy()
    bumped[0, 0] = 1.5
    assert engine.residual_log10(bumped, x_star) > engine.residual_log10(base, x_star)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

GOOD_CONFIG = """\
[problem]
family = quadratic
q = 3
n = 2
seed = 1

[topology]
kind = ring
m = 4
seed = 2

[algorithm]
name = sdiging
alpha = 0.01
rounds = 50
seed = 3

[output]
dir = {out}
prefix = t
"""


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "exp.ini"
    path.write_text((text or GOOD_CONFIG).format(out=tmp_path, **fmt))
    return path


def test_parse_config_round_trip(tmp_path):
    cfg = harness.parse_config(write_config(tmp_path))
    assert cfg.family == "quadratic"
    assert cfg.m == 4 and cfg.rounds == 50 and cfg.alpha == 0.01
    assert cfg.topology_kind == "ring" and cfg.algorithm == "sdiging"


def test_parse_config_unknown_key(tmp_path):
    bad = GOOD_CONFIG.replace("[algorithm]", "[algorithm]\nbogus = 1")
    with pytest.raises(ConfigError, match="bogus"):
        harness.parse_config(write_config(tmp_path, text=bad))


def test_parse_config_unknown_section(tmp_path):
    bad = GOOD_CONFIG + "\n[plotting]\nstyle = dark\n"
    with pytest.raises(ConfigError, match="plotting"):
        harness.parse_config(write_config(tmp_path, text=bad))


def test_parse_config_family_key_mismatch(tmp_path):
    bad = GOOD_CONFIG.replace("family = quadratic",
                              "family = quadratic\nsigma = 0.5")
    with pytest.raises(ConfigError):
        harness.parse_config(write_config(tmp_path, text=bad))


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        harness.parse_config(tmp_path / "absent.ini")


def test_parse_config_requires_m_and_rounds(tmp_path):
    bad = GOOD_CONFIG.replace("m = 4\n", "")
    with pytest.raises(ConfigError):
        harness.parse_config(write_config(tmp_path, text=bad))
    bad = GOOD_CONFIG.replace("rounds = 50\n", "")
    with pytest.raises(ConfigError):
        harness.parse_config(write_config(tmp_path, text=bad))


@pytest.mark.parametrize("every", ["0", "-7"])
def test_parse_config_rejects_record_every_below_one(tmp_path, every):
    bad = GOOD_CONFIG.replace("rounds = 50\n",
                              f"rounds = 50\nrecord_every = {every}\n")
    with pytest.raises(ConfigError, match="record_every"):
        harness.parse_config(write_config(tmp_path, text=bad))


@pytest.mark.parametrize("alpha", ["0", "-0.1", "nan", "inf"])
def test_parse_config_rejects_alpha_not_finite_positive(tmp_path, alpha):
    bad = GOOD_CONFIG.replace("alpha = 0.01", f"alpha = {alpha}")
    with pytest.raises(ConfigError, match="alpha"):
        harness.parse_config(write_config(tmp_path, text=bad))


@pytest.mark.parametrize("epsilon", ["0", "-1e-6", "nan", "inf"])
def test_parse_config_rejects_epsilon_not_finite_positive(tmp_path, epsilon):
    bad = GOOD_CONFIG.replace("rounds = 50\n",
                              f"rounds = 50\nepsilon = {epsilon}\n")
    with pytest.raises(ConfigError, match="epsilon"):
        harness.parse_config(write_config(tmp_path, text=bad))


# Every key set away from its default, and the field each one must land in.
ALL_KEYS_CONFIG = {
    ("problem", "family"): ("localization", "family", "localization"),
    ("problem", "q"): ("7", "q", 7),
    ("problem", "n"): ("5", "n", 5),
    ("problem", "seed"): ("12", "problem_seed", 12),
    ("problem", "lam"): ("0.25", "lam", 0.25),
    ("problem", "mu"): ("0.5", "mu_target", 0.5),
    ("problem", "lip"): ("3.5", "lip_target", 3.5),
    ("problem", "sigma"): ("0.75", "sigma", 0.75),
    ("problem", "a"): ("40", "a", 40.0),
    ("problem", "theta"): ("1.5", "theta", 1.5),
    ("problem", "field_size"): ("60", "field_size", 60.0),
    ("problem", "clusters"): ("4", "clusters", 4),
    ("problem", "points_csv"): ("pts.csv", "points_csv", "pts.csv"),
    ("problem", "logistic_csv"): ("data.csv", "logistic_csv", "data.csv"),
    ("topology", "kind"): ("random_gnp", "topology_kind", "random_gnp"),
    ("topology", "m"): ("9", "m", 9),
    ("topology", "p"): ("0.3", "p", 0.3),
    ("topology", "seed"): ("13", "topology_seed", 13),
    ("topology", "laziness"): ("0.2", "laziness", 0.2),
    ("algorithm", "name"): ("primal_dual", "algorithm", "primal_dual"),
    ("algorithm", "alpha"): ("0.03", "alpha", 0.03),
    ("algorithm", "rounds"): ("77", "rounds", 77),
    ("algorithm", "seed"): ("14", "run_seed", 14),
    ("algorithm", "record_every"): ("6", "record_every", 6),
    ("algorithm", "epsilon"): ("1e-3", "epsilon", 1e-3),
    ("output", "dir"): ("results", "output_dir", "results"),
    ("output", "prefix"): ("run7", "prefix", "run7"),
}


def test_parse_config_maps_every_key_to_its_field(tmp_path, monkeypatch):
    # no family takes every [problem] key, so admit them all for this parse
    everything = {key for sec, key in ALL_KEYS_CONFIG if sec == "problem"}
    monkeypatch.setitem(harness._FAMILY_KEYS, "localization", everything)
    lines = []
    for section in ("problem", "topology", "algorithm", "output"):
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {text}" for (sec, key), (text, _, _)
                     in ALL_KEYS_CONFIG.items() if sec == section)
    cfg = harness.parse_config(write_config(tmp_path, text="\n".join(lines)))
    default = harness.ExperimentConfig(family="quadratic", m=2, rounds=1)
    for (section, key), (_, name, expected) in ALL_KEYS_CONFIG.items():
        value = getattr(cfg, name)
        assert value == expected and type(value) is type(expected), (section, key)
        assert value != getattr(default, name), (section, key)
    assert {f.name for f in dataclasses.fields(cfg)} == \
        {name for _, name, _ in ALL_KEYS_CONFIG.values()}


def test_config_keys_are_unique_and_cover_every_family():
    pairs = [f.metadata["ini"] for f in dataclasses.fields(harness.ExperimentConfig)]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(ALL_KEYS_CONFIG)
    problem_keys = {key for sec, key in pairs if sec == "problem"}
    for family, keys in harness._FAMILY_KEYS.items():
        assert keys <= problem_keys, family


def test_config_defaults_need_no_ini():
    cfg = harness.ExperimentConfig(family="quadratic", m=4, rounds=10)
    assert cfg.topology_kind == "ring" and cfg.algorithm == "sdiging"
    assert cfg.alpha == "auto" and cfg.record_every is None


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_run_experiment_outputs(tmp_path):
    cfg = harness.parse_config(write_config(tmp_path))
    result = harness.run_experiment(cfg)
    assert result.trace_path.is_file() and result.meta_path.is_file()
    lines = result.trace_path.read_text().splitlines()
    assert lines[0] == "round,residual_log10,consensus_gap,grad_evals,wall_ms"
    meta = result.meta_path.read_text()
    assert "resolved.alpha = 0.01" in meta
    assert "problem.mu" in meta


def test_run_experiment_records_resolved_graph(tmp_path):
    # a ring of 4 requests laziness 0.1 but needs 0.3 for a positive spectrum
    meta = harness.run_experiment(harness.parse_config(write_config(tmp_path))) \
        .meta_path.read_text().splitlines()
    assert "config.laziness = 0.1" in meta
    assert "resolved.laziness = 0.3" in meta
    assert "resolved.gnp_retries = 0" in meta
    # G(12, 0.15) at seed 4 is connected only on its third sample
    text = GOOD_CONFIG.replace("kind = ring\nm = 4\nseed = 2",
                               "kind = random_gnp\nm = 12\np = 0.15\nseed = 4")
    meta = harness.run_experiment(harness.parse_config(
        write_config(tmp_path, text=text))).meta_path.read_text().splitlines()
    assert "resolved.gnp_retries = 2" in meta


@pytest.mark.parametrize("problem, topology, fmt", [
    ("family = gaussian_logistic\nq = 30\nn = 4\nseed = 3",         # va2
     "kind = random_gnp\nm = 20\np = 0.4\nseed = 3", "dense"),
    ("family = quadratic\nq = 3\nn = 2\nseed = 1",
     "kind = ring\nm = 200\nseed = 2", "csr")], ids=["va2", "ring200"])
def test_run_experiment_records_mixing_format(tmp_path, problem, topology,
                                              fmt):
    text = GOOD_CONFIG.replace("family = quadratic\nq = 3\nn = 2\nseed = 1",
                               problem) \
        .replace("kind = ring\nm = 4\nseed = 2", topology)
    meta = harness.run_experiment(harness.parse_config(
        write_config(tmp_path, text=text))).meta_path.read_text().splitlines()
    assert f"resolved.mixing = {fmt}" in meta


def test_run_experiment_records_reference_work(tmp_path):
    text = GOOD_CONFIG.replace("family = quadratic\nq = 3\nn = 2",
                               "family = gaussian_logistic\nq = 6\nn = 3")
    result = harness.run_experiment(harness.parse_config(
        write_config(tmp_path, text=text)))
    meta = result.meta_path.read_text().splitlines()
    calls = result.reference.oracle_calls
    assert calls > 0
    assert f"reference.oracle_calls = {calls}" in meta


def test_run_experiment_records_kmeans_reference_work(tmp_path):
    # The Lloyd reference counts one call per sweep plus its final gradient.
    text = GOOD_CONFIG.replace("family = quadratic\nq = 3\nn = 2",
                               "family = kmeans\nq = 6\nclusters = 2")
    result = harness.run_experiment(harness.parse_config(
        write_config(tmp_path, text=text)))
    calls = result.reference.oracle_calls
    assert calls > 0
    assert f"reference.oracle_calls = {calls}" in \
        result.meta_path.read_text().splitlines()


def test_run_experiment_auto_alpha(tmp_path):
    text = GOOD_CONFIG.replace("alpha = 0.01", "alpha = auto")
    cfg = harness.parse_config(write_config(tmp_path, text=text))
    result = harness.run_experiment(cfg)
    assert result.certificate is not None and result.certificate.valid
    assert 0.0 < result.certificate.alpha < result.certificate.alpha_max


def test_run_experiment_preserves_partial_on_divergence(tmp_path):
    text = GOOD_CONFIG.replace("alpha = 0.01", "alpha = 50.0") \
                      .replace("rounds = 50", "rounds = 100000")
    cfg = harness.parse_config(write_config(tmp_path, text=text))
    from sdiging.errors import DivergenceError
    with pytest.raises(DivergenceError):
        harness.run_experiment(cfg)
    assert (tmp_path / "t.csv.partial").is_file()
    assert not (tmp_path / "t.csv").is_file()


def test_compare_algorithms_rows(tmp_path):
    cfg = harness.parse_config(write_config(tmp_path))
    cfg.rounds = 4000
    rows = harness.compare_algorithms(cfg, ["diging", "sdiging"], target=-3.0)
    by_name = {r.algorithm: r for r in rows}
    assert by_name["diging"].rounds_to_target is not None
    assert by_name["sdiging"].rounds_to_target is not None
    # per-round cost is sum(q_i) for the full-gradient method vs m for
    # the stochastic one, so evals-to-target must favor sdiging here
    assert by_name["sdiging"].evals_to_target \
        < by_name["diging"].evals_to_target


def test_compare_resolves_auto_alpha_once(tmp_path, monkeypatch):
    calls = []
    certify = engine.certificate_for_problem
    monkeypatch.setattr(engine, "certificate_for_problem",
                        lambda *a, **k: calls.append(1) or certify(*a, **k))
    text = GOOD_CONFIG.replace("alpha = 0.01", "alpha = auto")
    cfg = harness.parse_config(write_config(tmp_path, text=text))
    cfg.rounds = 20
    rows = harness.compare_algorithms(cfg, list(engine.ALGORITHMS), target=-3.0)
    assert [r.algorithm for r in rows] == list(engine.ALGORITHMS)
    assert len(calls) == 1


def test_compare_rejects_unknown_algorithm_before_running(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(engine, "run", lambda *a, **k: runs.append(1))
    cfg = harness.parse_config(write_config(tmp_path))
    monkeypatch.setattr(harness, "build_mixing",
                        lambda *a, **k: runs.append("build_mixing"))
    monkeypatch.setattr(harness, "reference_solution",
                        lambda *a, **k: runs.append("reference_solution"))
    with pytest.raises(ConfigError, match="bogus"):
        harness.compare_algorithms(cfg, ["diging", "bogus"], target=-3.0)
    assert runs == []
