import dataclasses
import math

import numpy as np
import pytest

from sdiging import engine, harness, objectives
from sdiging.errors import ConfigError, InvalidArgumentError, ReferenceFailure
from sdiging.objectives import (
    DiskDistance,
    KMeansPoint,
    LogisticSample,
    ProblemInstance,
    Quadratic,
    logistic_problem,
    quadratic_family,
)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gaussian_logistic_shape_and_determinism():
    p1 = harness.gaussian_logistic_instance(m=6, q_i=10, n=4, seed=3)
    p2 = harness.gaussian_logistic_instance(m=6, q_i=10, n=4, seed=3)
    assert p1.m == 6 and p1.q_min == p1.q_max == 10 and p1.dim == 4
    for a, b in zip(p1.params, p2.params):
        assert np.array_equal(a, b)


def per_agent_logistic(m, q_i, n, seed, lam=harness.DEFAULT_LAMBDA):
    """The instance drawn agent by agent, one normal draw per class block,
    and built with label * c and c @ c."""
    mean = np.array([2.0] * math.ceil(n / 2) + [-2.0] * (n // 2))
    rng = np.random.default_rng([seed, 0x106])
    lc, lip = [], []
    for _ in range(m):
        plus = mean + rng.normal(scale=np.sqrt(2.0), size=(q_i // 2, n))
        minus = -mean + rng.normal(scale=np.sqrt(2.0), size=(q_i // 2, n))
        for c, label in zip(np.vstack([plus, minus]),
                            [1] * (q_i // 2) + [-1] * (q_i // 2)):
            lc.append(label * c)
            lip.append(lam / m + q_i * float(c @ c) / 4.0)
    return np.array(lc), lam / m, max(lip)


@pytest.mark.parametrize("m, q_i", [(20, 30), (100, 30), (1000, 10)])
def test_gaussian_logistic_matches_per_agent_draws(m, q_i):
    prob = harness.gaussian_logistic_instance(m, q_i, n=4, seed=3)
    lc, lam_m, lip = per_agent_logistic(m, q_i, 4, 3)
    got_lam_m, got_lc, got_qlc = prob.params
    assert np.array_equal(got_lc, lc)
    assert np.array_equal(np.signbit(got_lc), np.signbit(lc))
    assert np.array_equal(got_qlc, q_i * lc)
    assert np.array_equal(np.signbit(got_qlc), np.signbit(q_i * lc))
    assert got_lam_m.shape == (m * q_i, 1) and (got_lam_m == lam_m).all()
    assert prob.mu == lam_m and prob.lip == lip


def test_gaussian_logistic_rejects_odd_q():
    with pytest.raises(InvalidArgumentError):
        harness.gaussian_logistic_instance(m=2, q_i=5, seed=0)


@pytest.mark.parametrize("q_i, lam", [(0, 1.0), (-2, 1.0), (4, 0.0), (4, -1.0),
                                      (4, float("nan")), (4, float("inf"))])
def test_gaussian_logistic_rejects_nonpositive_q_or_bad_lam(q_i, lam):
    with pytest.raises(InvalidArgumentError):
        harness.gaussian_logistic_instance(m=2, q_i=q_i, seed=0, lam=lam)


@pytest.mark.parametrize("rows, labels, m", [
    (4, [1, -1, 0, 1], 2), (3, [1, -1, 1], 2), (0, [], 2), (2, [1, -1], 0),
    (3, [1, -1], 2)])
def test_logistic_arrays_reject_bad_labels_or_split(rows, labels, m):
    with pytest.raises(InvalidArgumentError):
        logistic_problem(np.ones((rows, 2)), labels, 1.0, m)


def row_built(features, labels, lam, m):
    """The instance's parameters row by row, as one object per sample held
    them: l*c as c or -c, lam/m, q*l*c, and lip as the largest
    lam/m + q*c.dot(c)/4."""
    q = len(labels) // m
    lc = np.array([c if label == 1 else -c for c, label in zip(features, labels)])
    lam_m = lam / m
    lip = max(lam_m + q * float(c.dot(c)) / 4.0 for c in features)
    params = [np.full((len(lc), 1), lam_m), lc, float(q) * lc]
    return params, lam_m, lip


def assert_same_logistic_instance(got, features, labels, lam, m):
    """Bit for bit: stacked parameters and their dtypes, constants, and the
    reference solution of the same rows given to the constructor."""
    params, lam_m, lip = row_built(features, labels, lam, m)
    for a, b in zip(got.params, params):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    q = len(labels) // m
    assert got.kind is LogisticSample and got.q_min == got.q_max
    assert np.array_equal(got.offsets, q * np.arange(m))
    for key, want in (("mu", lam_m), ("lip", lip), ("q_min", q), ("q_max", q),
                      ("m", m), ("dim", features.shape[1])):
        assert type(getattr(got, key)) is type(want), key
        assert getattr(got, key) == want, key
    want = ProblemInstance(LogisticSample, params, np.full(m, q))
    rg, rw = harness.reference_solution(got), harness.reference_solution(want)
    assert np.array_equal(rg.x, rw.x) and rg.oracle_calls == rw.oracle_calls


@pytest.mark.parametrize("m, q_i, n, lam", [
    (6, 10, 4, 1.0), (20, 30, 4, 1.0), (1000, 10, 4, 1.0), (7, 4, 5, 0.3),
    (3, 2, 33, 2.5), (50, 6, 1, 1e-3), (5, 8, 7, 4.0)])
def test_gaussian_logistic_arrays_equal_component_build(m, q_i, n, lam):
    prob = harness.gaussian_logistic_instance(m, q_i, n=n, seed=3, lam=lam)
    mean = np.array([2.0] * math.ceil(n / 2) + [-2.0] * (n // 2))
    rng = np.random.default_rng([3, 0x106])
    feats, labels = [], []
    for _ in range(m):
        for label in (1, -1):
            feats.append(label * mean + rng.normal(scale=np.sqrt(2.0),
                                                   size=(q_i // 2, n)))
            labels += [label] * (q_i // 2)
    assert_same_logistic_instance(prob, np.vstack(feats), np.array(labels), lam, m)


def test_logistic_csv_arrays_equal_component_build(tmp_path):
    rng = np.random.default_rng(5)
    m, q, n = 4, 5, 3
    labels = rng.choice([-1, 1], size=m * q)
    feats = rng.standard_normal((m * q, n)) * 10.0 ** rng.uniform(-3, 3, (m * q, 1))
    np.savetxt(tmp_path / "data.csv", np.column_stack([labels, feats]),
               delimiter=",", fmt="%.17g")
    text = GOOD_CONFIG.replace(
        "family = quadratic\nq = 3\nn = 2\nseed = 1",
        f"family = logistic_csv\nlam = 0.7\nlogistic_csv = {tmp_path / 'data.csv'}")
    prob = harness.build_problem(harness.parse_config(write_config(tmp_path, text)))
    labels, feats = objectives.load_logistic_csv(tmp_path / "data.csv")
    assert_same_logistic_instance(prob, feats, labels, 0.7, m)


def test_gaussian_logistic_class_separation():
    # CLT check on the difference of class means; the generator separation
    # is [4, 4, -4, -4] with per-coordinate s.e. sqrt(2)*2/sqrt(N/2)
    prob = harness.gaussian_logistic_instance(m=20, q_i=40, n=4, seed=1)
    _, lc, _ = prob.params
    labels = np.tile(np.repeat([1, -1], 20), 20)
    plus, minus = lc[labels == 1], -lc[labels == -1]
    diff = np.mean(plus, axis=0) - np.mean(minus, axis=0)
    se = np.sqrt(2.0) * np.sqrt(2.0) / math.sqrt(len(plus))
    assert np.abs(diff - np.array([4.0, 4.0, -4.0, -4.0])).max() < 4 * se


def test_localization_geometry_noiseless():
    prob, source = harness.localization_instance(m=8, q_i=5, sigma=0.0, seed=2)
    assert np.array_equal(prob.known_optimum, source)
    at = np.broadcast_to(source, (40, 2))
    assert np.abs(DiskDistance.stacked_value(prob.params, at)).max() < 1e-18
    assert prob.aggregate_value(source) == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("sigma", [-3.0, -1e-300, float("nan")])
def test_localization_rejects_sigma_below_zero(sigma):
    with pytest.raises(InvalidArgumentError, match="noise std"):
        harness.localization_instance(m=4, q_i=3, sigma=sigma, seed=0)


@pytest.mark.parametrize("a", [0.0, -100.0])
def test_localization_rejects_nonpositive_source_strength(a):
    with pytest.raises(InvalidArgumentError, match="source strength"):
        harness.localization_instance(m=4, q_i=3, a=a, seed=0)


def test_localization_sensor_distance_floor():
    prob, source = harness.localization_instance(m=30, q_i=2, sigma=0.0, seed=4)
    for r in prob.params[0]:
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
    assert prob.q.sum() == 150 and len(prob.params[0]) == 150
    assert prob.dim == 6


def test_kmeans_rejects_indivisible_points():
    pts = np.zeros((7, 2))
    with pytest.raises(InvalidArgumentError):
        harness.kmeans_instance(points=pts, m=2, q_i=4, k=2, seed=0)


def quadratic_per_component(m, q_i, n, condition_range, seed):
    """(A, b, x_star) drawn and formed one component at a time, the
    aggregate summed as it goes."""
    rng = np.random.default_rng([seed, 0x51AD])
    a_all, b_all = [], []
    a_sum, b_sum = np.zeros((n, n)), np.zeros(n)
    for _ in range(m * q_i):
        qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = rng.uniform(*condition_range, size=n)
        a = qmat @ np.diag(eigs) @ qmat.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(n)
        a_all.append(a)
        b_all.append(b)
        a_sum += a / q_i
        b_sum += b / q_i
    return np.array(a_all), np.array(b_all), np.linalg.solve(a_sum, -b_sum)


@pytest.mark.parametrize("m, q_i, n", [(3, 4, 1), (2, 5, 2), (4, 3, 3),
                                       (5, 2, 4), (2, 3, 8)])
def test_quadratic_arrays_equal_per_component_build(m, q_i, n):
    prob = quadratic_family(m, q_i, n, (0.5, 4.0), seed=n)
    a, b, x_star = quadratic_per_component(m, q_i, n, (0.5, 4.0), n)
    got_a, got_b = prob.params
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
    assert np.array_equal(prob.known_optimum, x_star)
    eig = [np.linalg.eigvalsh(ak) for ak in a]
    assert prob.mu == min(float(e[0]) for e in eig)
    assert prob.lip == max(float(e[-1]) for e in eig)
    assert type(prob.mu) is float and type(prob.lip) is float


def localization_per_measurement(m, q_i, a, sigma, seed, field_size=100.0,
                                 theta=2.0):
    """(sensor per row, radius per row, clamped count) drawn sensor by
    sensor and formed one measurement at a time."""
    rng = np.random.default_rng([seed, 0x10C])
    source = rng.uniform(0.0, field_size, size=2)
    sensors = []
    while len(sensors) < m:
        r = rng.uniform(0.0, field_size, size=2)
        if np.linalg.norm(source - r) > 1.0:
            sensors.append(r)
    rows, radii, clamped = [], [], 0
    floor = objectives.MEASUREMENT_CLAMP_FRACTION * a
    for r in sensors:
        clean = a / float(np.linalg.norm(source - r)) ** theta
        meas = clean + rng.normal(scale=sigma, size=q_i) if sigma > 0 \
            else np.full(q_i, clean)
        for c in meas.tolist():
            clamped += c < floor
            rows.append(r)
            radii.append(float(np.sqrt(a / max(c, floor))))
    return np.array(rows), np.array(radii), clamped


@pytest.mark.parametrize("sigma, seed", [(0.0, 9), (None, 0), (None, 2),
                                         (30.0, 1)])
def test_localization_arrays_equal_per_measurement_build(sigma, seed):
    prob, source = harness.localization_instance(m=10, q_i=20, sigma=sigma,
                                                 seed=seed)
    want_sigma = 0.05 * 100.0 if sigma is None else sigma
    rows, radii, clamped = localization_per_measurement(10, 20, 100.0,
                                                        want_sigma, seed)
    got_rows, got_radii = prob.params
    assert np.array_equal(got_rows, rows) and np.array_equal(got_radii, radii)
    assert prob.clamped_measurements == clamped
    assert (clamped > 0) == (want_sigma > 0)
    assert np.isfinite(got_radii).all() and (got_radii > 0).all()
    assert (prob.mu, prob.lip, prob.dim) == (0.0, 2.0, 2)


def test_kmeans_arrays_hold_the_permuted_points():
    prob = harness.kmeans_instance(m=4, q_i=5, k=3, seed=3)
    rng = np.random.default_rng([3, 0x335])
    means = np.stack([6.0 * np.array([np.cos(2 * np.pi * j / 3),
                                      np.sin(2 * np.pi * j / 3)])
                      for j in range(3)])
    pts = means[rng.integers(0, 3, size=20)] + rng.normal(scale=0.25, size=(20, 2))
    pts = pts[rng.permutation(20)]
    got_pts, got_k = prob.params
    assert np.array_equal(got_pts, pts) and (got_k == 3).all()
    assert (prob.kind, prob.dim, prob.mu, prob.lip) == (KMeansPoint, 6, 0.0, 2.0)


@pytest.mark.parametrize("k", [0, -2])
def test_kmeans_rejects_no_clusters(k):
    with pytest.raises(InvalidArgumentError, match="cluster count"):
        harness.kmeans_instance(m=2, q_i=3, k=k, seed=0)


def test_kmeans_rejects_more_clusters_than_points():
    # the reference seeds its centers with k distinct points
    with pytest.raises(InvalidArgumentError, match="40 clusters"):
        harness.kmeans_instance(m=4, q_i=5, k=40, seed=0)
    with pytest.raises(InvalidArgumentError, match="3 clusters"):
        harness.kmeans_instance(points=np.zeros((2, 2)), m=2, q_i=1, k=3)
    prob = harness.kmeans_instance(m=4, q_i=5, k=20, seed=0)
    assert harness.reference_solution(prob).x.shape == (40,)


@pytest.mark.parametrize("kind, params, q", [
    (Quadratic, [np.zeros((3, 2, 2)), np.zeros((3, 2))], [2, 0, 1]),
    (Quadratic, [np.zeros((3, 2, 2)), np.zeros((3, 2))], []),
    (Quadratic, [np.zeros((3, 2, 2)), np.zeros((2, 2))], [2, 1]),
    (DiskDistance, [np.zeros((4, 2)), np.ones(4)], [2, 1])])
def test_problem_rejects_empty_agents_and_short_params(kind, params, q):
    with pytest.raises(InvalidArgumentError):
        ProblemInstance(kind, params, q)


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


def test_reference_is_solved_afresh_per_call():
    # two calls give equal, unshared solutions: writing one leaves the other
    prob = quadratic_family(2, 2, 2, (1.0, 2.0), seed=9)
    r1 = harness.reference_solution(prob, seed=0)
    r2 = harness.reference_solution(prob, seed=0)
    assert r1 is not r2 and r1.x is not r2.x
    assert r1.x.tobytes() == r2.x.tobytes()
    kept = r2.x.copy()
    r1.x[:] = np.nan
    assert r2.x.tobytes() == kept.tobytes()


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
    pts = prob.params[0]
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


def test_build_problem_rejects_an_unknown_family():
    # parse_config rejects it first; a config built in code reaches here
    cfg = harness.ExperimentConfig(family="cubic", m=4, rounds=10)
    with pytest.raises(ConfigError, match="unknown problem family 'cubic'"):
        harness.build_problem(cfg)


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


def test_parse_config_takes_percent_literally(tmp_path):
    text = GOOD_CONFIG.replace("prefix = t", "prefix = run%1 %(n)s")
    cfg = harness.parse_config(write_config(tmp_path, text=text))
    assert cfg.prefix == "run%1 %(n)s"


@pytest.mark.parametrize("field_size", ["0.5", "1.99", "0", "-4"])
def test_field_size_below_two_is_rejected(tmp_path, field_size):
    # below 2 the sensor placement may find no point farther than 1 from
    # the source, and used to loop forever; the config is checked first, so
    # the loop is never reached where the check is missing
    text = GOOD_CONFIG.replace(
        "family = quadratic\nq = 3\nn = 2",
        f"family = localization\nq = 3\nfield_size = {field_size}")
    with pytest.raises(ConfigError, match="field_size >= 2"):
        harness.parse_config(write_config(tmp_path, text=text))
    with pytest.raises(InvalidArgumentError, match="field size"):
        harness.localization_instance(m=4, q_i=3, field_size=float(field_size))
    text = text.replace(f"field_size = {field_size}", "field_size = 2")
    cfg = harness.parse_config(write_config(tmp_path, text=text))
    prob, source = harness.localization_instance(m=20, q_i=2, field_size=2.0)
    assert cfg.field_size == 2.0 and prob.m == 20
    assert np.all(np.linalg.norm(prob.params[0] - source, axis=1) > 1)


@pytest.mark.parametrize("sigma", ["-3", "-0.5", "nan"])
def test_parse_config_rejects_sigma_below_zero(tmp_path, sigma):
    text = GOOD_CONFIG.replace("family = quadratic\nq = 3\nn = 2",
                               f"family = localization\nq = 3\nsigma = {sigma}")
    with pytest.raises(ConfigError, match="sigma >= 0"):
        harness.parse_config(write_config(tmp_path, text=text))


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


@pytest.mark.parametrize("family, clamped", [
    ("family = localization\nq = 3\nsigma = 10", 4),
    ("family = localization\nq = 3\nsigma = 0", 0),
    ("family = quadratic\nq = 3\nn = 2", None),
    ("family = kmeans\nq = 6\nclusters = 2", None)])
def test_run_experiment_records_clamped_measurements(tmp_path, family, clamped):
    # sigma = 10 at problem seed 1 clamps 4 of the 12 measurements; only
    # localization runs write the line
    text = GOOD_CONFIG.replace("family = quadratic\nq = 3\nn = 2", family)
    result = harness.run_experiment(harness.parse_config(
        write_config(tmp_path, text=text)))
    lines = [ln for ln in result.meta_path.read_text().splitlines()
             if ln.startswith("problem.clamped_measurements")]
    if clamped is None:
        assert lines == []
        return
    sigma = float(family.rsplit(" ", 1)[1])
    assert localization_per_measurement(4, 3, 100.0, sigma, 1)[2] == clamped
    assert lines == [f"problem.clamped_measurements = {clamped}"]


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


# m1000_compare's experiment: G(1000, 0.02) mixes through CSR, and the
# explicit alpha needs no certificate.
M1000_COMPARE_CONFIG = """\
[problem]
family = gaussian_logistic
q = 10
n = 4
seed = 3

[topology]
kind = random_gnp
m = 1000
p = 0.02
seed = 3

[algorithm]
name = sdiging
alpha = 0.02
rounds = 30
seed = 11
"""


def compare_m1000(tmp_path):
    cfg = harness.parse_config(write_config(tmp_path, M1000_COMPARE_CONFIG))
    rows = harness.compare_algorithms(cfg, ["sdiging", "primal_dual"],
                                      target=0.4)
    assert [r.rounds_to_target for r in rows] == [27, 27]


def test_compare_with_explicit_alpha_decomposes_nothing(tmp_path, monkeypatch,
                                                       forbid_large_eigh):
    # nothing but the Lanczos tridiagonal of the laziness bound
    def eigvalsh(a):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    compare_m1000(tmp_path)


def test_csr_mixing_holds_no_dense_matrix(tmp_path, monkeypatch):
    built = []
    build_mixing = harness.build_mixing
    monkeypatch.setattr(harness, "build_mixing",
                        lambda cfg: built.append(build_mixing(cfg)) or built[-1])
    compare_m1000(tmp_path)
    (w,) = built
    held = list(vars(w).values()) + [vars(w.operator).get(k) for k in
                                     ("data", "indices", "indptr")]
    assert not any(isinstance(v, np.ndarray) and v.ndim == 2 for v in held)


def test_compare_runs_build_no_csr(tmp_path, monkeypatch):
    from scipy.sparse import csr_array
    in_run, built = [], []
    init, run = csr_array.__init__, engine.run

    def counting_init(self, *args, **kwargs):
        built.extend(in_run)
        init(self, *args, **kwargs)

    def watched_run(*args, **kwargs):
        in_run.append(args[0])
        try:
            return run(*args, **kwargs)
        finally:
            in_run.clear()

    monkeypatch.setattr(csr_array, "__init__", counting_init)
    monkeypatch.setattr(engine, "run", watched_run)
    compare_m1000(tmp_path)
    assert built == []
