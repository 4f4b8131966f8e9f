import functools
import operator

import numpy as np
import pytest
from scipy.special import expit

from sdiging import harness, objectives
from sdiging.errors import InvalidArgumentError
from sdiging.objectives import (
    DiskDistance,
    KMeansPoint,
    LogisticSample,
    Quadratic,
    quadratic_family,
)


def central_diff(f, x, step):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def fd_check(func, points, rtol):
    for x in points:
        step = 1e-6 * (1.0 + np.linalg.norm(x))
        num = central_diff(func.value, x, step)
        ana = func.gradient(x)
        err = np.linalg.norm(ana - num) / (1.0 + np.linalg.norm(ana))
        assert err < rtol, f"finite-difference mismatch {err:.3e} at {x}"


class Row:
    """Row k of a stack as a function of one point, through the stacked
    oracle, with the row's own mu and lip (q: its agent's count)."""

    def __init__(self, cls, params, k=0, q=1):
        self.cls, self.params = cls, [p[k:k + 1] for p in params]
        _, self.mu, self.lip = cls.constants(self.params, np.array([q]))

    def value(self, x):
        return float(self.cls.stacked_value(self.params, x[None])[0])

    def gradient(self, x):
        return self.cls.stacked_gradient(self.params, x[None])[0]


def disk(r, radius):
    return Row(DiskDistance, [np.array([r], dtype=float), np.array([radius])])


def kmeans(p, k):
    return Row(KMeansPoint, [np.array([p], dtype=float), np.array([k])])


def logistic_params(features, labels, lam_m, q):
    """Stacked logistic rows of agents whose samples count ``q`` (per row)."""
    lc = np.where(np.asarray(labels)[:, None] == 1, features, -features)
    q = np.broadcast_to(np.asarray(q, dtype=float), (len(lc),))
    return [np.full((len(lc), 1), lam_m), lc, q[:, None] * lc]


def logistic(c, label, lam, m, q):
    """One sample's loss with the q and lam/m given, as its agent's local
    view: q copies of the sample average to the sample's own loss."""
    return objectives.LocalObjective(objectives.logistic_problem(
        np.tile(c, (q, 1)), np.full(q, label), lam=lam / m, m=1), 0)


def scalar_oracle(kind, row, q, x):
    """(value, gradient) of one component at one point, as the
    per-component classes computed them."""
    if kind is Quadratic:
        a, b = row
        return 0.5 * float(x @ a @ x) + float(b @ x), a @ x + b
    if kind is DiskDistance:
        r, radius = row
        d = x - r
        dist = float(np.linalg.norm(d))
        resid = x - (x if dist <= radius else r + (radius / dist) * d)
        return float(resid @ resid), 2.0 * resid
    if kind is KMeansPoint:
        p, k = row
        centers = x.reshape(k, len(p))
        d2 = np.sum((centers - p) ** 2, axis=1)
        near = int(np.argmin(d2))
        g = np.zeros_like(x)
        g[near * len(p):(near + 1) * len(p)] = 2.0 * (centers[near] - p)
        return float(d2.min()), g
    lam_m, lc, qlc = row
    z = -float(lc @ x)
    value = 0.5 * lam_m[0] * float(x @ x) + q * (
        max(z, 0.0) + np.log1p(np.exp(-abs(z))))
    return value, lam_m * x - expit(z) * qlc


def sum_before_312(values):
    """Python's ``sum`` of floats as CPython computed it before 3.12: one
    addition at a time, from 0 (3.12 compensates)."""
    return functools.reduce(operator.add, values, 0)


def component_loop(prob, x):
    """Aggregate gradient and value summed component by component, agent by
    agent, as the per-component objects summed them."""
    grads, values = [], []
    for start, q in zip(prob.offsets.tolist(), prob.q.tolist()):
        g, v = np.zeros(prob.dim), []
        for k in range(start, start + q):
            vk, gk = scalar_oracle(prob.kind, [p[k] for p in prob.params], q, x)
            g += gk
            v.append(vk)
        grads.append(g / q)
        values.append(sum_before_312(v) / q)
    return sum(grads) / prob.m, sum_before_312(values) / prob.m


# ---------------------------------------------------------------------------
# quadratic
# ---------------------------------------------------------------------------

def test_scalar_quadratic_optimum():
    prob = quadratic_family(1, 1, 1, (1.0, 1.0), seed=5)
    a, b = prob.params
    assert a[0, 0, 0] == pytest.approx(1.0)
    assert prob.known_optimum[0] == pytest.approx(-b[0, 0])


def test_quadratic_family_optimum_via_dense_solve():
    prob = quadratic_family(2, 2, 2, (1.0, 2.0), seed=3)
    a, b = prob.params
    x_direct = np.linalg.solve(a.sum(axis=0) / 4, -b.sum(axis=0) / 4)
    assert np.allclose(prob.known_optimum, x_direct, atol=1e-12)
    assert np.linalg.norm(prob.aggregate_gradient(prob.known_optimum)) < 1e-10


def test_quadratic_constants_bracket_spectrum():
    prob = quadratic_family(3, 4, 3, (0.5, 4.0), seed=1)
    eig = np.array([np.linalg.eigvalsh(a) for a in prob.params[0]])
    assert prob.mu == pytest.approx(eig[:, 0].min(), rel=1e-12)
    assert prob.lip == pytest.approx(eig[:, -1].max(), rel=1e-12)
    assert 0.5 - 1e-9 <= eig.min() and eig.max() <= 4.0 + 1e-9


def test_quadratic_family_bad_range():
    with pytest.raises(InvalidArgumentError):
        quadratic_family(2, 2, 2, (2.0, 1.0), seed=0)


@pytest.mark.parametrize("m, q_i, n", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
def test_quadratic_family_needs_positive_sizes(m, q_i, n):
    with pytest.raises(InvalidArgumentError, match="need m, q_i, n >= 1"):
        quadratic_family(m, q_i, n, (1.0, 2.0), seed=0)


def test_quadratic_finite_difference():
    rng = np.random.default_rng(0)
    prob = quadratic_family(1, 3, 4, (1.0, 3.0), seed=9)
    pts = rng.standard_normal((20, 4))
    for k in range(3):
        fd_check(Row(Quadratic, prob.params, k), pts, 1e-5)


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------

def test_logistic_at_zero():
    c = np.array([1.5, -2.0, 0.5])
    f = logistic(c, 1, lam=2.0, m=4, q=7)
    x0 = np.zeros(3)
    assert f.value(x0) == pytest.approx(7 * np.log(2.0), rel=1e-14)
    assert np.allclose(f.full_gradient(x0), -(7 / 2.0) * c, atol=1e-14)
    row = Row(LogisticSample, logistic_params(c[None], [1], 0.5, 7), q=7)
    assert np.allclose(row.gradient(x0), -(7 / 2.0) * c, atol=1e-14)


def test_logistic_separable_limit():
    f = logistic(np.array([1.0, 0.0]), 1, lam=1e-300, m=1, q=1)
    x = np.array([800.0, 0.0])
    assert f.value(x) < 1e-200
    assert np.linalg.norm(f.full_gradient(x)) < 1e-200


def test_logistic_overflow_safe():
    f = logistic(np.array([1.0]), -1, lam=1.0, m=1, q=1)
    for t in (-1e4, 1e4):
        x = np.array([t])
        assert np.isfinite(f.value(x))
        assert np.isfinite(f.full_gradient(x)).all()


def test_logistic_finite_difference():
    rng = np.random.default_rng(4)
    for _ in range(30):
        c = rng.standard_normal(4)
        label = int(rng.choice([-1, 1]))
        f = logistic(c, label, lam=1.0, m=5, q=6)
        f.gradient = f.full_gradient
        fd_check(f, rng.standard_normal((5, 4)), 1e-6)


def test_logistic_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        objectives.logistic_problem(np.ones((1, 2)), [0], lam=1.0, m=1)
    with pytest.raises(InvalidArgumentError):
        objectives.logistic_problem(np.ones((1, 2)), [1], lam=0.0, m=1)


@pytest.mark.parametrize("label", [1, -1])
def test_logistic_fields_match_product_formulas(label):
    # -c for label -1 and c.dot(c) round as label * c and c @ c, signed
    # zeros included
    rng = np.random.default_rng(label + 2)
    rows = rng.standard_normal((200_000, 4))
    rows[rng.random(rows.shape) < 0.05] = 0.0
    rows[rng.random(rows.shape) < 0.05] = -0.0
    sample = rows[::1000]
    prob = objectives.logistic_problem(sample, np.full(len(sample), label),
                                       lam=1.0, m=40)
    lam_m, lc, _ = prob.params
    assert np.array_equal(lc, label * sample)
    assert np.array_equal(np.signbit(lc), np.signbit(label * sample))
    assert prob.lip == max(lam_m[0, 0] + 5 * float(c @ c) / 4.0 for c in sample)
    negated = -rows if label == -1 else rows
    assert np.array_equal(np.signbit(negated), np.signbit(label * rows))
    assert np.array_equal(negated, label * rows)
    dots = np.array([c.dot(c) for c in rows])
    assert np.array_equal(dots, np.array([c @ c for c in rows]))


def test_convexity_probes_quadratic_and_logistic():
    # (grad(a)-grad(b))'(a-b) >= mu ||a-b||^2 and the Lipschitz mirror
    rng = np.random.default_rng(7)
    params = quadratic_family(2, 3, 3, (1.0, 2.5), seed=2).params
    funcs = [Row(Quadratic, params, k) for k in range(3)]
    funcs += [Row(LogisticSample, logistic_params(
        rng.standard_normal((1, 3)), [1], 2.0 / 3, 4), q=4)]
    for f in funcs:
        for _ in range(1000):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            dg = f.gradient(a) - f.gradient(b)
            dx = a - b
            assert dg @ dx >= f.mu * (dx @ dx) - 1e-9
            assert np.linalg.norm(dg) <= f.lip * np.linalg.norm(dx) + 1e-9


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_disk_inside_is_flat():
    f = disk([1.0, 1.0], 1.0)
    x = np.array([1.2, 1.3])
    assert f.value(x) == 0.0
    assert np.all(f.gradient(x) == 0.0)


def test_disk_unit_circle_projection():
    f = disk([0.0, 0.0], 1.0)
    x = np.array([2.0, 0.0])
    # the projection is x - gradient / 2
    assert np.allclose(x - f.gradient(x) / 2.0, [1.0, 0.0], atol=1e-15)
    assert f.value(x) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(f.gradient(x), [2.0, 0.0], atol=1e-14)


def test_disk_clamps_nonpositive_measurement():
    prob, _ = harness.localization_instance(m=5, q_i=40, sigma=100.0, seed=0)
    radius = prob.params[1]
    assert prob.clamped_measurements > 0
    assert np.isfinite(radius).all() and (radius > 0).all()
    floor_radius = np.sqrt(100.0 / (objectives.MEASUREMENT_CLAMP_FRACTION * 100.0))
    assert (radius == floor_radius).sum() == prob.clamped_measurements


def test_disk_finite_difference_off_boundary():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        r = rng.uniform(-2, 2, size=2)
        radius = np.sqrt(1.0 / rng.uniform(0.5, 2.0))
        f = disk(r, radius)
        x = rng.uniform(-4, 4, size=2)
        if abs(np.linalg.norm(x - r) - radius) < 1e-4:
            continue
        fd_check(f, [x], 1e-5)
        checked += 1


def test_disk_convexity_probe():
    rng = np.random.default_rng(12)
    f = disk([0.5, -0.5], 1.0)
    for _ in range(1000):
        a = rng.uniform(-3, 3, size=2)
        b = rng.uniform(-3, 3, size=2)
        assert (f.gradient(a) - f.gradient(b)) @ (a - b) >= -1e-12


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_single_center_is_quadratic():
    p = np.array([1.0, 2.0])
    f = kmeans(p, 1)
    x = np.array([0.5, 0.5])
    assert f.value(x) == pytest.approx(np.sum((p - x) ** 2))
    assert np.allclose(f.gradient(x), 2.0 * (x - p))


def test_kmeans_nearest_center_selection():
    f = kmeans(np.zeros(2), 2)
    x = np.array([1.0, 0.0, 3.0, 0.0])  # centers (1,0) and (3,0)
    assert f.value(x) == pytest.approx(1.0)
    assert np.allclose(f.gradient(x), [2.0, 0.0, 0.0, 0.0])


def test_kmeans_tie_breaks_low_index():
    f = kmeans(np.zeros(2), 2)
    x = np.array([1.0, 0.0, -1.0, 0.0])  # equidistant centers
    g = f.gradient(x)
    assert np.allclose(g, [2.0, 0.0, 0.0, 0.0])


def test_kmeans_finite_difference_off_boundaries():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        p = rng.standard_normal(2)
        f = kmeans(p, 3)
        x = rng.uniform(-3, 3, size=6)
        d = np.sqrt(np.sum((x.reshape(3, 2) - p) ** 2, axis=1))
        d.sort()
        if d[1] - d[0] < 1e-4:
            continue
        fd_check(f, [x], 1e-5)
        checked += 1


# ---------------------------------------------------------------------------
# local objectives and aggregates
# ---------------------------------------------------------------------------

def test_full_local_gradient_singleton():
    lo = logistic(np.ones(2), 1, lam=1.0, m=1, q=1)
    x = np.array([0.3, -0.7])
    row = Row(LogisticSample, logistic_params(np.ones((1, 2)), [1], 1.0, 1))
    assert lo.q == 1 and lo.dim == 2
    assert np.array_equal(lo.full_gradient(x), row.gradient(x))


def test_full_local_gradient_matrix_assembly():
    prob = quadratic_family(1, 5, 3, (1.0, 2.0), seed=8)
    lo = objectives.LocalObjective(prob, 0)
    a, b = prob.params
    x = np.array([0.1, -0.2, 0.5])
    assert np.allclose(lo.full_gradient(x), a.mean(axis=0) @ x + b.mean(axis=0),
                       atol=1e-13)


def test_full_local_gradient_logistic_at_zero():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((4, 3))
    labels = np.array([1, -1, 1, -1])
    lo = objectives.LocalObjective(
        objectives.logistic_problem(feats, labels, lam=2.0, m=1), 0)
    expect = -np.sum(labels[:, None] * feats, axis=0) / 2.0
    assert np.allclose(lo.full_gradient(np.zeros(3)), expect, atol=1e-14)


def closure_loop(prob, x):
    """Aggregate gradient and value of a logistic problem, agent by agent,
    with the arithmetic of a per-agent vectorized oracle: lam_m*x minus
    sigmoid(-lc x) @ lc, and 0.5*lam_m*|x|^2 plus the sum of log(1+e^z)."""
    g = np.zeros(prob.dim)
    values = []
    for start, q in zip(prob.offsets.tolist(), prob.q.tolist()):
        lc = prob.params[1][start:start + q]
        lam_m = float(prob.params[0][start, 0])
        z = -(lc @ x)
        g += lam_m * x - expit(z) @ lc
        soft = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        values.append(0.5 * lam_m * float(x @ x) + float(soft.sum()))
    return g / prob.m, sum_before_312(values) / prob.m


def test_stacked_aggregate_matches_loop():
    rng = np.random.default_rng(6)
    prob = objectives.logistic_problem(rng.standard_normal((24, 4)),
                                       rng.choice([-1, 1], size=24),
                                       lam=2.0, m=3)
    for _ in range(20):
        x = rng.standard_normal(4)
        g, v = component_loop(prob, x)
        assert np.allclose(prob.aggregate_gradient(x), g, atol=1e-14)
        assert prob.aggregate_value(x) == pytest.approx(v, rel=1e-12)


@pytest.mark.parametrize("m,q,n", [(20, 30, 4), (100, 30, 4), (1000, 10, 4),
                                   (200, 10, 1)])
def test_stacked_aggregate_is_bit_identical_to_agent_loop(m, q, n):
    prob = harness.gaussian_logistic_instance(m, q, n=n, seed=3)
    rng = np.random.default_rng(m)
    for _ in range(40):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 1)
        g, v = closure_loop(prob, x)
        assert np.array_equal(prob.aggregate_gradient(x), g)
        assert prob.aggregate_value(x) == v


def test_stacked_aggregate_uneven_q():
    rng = np.random.default_rng(13)
    sizes = [3, 200, 17, 64, 5, 128, 3]
    total = sum(sizes)
    prob = objectives.ProblemInstance(LogisticSample, logistic_params(
        rng.standard_normal((total, 4)), rng.choice([-1, 1], size=total),
        1.0 / len(sizes), np.repeat(sizes, sizes)), sizes)
    assert (prob.q_min, prob.q_max) == (3, 200)
    for _ in range(40):
        x = 3.0 * rng.standard_normal(4)
        for loop in (closure_loop, component_loop):
            g, v = loop(prob, x)
            got = prob.aggregate_gradient(x)
            assert np.abs(got - g).max() <= 1e-12 * max(1.0, np.abs(g).max())
            assert prob.aggregate_value(x) == pytest.approx(v, rel=1e-12)


def test_aggregate_of_other_agents_sums_agent_by_agent():
    # every family but the logistic ones: the stacked aggregate is, bit for
    # bit, the per-component loop, with even and uneven agents
    rng = np.random.default_rng(4)
    problems = [(quadratic_family(3, 4, n, (0.5, 3.0), seed=n),
                 lambda n=n: rng.standard_normal(n)) for n in (1, 2, 3, 4, 8)]
    problems.append((harness.localization_instance(m=10, q_i=20, seed=0)[0],
                     lambda: rng.uniform(0.0, 100.0, 2)))
    pts = rng.standard_normal((18, 2)) * 3.0
    problems.append((objectives.ProblemInstance(
        KMeansPoint, [pts, np.full(18, 3)], [5, 1, 9, 3]),
        lambda: rng.uniform(-4, 4, 6)))
    sizes = [3, 1, 6, 2]
    params = quadratic_family(1, 12, 3, (0.5, 3.0), seed=9).params
    problems.append((objectives.ProblemInstance(Quadratic, params, sizes),
                     lambda: rng.standard_normal(3)))
    for prob, point in problems:
        for _ in range(20):
            x = point()
            g, v = component_loop(prob, x)
            assert np.array_equal(prob.aggregate_gradient(x), g)
            assert prob.aggregate_value(x) == v
            values = [objectives.LocalObjective(prob, i).value(x)
                      for i in range(prob.m)]
            assert sum_before_312(values) / prob.m == v


@pytest.mark.parametrize("m,q", [(20, 30), (100, 30), (1000, 10)])
def test_aggregate_value_equals_the_python_sum_it_replaced(m, q):
    # the per-agent values as the stacked oracle forms them, summed as
    # sum(values.tolist()) / m used to sum them
    prob = harness.gaussian_logistic_instance(m, q, n=4, seed=3)
    lam_m, lc, _ = prob.params
    agent_lam = lam_m[prob.offsets, 0]
    rng = np.random.default_rng(q + m)
    for _ in range(100):
        x = rng.standard_normal(4) * 10.0 ** rng.uniform(-8, 1)
        z = -(lc @ x)
        soft = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        values = 0.5 * agent_lam * float(x @ x) + soft.reshape(m, q).sum(axis=1)
        got = prob.aggregate_value(x)
        assert type(got) is float
        assert got == sum_before_312(values.tolist()) / m


def constants_walked_row_by_row(prob):
    """mu and lip as min and max over the rows, each row's constants formed
    as its component object formed them."""
    q = np.repeat(prob.q, prob.q).tolist()
    if prob.kind is Quadratic:
        eig = [np.linalg.eigvalsh(a) for a in prob.params[0]]
        return min(float(e[0]) for e in eig), max(float(e[-1]) for e in eig)
    if prob.kind is LogisticSample:
        lam_m = [float(v) for v in prob.params[0][:, 0]]
        return min(lam_m), max(lm + qk * float(c.dot(c)) / 4.0
                               for lm, qk, c in zip(lam_m, q, prob.params[1]))
    return 0.0, 2.0


def test_problem_constants_match_three_walks_on_every_family():
    rng = np.random.default_rng(8)
    sizes = [4, 1, 3]
    problems = {
        "quadratic": quadratic_family(2, 3, 3, (1.0, 2.0), seed=1),
        "gaussian_logistic": harness.gaussian_logistic_instance(6, 10, seed=2),
        "logistic, uneven q": objectives.ProblemInstance(
            LogisticSample, logistic_params(
                rng.standard_normal((8, 3)), rng.choice([-1, 1], size=8),
                0.5, np.repeat(sizes, sizes)), sizes),
        "localization": harness.localization_instance(
            m=5, q_i=8, sigma=1.0, seed=4)[0],
        "kmeans": harness.kmeans_instance(m=3, q_i=6, seed=1),
    }
    for name, prob in problems.items():
        assert (prob.mu, prob.lip) == constants_walked_row_by_row(prob), name
        assert type(prob.mu) is float and type(prob.lip) is float, name


def test_dimension_mismatch_rejected():
    prob = quadratic_family(1, 2, 3, (1.0, 2.0), seed=0)
    with pytest.raises(InvalidArgumentError):
        objectives.LocalObjective(prob, 0).full_gradient(np.zeros(4))
    with pytest.raises(InvalidArgumentError):
        objectives.LocalObjective(prob, 0).value(np.zeros(2))


def test_aggregate_consistency():
    prob = quadratic_family(3, 2, 2, (1.0, 2.0), seed=4)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2)
    g = sum(objectives.LocalObjective(prob, i).full_gradient(x)
            for i in range(prob.m)) / prob.m
    assert np.allclose(prob.aggregate_gradient(x), g, atol=1e-14)


def test_problem_constants():
    prob = quadratic_family(3, 4, 2, (0.7, 3.0), seed=6)
    eig = np.linalg.eigvalsh(prob.params[0])
    assert prob.mu == pytest.approx(eig[:, 0].min())
    assert prob.lip == pytest.approx(eig[:, -1].max())
    assert prob.q_min == prob.q_max == 4


# ---------------------------------------------------------------------------
# CSV loaders
# ---------------------------------------------------------------------------

def test_logistic_csv_loader(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0.5,-1.5\n-1,2.0,3.0\n")
    labels, feats = objectives.load_logistic_csv(path)
    assert list(labels) == [1, -1]
    assert np.allclose(feats, [[0.5, -1.5], [2.0, 3.0]])


def test_logistic_csv_rejects_bad_labels(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("2,0.5\n")
    with pytest.raises(InvalidArgumentError):
        objectives.load_logistic_csv(path)


def test_fractional_labels_are_rejected_not_truncated(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.7,0.5\n-1.2,2.0\n")
    with pytest.raises(InvalidArgumentError, match="labels"):
        objectives.load_logistic_csv(path)
    with pytest.raises(InvalidArgumentError, match="labels"):
        objectives.logistic_problem([[0.5], [2.0]], [1.7, -1.2], lam=1.0, m=1)


def test_points_csv_loader(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0.0,1.0\n2.5,-3.5\n")
    pts = objectives.load_points_csv(path)
    assert pts.shape == (2, 2)
    assert np.allclose(pts[1], [2.5, -3.5])


@pytest.mark.parametrize("text, cols", [("0.5\n1.5\n", 1),
                                        ("0,1,2\n3,4,5\n", 3)])
def test_points_csv_needs_two_columns(tmp_path, text, cols):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(InvalidArgumentError,
                       match=f"expected 2 columns, got {cols}"):
        objectives.load_points_csv(path)


# ---------------------------------------------------------------------------
# stacked gradients and the per-agent oracle
# ---------------------------------------------------------------------------

def stacked_cases():
    """(class, params, q per row, points) per family, edge cases included."""
    rng = np.random.default_rng(21)
    quad = quadratic_family(1, 6, 3, (1.0, 3.0), seed=2).params
    logi = logistic_params(rng.standard_normal((6, 3)),
                           rng.choice([-1, 1], size=6), 1.5 / 4, 6)
    disks = [rng.uniform(-2, 2, (6, 2)),
             np.sqrt(1.0 / rng.uniform(0.5, 2, 6))]
    disks[0][4], disks[1][4] = 0.0, 1e-3                    # a tiny disk
    disks[0][5], disks[1][5] = 1.0, 1.0                     # radius 1
    disk_x = rng.uniform(-4, 4, (6, 2))
    disk_x[5] = [1.2, 1.3]                                  # inside its disk
    means = [rng.standard_normal((5, 2)), np.full(5, 3)]
    means[0][4] = 0.0
    mean_x = rng.uniform(-3, 3, (5, 6))
    mean_x[4] = [1.0, 0.0, -1.0, 0.0, 0.0, 5.0]             # tie of centers 0, 1
    return [(Quadratic, quad, 6, rng.standard_normal((6, 3))),
            (LogisticSample, logi, 6, 3.0 * rng.standard_normal((6, 3))),
            (DiskDistance, disks, 1, disk_x), (KMeansPoint, means, 1, mean_x)]


def test_stacked_gradient_matches_scalar():
    for cls, params, q, x in stacked_cases():
        got = cls.stacked_gradient(params, x)
        rows = [scalar_oracle(cls, [p[k] for p in params], q, x[k])
                for k in range(len(x))]
        want = np.stack([g for _, g in rows])
        if cls is LogisticSample:
            assert np.abs(got - want).max() <= 1e-12
            continue
        # the other classes round as their scalar oracles did
        assert np.array_equal(got, want), cls.__name__
        assert np.array_equal(cls.stacked_value(params, x),
                              [v for v, _ in rows]), cls.__name__
    _, disks, _, x = stacked_cases()[2]
    assert np.all(DiskDistance.stacked_gradient(disks, x)[5] == 0.0)
    _, means, _, x = stacked_cases()[3]
    tie = KMeansPoint.stacked_gradient(means, x)[4]
    assert np.array_equal(tie, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_disk_residual_equals_boolean_indexed_projection():
    # inside, on the edge of, outside of and NaN rows: every bit, NaN
    # included, equals projecting only the rows outside their disks
    rng = np.random.default_rng(29)
    r = rng.uniform(-2, 2, (7, 2))
    radius = rng.uniform(0.5, 1.5, 7)
    u = rng.standard_normal((7, 2))
    u /= np.linalg.norm(u, axis=1)[:, None]
    x = r + np.array([0.3, 1.0, 2.5, 7.0, 0.0, 1.0, 1.0])[:, None] * \
        radius[:, None] * u
    x[5] = [np.nan, 1.0]
    x[6] = np.nan
    d = x - r
    dist = np.sqrt(np.sum(d * d, axis=1))
    out = dist > radius
    assert out.tolist() == [False, False, True, True, False, False, False]
    proj = x.copy()
    proj[out] = r[out] + (radius[out] / dist[out])[:, None] * d[out]
    got = DiskDistance._residual([r, radius], x)
    assert np.array_equal(got, x - proj, equal_nan=True)
    # a literal 0.0 for the rows not projected would zero the NaN rows
    assert np.isnan(got).tolist()[5:] == [[True, False], [True, True]]
    assert not np.isnan(got[:5]).any()
    assert np.all(got[[0, 1, 4]] == 0.0) and np.all(got[[2, 3]] != 0.0)


def test_problem_oracle_matches_per_agent_loops():
    params = quadratic_family(1, 9, 2, (1.0, 2.0), seed=3).params
    sizes = [3, 1, 5]                         # uneven q exercises the offsets
    prob = objectives.ProblemInstance(Quadratic, params, sizes)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 2))
    want = np.stack([objectives.LocalObjective(prob, i).full_gradient(xi)
                     for i, xi in enumerate(x)])
    assert np.abs(prob.local_gradients(x) - want).max() <= 1e-12
    for h in ([0, 0, 0], [2, 0, 4], [1, 0, 3]):
        want = np.stack([scalar_oracle(Quadratic, [p[start + hi] for p in params],
                                       q, xi)[1]
                         for start, q, hi, xi in zip(prob.offsets, sizes,
                                                     h, x)])
        assert np.array_equal(prob.drawn_gradients(x, np.array(h) + 1), want)
