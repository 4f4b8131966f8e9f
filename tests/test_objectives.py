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
    LocalObjective,
    LogisticSample,
    Quadratic,
    full_local_gradient,
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


# ---------------------------------------------------------------------------
# quadratic
# ---------------------------------------------------------------------------

def test_scalar_quadratic_optimum():
    prob = quadratic_family(1, 1, 1, (1.0, 1.0), seed=5)
    comp = prob.locals[0].components[0]
    assert comp.a[0, 0] == pytest.approx(1.0)
    assert prob.known_optimum[0] == pytest.approx(-comp.b[0])


def test_quadratic_family_optimum_via_dense_solve():
    prob = quadratic_family(2, 2, 2, (1.0, 2.0), seed=3)
    a_bar = np.zeros((2, 2))
    b_bar = np.zeros(2)
    for lo in prob.locals:
        for c in lo.components:
            a_bar += c.a / lo.q
            b_bar += c.b / lo.q
    x_direct = np.linalg.solve(a_bar, -b_bar)
    assert np.allclose(prob.known_optimum, x_direct, atol=1e-12)
    assert np.linalg.norm(prob.aggregate_gradient(prob.known_optimum)) < 1e-10


def test_quadratic_constants_bracket_spectrum():
    prob = quadratic_family(3, 4, 3, (0.5, 4.0), seed=1)
    for lo in prob.locals:
        for c in lo.components:
            eig = np.linalg.eigvalsh(c.a)
            assert c.mu == pytest.approx(eig[0], rel=1e-12)
            assert c.lip == pytest.approx(eig[-1], rel=1e-12)
            assert 0.5 - 1e-9 <= eig[0] and eig[-1] <= 4.0 + 1e-9


def test_quadratic_family_bad_range():
    with pytest.raises(InvalidArgumentError):
        quadratic_family(2, 2, 2, (2.0, 1.0), seed=0)


def test_quadratic_finite_difference():
    rng = np.random.default_rng(0)
    prob = quadratic_family(1, 3, 4, (1.0, 3.0), seed=9)
    pts = rng.standard_normal((20, 4))
    for c in prob.locals[0].components:
        fd_check(c, pts, 1e-5)


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------

def test_logistic_at_zero():
    c = np.array([1.5, -2.0, 0.5])
    f = LogisticSample(c=c, label=1, lam=2.0, m=4, q=7)
    x0 = np.zeros(3)
    assert f.value(x0) == pytest.approx(7 * np.log(2.0), rel=1e-14)
    assert np.allclose(f.gradient(x0), -(7 / 2.0) * c, atol=1e-14)


def test_logistic_separable_limit():
    f = LogisticSample(c=np.array([1.0, 0.0]), label=1, lam=1e-300, m=1, q=1)
    x = np.array([800.0, 0.0])
    assert f.value(x) < 1e-200
    assert np.linalg.norm(f.gradient(x)) < 1e-200


def test_logistic_overflow_safe():
    f = LogisticSample(c=np.array([1.0]), label=-1, lam=1.0, m=1, q=1)
    for t in (-1e4, 1e4):
        x = np.array([t])
        assert np.isfinite(f.value(x))
        assert np.isfinite(f.gradient(x)).all()


def test_logistic_finite_difference():
    rng = np.random.default_rng(4)
    for _ in range(30):
        c = rng.standard_normal(4)
        label = int(rng.choice([-1, 1]))
        f = LogisticSample(c=c, label=label, lam=1.0, m=5, q=6)
        fd_check(f, rng.standard_normal((5, 4)), 1e-6)


def test_logistic_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        LogisticSample(c=np.ones(2), label=0, lam=1.0, m=1, q=1)
    with pytest.raises(InvalidArgumentError):
        LogisticSample(c=np.ones(2), label=1, lam=0.0, m=1, q=1)


@pytest.mark.parametrize("label", [1, -1])
def test_logistic_fields_match_product_formulas(label):
    # -c for label -1 and c.dot(c) round as label * c and c @ c, signed
    # zeros included
    rng = np.random.default_rng(label + 2)
    rows = rng.standard_normal((200_000, 4))
    rows[rng.random(rows.shape) < 0.05] = 0.0
    rows[rng.random(rows.shape) < 0.05] = -0.0
    for c in rows[::1000]:
        f = LogisticSample(c=c, label=label, lam=1.0, m=3, q=7)
        lc = label * c
        assert np.array_equal(f._lc, lc)
        assert np.array_equal(np.signbit(f._lc), np.signbit(lc))
        assert f.lip == f.lam_m + 7 * float(c @ c) / 4.0
    negated = -rows if label == -1 else rows
    assert np.array_equal(np.signbit(negated), np.signbit(label * rows))
    assert np.array_equal(negated, label * rows)
    dots = np.array([c.dot(c) for c in rows])
    assert np.array_equal(dots, np.array([c @ c for c in rows]))


def test_convexity_probes_quadratic_and_logistic():
    # (grad(a)-grad(b))'(a-b) >= mu ||a-b||^2 and the Lipschitz mirror
    rng = np.random.default_rng(7)
    funcs = [c for c in quadratic_family(2, 3, 3, (1.0, 2.5), seed=2)
             .locals[0].components]
    funcs += [LogisticSample(c=rng.standard_normal(3), label=1, lam=2.0,
                             m=3, q=4)]
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
    f = DiskDistance(r=np.array([1.0, 1.0]), c_meas=4.0, a=4.0)  # radius 1
    x = np.array([1.2, 1.3])
    assert f.value(x) == 0.0
    assert np.all(f.gradient(x) == 0.0)


def test_disk_unit_circle_projection():
    f = DiskDistance(r=np.zeros(2), c_meas=1.0, a=1.0)  # radius 1
    x = np.array([2.0, 0.0])
    assert np.allclose(f.project(x), [1.0, 0.0], atol=1e-15)
    assert f.value(x) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(f.gradient(x), [2.0, 0.0], atol=1e-14)


def test_disk_clamps_nonpositive_measurement():
    f = DiskDistance(r=np.zeros(2), c_meas=-3.0, a=100.0)
    assert f.clamped
    assert np.isfinite(f.radius) and f.radius > 0


def test_disk_finite_difference_off_boundary():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        r = rng.uniform(-2, 2, size=2)
        f = DiskDistance(r=r, c_meas=rng.uniform(0.5, 2.0), a=1.0)
        x = rng.uniform(-4, 4, size=2)
        if abs(np.linalg.norm(x - r) - f.radius) < 1e-4:
            continue
        fd_check(f, [x], 1e-5)
        checked += 1


def test_disk_convexity_probe():
    rng = np.random.default_rng(12)
    f = DiskDistance(r=np.array([0.5, -0.5]), c_meas=1.0, a=1.0)
    for _ in range(1000):
        a = rng.uniform(-3, 3, size=2)
        b = rng.uniform(-3, 3, size=2)
        assert (f.gradient(a) - f.gradient(b)) @ (a - b) >= -1e-12


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_single_center_is_quadratic():
    p = np.array([1.0, 2.0])
    f = KMeansPoint(p=p, k=1)
    x = np.array([0.5, 0.5])
    assert f.value(x) == pytest.approx(np.sum((p - x) ** 2))
    assert np.allclose(f.gradient(x), 2.0 * (x - p))


def test_kmeans_nearest_center_selection():
    f = KMeansPoint(p=np.zeros(2), k=2)
    x = np.array([1.0, 0.0, 3.0, 0.0])  # centers (1,0) and (3,0)
    assert f.value(x) == pytest.approx(1.0)
    assert np.allclose(f.gradient(x), [2.0, 0.0, 0.0, 0.0])


def test_kmeans_tie_breaks_low_index():
    f = KMeansPoint(p=np.zeros(2), k=2)
    x = np.array([1.0, 0.0, -1.0, 0.0])  # equidistant centers
    g = f.gradient(x)
    assert np.allclose(g, [2.0, 0.0, 0.0, 0.0])


def test_kmeans_finite_difference_off_boundaries():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        f = KMeansPoint(p=rng.standard_normal(2), k=3)
        x = rng.uniform(-3, 3, size=6)
        d = np.sqrt(np.sum((x.reshape(3, 2) - f.p) ** 2, axis=1))
        d.sort()
        if d[1] - d[0] < 1e-4:
            continue
        fd_check(f, [x], 1e-5)
        checked += 1


# ---------------------------------------------------------------------------
# local objectives and aggregates
# ---------------------------------------------------------------------------

def test_full_local_gradient_singleton():
    f = LogisticSample(c=np.ones(2), label=1, lam=1.0, m=1, q=1)
    lo = LocalObjective(components=[f])
    x = np.array([0.3, -0.7])
    assert np.array_equal(full_local_gradient(lo, x), f.gradient(x))


def test_full_local_gradient_matrix_assembly():
    prob = quadratic_family(1, 5, 3, (1.0, 2.0), seed=8)
    lo = prob.locals[0]
    a_bar = sum(c.a for c in lo.components) / lo.q
    b_bar = sum(c.b for c in lo.components) / lo.q
    x = np.array([0.1, -0.2, 0.5])
    assert np.allclose(full_local_gradient(lo, x), a_bar @ x + b_bar,
                       atol=1e-13)


def test_full_local_gradient_logistic_at_zero():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((4, 3))
    labels = np.array([1, -1, 1, -1])
    lo = objectives.make_logistic_local(feats, labels, lam=1.0, m=2)
    expect = -np.sum(labels[:, None] * feats, axis=0) / 2.0
    assert np.allclose(lo.full_gradient(np.zeros(3)), expect, atol=1e-14)


def component_loop(prob, x):
    """Aggregate gradient and value summed component by component."""
    g = sum(full_local_gradient(lo, x) for lo in prob.locals) / prob.m
    v = sum(sum(c.value(x) for c in lo.components) / lo.q
            for lo in prob.locals) / prob.m
    return g, v


def sum_before_312(values):
    """Python's ``sum`` of floats as CPython computed it before 3.12: one
    addition at a time, from 0 (3.12 compensates)."""
    return functools.reduce(operator.add, values, 0)


def closure_loop(prob, x):
    """Aggregate gradient and value of a logistic problem, agent by agent,
    with the arithmetic of a per-agent vectorized oracle: lam_m*x minus
    sigmoid(-lc x) @ lc, and 0.5*lam_m*|x|^2 plus the sum of log(1+e^z)."""
    g = np.zeros(prob.dim)
    values = []
    for lo in prob.locals:
        lc = np.stack([c.label * c.c for c in lo.components])
        lam_m = lo.components[0].lam_m
        z = -(lc @ x)
        g += lam_m * x - expit(z) @ lc
        soft = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        values.append(0.5 * lam_m * float(x @ x) + float(soft.sum()))
    return g / prob.m, sum_before_312(values) / prob.m


def test_stacked_aggregate_matches_loop():
    rng = np.random.default_rng(6)
    prob = objectives.ProblemInstance(locals=[
        objectives.make_logistic_local(rng.standard_normal((8, 4)),
                                       rng.choice([-1, 1], size=8),
                                       lam=2.0, m=3)
        for _ in range(3)])
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
    prob = objectives.ProblemInstance(locals=[
        objectives.make_logistic_local(rng.standard_normal((q, 4)),
                                       rng.choice([-1, 1], size=q),
                                       lam=1.0, m=len(sizes))
        for q in sizes])
    assert (prob.q_min, prob.q_max) == (3, 200)
    for _ in range(40):
        x = 3.0 * rng.standard_normal(4)
        for loop in (closure_loop, component_loop):
            g, v = loop(prob, x)
            got = prob.aggregate_gradient(x)
            assert np.abs(got - g).max() <= 1e-12 * max(1.0, np.abs(g).max())
            assert prob.aggregate_value(x) == pytest.approx(v, rel=1e-12)


def test_aggregate_of_other_agents_sums_agent_by_agent():
    rng = np.random.default_rng(4)
    quad = quadratic_family(1, 3, 3, (1.0, 2.0), seed=1).locals[0]
    logi = objectives.make_logistic_local(rng.standard_normal((4, 3)),
                                          [1, -1, 1, -1], lam=1.0, m=2)
    # components whose q is not their agent's component count
    odd = LocalObjective(components=[
        LogisticSample(c=rng.standard_normal(3), label=1, lam=1.0, m=2, q=1)
        for _ in range(3)])
    for locals_ in ([quad, logi], [logi, odd]):
        prob = objectives.ProblemInstance(locals=locals_)
        for _ in range(5):
            x = rng.standard_normal(3)
            g, v = component_loop(prob, x)
            assert np.array_equal(prob.aggregate_gradient(x), g)
            assert prob.aggregate_value(x) == v


@pytest.mark.parametrize("m,q", [(20, 30), (100, 30), (1000, 10)])
def test_aggregate_value_equals_the_python_sum_it_replaced(m, q):
    # the per-agent values as the stacked oracle forms them, summed as
    # sum(values.tolist()) / m used to sum them
    prob = harness.gaussian_logistic_instance(m, q, n=4, seed=3)
    lam_m, lc, _ = prob._stack().params
    agent_lam = lam_m[prob._stack().offsets, 0]
    rng = np.random.default_rng(q + m)
    for _ in range(100):
        x = rng.standard_normal(4) * 10.0 ** rng.uniform(-8, 1)
        z = -(lc @ x)
        soft = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        values = 0.5 * agent_lam * float(x @ x) + soft.reshape(m, q).sum(axis=1)
        got = prob.aggregate_value(x)
        assert type(got) is float
        assert got == sum_before_312(values.tolist()) / m


def constants_walked_three_times(prob):
    """mu, lip and the logistic test as three walks over the components."""
    pairs = [(lo, c) for lo in prob.locals for c in lo.components]
    return (min(c.mu for _, c in pairs), max(c.lip for _, c in pairs),
            all(type(c) is LogisticSample and c.q == lo.q
                and c.lam_m == lo.components[0].lam_m for lo, c in pairs))


def test_problem_constants_match_three_walks_on_every_family():
    rng = np.random.default_rng(8)
    quad = quadratic_family(2, 3, 3, (1.0, 2.0), seed=1)
    logi = [objectives.make_logistic_local(rng.standard_normal((4, 3)),
                                           [1, -1, 1, -1], lam=lam, m=2)
            for lam in (1.0, 3.0)]
    odd_q = LocalObjective(components=[
        LogisticSample(c=rng.standard_normal(3), label=1, lam=1.0, m=2, q=1)
        for _ in range(3)])
    odd_lam = LocalObjective(components=[
        LogisticSample(c=rng.standard_normal(3), label=1, lam=lam, m=2, q=2)
        for lam in (1.0, 2.0)])
    problems = {
        "quadratic": quad,
        "gaussian_logistic": harness.gaussian_logistic_instance(6, 10, seed=2),
        "logistic, lam per agent": objectives.ProblemInstance(locals=logi),
        "localization": harness.localization_instance(
            m=5, q_i=8, sigma=1.0, seed=4)[0],
        "kmeans": harness.kmeans_instance(m=3, q_i=6, seed=1),
        "quadratic then logistic": objectives.ProblemInstance(
            locals=[quad.locals[0], logi[0]]),
        "logistic then quadratic": objectives.ProblemInstance(
            locals=[logi[1], quad.locals[1]]),
        "component q is not the agent's": objectives.ProblemInstance(
            locals=[logi[0], odd_q]),
        "two lam_m in one agent": objectives.ProblemInstance(
            locals=[logi[0], odd_lam]),
    }
    logistic = {"gaussian_logistic", "logistic, lam per agent"}
    for name, prob in problems.items():
        mu, lip, is_logistic = constants_walked_three_times(prob)
        assert (prob.mu, prob.lip) == (mu, lip), name
        assert (prob._logistic is not None) == is_logistic == (name in logistic)
        if is_logistic:
            assert prob._logistic.tolist() == [
                lo.components[0].lam_m for lo in prob.locals]


def test_dimension_mismatch_rejected():
    prob = quadratic_family(1, 2, 3, (1.0, 2.0), seed=0)
    with pytest.raises(InvalidArgumentError):
        full_local_gradient(prob.locals[0], np.zeros(4))


def test_aggregate_consistency():
    prob = quadratic_family(3, 2, 2, (1.0, 2.0), seed=4)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2)
    g = sum(full_local_gradient(lo, x) for lo in prob.locals) / prob.m
    assert np.allclose(prob.aggregate_gradient(x), g, atol=1e-14)


def test_problem_constants():
    prob = quadratic_family(3, 4, 2, (0.7, 3.0), seed=6)
    mus = [c.mu for lo in prob.locals for c in lo.components]
    lips = [c.lip for lo in prob.locals for c in lo.components]
    assert prob.mu == pytest.approx(min(mus))
    assert prob.lip == pytest.approx(max(lips))
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


def test_points_csv_loader(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0.0,1.0\n2.5,-3.5\n")
    pts = objectives.load_points_csv(path)
    assert pts.shape == (2, 2)
    assert np.allclose(pts[1], [2.5, -3.5])


# ---------------------------------------------------------------------------
# stacked gradients and the per-agent oracle
# ---------------------------------------------------------------------------

def stacked_cases():
    """(components, points) per family, including the edge cases."""
    rng = np.random.default_rng(21)
    quad = quadratic_family(1, 6, 3, (1.0, 3.0), seed=2).locals[0].components
    logi = [LogisticSample(c=rng.standard_normal(3), label=int(l), lam=1.5,
                           m=4, q=6) for l in rng.choice([-1, 1], size=6)]
    disks = [DiskDistance(r=rng.uniform(-2, 2, 2), c_meas=rng.uniform(0.5, 2),
                          a=1.0) for _ in range(4)]
    disks.append(DiskDistance(r=np.zeros(2), c_meas=-3.0, a=1.0))  # clamped
    disks.append(DiskDistance(r=np.ones(2), c_meas=4.0, a=4.0))    # radius 1
    disk_x = rng.uniform(-4, 4, (6, 2))
    disk_x[5] = [1.2, 1.3]                                  # inside its disk
    means = [KMeansPoint(p=rng.standard_normal(2), k=3) for _ in range(4)]
    means.append(KMeansPoint(p=np.zeros(2), k=3))
    mean_x = rng.uniform(-3, 3, (5, 6))
    mean_x[4] = [1.0, 0.0, -1.0, 0.0, 0.0, 5.0]             # tie of centers 0, 1
    return [(quad, rng.standard_normal((6, 3))),
            (logi, 3.0 * rng.standard_normal((6, 3))),
            (disks, disk_x), (means, mean_x)]


def test_stacked_gradient_matches_scalar():
    for comps, x in stacked_cases():
        cls = type(comps[0])
        got = cls.stacked_gradient(cls.stack_params(comps), x)
        want = np.stack([c.gradient(xk) for c, xk in zip(comps, x)])
        assert np.abs(got - want).max() <= 1e-12, cls.__name__
    disks, x = stacked_cases()[2]
    assert disks[4].clamped
    assert np.all(DiskDistance.stacked_gradient(
        DiskDistance.stack_params(disks), x)[5] == 0.0)
    means, x = stacked_cases()[3]
    tie = KMeansPoint.stacked_gradient(KMeansPoint.stack_params(means), x)[4]
    assert np.array_equal(tie, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_problem_oracle_matches_per_agent_loops():
    comps = quadratic_family(1, 9, 2, (1.0, 2.0), seed=3).locals[0].components
    sizes = [3, 1, 5]                         # uneven q exercises the offsets
    cuts = np.cumsum([0] + sizes)
    prob = objectives.ProblemInstance(locals=[
        LocalObjective(components=comps[a:b]) for a, b in zip(cuts, cuts[1:])])
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 2))
    want = np.stack([full_local_gradient(lo, xi)
                     for lo, xi in zip(prob.locals, x)])
    assert np.abs(prob.local_gradients(x) - want).max() <= 1e-12
    for h in ([0, 0, 0], [2, 0, 4], [1, 0, 3]):
        want = np.stack([lo.components[hi].gradient(xi)
                         for lo, hi, xi in zip(prob.locals, h, x)])
        assert np.abs(prob.component_gradients(x, np.array(h)) - want).max() \
            <= 1e-12

