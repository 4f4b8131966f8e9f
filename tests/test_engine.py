import math

import numpy as np
import pytest

from sdiging import engine, graph, harness
from sdiging.errors import (
    CertificationRefused,
    DivergenceError,
    InvalidArgumentError,
)
from sdiging.objectives import (
    DiskDistance,
    LocalObjective,
    ProblemInstance,
    Quadratic,
    quadratic_family,
)


def mixing(kind, m, p=None, seed=0, laziness=0.1):
    t = graph.build_topology(kind, m, p=p, seed=seed)
    return graph.metropolis_weights(t, laziness=laziness)


def localization_like_problem():
    # mu = 0 problem for the certification gate
    return ProblemInstance(DiskDistance, [np.zeros((2, 2)), np.ones(2)], [1, 1])


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def test_single_agent_reduces_to_gradient_descent():
    prob = quadratic_family(1, 1, 2, (1.0, 1.0), seed=0)
    t = graph.Topology(m=1, edge_array=np.empty((0, 2), int))
    w = graph.MixingMatrix.from_dense(np.eye(1), laziness=0.0, topology=t)
    alpha = 0.3
    state = engine.init_state("diging", prob)
    x_plain = np.zeros(2)
    for _ in range(25):
        state = engine.step("diging", state, w, prob, alpha)
        x_plain = x_plain - alpha * LocalObjective(prob, 0).full_gradient(x_plain)
        assert np.allclose(state.x[0], x_plain, atol=1e-12)
        assert np.allclose(state.y[0],
                           LocalObjective(prob, 0).full_gradient(state.x[0]),
                           atol=1e-12)


def test_zero_objective_mixes_to_consensus():
    # with g identically zero the x-update is pure neighbor averaging
    m = 6
    prob = ProblemInstance(Quadratic, [np.zeros((m, 2, 2)), np.zeros((m, 2))],
                           np.ones(m, dtype=int))
    w = mixing("ring", m)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((m, 2))
    state = engine.NetworkState(x=x, y=np.zeros((m, 2)),
                                g_prev=np.zeros((m, 2)))
    mean0 = x.mean(axis=0)
    for _ in range(400):
        state = engine.step("diging", state, w, prob, alpha=0.1)
    assert np.abs(state.x - mean0[None, :]).max() < 1e-10


def test_first_primal_dual_iterate_matches_sdiging():
    prob = quadratic_family(4, 3, 2, (1.0, 2.0), seed=1)
    w = mixing("ring", 4)
    tables_a = engine.make_tables(prob, seed=9)
    tables_b = engine.make_tables(prob, seed=9)
    sa = engine.init_state("sdiging", prob, tables_a)
    sb = engine.init_state("primal_dual", prob, tables_b)
    sa = engine.step("sdiging", sa, w, prob, 0.01, tables_a)
    sb = engine.step("primal_dual", sb, w, prob, 0.01, tables_b)
    assert np.allclose(sa.x, sb.x, atol=1e-14)
    assert np.allclose(sb.x, -0.01 * np.stack(
        [LocalObjective(prob, i).full_gradient(np.zeros(2))
         for i in range(prob.m)]), atol=1e-13)


def test_equivalence_over_100_rounds():
    for seed in (0, 1, 2):
        prob = quadratic_family(10, 4, 3, (1.0, 3.0), seed=seed)
        w = mixing("random_gnp", 10, p=0.4, seed=seed)
        ta = engine.make_tables(prob, seed=seed)
        tb = engine.make_tables(prob, seed=seed)
        sa = engine.init_state("sdiging", prob, ta)
        sb = engine.init_state("primal_dual", prob, tb)
        worst = 0.0
        for _ in range(100):
            sa = engine.step("sdiging", sa, w, prob, 0.02, ta)
            sb = engine.step("primal_dual", sb, w, prob, 0.02, tb)
            worst = max(worst, float(np.abs(sa.x - sb.x).max()))
        assert worst < 1e-9


def test_tracking_identity_enforced():
    prob = quadratic_family(5, 3, 2, (1.0, 2.0), seed=2)
    w = mixing("complete", 5)
    tables = engine.make_tables(prob, seed=0)
    s = engine.init_state("sdiging", prob, tables)
    for _ in range(200):
        s = engine.step("sdiging", s, w, prob, 0.01, tables)
        engine.assert_tracking_identity(s, tol=1e-10 * 5)
    broken = engine.NetworkState(x=s.x, y=s.y + 1e-6, g_prev=s.g_prev, k=s.k)
    with pytest.raises(AssertionError):
        engine.assert_tracking_identity(broken, tol=1e-10 * 5)


def test_dual_stays_in_range_space():
    prob = quadratic_family(6, 2, 2, (1.0, 2.0), seed=3)
    w = mixing("ring", 6)
    tables = engine.make_tables(prob, seed=1)
    s = engine.init_state("primal_dual", prob, tables)
    for _ in range(150):
        s = engine.step("primal_dual", s, w, prob, 0.01, tables)
        assert np.linalg.norm(s.lam.mean(axis=0)) < 1e-10


def test_step_rejects_wrong_state():
    prob = quadratic_family(3, 2, 2, (1.0, 2.0), seed=4)
    w = mixing("ring", 3)
    tables = engine.make_tables(prob, seed=0)
    dual = engine.init_state("primal_dual", prob, tables)
    with pytest.raises(InvalidArgumentError):
        engine.step("diging", dual, w, prob, 0.01)
    with pytest.raises(InvalidArgumentError):
        engine.step("sdiging", dual, w, prob, 0.01, tables)
    tracking = engine.init_state("sdiging", prob, tables)
    with pytest.raises(InvalidArgumentError):
        engine.step("primal_dual", tracking, w, prob, 0.01, tables)


def test_step_rejects_unknown_rule():
    prob = quadratic_family(3, 2, 2, (1.0, 2.0), seed=4)
    w = mixing("ring", 3)
    tables = engine.make_tables(prob, seed=0)
    s = engine.init_state("sdiging", prob, tables)
    with pytest.raises(InvalidArgumentError):
        engine.step("sgd", s, w, prob, 0.01, tables)
    with pytest.raises(InvalidArgumentError):
        engine.init_state("sgd", prob, tables)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certificate_text_on_demo_instance_is_pinned():
    # demos/04_rate_certificate.py's instance; phi = mu, gamma = 0.5, d = e = 2
    prob = quadratic_family(5, 4, 3, (1.0, 2.0), seed=0)
    w = graph.metropolis_weights(graph.build_topology("complete", 5, seed=0))
    assert engine.certificate_for_problem(w, prob).to_text() == (
        "valid = True\nreason = ok\nalpha = 0.00016338103047758426\n"
        "alpha_max = 0.0003267620609551685\nphi = 1.011754071130358\n"
        "gamma = 0.5\neta = 26.91614247684889\nc = 0.00019556369407689245\n"
        "d = 2.0\ne = 2.0\ntheta = 5.214284020362716e-05\n"
        "delta = 2.607142010181358e-05\nmu = 1.011754071130358\n"
        "lip = 1.931451461250805\nq_min = 4\nq_max = 4\n")


def test_certificate_terms_rederived():
    # well-conditioned quadratic on the complete graph: recompute each of
    # the three rate terms independently and compare
    prob = quadratic_family(2, 1, 2, (1.0, 1.0), seed=5)
    w = mixing("complete", 2)
    cert = engine.certificate_for_problem(w, prob)
    assert cert.valid and cert.theta > 0.0

    mu, lip = cert.mu, cert.lip
    q_min, q_max = cert.q_min, cert.q_max
    phi, gamma, d, e = cert.phi, cert.gamma, cert.d, cert.e
    alpha, eta, c = cert.alpha, cert.eta, cert.c

    eta_lo = (2 * (lip / q_min) * q_max * lip + (2 * lip - mu) * lip) \
        / (gamma * (2 * mu - phi))
    assert eta == pytest.approx(1.05 * eta_lo, rel=1e-12)
    assert cert.alpha_max == pytest.approx(
        w.rho_min ** 2 / (eta + lip ** 2 / phi), rel=1e-12)
    assert alpha == pytest.approx(0.5 * cert.alpha_max, rel=1e-12)

    c_lo = 4 * alpha * q_max * lip / eta
    c_hi = 2 * q_min * (gamma * alpha * (2 * mu - phi)
                        - alpha * (2 * lip - mu) * lip / eta) / lip
    assert c_lo < c < c_hi
    assert c == pytest.approx(math.sqrt(c_lo * c_hi), rel=1e-12)

    rho2_l2 = w.rho2_l ** 2
    eig = w.eig_w
    rho_max_q = max((1 + 3 * r) * (1 - r) for r in eig) \
        + alpha * (2 * mu - phi)
    ww1 = max(r * (r - 1) for r in eig)
    t1 = (w.rho_min ** 2 - alpha * (eta + lip ** 2 / phi)) \
        / ((1 / rho2_l2) * (d / (d - 1)) * e)
    t2 = ((1 - gamma) * alpha * (2 * mu - phi)) \
        / (1 + gamma * rho_max_q + (4 / rho2_l2) * d * ww1 ** 2)
    t3 = (gamma * alpha * (2 * mu - phi) - alpha * (2 * lip - mu) * lip / eta
          - c * lip / (2 * q_min)) \
        / ((c / q_min) * (lip / 2)
           + (1 / rho2_l2) * (d / (d - 1)) * (e / (e - 1))
           * alpha ** 2 * (2 * lip - mu) * lip)
    assert cert.theta == pytest.approx(min(t1, t2, t3), rel=1e-12)
    assert 0.0 < cert.delta < cert.theta


def test_certificate_refuses_mu_zero():
    w = mixing("ring", 2)
    with pytest.raises(CertificationRefused):
        engine.certificate_for_problem(w, localization_like_problem())


def test_certificate_invalid_for_oversized_alpha():
    prob = quadratic_family(2, 1, 2, (1.0, 1.0), seed=6)
    w = mixing("complete", 2)
    good = engine.certificate_for_problem(w, prob)
    bad = engine.certificate_for_problem(w, prob, alpha=good.alpha_max * 2)
    assert not bad.valid
    assert "step-size" in bad.reason
    assert "valid = False" in bad.to_text()


def test_iterations_to_accuracy():
    prob = quadratic_family(2, 1, 2, (1.0, 1.0), seed=7)
    w = mixing("complete", 2)
    cert = engine.certificate_for_problem(w, prob)
    assert engine.iterations_to_accuracy(cert, kappa=1.0, epsilon=1.0) == 0

    big = engine.RateCertificate(
        alpha=cert.alpha, phi=cert.phi, gamma=cert.gamma, eta=cert.eta,
        c=cert.c, d=2.0, e=2.0, alpha_max=cert.alpha_max, theta=2e12,
        delta=1e12, valid=True)
    assert engine.iterations_to_accuracy(big, kappa=1e6, epsilon=1.0) \
        == math.ceil(math.log(1e6))

    small = engine.RateCertificate(
        alpha=cert.alpha, phi=cert.phi, gamma=cert.gamma, eta=cert.eta,
        c=cert.c, d=2.0, e=2.0, alpha_max=cert.alpha_max, theta=0.002,
        delta=0.001, valid=True)
    # frozen: ceil(1001 * ln(1e6)) evaluated at high precision
    assert engine.iterations_to_accuracy(small, kappa=1e6, epsilon=1.0) == 13830

    invalid = engine.RateCertificate(
        alpha=0.0, phi=0.0, gamma=0.0, eta=0.0, c=0.0, d=2.0, e=2.0,
        alpha_max=0.0, theta=0.0, delta=0.0, valid=False, reason="x")
    with pytest.raises(CertificationRefused):
        engine.iterations_to_accuracy(invalid, kappa=1.0, epsilon=0.5)


def test_certified_run_reaches_consensus():
    prob = quadratic_family(2, 1, 2, (1.0, 1.0), seed=8)
    w = mixing("complete", 2)
    cert = engine.certificate_for_problem(w, prob)
    assert cert.valid
    trace, state = engine.run("sdiging", prob, w, cert.alpha, 30000, seed=4,
                              reference=prob.known_optimum)
    assert engine.consensus_gap(state.x) < 1e-6
    assert trace.residual_log10[-1] < trace.residual_log10[0]


# ---------------------------------------------------------------------------
# run / traces
# ---------------------------------------------------------------------------

def test_run_validates_inputs():
    prob = quadratic_family(3, 2, 2, (1.0, 2.0), seed=9)
    w = mixing("ring", 3)
    with pytest.raises(InvalidArgumentError):
        engine.run("nonsense", prob, w, 0.01, 10)
    with pytest.raises(InvalidArgumentError):
        engine.run("sdiging", prob, w, 0.01, 0)
    with pytest.raises(InvalidArgumentError):
        engine.run("sdiging", prob, mixing("ring", 4), 0.01, 10)
    for every in (0, -7):
        with pytest.raises(InvalidArgumentError, match="record_every"):
            engine.run("sdiging", prob, w, 0.01, 10, record_every=every)


def test_eval_accounting():
    prob = quadratic_family(3, 5, 2, (1.0, 2.0), seed=10)
    w = mixing("ring", 3)
    trace, _ = engine.run("sdiging", prob, w, 0.01, 40, record_every=1,
                          reference=prob.known_optimum)
    assert trace.grad_evals[0] == 3          # init charge: one per agent
    assert trace.grad_evals[-1] == 3 * 41    # m*(rounds+1)
    trace, _ = engine.run("diging", prob, w, 0.01, 40, record_every=1,
                          reference=prob.known_optimum)
    assert trace.grad_evals[0] == 15         # sum of q_i at init
    assert trace.grad_evals[-1] == 15 * 41


def test_run_determinism():
    prob = quadratic_family(4, 3, 2, (1.0, 2.0), seed=11)
    w = mixing("ring", 4)
    t1, s1 = engine.run("sdiging", prob, w, 0.01, 200, seed=6,
                        reference=prob.known_optimum)
    t2, s2 = engine.run("sdiging", prob, w, 0.01, 200, seed=6,
                        reference=prob.known_optimum)
    assert np.array_equal(s1.x, s2.x)
    assert t1.residual_log10 == t2.residual_log10
    assert t1.grad_evals == t2.grad_evals


def test_divergence_guard():
    prob = quadratic_family(3, 2, 2, (1.0, 2.0), seed=12)
    w = mixing("ring", 3)
    with pytest.raises(DivergenceError) as exc_info:
        engine.run("sdiging", prob, w, 50.0, 10 ** 5,
                   reference=prob.known_optimum)
    trace = exc_info.value.trace
    assert len(trace.rounds) >= 1
    assert trace.rounds[-1] < 10 ** 5


def test_residual_formula():
    x_star = np.zeros(2)
    x = np.array([[1.0, 0.0], [10.0, 0.0]])
    assert engine.residual_log10(x, x_star) == pytest.approx(
        math.log10(5.5), abs=1e-12)
    assert engine.residual_log10(np.zeros((3, 2)), x_star) == -16.0
    one = np.array([[1.0, 0.0]])
    assert engine.residual_log10(one, x_star) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("bad", [[0.5], np.zeros((3, 2)), [0.0, 1.0, 2.0],
                                 np.zeros(0), np.array(1.0)],
                         ids=["length-1", "per-agent", "too-long", "empty",
                              "scalar"])
def test_reference_needs_shape_dim(bad, monkeypatch):
    prob = quadratic_family(3, 2, 2, (1.0, 2.0), seed=9)
    w = mixing("ring", 3)

    def no_round(*args):
        raise AssertionError("a round ran before the reference was checked")

    monkeypatch.setattr(engine, "_round", no_round)
    with pytest.raises(InvalidArgumentError, match=r"reference needs shape \(2,\)"):
        engine.run("sdiging", prob, w, 0.01, 10, reference=bad)
    with pytest.raises(InvalidArgumentError, match=r"reference needs shape \(2,\)"):
        engine.residual_log10(np.zeros((3, 2)), bad)


def old_residuals_log10(xs, x_star):
    """``residuals_log10`` as numpy's row norm gives it."""
    dist = np.linalg.norm(xs - x_star, axis=-1)
    mean_dist = np.add.reduce(dist, axis=-1) / xs.shape[1]
    return [-16.0 if v == 0.0 else max(math.log10(v), -16.0)
            for v in mean_dist.tolist()]


def old_consensus_gaps(xs):
    center = np.add.reduce(xs, axis=1) / xs.shape[1]
    return np.linalg.norm(xs - center[:, None], axis=-1).max(axis=-1).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 20, 129])
def test_batched_diagnostics_equal_numpy_norms(n):
    rng = np.random.default_rng(n)
    for m in (1, 2, 1000):
        x_star = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        for r in (1, 4, 33):
            xs = rng.standard_normal((r, m, n)) * 10.0 ** rng.uniform(-6, 6, (r, m, n))
            if r > 1:
                xs[0] = x_star              # on the reference: the -16 floor
                xs[1] = 0.25                # every agent equal: gap 0
                xs[2, -1, 0] = np.nan       # the divergence path
                xs[3, 0, -1] = np.inf
                xs[3, -1, 0] = -np.inf
            with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
                got = (engine.residuals_log10(xs, x_star),
                       engine.consensus_gaps(xs))
                want = (old_residuals_log10(xs, x_star), old_consensus_gaps(xs))
            for a, b in zip(got, want):
                assert np.array_equal(a, b, equal_nan=True), (m, r)
            if r > 1:
                assert got[0][0] == -16.0 and got[1][1] == 0.0
                assert math.isnan(got[0][2]) and math.isnan(got[1][2])


def test_consensus_gap_formula():
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert engine.consensus_gap(x) == pytest.approx(1.0)


def test_trace_csv_shape():
    prob = quadratic_family(2, 2, 2, (1.0, 2.0), seed=13)
    w = mixing("complete", 2)
    trace, _ = engine.run("sdiging", prob, w, 0.01, 10, record_every=2,
                          reference=prob.known_optimum)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "round,residual_log10,consensus_gap,grad_evals,wall_ms"
    assert len(lines) == 1 + len(trace.rounds)


# ---------------------------------------------------------------------------
# batched diagnostics against one record at a time
# ---------------------------------------------------------------------------

def stepped_trace(rule, prob, w, alpha, rounds, seed, record_every, reference):
    """The columns of ``engine.run`` except wall_ms, stepped by hand with
    ``engine.step`` and each record evaluated on its own by the expressions
    ``residual_log10`` and ``consensus_gap`` had before diagnostics were
    batched."""
    tables = None if rule == "diging" else engine.make_tables(prob, seed)
    state = engine.init_state(rule, prob, tables)
    per_round = prob.m if tables is not None else int(prob.q.sum())
    cols = {"rounds": [], "residual_log10": [], "consensus_gap": [],
            "grad_evals": []}

    def record(x, k):
        res = float("nan")
        if reference is not None:
            dist = float(np.mean(np.linalg.norm(x - reference[None, :], axis=1)))
            res = -16.0 if dist == 0.0 else max(math.log10(dist), -16.0)
        gap = float(np.max(np.linalg.norm(x - x.mean(axis=0), axis=1)))
        for name, v in zip(cols, (k, res, gap, per_round * (k + 1))):
            cols[name].append(v)

    record(state.x, 0)
    for k in range(1, rounds + 1):
        state = engine.step(rule, state, w, prob, alpha, tables)
        if not np.linalg.norm(state.x) <= engine.DIVERGENCE_NORM:
            record(state.x, k)
            break
        if k % record_every == 0 or k == rounds:
            record(state.x, k)
    return cols


def assert_same_columns(trace, want):
    for name, col in want.items():
        got = getattr(trace, name)
        assert len(got) == len(col)
        assert np.array_equal(got, col, equal_nan=True), name


def va2():
    prob = harness.gaussian_logistic_instance(20, 30, n=4, seed=3)
    return prob, mixing("random_gnp", 20, p=0.4, seed=3), \
        harness.reference_solution(prob, seed=3).x


def records_per_batch(prob):
    return max(1, engine.DIAGNOSTIC_FLOATS // (prob.m * prob.dim))


@pytest.mark.parametrize("rule", engine.ALGORITHMS)
def test_batched_trace_over_several_batches(rule):
    # m x n = 20 floats per iterate: two full batches and half of a third
    prob, _ = harness.localization_instance(m=10, q_i=20, sigma=0.0, seed=9)
    w = mixing("random_gnp", 10, p=0.4, seed=9)
    ref = harness.reference_solution(prob, seed=9).x
    batch = records_per_batch(prob)
    rounds = 2 * batch + batch // 2
    trace, _ = engine.run(rule, prob, w, 0.1, rounds, seed=11, record_every=1,
                          reference=ref)
    assert len(trace.rounds) > 2 * batch
    assert_same_columns(trace, stepped_trace(rule, prob, w, 0.1, rounds, 11, 1,
                                             ref))


@pytest.mark.parametrize("reference", ["solved", None])
def test_batched_trace_on_va2_off_cadence(reference):
    # two full batches of records every 5 rounds, then a partial one that
    # ends on a round 5 does not divide
    prob, w, ref = va2()
    ref = ref if reference else None
    batch = records_per_batch(prob)
    last = 5 * (2 * batch + batch // 4)
    rounds = last + 3
    trace, _ = engine.run("sdiging", prob, w, 0.02, rounds, seed=11,
                          record_every=5, reference=ref)
    want = stepped_trace("sdiging", prob, w, 0.02, rounds, 11, 5, ref)
    assert want["rounds"][-2:] == [last, rounds]
    assert len(want["rounds"]) > 2 * batch
    assert all(math.isnan(v) for v in trace.residual_log10) == (ref is None)
    assert_same_columns(trace, want)


def test_batched_trace_at_m1000_through_csr():
    # 4000 floats per iterate: several records share a batch, and the last
    # batch is partial
    prob = harness.gaussian_logistic_instance(1000, 2, n=4, seed=3)
    w = mixing("random_gnp", 1000, p=0.02, seed=3)
    assert not isinstance(w.operator, np.ndarray)
    batch = records_per_batch(prob)
    assert batch >= 2
    rounds = 3 * batch
    ref = np.full(4, 0.1)
    for rule in ("sdiging", "primal_dual"):
        trace, _ = engine.run(rule, prob, w, 0.02, rounds, seed=11,
                              record_every=1, reference=ref)
        assert_same_columns(trace, stepped_trace(rule, prob, w, 0.02, rounds,
                                                 11, 1, ref))


@pytest.mark.parametrize("rule", engine.ALGORITHMS)
def test_batched_partial_trace_ends_at_divergence(rule):
    # m x n = 160 floats per iterate; diverges after 216-230 rounds, past
    # the first batch of records
    prob = quadratic_family(40, 3, 4, (1.0, 2.0), seed=12)
    w = mixing("random_gnp", 40, p=0.4, seed=9)
    with pytest.raises(DivergenceError) as exc_info:
        engine.run(rule, prob, w, 0.42, 3000, seed=11, record_every=1,
                   reference=prob.known_optimum)
    trace = exc_info.value.trace
    want = stepped_trace(rule, prob, w, 0.42, 3000, 11, 1, prob.known_optimum)
    assert records_per_batch(prob) < want["rounds"][-1] < 3000
    assert f"at round {want['rounds'][-1]}" in str(exc_info.value)
    assert_same_columns(trace, want)


# ---------------------------------------------------------------------------
# the vectorized round against per-agent loops
# ---------------------------------------------------------------------------

def component_gradient(prob, i, h, x):
    """Gradient of agent i's component h (0-based) at one point x, through
    the stacked oracle on that row alone."""
    k = prob.offsets[i] + h
    return prob.kind.stacked_gradient([p[k:k + 1] for p in prob.params],
                                      x[None])[0]


def reference_run(rule, prob, w, alpha, rounds, seed):
    """The round as per-agent loops: one single Philox draw, one scalar
    component gradient and one SAGA update per agent (full local gradients
    for diging).  Returns the final (x, tracker, g)."""
    m, n = prob.m, prob.dim
    w = w.w                                     # dense, whatever w stores
    ww, lap = w @ w, np.eye(m) - w
    rngs = [np.random.Generator(np.random.Philox(
        key=np.array([seed, i], dtype=np.uint64))) for i in range(m)]
    q = prob.q.tolist()
    table = [np.stack([component_gradient(prob, i, h, np.zeros(n))
                       for h in range(q[i])]) for i in range(m)]
    sums = [t.sum(axis=0) for t in table]

    def gradients(x):
        g = np.empty((m, n))
        for i in range(m):
            if rule == "diging":
                g[i] = sum(component_gradient(prob, i, h, x[i])
                           for h in range(q[i])) / q[i]
                continue
            h = int(rngs[i].integers(1, q[i] + 1)) - 1
            fresh = component_gradient(prob, i, h, x[i])
            g[i] = fresh - table[i][h] + sums[i] / q[i]
            sums[i] += fresh - table[i][h]
            table[i][h] = fresh
        return g

    x = np.zeros((m, n))
    g = gradients(x) if rule == "diging" else \
        np.stack([s / qi for s, qi in zip(sums, q)])
    tracker = g.copy() if rule != "primal_dual" else np.zeros((m, n))
    for _ in range(rounds):
        if rule == "primal_dual":
            x = ww @ x - alpha * g - lap @ tracker
            tracker = tracker + lap @ x
            g = gradients(x)
        else:
            x = w @ x - alpha * tracker
            g_new = gradients(x)
            tracker = w @ tracker + g_new - g
            g = g_new
    return x, tracker, g


def uneven_quadratic():
    params = quadratic_family(1, 12, 3, (1.0, 3.0), seed=4).params
    return ProblemInstance(Quadratic, params, [2, 5, 1, 4])


@pytest.mark.parametrize("family", ["quadratic", "uneven", "logistic",
                                    "localization"])
@pytest.mark.parametrize("rule", engine.ALGORITHMS)
def test_run_matches_per_agent_reference(family, rule):
    prob, alpha = {
        "quadratic": lambda: (quadratic_family(6, 4, 3, (1.0, 3.0), seed=1), 0.05),
        "uneven": lambda: (uneven_quadratic(), 0.05),
        "logistic": lambda: (harness.gaussian_logistic_instance(6, 4, n=3, seed=2),
                             0.02),
        "localization": lambda: (harness.localization_instance(
            m=6, q_i=5, sigma=5.0, seed=3)[0], 0.1),
    }[family]()
    w = mixing("random_gnp", prob.m, p=0.6, seed=5)
    _, state = engine.run(rule, prob, w, alpha, 200, seed=8)
    x, tracker, g = reference_run(rule, prob, w, alpha, 200, seed=8)
    got = (state.x, state.lam if rule == "primal_dual" else state.y, state.g_prev)
    for a, b in zip(got, (x, tracker, g)):
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("rule, products", [
    ("diging", 2), ("sdiging", 2), ("primal_dual", 4)])
def test_step_mixes_only_through_the_operator(rule, products):
    # ``products`` per ``step``; ``run`` hands primal_dual's closing W @ x
    # to the next round, which then makes one product fewer
    class Counting:
        def __init__(self, a):
            self.a, self.calls = a, 0

        def __matmul__(self, x):
            self.calls += 1
            return self.a @ x

    prob = quadratic_family(5, 3, 2, (1.0, 2.0), seed=2)
    w = mixing("complete", 5)
    op = Counting(w.w)
    w = graph.MixingMatrix(operator=op, laziness=w.laziness,
                           topology=w.topology)
    later = products - 1 if rule == "primal_dual" else products
    for rounds in (1, 2, 3):
        op.calls = 0
        engine.run(rule, prob, w, 0.01, rounds, seed=0)
        assert op.calls == products + (rounds - 1) * later
    tables = None if rule == "diging" else engine.make_tables(prob, seed=0)
    s = engine.init_state(rule, prob, tables)
    for _ in range(3):
        op.calls = 0
        s = engine.step(rule, s, w, prob, 0.01, tables)
        assert op.calls == products


def test_step_recomputes_the_product_run_carries():
    # a caller that edits a state between steps gets W applied to its x
    prob = quadratic_family(5, 3, 2, (1.0, 2.0), seed=2)
    w = mixing("ring", 5)
    tables = engine.make_tables(prob, seed=0)
    s = engine.init_state("primal_dual", prob, tables)
    s = engine.step("primal_dual", s, w, prob, 0.01, tables)
    edited = engine.NetworkState(x=s.x + 1.0, lam=s.lam, g_prev=s.g_prev, k=s.k)
    x = engine.step("primal_dual", edited, w, prob, 0.01, tables).x
    wx = w.w @ edited.x
    want = w.w @ wx - 0.01 * s.g_prev - (s.lam - w.w @ s.lam)
    assert np.array_equal(x, want)


def test_csr_round_matches_dense_loop_at_m1000():
    # G(1000, 0.02) mixes through CSR; the reference loop multiplies by the
    # dense W, so the two differ only in the summation order of W @ X.
    prob = harness.gaussian_logistic_instance(1000, 2, n=4, seed=3)
    w = mixing("random_gnp", 1000, p=0.02, seed=3)
    assert not isinstance(w.operator, np.ndarray)
    finals = {}
    for rule in engine.ALGORITHMS:
        _, state = engine.run(rule, prob, w, 0.02, 60, seed=11)
        x, tracker, g = reference_run(rule, prob, w, 0.02, 60, seed=11)
        got = (state.x, state.lam if rule == "primal_dual" else state.y,
               state.g_prev)
        for a, b in zip(got, (x, tracker, g)):
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
        finals[rule] = state.x
    assert np.abs(finals["sdiging"] - finals["primal_dual"]).max() < 1e-12
