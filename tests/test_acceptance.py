"""Acceptance suite: one test per advertised behavioral guarantee.

Each test prints a single ``criterion N (<name>): PASS|FAIL`` line with the
measured quantities before asserting, so the full scorecard is visible in
one run.
"""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sdiging import engine, graph, harness, saga
from sdiging.objectives import (
    DiskDistance,
    KMeansPoint,
    LocalObjective,
    Quadratic,
    logistic_problem,
    quadratic_family,
)


def report(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def logistic_local(q, n, seed):
    """A one-agent logistic problem with lam/m = 1/2."""
    rng = np.random.default_rng(seed)
    return logistic_problem(rng.standard_normal((q, n)),
                            rng.choice([-1, 1], size=q), lam=0.5, m=1)


def va2_problem():
    """The synthetic two-class logistic "va2" instance (m=20, q=30, n=4,
    G(20, 0.4)) and its mixing matrix.

    Criterion 7 runs on it, criterion 8 builds the same instance from its
    config, and criterion 5 reports its certificate.
    """
    prob = harness.gaussian_logistic_instance(m=20, q_i=30, n=4, seed=3)
    topo = graph.build_topology("random_gnp", 20, p=0.4, seed=3)
    return prob, graph.metropolis_weights(topo)


def va2_instance():
    """va2 with its centralized reference solution, for criterion 7."""
    prob, w = va2_problem()
    return prob, w, harness.reference_solution(prob, seed=3)


def component_gradient(prob, x, idx):
    """Gradient of a one-agent problem's component idx (1-based) at x."""
    return prob.drawn_gradients(x[None], np.array([idx]))


def table_at(prob, x0, seed):
    """One-agent stacked tables with every slot evaluated at x0."""
    grads = np.concatenate([component_gradient(prob, x0, h)
                            for h in range(1, prob.q_max + 1)])
    return saga.GradientTables(grads[None], [prob.q_max], seed, [0])


def estimate(t, prob, x, idx):
    """SAGA estimate of one-agent tables at x from component idx (1-based)."""
    return t.update(np.array([idx]), component_gradient(prob, x, idx))[0]


def test_criterion_1_unbiasedness():
    rng = np.random.default_rng(101)
    worst = 0.0
    states = 0
    while states < 50:
        for q in (2, 3, 5, 8):
            for make in (lambda: quadratic_family(1, q, 3, (1.0, 3.0),
                                                  seed=states),
                         lambda: logistic_local(q, 3, seed=states)):
                lo = make()
                t = table_at(lo, rng.standard_normal(3), seed=states)
                for _ in range(int(rng.integers(0, 6))):
                    estimate(t, lo, rng.standard_normal(3), int(t.draw()[0]))
                x = rng.standard_normal(3)
                acc = np.zeros(3)
                for idx in range(1, q + 1):
                    acc += estimate(copy.deepcopy(t), lo, x, idx)
                ref = LocalObjective(lo, 0).full_gradient(x)
                err = np.linalg.norm(acc / q - ref) / (1 + np.linalg.norm(ref))
                worst = max(worst, err)
                states += 1
    ok = worst < 1e-12
    report(1, "unbiasedness", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_2_running_sum_integrity():
    rng = np.random.default_rng(202)
    lo = quadratic_family(1, 7, 4, (1.0, 3.0), seed=0)
    t = table_at(lo, np.zeros(4), seed=5)
    for _ in range(10 ** 4):
        estimate(t, lo, rng.standard_normal(4) * 10, int(t.draw()[0]))
    direct = t.grads[0, :t.q[0]].sum(axis=0)
    err = np.linalg.norm(t.sums[0] - direct) / (1 + np.linalg.norm(direct))
    ok = err < 1e-10
    report(2, "running-sum integrity", ok, f"rel err {err:.2e}")
    assert ok


def test_criterion_3_algorithm_equivalence():
    worst = 0.0
    cases = [("ring", 4, None), ("random_gnp", 10, 0.4)]
    for kind, m, p in cases:
        for seed in range(10):
            prob = quadratic_family(m, 3, 3, (1.0, 3.0), seed=seed)
            topo = graph.build_topology(kind, m, p=p, seed=seed)
            w = graph.metropolis_weights(topo)
            ta = engine.make_tables(prob, seed=seed)
            tb = engine.make_tables(prob, seed=seed)
            sa = engine.init_state("sdiging", prob, ta)
            sb = engine.init_state("primal_dual", prob, tb)
            for _ in range(100):
                sa = engine.step("sdiging", sa, w, prob, 0.02, ta)
                sb = engine.step("primal_dual", sb, w, prob, 0.02, tb)
                worst = max(worst, float(np.abs(sa.x - sb.x).max()))
    ok = worst < 1e-9
    report(3, "algorithm equivalence", ok, f"worst |dx| {worst:.2e}")
    assert ok


def test_criterion_4_tracking_identity():
    prob = quadratic_family(5, 3, 2, (1.0, 2.0), seed=4)
    topo = graph.build_topology("ring", 5, seed=4)
    w = graph.metropolis_weights(topo)
    tables = engine.make_tables(prob, seed=4)
    s = engine.init_state("sdiging", prob, tables)
    worst = 0.0
    for _ in range(10 ** 4):
        s = engine.step("sdiging", s, w, prob, 0.01, tables)
        gap = float(np.abs(s.y.sum(axis=0) - s.g_prev.sum(axis=0)).max())
        worst = max(worst, gap)
    ok = worst <= 1e-10 * prob.m
    report(4, "tracking identity", ok, f"worst gap {worst:.2e}")
    assert ok


def test_criterion_5_linear_convergence_at_certified_alpha():
    # The certified rate is linear but may be far too slow to see: on va2
    # (kappa ~ 1.3e4) the certified alpha is ~1e-10. The check therefore
    # runs on the well-conditioned ensemble of criterion 6, and va2's
    # certified alpha and guaranteed round count are only reported.
    prob = quadratic_family(5, 4, 3, (1.0, 2.0), seed=0)
    w = graph.metropolis_weights(graph.build_topology("complete", 5, seed=0))
    cert = engine.certificate_for_problem(w, prob)
    assert cert.valid, cert.reason
    trace, _ = engine.run("sdiging", prob, w, cert.alpha, 50000, seed=7,
                          record_every=25, reference=prob.known_optimum)
    res = np.array(trace.residual_log10)
    rounds = np.array(trace.rounds, dtype=float)
    drop = res[0] - res.min()
    half = len(res) // 2
    slope = np.polyfit(rounds[half:], res[half:], 1)[0]
    ok = drop >= 3.0 and slope < -1e-5
    va2, va2_w = va2_problem()
    va2_cert = engine.certificate_for_problem(va2_w, va2)
    if va2_cert.valid:
        # three decades of distance are six of squared error
        va2_rounds = engine.iterations_to_accuracy(va2_cert, 1.0, 1e-6)
        va2_note = (f"va2 alpha {va2_cert.alpha:.2e}, certified rounds for "
                    f"3 decades {va2_rounds:.2e}")
    else:
        va2_note = f"va2 certificate invalid: {va2_cert.reason}"
    report(5, "linear convergence at certified alpha", ok,
           f"alpha {cert.alpha:.2e}, drop {drop:.2e}, slope {slope:.2e}; "
           f"{va2_note}")
    assert ok


def test_criterion_6_certificate_soundness():
    rounds = 2000
    per_seed = []
    delta = None
    for seed in range(20):
        prob = quadratic_family(5, 4, 3, (1.0, 2.0), seed=seed)
        topo = graph.build_topology("complete", 5, seed=seed)
        w = graph.metropolis_weights(topo)
        cert = engine.certificate_for_problem(w, prob)
        assert cert.valid, cert.reason
        delta = cert.delta
        tables = engine.make_tables(prob, seed=seed)
        s = engine.init_state("sdiging", prob, tables)
        errs = []
        for _ in range(rounds):
            s = engine.step("sdiging", s, w, prob, cert.alpha, tables)
            errs.append(float(np.mean(
                np.sum((s.x - prob.known_optimum) ** 2, axis=1))))
        per_seed.append(errs)
    mean_err = np.array(per_seed).mean(axis=0)
    burn = rounds // 10
    factor = (mean_err[-1] / mean_err[burn]) ** (1.0 / (rounds - 1 - burn))
    bound = 1.0 / (1.0 + delta)
    ok = factor <= bound
    report(6, "certificate soundness", ok,
           f"contraction {factor:.6f} vs bound {bound:.6f}")
    assert ok


def test_criterion_7_step_size_bracket():
    prob, w, ref = va2_instance()
    cert = engine.certificate_for_problem(w, prob)
    finals = []
    for frac in (0.25, 0.5, 0.75):
        trace, _ = engine.run("sdiging", prob, w, frac * cert.alpha_max, 2000,
                              seed=7, record_every=2000, reference=ref.x)
        finals.append(trace.residual_log10[-1])
    ordered = finals[0] > finals[1] > finals[2]

    try:
        trace, _ = engine.run("sdiging", prob, w, 50.0 * cert.alpha_max, 2000,
                              seed=7, record_every=2000, reference=ref.x)
        oversized_ok = trace.residual_log10[-1] > -1.0
        oversized_note = f"50x stalls at {trace.residual_log10[-1]:.3f}"
    except Exception:
        oversized_ok = True
        oversized_note = "50x diverged"
    ok = ordered and oversized_ok
    report(7, "step-size deterioration bracket", ok,
           f"finals {['%.9f' % f for f in finals]}, {oversized_note}")
    assert ok


def test_criterion_8_cost_accounting():
    cfg = harness.ExperimentConfig(
        family="gaussian_logistic", topology_kind="random_gnp", m=20,
        algorithm="sdiging", rounds=5000, alpha=0.02, q=30, n=4,
        problem_seed=3, topology_seed=3, run_seed=11, p=0.4)
    rows = harness.compare_algorithms(cfg, ["diging", "sdiging"], target=-3.0)
    by = {r.algorithm: r for r in rows}
    d, s = by["diging"], by["sdiging"]
    ok = (d.rounds_to_target is not None and s.rounds_to_target is not None
          and s.rounds_to_target > d.rounds_to_target
          and s.evals_to_target < d.evals_to_target)
    report(8, "cost accounting", ok,
           f"rounds sdiging {s.rounds_to_target} vs diging "
           f"{d.rounds_to_target}; evals {s.evals_to_target} vs "
           f"{d.evals_to_target}")
    assert ok


def test_criterion_9_noiseless_localization():
    prob, source = harness.localization_instance(m=10, q_i=20, sigma=0.0,
                                                 seed=9)
    topo = graph.build_topology("random_gnp", 10, p=0.4, seed=9)
    w = graph.metropolis_weights(topo)
    ref = harness.reference_solution(prob, seed=9)
    ref_dist = float(np.linalg.norm(ref.x - source))
    trace, state = engine.run("sdiging", prob, w, 0.1, 10 ** 5, seed=11,
                              reference=ref.x)
    gap = engine.consensus_gap(state.x)
    obj = prob.aggregate_value(state.x.mean(axis=0))
    ok = ref_dist < 1e-6 and gap < 1e-6 and obj < 1e-8
    report(9, "noiseless localization recovery", ok,
           f"ref dist {ref_dist:.2e}, gap {gap:.2e}, objective {obj:.2e}")
    assert ok


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(1010)

    def central(f, x, step):
        g = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            g[i] = (f.value(x + e) - f.value(x - e)) / (2 * step)
        return g

    def check(f, x, rtol):
        step = 1e-6 * (1 + np.linalg.norm(x))
        num = central(f, x, step)
        ana = f.gradient(x)
        return np.linalg.norm(ana - num) / (1 + np.linalg.norm(ana)) < rtol

    def row(cls, params):
        """A one-row stack as a function of one point."""
        return SimpleNamespace(
            value=lambda x: float(cls.stacked_value(params, x[None])[0]),
            gradient=lambda x: cls.stacked_gradient(params, x[None])[0])

    n_probes = 1000
    fails = []

    quad = quadratic_family(1, 4, 3, (1.0, 3.0), seed=1).params
    quad = [row(Quadratic, [p[k:k + 1] for p in quad]) for k in range(4)]
    for k in range(n_probes):
        if not check(quad[k % 4], rng.standard_normal(3), 1e-5):
            fails.append("quadratic")

    # logistic samples through their agent's local average
    logi = [LocalObjective(logistic_problem(rng.standard_normal((4, 3)),
                                            rng.choice([-1, 1], size=4),
                                            lam=1.0 / 3, m=1), 0)
            for _ in range(4)]
    logi = [SimpleNamespace(value=lo.value, gradient=lo.full_gradient)
            for lo in logi]
    for k in range(n_probes):
        if not check(logi[k % 4], rng.standard_normal(3), 1e-6):
            fails.append("logistic")

    done = 0
    while done < n_probes:
        r, radius = rng.uniform(-2, 2, 2), np.sqrt(1.0 / rng.uniform(0.5, 2.0))
        f = row(DiskDistance, [r[None], np.array([radius])])
        x = rng.uniform(-4, 4, 2)
        if abs(np.linalg.norm(x - r) - radius) < 1e-4:
            continue
        if not check(f, x, 1e-5):
            fails.append("localization")
        done += 1

    done = 0
    while done < n_probes:
        p = rng.standard_normal(2)
        f = row(KMeansPoint, [p[None], np.array([3])])
        x = rng.uniform(-3, 3, 6)
        d = np.sort(np.sqrt(np.sum((x.reshape(3, 2) - p) ** 2, axis=1)))
        if d[1] - d[0] < 1e-4:
            continue
        if not check(f, x, 1e-5):
            fails.append("kmeans")
        done += 1

    ok = not fails
    report(10, "gradient correctness", ok,
           f"{4 * n_probes} probes, failures: {sorted(set(fails)) or 'none'}")
    assert ok
