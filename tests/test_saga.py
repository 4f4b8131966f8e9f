import copy

import numpy as np
import pytest

from sdiging import engine, graph, saga
from sdiging.errors import InvalidArgumentError
from sdiging.objectives import (
    LocalObjective,
    LogisticSample,
    ProblemInstance,
    full_local_gradient,
    quadratic_family,
)


def quad_local(q, n, seed):
    return quadratic_family(1, q, n, (1.0, 3.0), seed=seed).locals[0]


def logistic_local(q, n, seed):
    rng = np.random.default_rng(seed)
    comps = [LogisticSample(c=rng.standard_normal(n),
                            label=int(rng.choice([-1, 1])),
                            lam=1.0, m=2, q=q) for _ in range(q)]
    return LocalObjective(components=comps)


def table_at(lo, x0, seed, agent_id=0):
    """One-agent stacked tables with every slot evaluated at x0."""
    grads = np.stack([c.gradient(np.asarray(x0, dtype=float))
                      for c in lo.components])
    return saga.GradientTables(grads[None], [lo.q], seed, [agent_id])


def estimate(t, lo, x, idx):
    """SAGA estimate of one-agent tables at x from component idx (1-based)."""
    return t.update(np.array([idx]), lo.components[idx - 1].gradient(x)[None])[0]


def draw(t):
    return int(t.draw()[0])


def test_init_table_quadratic_at_zero():
    lo = quad_local(2, 3, seed=1)
    tables = table_at(lo, np.zeros(3), seed=0)
    t = tables[0]
    b = [c.b for c in lo.components]
    assert np.allclose(t.stored_grads[0], b[0], atol=1e-15)
    assert np.allclose(t.stored_grads[1], b[1], atol=1e-15)
    assert np.allclose(t.grad_sum, b[0] + b[1], atol=1e-14)
    tables.check_sums()


def test_init_table_logistic_at_zero():
    lo = logistic_local(3, 2, seed=2)
    t = engine.make_tables(ProblemInstance(locals=[lo]), seed=0)
    expect = sum(-(c.q * c.label / 2.0) * c.c for c in lo.components)
    assert np.allclose(t[0].grad_sum, expect, atol=1e-13)
    t.check_sums()


def test_init_estimate_is_full_gradient():
    lo = quad_local(4, 2, seed=3)
    x0 = np.array([0.5, -1.0])
    t = table_at(lo, x0, seed=0)
    s = engine.init_state("sdiging", ProblemInstance(locals=[lo]), t)
    assert np.allclose(s.g_prev[0], full_local_gradient(lo, x0), atol=1e-14)


def test_fresh_table_correction_cancels():
    lo = quad_local(3, 2, seed=4)
    x0 = np.array([1.0, 2.0])
    t = table_at(lo, x0, seed=0)
    g = estimate(t, lo, x0, 2)
    assert np.allclose(g, full_local_gradient(lo, x0), atol=1e-13)


def test_q1_degenerates_to_full_gradient():
    lo = quad_local(1, 2, seed=5)
    t = table_at(lo, np.zeros(2), seed=0)
    x = np.array([0.3, -0.4])
    g = estimate(t, lo, x, 1)
    assert np.allclose(g, lo.components[0].gradient(x), atol=1e-15)
    assert draw(t) == 1


def test_unbiasedness_by_enumeration():
    # exhaustive average over the index equals the full local gradient,
    # for arbitrary (randomly evolved) table states
    rng = np.random.default_rng(6)
    for q in (2, 3, 5, 8):
        for make in (quad_local, logistic_local):
            lo = make(q, 3, seed=q)
            t = table_at(lo, rng.standard_normal(3), seed=1)
            for _ in range(5):  # scramble the table
                estimate(t, lo, rng.standard_normal(3),
                         int(rng.integers(1, q + 1)))
            x = rng.standard_normal(3)
            acc = np.zeros(3)
            for idx in range(1, q + 1):
                acc += estimate(copy.deepcopy(t), lo, x, idx)
            acc /= q
            ref = full_local_gradient(lo, x)
            assert np.linalg.norm(acc - ref) <= 1e-12 * (1 + np.linalg.norm(ref))


def test_unbiasedness_across_uneven_stacked_agents():
    # every row of engine tables with uneven q (zero padding in the short
    # rows) averages to its agent's full local gradient
    rng = np.random.default_rng(16)
    comps = quadratic_family(1, 12, 3, (1.0, 3.0), seed=4).locals[0].components
    cuts = np.cumsum([0, 2, 5, 1, 4])
    prob = ProblemInstance(locals=[LocalObjective(components=comps[a:b])
                                   for a, b in zip(cuts, cuts[1:])])
    q = np.array([lo.q for lo in prob.locals])
    t = engine.make_tables(prob, seed=3)
    for _ in range(20):
        idx = t.draw()
        t.update(idx, prob.component_gradients(rng.standard_normal((4, 3)),
                                                idx - 1))
    x = rng.standard_normal((4, 3))
    acc = np.zeros((4, 3))
    for k in range(prob.q_max):
        idx = np.minimum(k, q - 1) + 1
        g = copy.deepcopy(t).update(idx, prob.component_gradients(x, idx - 1))
        acc += np.where((k < q)[:, None], g, 0.0)
    ref = prob.local_gradients(x)
    assert np.abs(acc / q[:, None] - ref).max() <= \
        1e-12 * (1 + np.abs(ref).max())
    t.check_sums()


def test_running_sum_integrity_long_run():
    rng = np.random.default_rng(7)
    lo = quad_local(6, 4, seed=9)
    t = table_at(lo, np.zeros(4), seed=3)
    for _ in range(10 ** 4):
        x = rng.standard_normal(4)
        estimate(t, lo, x, draw(t))
    direct = t[0].stored_grads.sum(axis=0)
    err = np.linalg.norm(t[0].grad_sum - direct) / (1 + np.linalg.norm(direct))
    assert err < 1e-10
    t.check_sums()


def test_check_sums_detects_drift():
    t = table_at(quad_local(3, 2, seed=18), np.zeros(2), seed=0)
    t.check_sums()
    t.sums[0, 1] += 1e-6
    with pytest.raises(AssertionError):
        t.check_sums()


def test_draw_frequencies():
    t = table_at(quad_local(4, 2, seed=10), np.zeros(2), seed=11)
    counts = np.zeros(4)
    for _ in range(10 ** 6):
        counts[draw(t) - 1] += 1
    freqs = counts / 10 ** 6
    assert np.all(freqs >= 0.2475) and np.all(freqs <= 0.2525)


def test_replay_determinism_bitwise():
    rng = np.random.default_rng(8)
    lo = logistic_local(4, 3, seed=12)
    xs = rng.standard_normal((50, 3))

    def run():
        t = table_at(lo, np.zeros(3), seed=21, agent_id=5)
        return [estimate(t, lo, x, draw(t)) for x in xs]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_distinct_agents_get_distinct_streams():
    lo = quad_local(8, 2, seed=13)
    t0 = table_at(lo, np.zeros(2), seed=5, agent_id=0)
    t1 = table_at(lo, np.zeros(2), seed=5, agent_id=1)
    seq0 = [draw(t0) for _ in range(40)]
    seq1 = [draw(t1) for _ in range(40)]
    assert seq0 != seq1


def test_checkpoint_round_trip():
    rng = np.random.default_rng(9)
    lo = quad_local(5, 3, seed=15)
    t = table_at(lo, np.zeros(3), seed=77, agent_id=2)
    for _ in range(30):
        estimate(t, lo, rng.standard_normal(3), draw(t))
    text = saga.dump_table(t[0])
    back = saga.load_table(text, lo)
    assert saga.dump_table(back[0]) == text
    assert np.array_equal(back[0].stored_grads, t[0].stored_grads)
    assert np.array_equal(back[0].grad_sum, t[0].grad_sum)
    assert back[0].draw_count == t[0].draw_count
    # restored stream continues exactly where the original left off
    assert [draw(back) for _ in range(20)] == [draw(t) for _ in range(20)]


def test_checkpoint_rejects_garbage():
    lo = quad_local(2, 2, seed=16)
    with pytest.raises(InvalidArgumentError):
        saga.load_table("not-a-checkpoint\n", lo)
    other = quad_local(3, 2, seed=17)
    t = table_at(other, np.zeros(2), seed=0)
    with pytest.raises(InvalidArgumentError):
        saga.load_table(saga.dump_table(t[0]), lo)


@pytest.mark.parametrize("q", [1, 2, 7, 30, 1000, 2 ** 20])
def test_block_draws_match_single_draws(q):
    # Tables read each agent's stream BLOCK draws at a time; streams and
    # checkpoints survive only because that changes no value.
    n = 2 * saga.BLOCK + 5
    for seed in (0, 1, 77, 2 ** 63 + 5):
        for agent in (0, 3, 999):
            key = np.array([seed, agent], dtype=np.uint64)
            single = np.random.Generator(np.random.Philox(key=key))
            expect = [int(single.integers(1, q + 1)) for _ in range(n)]
            block = np.random.Generator(np.random.Philox(key=key))
            got = np.concatenate([block.integers(1, q + 1, size=saga.BLOCK)
                                  for _ in range(3)])
            assert got[:n].tolist() == expect
            # the block path the engine uses
            tables = saga.GradientTables(np.zeros((2, q, 1)), [q, q], seed,
                                         [agent, agent])
            assert [int(tables.draw()[1]) for _ in range(n)] == expect


def test_checkpoint_mid_block_of_engine_tables():
    prob = quadratic_family(3, 5, 2, (1.0, 2.0), seed=19)
    w = graph.metropolis_weights(graph.build_topology("ring", 3))
    tables = engine.make_tables(prob, seed=31)
    s = engine.init_state("sdiging", prob, tables)
    rounds = saga.BLOCK + saga.BLOCK // 2 + 3      # not a multiple of BLOCK
    for _ in range(rounds):
        s = engine.step("sdiging", s, w, prob, 0.01, tables)
    restored = [saga.load_table(saga.dump_table(t), lo)
                for t, lo in zip(tables, prob.locals)]
    for t, back in zip(tables, restored):
        assert back[0].draw_count == t.draw_count == rounds   # draws used
        assert np.array_equal(back[0].stored_grads, t.stored_grads)
        assert np.array_equal(back[0].grad_sum, t.grad_sum)
    ahead = np.stack([tables.draw() for _ in range(20)])
    for i, back in enumerate(restored):
        assert [draw(back) for _ in range(20)] == ahead[:, i].tolist()
