import copy

import numpy as np
import pytest

from sdiging import engine, graph, saga
from sdiging.errors import InvalidArgumentError
from sdiging.objectives import (
    LocalObjective,
    LogisticSample,
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


def test_init_table_quadratic_at_zero():
    lo = quad_local(2, 3, seed=1)
    t = saga.init_table(lo, np.zeros(3), seed=0)
    b = [c.b for c in lo.components]
    assert np.allclose(t.stored_grads[0], b[0], atol=1e-15)
    assert np.allclose(t.stored_grads[1], b[1], atol=1e-15)
    assert np.allclose(t.grad_sum, b[0] + b[1], atol=1e-14)
    t.check_integrity(lo)


def test_init_table_logistic_at_zero():
    lo = logistic_local(3, 2, seed=2)
    t = saga.init_table(lo, np.zeros(2), seed=0)
    expect = sum(-(c.q * c.label / 2.0) * c.c for c in lo.components)
    assert np.allclose(t.grad_sum, expect, atol=1e-13)


def test_init_estimate_is_full_gradient():
    lo = quad_local(4, 2, seed=3)
    x0 = np.array([0.5, -1.0])
    t = saga.init_table(lo, x0, seed=0)
    assert np.allclose(t.full_gradient_estimate(),
                       full_local_gradient(lo, x0), atol=1e-14)


def test_fresh_table_correction_cancels():
    lo = quad_local(3, 2, seed=4)
    x0 = np.array([1.0, 2.0])
    t = saga.init_table(lo, x0, seed=0)
    g = saga.stochastic_avg_gradient(t, lo, x0, 2)
    assert np.allclose(g, full_local_gradient(lo, x0), atol=1e-13)


def test_q1_degenerates_to_full_gradient():
    lo = quad_local(1, 2, seed=5)
    t = saga.init_table(lo, np.zeros(2), seed=0)
    x = np.array([0.3, -0.4])
    g = saga.stochastic_avg_gradient(t, lo, x, 1)
    assert np.allclose(g, lo.components[0].gradient(x), atol=1e-15)
    assert t.draw_index() == 1


def test_unbiasedness_by_enumeration():
    # exhaustive average over the index equals the full local gradient,
    # for arbitrary (randomly evolved) table states
    rng = np.random.default_rng(6)
    for q in (2, 3, 5, 8):
        for make in (quad_local, logistic_local):
            lo = make(q, 3, seed=q)
            t = saga.init_table(lo, rng.standard_normal(3), seed=1)
            for _ in range(5):  # scramble the table
                saga.stochastic_avg_gradient(t, lo, rng.standard_normal(3),
                                             int(rng.integers(1, q + 1)))
            x = rng.standard_normal(3)
            acc = np.zeros(3)
            for idx in range(1, q + 1):
                trial = copy.deepcopy(t)
                acc += saga.stochastic_avg_gradient(trial, lo, x, idx)
            acc /= q
            ref = full_local_gradient(lo, x)
            assert np.linalg.norm(acc - ref) <= 1e-12 * (1 + np.linalg.norm(ref))


def test_running_sum_integrity_long_run():
    rng = np.random.default_rng(7)
    lo = quad_local(6, 4, seed=9)
    t = saga.init_table(lo, np.zeros(4), seed=3)
    for _ in range(10 ** 4):
        x = rng.standard_normal(4)
        saga.stochastic_avg_gradient(t, lo, x, t.draw_index())
    direct = t.stored_grads.sum(axis=0)
    err = np.linalg.norm(t.grad_sum - direct) / (1 + np.linalg.norm(direct))
    assert err < 1e-10
    t.check_integrity(lo)


def test_draw_frequencies():
    lo = quad_local(4, 2, seed=10)
    t = saga.init_table(lo, np.zeros(2), seed=11)
    counts = np.zeros(4)
    for _ in range(10 ** 6):
        counts[t.draw_index() - 1] += 1
    freqs = counts / 10 ** 6
    assert np.all(freqs >= 0.2475) and np.all(freqs <= 0.2525)


def test_replay_determinism_bitwise():
    rng = np.random.default_rng(8)
    lo = logistic_local(4, 3, seed=12)
    xs = rng.standard_normal((50, 3))

    def run():
        t = saga.init_table(lo, np.zeros(3), seed=21, agent_id=5)
        return [saga.stochastic_avg_gradient(t, lo, x, t.draw_index())
                for x in xs]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_distinct_agents_get_distinct_streams():
    lo = quad_local(8, 2, seed=13)
    t0 = saga.init_table(lo, np.zeros(2), seed=5, agent_id=0)
    t1 = saga.init_table(lo, np.zeros(2), seed=5, agent_id=1)
    seq0 = [t0.draw_index() for _ in range(40)]
    seq1 = [t1.draw_index() for _ in range(40)]
    assert seq0 != seq1


def test_bad_index_and_shape_rejected():
    lo = quad_local(3, 2, seed=14)
    t = saga.init_table(lo, np.zeros(2), seed=0)
    with pytest.raises(InvalidArgumentError):
        saga.stochastic_avg_gradient(t, lo, np.zeros(2), 0)
    with pytest.raises(InvalidArgumentError):
        saga.stochastic_avg_gradient(t, lo, np.zeros(2), 4)
    with pytest.raises(InvalidArgumentError):
        saga.stochastic_avg_gradient(t, lo, np.zeros(3), 1)
    with pytest.raises(InvalidArgumentError):
        saga.init_table(lo, np.zeros(5), seed=0)


def test_checkpoint_round_trip():
    rng = np.random.default_rng(9)
    lo = quad_local(5, 3, seed=15)
    t = saga.init_table(lo, np.zeros(3), seed=77, agent_id=2)
    for _ in range(30):
        saga.stochastic_avg_gradient(t, lo, rng.standard_normal(3),
                                     t.draw_index())
    text = saga.dump_table(t)
    back = saga.load_table(text, lo)
    assert np.array_equal(back.stored_grads, t.stored_grads)
    assert np.array_equal(back.grad_sum, t.grad_sum)
    assert back.draw_count == t.draw_count
    # restored stream continues exactly where the original left off
    assert [back.draw_index() for _ in range(20)] == \
           [t.draw_index() for _ in range(20)]


def test_checkpoint_rejects_garbage():
    lo = quad_local(2, 2, seed=16)
    with pytest.raises(InvalidArgumentError):
        saga.load_table("not-a-checkpoint\n", lo)
    other = quad_local(3, 2, seed=17)
    t = saga.init_table(other, np.zeros(2), seed=0)
    with pytest.raises(InvalidArgumentError):
        saga.load_table(saga.dump_table(t), lo)


def test_lean_mode_drops_points():
    lo = quad_local(3, 2, seed=18)
    t = saga.init_table(lo, np.zeros(2), seed=0, lean=True)
    assert t.stored_points is None
    saga.stochastic_avg_gradient(t, lo, np.ones(2), 1)
    t.check_integrity()



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
            # both draw paths of the tables: one agent's view, and the block
            # path the engine uses
            tables = saga.GradientTables(np.zeros((2, q, 1)), [q, q], seed,
                                         [agent, agent])
            assert [tables[0].draw_index() for _ in range(n)] == expect
            assert [int(tables.draw()[1]) for _ in range(n)] == expect


def test_checkpoint_mid_block_of_engine_tables():
    prob = quadratic_family(3, 5, 2, (1.0, 2.0), seed=19)
    w = graph.metropolis_weights(graph.build_topology("ring", 3))
    tables = engine.make_tables(prob, seed=31)
    s = engine.init_sdiging_state(prob, tables)
    rounds = saga.BLOCK + saga.BLOCK // 2 + 3      # not a multiple of BLOCK
    for _ in range(rounds):
        s = engine.sdiging_step(s, w, tables, prob, 0.01)
    restored = [saga.load_table(saga.dump_table(t), lo)
                for t, lo in zip(tables, prob.locals)]
    for t, back in zip(tables, restored):
        assert back.draw_count == t.draw_count == rounds   # draws used
        assert np.array_equal(back.stored_grads, t.stored_grads)
        assert np.array_equal(back.grad_sum, t.grad_sum)
    ahead = np.stack([tables.draw() for _ in range(20)])
    for i, back in enumerate(restored):
        assert [back.draw_index() for _ in range(20)] == ahead[:, i].tolist()
