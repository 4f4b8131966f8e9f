import copy
import gc
import tracemalloc

import numpy as np
import pytest

from sdiging import engine, graph, harness, saga
from sdiging.errors import InvalidArgumentError
from sdiging.objectives import (
    LocalObjective,
    ProblemInstance,
    Quadratic,
    logistic_problem,
    quadratic_family,
)


def quad_local(q, n, seed):
    """A one-agent quadratic problem."""
    return quadratic_family(1, q, n, (1.0, 3.0), seed=seed)


def logistic_local(q, n, seed):
    """A one-agent logistic problem with lam/m = 1/2."""
    rng = np.random.default_rng(seed)
    return logistic_problem(rng.standard_normal((q, n)),
                            rng.choice([-1, 1], size=q), lam=0.5, m=1)


def component_gradient(prob, x, idx):
    """Gradient of a one-agent problem's component idx (1-based) at x."""
    return prob.drawn_gradients(np.asarray(x, dtype=float)[None],
                                np.array([idx]))


def full_gradient(prob, x):
    return LocalObjective(prob, 0).full_gradient(x)


def table_at(prob, x0, seed, agent_id=0):
    """One-agent stacked tables with every slot evaluated at x0."""
    grads = np.concatenate([component_gradient(prob, x0, h)
                            for h in range(1, prob.q_max + 1)])
    return saga.GradientTables(grads[None], [prob.q_max], seed, [agent_id])


def estimate(t, prob, x, idx):
    """SAGA estimate of one-agent tables at x from component idx (1-based)."""
    return t.update(np.array([idx]), component_gradient(prob, x, idx))[0]


def draw(t):
    return int(t.draw()[0])


def test_init_table_quadratic_at_zero():
    lo = quad_local(2, 3, seed=1)
    tables = table_at(lo, np.zeros(3), seed=0)
    b = lo.params[1]
    assert np.allclose(tables.grads[0, 0], b[0], atol=1e-15)
    assert np.allclose(tables.grads[0, 1], b[1], atol=1e-15)
    assert np.allclose(tables.sums[0], b[0] + b[1], atol=1e-14)
    tables.check_sums()


def test_init_table_logistic_at_zero():
    lo = logistic_local(3, 2, seed=2)
    t = engine.make_tables(lo, seed=0)
    expect = -(3 / 2.0) * lo.params[1].sum(axis=0)
    assert np.allclose(t.sums[0], expect, atol=1e-13)
    t.check_sums()


def test_init_estimate_is_full_gradient():
    lo = quad_local(4, 2, seed=3)
    x0 = np.array([0.5, -1.0])
    t = table_at(lo, x0, seed=0)
    s = engine.init_state("sdiging", lo, t)
    assert np.allclose(s.g_prev[0], full_gradient(lo, x0), atol=1e-14)


def test_fresh_table_correction_cancels():
    lo = quad_local(3, 2, seed=4)
    x0 = np.array([1.0, 2.0])
    t = table_at(lo, x0, seed=0)
    g = estimate(t, lo, x0, 2)
    assert np.allclose(g, full_gradient(lo, x0), atol=1e-13)


def test_q1_degenerates_to_full_gradient():
    lo = quad_local(1, 2, seed=5)
    t = table_at(lo, np.zeros(2), seed=0)
    x = np.array([0.3, -0.4])
    g = estimate(t, lo, x, 1)
    assert np.allclose(g, component_gradient(lo, x, 1)[0], atol=1e-15)
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
            ref = full_gradient(lo, x)
            assert np.linalg.norm(acc - ref) <= 1e-12 * (1 + np.linalg.norm(ref))


def test_unbiasedness_across_uneven_stacked_agents():
    # every row of engine tables with uneven q (zero padding in the short
    # rows) averages to its agent's full local gradient
    rng = np.random.default_rng(16)
    params = quadratic_family(1, 12, 3, (1.0, 3.0), seed=4).params
    prob = ProblemInstance(Quadratic, params, [2, 5, 1, 4])
    q = prob.q
    t = engine.make_tables(prob, seed=3)
    for _ in range(20):
        idx = t.draw()
        t.update(idx, prob.drawn_gradients(rng.standard_normal((4, 3)), idx))
    x = rng.standard_normal((4, 3))
    acc = np.zeros((4, 3))
    for k in range(prob.q_max):
        idx = np.minimum(k, q - 1) + 1
        g = copy.deepcopy(t).update(idx, prob.drawn_gradients(x, idx))
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
    direct = t.grads[0, :t.q[0]].sum(axis=0)
    err = np.linalg.norm(t.sums[0] - direct) / (1 + np.linalg.norm(direct))
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
    text = saga.dump_table(t, 0)
    back = saga.load_table(text, lo, 0)
    assert saga.dump_table(back, 0) == text
    assert np.array_equal(back.grads, t.grads)
    assert np.array_equal(back.sums, t.sums)
    assert back.streams.drawn == t.streams.drawn
    # restored stream continues exactly where the original left off
    assert [draw(back) for _ in range(20)] == [draw(t) for _ in range(20)]


def test_checkpoint_rejects_garbage():
    lo = quad_local(2, 2, seed=16)
    with pytest.raises(InvalidArgumentError):
        saga.load_table("not-a-checkpoint\n", lo, 0)
    other = quad_local(3, 2, seed=17)
    t = table_at(other, np.zeros(2), seed=0)
    with pytest.raises(InvalidArgumentError):
        saga.load_table(saga.dump_table(t, 0), lo, 0)


@pytest.mark.parametrize("edit", [
    lambda ls: ls[:3],                                  # truncated
    lambda ls: ls[:1] + ["0,2,2"] + ls[2:],             # 3 metadata fields
    lambda ls: ls[:1] + ["0,2,2,x,0"] + ls[2:],         # non-integer field
    lambda ls: ls[:2] + ["1.0,2.0,3.0"] + ls[3:],       # a row too wide
    lambda ls: ls[:1] + ["0,2,2,7,-3"] + ls[2:],        # negative draw count
    lambda ls: ls[:1] + ["-1,2,2,7,0"] + ls[2:],        # negative agent id
    lambda ls: ls + ["1.0,2.0"],                        # a trailing line
], ids=["truncated", "three-fields", "non-integer", "wide-row",
        "negative-draws", "negative-agent", "trailing-line"])
def test_checkpoint_rejects_malformed_text(edit):
    lo = quad_local(2, 2, seed=16)
    t = saga.GradientTables(np.ones((1, 2, 2)), [2], 7, [0])
    lines = saga.dump_table(t, 0).splitlines()
    assert lines[1] == "0,2,2,7,0"
    with pytest.raises(InvalidArgumentError):
        saga.load_table("\n".join(edit(lines)) + "\n", lo, 0).draw()


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
    restored = [saga.load_table(saga.dump_table(tables, i), prob, i)
                for i in range(prob.m)]
    for t, back in zip(tables, restored):
        assert back.streams.drawn == tables.streams.drawn == rounds   # draws used
        assert np.array_equal(back.grads[0, :back.q[0]], t.stored_grads)
        assert np.array_equal(back.sums[0], t.grad_sum)
    ahead = np.stack([tables.draw() for _ in range(20)])
    for i, back in enumerate(restored):
        assert [draw(back) for _ in range(20)] == ahead[:, i].tolist()


def generator_draws(seed, agent, q, n):
    """The first n draws of integers(1, q + 1) from the agent's Generator,
    and whether its bit generator holds a half word after each count."""
    g = np.random.Generator(np.random.Philox(
        key=np.array([seed, agent], dtype=np.uint64)))
    draws, carries = [], [False]
    for _ in range(n):
        draws.append(int(g.integers(1, q + 1)))
        carries.append(bool(g.bit_generator.state["has_uint32"]))
    return draws, carries


# q values at which Lemire's rule drops a sizeable share of 32-bit words
REJECTING = [3 * 2 ** 30, 2 ** 31 + 12345, 2 ** 32 - 2 ** 26]


@pytest.mark.parametrize("seed", [0, 77, 2 ** 63 + 5])
@pytest.mark.parametrize("q", REJECTING + [2 ** 32 - 5, 2 ** 32])
def test_streams_match_generator_where_lemire_rejects(q, seed):
    # Lemire drops (2**32 - q) % q of the 2**32 possible words: a quarter at
    # 3*2**30, almost half at 2**31+12345, 1/64 at 2**32-2**26, 5 words at
    # 2**32-5, none at 2**32
    n = 5 * saga.BLOCK + 9
    streams = saga.IndexStreams([q, q], seed, [4, 11])
    got = np.stack([streams.draw() for _ in range(n)])
    for col, agent in enumerate((4, 11)):
        expect, _ = generator_draws(seed, agent, q, n)
        assert got[:, col].tolist() == expect
        # the rejecting cases really drop words: reading the first n words
        # without the rule gives a different stream
        raw = np.random.Philox(key=np.array([seed, agent], dtype=np.uint64)
                               ).random_raw(n)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:n]
        naive = [(int(w) * q >> 32) + 1 for w in words]
        assert (naive != expect) == (q in REJECTING)


@pytest.mark.parametrize("q", REJECTING)
def test_replay_resumes_after_a_carried_half_word(q):
    # after an odd number of 32-bit words the high half of the last raw word
    # is left for the next block, as numpy's bit generator keeps it; at
    # 2**32-2**26 a block that carries one in often drops no word itself
    n = 6 * saga.BLOCK
    counts = [saga.BLOCK * k + r for k in range(1, 6) for r in (0, 1, 37)]
    carried = 0
    for seed in (0, 77, 2 ** 63 + 5):
        expect, carries = generator_draws(seed, 2, q, n)
        for draws in counts:
            streams = saga.IndexStreams([q], seed, [2])
            streams.replay(draws)
            assert streams.drawn == draws
            assert [int(streams.draw()[0]) for _ in range(n - draws)] == \
                expect[draws:]
            carried += carries[draws] and draws % saga.BLOCK == 0
    assert carried > 0


def test_replay_of_many_draws_refills_one_block(monkeypatch):
    # a restore hands every stream to numpy at draw 0, which draws up to the
    # count, instead of refilling the blocks before it one by one
    qs, agents, seed = [2, 1, 30, 3 * 2 ** 30], [3, 8, 0, 5], 77
    refills = []
    next_block = saga.IndexStreams._next_block
    monkeypatch.setattr(saga.IndexStreams, "_next_block",
                        lambda self, b: refills.append(b) or next_block(self, b))
    for draws in (2 ** 20 + 17, 2 ** 20):
        streams = saga.IndexStreams(qs, seed, agents)
        streams.replay(draws)
        assert len(refills) <= 1 and streams.drawn == draws
        got = np.stack([streams.draw() for _ in range(300)])
        for col, (q, agent) in enumerate(zip(qs, agents)):
            g = np.random.Generator(np.random.Philox(
                key=np.array([seed, agent], dtype=np.uint64)))
            g.integers(1, q + 1, size=draws)
            assert got[:, col].tolist() == g.integers(1, q + 1, size=300).tolist()
        refills.clear()


def test_handed_over_row_beside_one_pass_rows():
    # a row whose block drops a word is drawn by numpy's Generator from then
    # on, while rows of q = 1 and q = 30 stay on the one-pass path
    qs, agents = [3 * 2 ** 30, 1, 30], [6, 2, 9]
    n = 6 * saga.BLOCK
    q, cut = np.uint64(qs[0]), np.uint64((2 ** 32 - qs[0]) % qs[0])
    for seed in (0, 77, 2 ** 63 + 5):
        expect = [generator_draws(seed, a, qi, n)[0]
                  for a, qi in zip(agents, qs)]
        streams = saga.IndexStreams(qs, seed, agents)
        got = np.stack([streams.draw() for _ in range(n)])
        assert list(streams._numpy) == [0]
        for col in range(3):
            assert got[:, col].tolist() == expect[col]
        # draw j is word j up to the first dropped word
        raw = np.random.Philox(key=np.array([seed, agents[0]], dtype=np.uint64)
                               ).random_raw(saga.BLOCK)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        after = int(np.flatnonzero(words * q % np.uint64(2 ** 32) < cut)[0]) \
            // saga.BLOCK + 1
        for draws in (after * saga.BLOCK + 1, after * saga.BLOCK + 37):
            streams = saga.IndexStreams(qs, seed, agents)
            streams.replay(draws)
            rest = np.stack([streams.draw() for _ in range(n - draws)])
            for col in range(3):
                assert rest[:, col].tolist() == expect[col][draws:]


def test_streams_at_scale_with_permuted_ids_and_handoffs():
    # 600 agents with permuted, non-contiguous ids up to 2**64 - 1 and a
    # seed >= 2**63; q = 1 and small q stay on the one-pass path, while
    # 3*2**30 (a quarter of the words dropped) hands rows over in the first
    # blocks and 2**32 - 2**26 (1/64 dropped) in later ones
    rng = np.random.default_rng(37)
    m, seed, n = 600, 2 ** 63 + 2 ** 40 + 9, 5 * saga.BLOCK + 23
    ids = (rng.choice(2 ** 40, size=m, replace=False) * 3 + 1).tolist()
    for i, a in zip(rng.choice(m, size=3, replace=False), [2 ** 64 - 1, 2 ** 63, 0]):
        ids[i] = a
    qs = rng.choice([1, 2, 7, 30, 3 * 2 ** 30, 2 ** 32 - 2 ** 26], size=m)
    expect = np.stack([np.random.Generator(np.random.Philox(key=np.array(
        [seed, a], dtype=np.uint64))).integers(1, int(q) + 1, size=n)
        for a, q in zip(ids, qs)], axis=1)
    streams = saga.IndexStreams(qs, seed, ids)
    got, handed = [], []
    for _ in range(n):
        got.append(streams.draw())
        handed.append(len(streams._numpy))
    assert np.array_equal(np.stack(got), expect)
    # handoffs happen in the first block and in later ones, never to a row
    # that cannot drop a word
    assert 0 < handed[0] < handed[-1]
    assert set(streams._numpy) <= set(np.flatnonzero(qs >= 3 * 2 ** 30))
    for draws in (3 * saga.BLOCK, 3 * saga.BLOCK + 17, 5 * saga.BLOCK + 1):
        back = saga.IndexStreams(qs, seed, ids)
        back.replay(draws)
        assert back.drawn == draws
        rest = np.stack([back.draw() for _ in range(n - draws)])
        assert np.array_equal(rest, expect[draws:])


def test_streams_hold_no_object_per_agent():
    # building the streams and drawing their first block adds as many
    # GC-tracked objects at m = 1000 as at m = 10
    def added(m):
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            streams = saga.IndexStreams(np.full(m, 10), 2 ** 63 + 1, range(m))
            streams.draw()
            return len(gc.get_objects()) - before
        finally:
            gc.enable()

    added(10)           # numpy's first calls may allocate for good
    assert added(1000) <= added(10)


def test_uneven_q_with_single_component_rows():
    params = quad_local(39, 2, seed=20).params
    prob = ProblemInstance(Quadratic, params, [1, 7, 30, 1])
    n = 3 * saga.BLOCK
    tables = engine.make_tables(prob, seed=41)
    got = np.stack([tables.draw() for _ in range(n)])
    for i in range(prob.m):
        assert got[:, i].tolist() == generator_draws(41, i, int(prob.q[i]), n)[0]
    # checkpoint the q=1 row and a q=7 row mid-block; both continue exactly
    tables = engine.make_tables(prob, seed=41)
    mid = saga.BLOCK + saga.BLOCK // 2 + 3
    for _ in range(mid):
        tables.draw()
    restored = [saga.load_table(saga.dump_table(tables, i), prob, i)
                for i in (0, 1)]
    for i, back in zip((0, 1), restored):
        assert saga.dump_table(back, 0) == saga.dump_table(tables, i)
        assert [draw(back) for _ in range(n - mid)] == got[mid:, i].tolist()


def test_q_outside_the_slots_or_the_word_range_is_rejected():
    for q in ([3, 0], [3, 4], [-1, 2]):
        with pytest.raises(InvalidArgumentError):
            saga.GradientTables(np.zeros((2, 3, 2)), q, 0, [0, 1])
    for q in ([0], [2 ** 32 + 1]):
        with pytest.raises(InvalidArgumentError):
            saga.IndexStreams(q, 0, [0])


@pytest.mark.parametrize("layout", ["fortran", "strided", "integer"])
def test_update_matches_row_indexing_and_keeps_rows_attached(layout):
    # tables built from a grads array that a flat reshape would copy: the
    # rows made before any update, a deep copy and the checkpoint text must
    # all see every update, and the estimates are those of indexing
    # grads[rows, slot] directly
    rng = np.random.default_rng(23)
    q = np.array([3, 5, 1, 4])
    base = np.where(np.arange(5)[None, :, None] < q[:, None, None],
                    rng.integers(-9, 9, (4, 5, 2)), 0)
    grads = {"fortran": np.asfortranarray(base.astype(float)),
             "strided": np.repeat(base.astype(float), 2, axis=0)[::2],
             "integer": base}[layout]
    t = saga.GradientTables(grads, q, 5, range(4))
    rows = list(t)
    ref, ref_sums, at = base.astype(float), base.sum(axis=1).astype(float), \
        np.arange(4)
    for _ in range(40):
        idx = t.draw()
        fresh = rng.standard_normal((4, 2))
        delta = fresh - ref[at, idx - 1]
        want = delta + ref_sums / q[:, None]
        ref_sums += delta
        ref[at, idx - 1] = fresh
        assert np.array_equal(t.update(idx, fresh), want)
    assert np.array_equal(t.grads, ref) and np.array_equal(t.sums, ref_sums)
    for i, row in enumerate(rows):
        assert np.array_equal(row.stored_grads, ref[i, :q[i]])
        assert np.array_equal(row.grad_sum, ref_sums[i])
    twin = copy.deepcopy(t)
    idx = twin.draw()
    twin.update(idx, rng.standard_normal((4, 2)))
    twin.check_sums()


def masked_tables(prob, seed):
    """Tables filled as a zero m x q_max x n array through a boolean mask,
    as ``engine.make_tables`` fills them for uneven q."""
    grads = np.zeros((prob.m, prob.q_max, prob.dim))
    grads[np.arange(prob.q_max) < prob.q[:, None]] = prob.kind.stacked_gradient(
        prob.params, np.zeros((len(prob.params[0]), prob.dim)))
    return saga.GradientTables(grads, prob.q, seed, range(prob.m))


@pytest.mark.parametrize("family", ["quadratic", "uneven", "logistic",
                                    "localization", "one-agent"])
def test_make_tables_equals_the_masked_fill(family):
    prob = {
        "quadratic": lambda: quadratic_family(6, 4, 3, (1.0, 3.0), seed=1),
        "uneven": lambda: ProblemInstance(
            Quadratic, quad_local(12, 3, seed=4).params, [2, 5, 1, 4]),
        "logistic": lambda: harness.gaussian_logistic_instance(7, 6, n=4, seed=2),
        "localization": lambda: harness.localization_instance(
            m=6, q_i=5, sigma=5.0, seed=3)[0],
        "one-agent": lambda: logistic_local(9, 3, seed=5),
    }[family]()
    assert (prob.q_min == prob.q_max) == (family != "uneven")
    got, want = engine.make_tables(prob, seed=5), masked_tables(prob, seed=5)
    assert np.array_equal(got.grads, want.grads)
    assert np.array_equal(got.sums, want.sums)
    assert [saga.dump_table(got, i) for i in range(prob.m)] == \
        [saga.dump_table(want, i) for i in range(prob.m)]


def test_equal_q_tables_skip_the_padded_copy():
    # m = 1000, q = 10: the masked fill holds a zero table (320 kB) beside
    # the gradient rows; the equal-q fill makes the rows the table
    prob = harness.gaussian_logistic_instance(1000, 10, n=4, seed=3)

    def peak(build):
        tracemalloc.start()
        try:
            build(prob, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(engine.make_tables)        # first calls may allocate for good
    table_bytes = 1000 * 10 * 4 * 8
    assert peak(masked_tables) - peak(engine.make_tables) >= 0.9 * table_bytes
