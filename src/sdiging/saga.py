"""Per-agent gradient tables for variance-reduced stochastic gradients.

Each agent stores the last gradient it evaluated for every component
function, plus an O(1)-maintained running sum.  A step combines one fresh
component gradient with the stale table entries; the exhaustive average of
the output over all index choices equals the full local gradient, so the
estimator is unbiased conditional on the table state.

All agents' tables are stacked in one ``GradientTables`` so that a
synchronous round updates every agent at once; a ``GradientTable`` is one
agent's row of it, which is what a checkpoint holds.

Agent i's component indices are, bit for bit, the draws of
``Generator(Philox(key=(seed, agent_i))).integers(1, q_i + 1)``, so a run
replays identically and a checkpoint restores by counting draws.
``IndexStreams`` produces them for all agents at once without a
``Generator``: Philox is counter-based, so each agent's bare bit generator
is read as raw 64-bit words, each word is split into two 32-bit words, low
half first, and every word is bounded by Lemire's rule, which is what
numpy's bounded draw does.  A word w gives the index
(w*q >> 32) + 1 unless (w*q) mod 2**32 is below (2**32 - q) mod q, in which
case it is dropped and the next word is tried; an agent with q = 1 reads no
words.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from sdiging.errors import InvalidArgumentError

_DUMP_HEADER = "sdiging-table-v1"

# Draws per agent produced by one refill of the index streams.  Draws are a
# pure function of each stream's position, so the block size changes no
# stream and no checkpoint; it only sets how often the per-agent raw reads
# run (once per BLOCK rounds).
BLOCK = 64


class _Key(ISeedSequence):
    """Hands Philox its 128-bit key as given.

    ``Philox(key=...)`` gives the same stream but first builds, and then
    discards, an OS-entropy ``SeedSequence``, which costs more than the bit
    generator itself.
    """

    def __init__(self, key: np.ndarray):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self._key


class IndexStreams:
    """Component-index streams of m agents, keyed by (seed, agent id), with
    the draws the module docstring describes; 1 <= q_i <= 2**32.

    Every ``draw`` advances all streams together, so one counter ``drawn``
    (draws used, not prefetched) also says which row of the current block
    is next.  A stream is redone word by word only when its block dropped a
    word or must start with the high half word the previous block left
    unread (``_carry``), as numpy's bit generator keeps it.
    """

    def __init__(self, q, seed: int, agent_ids):
        q = np.asarray(q, dtype=np.int64)
        if np.any(q < 1) or np.any(q > 1 << 32):
            raise InvalidArgumentError("every q_i must be in 1..2**32")
        self.drawn = 0
        self._q = q.astype(np.uint64)
        self._cut = (np.uint64(1 << 32) - self._q) % self._q
        self._philox = {i: np.random.Philox(_Key(np.array(
            [seed, agent_ids[i]], dtype=np.uint64)))
            for i in np.flatnonzero(q > 1).tolist()}
        self._carry: dict[int, int] = {}
        self._block = None

    def draw(self) -> np.ndarray:
        """One index per stream (read-only); advances every stream by one."""
        k = self.drawn % BLOCK
        if k == 0:
            self._block = self._next_block()
        self.drawn += 1
        return self._block[k]

    def replay(self, draws: int):
        """Put fresh streams where ``draws`` draws leave them."""
        for _ in range(-(-draws // BLOCK)):
            self._block = self._next_block()
        self.drawn = draws

    def _next_block(self) -> np.ndarray:
        """The next BLOCK draws of every stream: row k holds draw k of each.

        Streams with q = 1 read no words; zero words give them index 1.
        """
        raw = np.zeros((len(self._q), BLOCK // 2), dtype="<u8")
        for i, p in self._philox.items():
            raw[i] = p.random_raw(BLOCK // 2)
        words = raw.view("<u4")     # each raw word's low half, then its high
        # (w*q) mod 2**32 by uint32 wrap-around (q = 2**32 wraps to 0, cut 0),
        # before the block is allocated, to keep the peak memory down
        low = (words * self._q.astype(np.uint32)[:, None]).min(axis=1)
        dropped = np.flatnonzero(low < self._cut)
        block = words.T.astype(np.uint64, order="C")
        block *= self._q
        block >>= 32
        block = block.view(np.int64)
        block += 1
        for r in self._carry.keys() | set(dropped.tolist()):
            block[:, r] = self._top_up(r, raw[r])
        block.flags.writeable = False
        return block

    def _top_up(self, r: int, raw: np.ndarray) -> list:
        """Stream r's block read one 32-bit word at a time: any carried half
        word, then the words of ``raw``, then more raw words while drops
        demand them."""
        q, cut = int(self._q[r]), int(self._cut[r])
        words = [self._carry.pop(r)] if r in self._carry else []
        for w in raw.tolist():
            words += [w & 0xFFFFFFFF, w >> 32]
        drawn, used = [], 0
        while len(drawn) < BLOCK:
            if used == len(words):
                w = int(self._philox[r].random_raw())
                words += [w & 0xFFFFFFFF, w >> 32]
            scaled = words[used] * q
            used += 1
            if scaled & 0xFFFFFFFF >= cut:
                drawn.append((scaled >> 32) + 1)
        if used < len(words):       # at most one: a high half word
            self._carry[r] = words[used]
        return drawn


class GradientTables:
    """SAGA memory of m agents, stacked.

    ``grads`` is m x q_max x n: row i holds agent i's q_i stored gradients,
    then zero padding that is never drawn.  ``sums`` is the m x n running
    sum.  ``streams`` draws one component index per agent and round; the
    draws are exactly those of per-agent numpy Generators keyed by
    (seed, agent id), so runs replay identically regardless of scheduling
    and a checkpoint restores its stream from the draw count alone.
    """

    def __init__(self, grads: np.ndarray, q, seed: int, agent_ids):
        # C-contiguous, so that the flat view ``update`` takes and every
        # ``GradientTable`` row are views: a reshape of anything else copies
        self.grads = np.ascontiguousarray(grads, dtype=np.float64)
        m, slots, _ = self.grads.shape
        self.q = np.asarray(q, dtype=np.int64)
        if np.any(self.q < 1) or np.any(self.q > slots):
            raise InvalidArgumentError(
                f"every q_i must be in 1..{slots} (the table's slots)")
        self.sums = self.grads.sum(axis=1)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.agent_ids = [int(a) for a in agent_ids]
        self.streams = IndexStreams(self.q, self.seed, self.agent_ids)
        # slot h (1-based) of row i is row _base[i] + h of the flat view
        self._base = np.arange(m) * slots - 1
        self._q_col = self.q.astype(np.float64)[:, None]

    def __len__(self) -> int:
        return len(self.q)

    def __getitem__(self, i: int) -> "GradientTable":
        return GradientTable(self, i)

    def __iter__(self):
        return (GradientTable(self, i) for i in range(len(self)))

    def draw(self) -> np.ndarray:
        """One index in 1..q_i per agent (read-only); advances every stream
        by one draw."""
        return self.streams.draw()

    def update(self, idx: np.ndarray, fresh: np.ndarray) -> np.ndarray:
        """SAGA estimates (m x n) from fresh gradients of components ``idx``
        (1-based, one per agent).

        The estimates are computed against the pre-update tables; then slot
        idx[i] of each row is overwritten and its running sum updated by the
        add-new/subtract-old recursion.
        """
        # the view is taken per call, not stored: a deep copy or pickle of
        # the tables would detach a stored view from ``grads``
        flat = self.grads.reshape(-1, self.grads.shape[2])
        slot = self._base + idx
        delta = fresh - flat.take(slot, axis=0)
        g = delta + self.sums / self._q_col
        self.sums += delta
        flat[slot] = fresh
        return g

    def check_sums(self):
        """Raise AssertionError if a running sum drifted from its direct sum."""
        direct = self.grads.sum(axis=1)
        drift = np.linalg.norm(self.sums - direct, axis=1)
        if np.any(drift > 1e-12 * (1.0 + np.linalg.norm(direct, axis=1))):
            raise AssertionError("running gradient sum drifted from direct sum")


class GradientTable:
    """One agent's row of a GradientTables, as a checkpoint sees it.

    ``stored_grads`` and ``grad_sum`` are views into the stacked arrays.
    """

    def __init__(self, tables: GradientTables, i: int):
        self.q = int(tables.q[i])
        self.dim = tables.grads.shape[2]
        self.seed = tables.seed
        self.agent_id = tables.agent_ids[i]
        self.stored_grads = tables.grads[i, :self.q]
        self.grad_sum = tables.sums[i]
        self._tables = tables

    @property
    def draw_count(self) -> int:
        return self._tables.streams.drawn


def dump_table(t: GradientTable) -> str:
    """Checkpoint as CSV text with a versioned header.

    Fields: header line; one metadata line ``agent,q,n,seed,draws``; one
    line per stored gradient; one line for the running sum.
    """
    lines = [_DUMP_HEADER,
             f"{t.agent_id},{t.q},{t.dim},{t.seed},{t.draw_count}"]
    for h in range(t.q):
        lines.append(",".join(f"{v:.17g}" for v in t.stored_grads[h]))
    lines.append(",".join(f"{v:.17g}" for v in t.grad_sum))
    return "\n".join(lines) + "\n"


def load_table(text: str, lo) -> GradientTables:
    """Restore a checkpoint of the local objective ``lo`` as one-agent
    tables; the index stream is replayed to its counter."""
    lines = text.splitlines()
    if not lines or lines[0] != _DUMP_HEADER:
        raise InvalidArgumentError("not a gradient-table checkpoint")
    agent_id, q, dim, seed, draws = (int(v) for v in lines[1].split(","))
    if q != lo.q or dim != lo.dim:
        raise InvalidArgumentError("checkpoint does not match the local objective")
    t = GradientTables(np.array([[[float(v) for v in lines[2 + h].split(",")]
                                  for h in range(q)]]), [q], seed, [agent_id])
    t.sums[0] = [float(v) for v in lines[2 + q].split(",")]
    t.streams.replay(draws)
    return t
