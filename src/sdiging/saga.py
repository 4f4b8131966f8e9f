"""Per-agent gradient tables for variance-reduced stochastic gradients.

Each agent stores the last gradient it evaluated for every component
function, plus an O(1)-maintained running sum.  A step combines one fresh
component gradient with the stale table entries; the exhaustive average of
the output over all index choices equals the full local gradient, so the
estimator is unbiased conditional on the table state.

All agents' tables are stacked in one ``GradientTables`` so that a
synchronous round updates every agent at once; a checkpoint holds row i
of them (``dump_table(tables, i)``, ``load_table(text, problem, i)``).

Agent i's component indices are, bit for bit, the draws of
``Generator(Philox(key=np.array([seed, agent_i], dtype=np.uint64)))
.integers(1, q_i + 1)`` (a tuple key would go through float64 for a seed
of 2**53 or more), so a run replays identically and a checkpoint restores
by counting draws.
``IndexStreams`` produces them for all agents at once: Philox is
counter-based, so an agent's block b is the 32 raw 64-bit words that one
bare Philox, re-keyed to (seed, agent_i) at counter b*BLOCK/8, reads.  Each
word is split into two 32-bit words, low half first, and bounded by
Lemire's rule, numpy's bounded draw: w gives the index (w*q >> 32) + 1
unless (w*q) mod 2**32 is below (2**32 - q) mod q, in which case numpy
drops it and tries the next word.  An agent whose block drops a word is
handed to a ``Generator`` started at that block, for good; an agent with
q = 1 reads no words.  A restore starts every stream's ``Generator`` at
draw 0 and draws up to the checkpoint's count, so it takes time linear in
that count: about 5 ns per draw at q = 2 or 30 (one core of an Intel Xeon).
"""

from __future__ import annotations

import numpy as np

from sdiging.errors import InvalidArgumentError

_DUMP_HEADER = "sdiging-table-v1"

# Draws per agent produced by one refill of the index streams.  Draws are a
# pure function of each stream's position, so the block size changes no
# stream and no checkpoint; it only sets how often the per-agent raw reads
# run (once per BLOCK rounds).
BLOCK = 64


class IndexStreams:
    """Component-index streams of m agents, keyed by (seed, agent id), with
    the draws the module docstring describes; 1 <= q_i <= 2**32.

    Every ``draw`` advances all streams together, so one counter ``drawn``
    (draws used, not prefetched) also says which block and row are next.
    ``_live`` maps each row that reads raw words to its agent id.  A stream
    that dropped a word, or that ``replay`` restored, moves to ``_numpy``,
    where numpy draws it and keeps any half word itself.
    """

    def __init__(self, q, seed: int, agent_ids):
        q = np.asarray(q, dtype=np.int64)
        if np.any(q < 1) or np.any(q > 1 << 32):
            raise InvalidArgumentError("every q_i must be in 1..2**32")
        self.drawn = 0
        self._q = q.astype(np.uint64)
        self._cut = (np.uint64(1 << 32) - self._q) % self._q
        self._seed = int(seed)
        self._live = {i: int(agent_ids[i]) for i in np.flatnonzero(q > 1).tolist()}
        self._numpy: dict[int, np.random.Generator] = {}
        self._block = None
        # Python-int key and counter per row (arrays set slower); empty buffer
        self._philox = np.random.Philox(key=0)
        self._state = dict(self._philox.state, buffer=(0, 0, 0, 0))

    def draw(self) -> np.ndarray:
        """One index per stream (read-only); advances every stream by one."""
        k = self.drawn % BLOCK
        if k == 0:
            self._block = self._next_block(self.drawn // BLOCK)
        self.drawn += 1
        return self._block[k]

    def replay(self, draws: int):
        """Put fresh streams where ``draws`` draws leave them: numpy draws
        each from draw 0 to the block of the next draw, fetched once."""
        skip = draws - draws % BLOCK
        for r in list(self._live):
            self._hand_over(r, 0)
            for done in range(0, skip, 1 << 16):
                self._numpy[r].integers(1, int(self._q[r]) + 1,
                                        size=min(skip - done, 1 << 16))
        if draws % BLOCK:
            self._block = self._next_block(draws // BLOCK)
        self.drawn = draws

    def _hand_over(self, r: int, counter: int):
        """Move row r to a numpy Generator whose Philox is at ``counter``."""
        key = np.array([self._seed, self._live.pop(r)], dtype=np.uint64)
        self._numpy[r] = np.random.Generator(
            np.random.Philox(key=key).advance(counter))

    def _next_block(self, b: int) -> np.ndarray:
        """Block b of every stream: row k holds draw b*BLOCK + k of each.

        Streams with q = 1 or in ``_numpy`` read no words here; zero words
        give them index 1, and numpy then fills the ``_numpy`` columns.
        """
        raw = np.zeros((len(self._q), BLOCK // 2), dtype="<u8")
        # BLOCK // 2 raw words from an empty buffer are BLOCK // 8 counters
        start = b * (BLOCK // 8)
        p, state, seed = self._philox, self._state, self._seed
        state["state"] = inner = {"counter": (start, 0, 0, 0)}
        for i, agent in self._live.items():
            inner["key"] = (seed, agent)
            p.state = state
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
        for r in self._live.keys() & set(dropped.tolist()):
            self._hand_over(r, start)
        for r, g in self._numpy.items():
            block[:, r] = g.integers(1, int(self._q[r]) + 1, size=BLOCK)
        block.flags.writeable = False
        return block


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
        grads = np.ascontiguousarray(grads, dtype=np.float64)
        m, slots, n = grads.shape
        self.q = np.asarray(q, dtype=np.int64)
        if np.any(self.q < 1) or np.any(self.q > slots):
            raise InvalidArgumentError(
                f"every q_i must be in 1..{slots} (the table's slots)")
        # The tables live in one (m * slots) x n array; slot h (1-based) of
        # row i is its row _base[i] + h.  ``grads`` and every
        # ``GradientTable`` row are views of it, taken on access, so that
        # neither a deep copy nor a pickle can detach one.
        self._flat = grads.reshape(m * slots, n)
        self._base = np.arange(m) * slots - 1
        self._row = np.dtype((np.void, 8 * n))     # one table row as bytes
        self.sums = grads.sum(axis=1)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.agent_ids = [int(a) for a in agent_ids]
        self.streams = IndexStreams(self.q, self.seed, self.agent_ids)
        # q_i in every entry of row i: the division by q needs no broadcast
        self._q_rows = np.repeat(self.q.astype(np.float64)[:, None], n, axis=1)

    @property
    def grads(self) -> np.ndarray:
        """The m x q_max x n tables, a view of their storage."""
        return self._flat.reshape(len(self.q), -1, self._flat.shape[1])

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
        slot = self._base + idx
        delta = fresh - self._flat.take(slot, axis=0)
        g = delta + self.sums / self._q_rows
        self.sums += delta
        # one void element per row: a scatter of whole rows, the same bytes
        row = self._row
        self._flat.view(row)[:, 0][slot] = np.ascontiguousarray(fresh).view(row)[:, 0]
        return g

    def check_sums(self):
        """Raise AssertionError if a running sum drifted from its direct sum."""
        direct = self.grads.sum(axis=1)
        drift = np.linalg.norm(self.sums - direct, axis=1)
        if np.any(drift > 1e-12 * (1.0 + np.linalg.norm(direct, axis=1))):
            raise AssertionError("running gradient sum drifted from direct sum")


class GradientTable:
    """One agent's row of a GradientTables: ``stored_grads`` and
    ``grad_sum`` are views into the stacked arrays."""

    def __init__(self, tables: GradientTables, i: int):
        self.stored_grads = tables.grads[i, :tables.q[i]]
        self.grad_sum = tables.sums[i]


def dump_table(tables: GradientTables, i: int) -> str:
    """Checkpoint of row i of ``tables`` as CSV text with a versioned header.

    Fields: header line; one metadata line ``agent,q,n,seed,draws``; one
    line per stored gradient; one line for the running sum.
    """
    q = int(tables.q[i])
    lines = [_DUMP_HEADER, f"{tables.agent_ids[i]},{q},{tables.grads.shape[2]},"
                           f"{tables.seed},{tables.streams.drawn}"]
    for row in (*tables.grads[i, :q], tables.sums[i]):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def load_table(text: str, problem, i: int) -> GradientTables:
    """Restore a checkpoint of agent i of ``problem`` as one-agent tables,
    the index stream at its count.  Text that is not a whole checkpoint of
    that agent's q and the problem's dim raises ``InvalidArgumentError``."""
    lines = text.splitlines()
    if not lines or lines[0] != _DUMP_HEADER:
        raise InvalidArgumentError("not a gradient-table checkpoint")
    try:
        agent_id, q, dim, seed, draws = (int(v) for v in lines[1].split(","))
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    except (IndexError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed checkpoint: {exc}") from None
    if q != problem.q[i] or dim != problem.dim:
        raise InvalidArgumentError("checkpoint does not match the agent's objective")
    if rows.shape != (q + 1, dim) or draws < 0 or not 0 <= agent_id < 1 << 64:
        raise InvalidArgumentError(
            f"malformed checkpoint: needs {q + 1} rows of {dim} values, an "
            f"agent id in 0..2**64-1 and a draw count >= 0")
    t = GradientTables(rows[None, :q], [q], seed, [agent_id])
    t.sums[0] = rows[q]
    t.streams.replay(draws)
    return t
