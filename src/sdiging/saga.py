"""Per-agent gradient tables for variance-reduced stochastic gradients.

Each agent stores the last gradient it evaluated for every component
function, plus an O(1)-maintained running sum.  A step combines one fresh
component gradient with the stale table entries; the exhaustive average of
the output over all index choices equals the full local gradient, so the
estimator is unbiased conditional on the table state.

All agents' tables are stacked in one ``GradientTables`` so that a
synchronous round updates every agent at once; a ``GradientTable`` is one
agent's row of it, which is what a checkpoint holds.
"""

from __future__ import annotations

import numpy as np

from sdiging.errors import InvalidArgumentError

_DUMP_HEADER = "sdiging-table-v1"

# Index draws fetched per refill of an agent's stream.  Philox's
# integers(1, q+1, size=B) yields the same values as B single draws, so the
# block size changes no stream and no checkpoint.
BLOCK = 64


class GradientTables:
    """SAGA memory of m agents, stacked.

    ``grads`` is m x q_max x n: row i holds agent i's q_i stored gradients,
    then zero padding that is never drawn.  ``sums`` is the m x n running
    sum.  Index draws come from one counter-based stream per agent, keyed by
    (seed, agent id), so runs replay identically regardless of scheduling.
    Each stream is read BLOCK draws at a time into ``_buf``; ``_pos`` is the
    next unread entry and ``drawn`` counts the draws used, not prefetched.
    """

    def __init__(self, grads: np.ndarray, q, seed: int, agent_ids):
        self.grads = grads
        self.sums = grads.sum(axis=1)
        self.q = np.asarray(q, dtype=np.int64)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.agent_ids = [int(a) for a in agent_ids]
        m = len(self.q)
        self.drawn = np.zeros(m, dtype=np.int64)
        self._rows = np.arange(m)
        self._rngs = [np.random.Generator(np.random.Philox(
            key=np.array([self.seed, a], dtype=np.uint64))) for a in self.agent_ids]
        self._buf = np.zeros((m, BLOCK), dtype=np.int64)
        self._pos = np.full(m, BLOCK)

    def __len__(self) -> int:
        return len(self.q)

    def __getitem__(self, i: int) -> "GradientTable":
        return GradientTable(self, i)

    def __iter__(self):
        return (GradientTable(self, i) for i in range(len(self)))

    def _refill(self, i: int):
        self._buf[i] = self._rngs[i].integers(1, self.q[i] + 1, size=BLOCK)
        self._pos[i] = 0

    def _replay(self, i: int, draws: int):
        """Put agent i's stream where ``draws`` draws from a fresh one leave it."""
        full, rest = divmod(draws, BLOCK)
        for _ in range(full + (rest > 0)):
            self._refill(i)
        self._pos[i] = rest or BLOCK
        self.drawn[i] = draws

    def draw(self) -> np.ndarray:
        """One index in 1..q_i per agent; advances every stream by one draw."""
        for i in np.flatnonzero(self._pos == BLOCK):
            self._refill(i)
        idx = self._buf[self._rows, self._pos]
        self._pos += 1
        self.drawn += 1
        return idx

    def update(self, idx: np.ndarray, fresh: np.ndarray) -> np.ndarray:
        """SAGA estimates (m x n) from fresh gradients of components ``idx``
        (1-based, one per agent).

        The estimates are computed against the pre-update tables; then slot
        idx[i] of each row is overwritten and its running sum updated by the
        add-new/subtract-old recursion.
        """
        h = idx - 1
        delta = fresh - self.grads[self._rows, h]
        g = delta + self.sums / self.q[:, None]
        self.sums += delta
        self.grads[self._rows, h] = fresh
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
        self._row = i

    @property
    def draw_count(self) -> int:
        return int(self._tables.drawn[self._row])


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
    t._replay(0, draws)
    return t
