"""Per-agent gradient tables for variance-reduced stochastic gradients.

Each agent stores the last gradient it evaluated for every component
function, plus an O(1)-maintained running sum.  A step combines one fresh
component gradient with the stale table entries; the exhaustive average of
the output over all index choices equals the full local gradient, so the
estimator is unbiased conditional on the table state.

All agents' tables are stacked in one ``GradientTables`` so that a
synchronous round updates every agent at once; a ``GradientTable`` is one
agent's view into it, and a single table is the m = 1 case.
"""

from __future__ import annotations

import numpy as np

from sdiging.errors import InvalidArgumentError
from sdiging.objectives import LocalObjective

_DUMP_HEADER = "sdiging-table-v1"

# Index draws fetched per refill of an agent's stream.  Philox's
# integers(1, q+1, size=B) yields the same values as B single draws, so the
# block size changes no stream and no checkpoint.
BLOCK = 64


def _saga_update(grads, sums, q, rows, h, fresh):
    """Row-wise SAGA step for agents ``rows``, fresh gradients of slots h.

    Returns the estimates computed against the pre-update tables, then
    overwrites slot h[r] of each row and updates its running sum by the
    add-new/subtract-old recursion.
    """
    delta = fresh - grads[rows, h]
    g = delta + sums / q[:, None]
    sums += delta
    grads[rows, h] = fresh
    return g


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
        (1-based, one per agent); updates every table."""
        return _saga_update(self.grads, self.sums, self.q, self._rows, idx - 1,
                            fresh)

    def full_gradient_estimate(self) -> np.ndarray:
        """Row i: average of agent i's stored gradients."""
        return self.sums / self.q[:, None]


class GradientTable:
    """SAGA memory for one agent: a view into one row of a GradientTables.

    ``stored_points`` is kept for diagnostics by ``init_table`` tables
    unless ``lean=True``; stacked engine tables do not keep it.
    """

    def __init__(self, tables: GradientTables, i: int):
        self.q = int(tables.q[i])
        self.dim = tables.grads.shape[2]
        self.seed = tables.seed
        self.agent_id = tables.agent_ids[i]
        self.stored_grads = tables.grads[i, :self.q]
        self.grad_sum = tables.sums[i]
        self.stored_points = None
        self._tables = tables
        self._row = i

    @property
    def draw_count(self) -> int:
        return int(self._tables.drawn[self._row])

    def draw_index(self) -> int:
        """Uniform index in 1..q; advances the stream by one draw."""
        st, i = self._tables, self._row
        if st._pos[i] == BLOCK:
            st._refill(i)
        idx = st._buf[i, st._pos[i]]
        st._pos[i] += 1
        st.drawn[i] += 1
        return int(idx)

    def full_gradient_estimate(self):
        """Average of the stored gradients (equals g_0 right after init)."""
        return self.grad_sum / self.q

    def check_integrity(self, lo: LocalObjective | None = None):
        """Verify the cached sum (and, if possible, the stored gradients)."""
        direct = self.stored_grads.sum(axis=0)
        scale = 1.0 + float(np.linalg.norm(direct))
        if np.linalg.norm(self.grad_sum - direct) > 1e-12 * scale:
            raise AssertionError("running gradient sum drifted from direct sum")
        if lo is not None and self.stored_points is not None:
            for h, comp in enumerate(lo.components):
                if not np.array_equal(self.stored_grads[h],
                                      comp.gradient(self.stored_points[h])):
                    raise AssertionError(f"stored gradient {h} is stale")


def _single(stored_grads, seed: int, agent_id: int) -> GradientTable:
    return GradientTables(stored_grads[None], [len(stored_grads)], seed,
                          [agent_id])[0]


def init_table(lo: LocalObjective, x0, seed: int, agent_id: int = 0,
               lean: bool = False) -> GradientTable:
    """Fresh table with every slot evaluated at x0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (lo.dim,):
        raise InvalidArgumentError(f"expected shape ({lo.dim},), got {x0.shape}")
    t = _single(np.stack([c.gradient(x0) for c in lo.components]), seed,
                agent_id)
    if not lean:
        t.stored_points = np.tile(x0, (t.q, 1))
    return t


def draw_index(t: GradientTable) -> int:
    return t.draw_index()


def stochastic_avg_gradient(t: GradientTable, lo: LocalObjective, x, idx: int):
    """Variance-reduced gradient estimate at x using component ``idx``.

    Returns the estimate computed against the pre-update table, then
    overwrites slot ``idx`` with the fresh gradient and updates the running
    sum by the add-new/subtract-old recursion.
    """
    if not (1 <= idx <= t.q):
        raise InvalidArgumentError(f"index {idx} outside 1..{t.q}")
    x = np.asarray(x, dtype=float)
    if x.shape != (t.dim,):
        raise InvalidArgumentError(f"expected shape ({t.dim},), got {x.shape}")
    h = idx - 1
    fresh = lo.components[h].gradient(x)
    g = _saga_update(t.stored_grads[None], t.grad_sum[None], np.array([t.q]),
                     np.array([0]), np.array([h]), fresh[None])[0]
    if t.stored_points is not None:
        t.stored_points[h] = x
    return g


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


def load_table(text: str, lo: LocalObjective) -> GradientTable:
    """Restore a checkpoint; the index stream is replayed to its counter.

    Restored tables are lean (stored points are not checkpointed).
    """
    lines = text.splitlines()
    if not lines or lines[0] != _DUMP_HEADER:
        raise InvalidArgumentError("not a gradient-table checkpoint")
    agent_id, q, dim, seed, draws = (int(v) for v in lines[1].split(","))
    if q != lo.q or dim != lo.dim:
        raise InvalidArgumentError("checkpoint does not match the local objective")
    t = _single(np.array([[float(v) for v in lines[2 + h].split(",")]
                          for h in range(q)]), seed, agent_id)
    t.grad_sum[:] = [float(v) for v in lines[2 + q].split(",")]
    t._tables._replay(0, draws)
    return t
