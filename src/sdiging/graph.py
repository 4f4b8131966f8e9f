"""Undirected topologies, doubly stochastic mixing matrices, spectral data.

Agents are numbered 1..m in ``Topology.edges`` and edge-list files; edge
arrays and matrices are 0-indexed numpy arrays.  A topology's connectivity
is checked once, by a union-find over its edges.  A mixing matrix stores
one form, the operator the round multiplies by: the dense W, or its CSR
form assembled from the edges.  Its laziness is chosen by a Cholesky
positivity test, not by a decomposition; its spectrum is computed once,
when first read, and the dense ``w`` is derived on demand.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from sdiging.errors import ConstructionFailure, InvalidArgumentError

# Relative tolerance, against the spectral radius, for classifying an
# eigenvalue of W or L as zero (W's spectral radius is 1).
_ZERO_EIG_RTOL = 1e-9

# Lazy-blend levels tried, in order, when the raw spectrum is not positive.
_LAZINESS_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5)

# Rows of one diagonal block in the blocked Cholesky positivity test: a
# memory bound, not a tuning knob.  Its largest temporary is a 64 x m block
# (0.5 MB at m = 1000); np.linalg.cholesky of all of W would hold two more
# m x m copies besides its input.
_CHOLESKY_ROWS = 64
_LANCZOS_STEPS = 20     # of the bound that drops levels certain to fail

_GNP_MAX_RETRIES = 1000

# Most uniforms one G(m, p) draw call holds: a memory bound (512 KB), not
# a tuning knob; all m(m-1)/2 at once would take 400 MB at m = 10^4.
_GNP_DRAW_FLOATS = 1 << 16

TOPOLOGY_KINDS = ("ring", "complete", "random_gnp")


@dataclass(frozen=True, eq=False)
class Topology:
    """An undirected graph on agents 1..m (no explicit self-loops).

    ``edge_array`` holds one row (i, j), i < j, of 0-based agent indices per
    edge, in lexicographic order.
    """

    m: int
    edge_array: np.ndarray
    retries: int = 0

    @property
    def edges(self) -> frozenset:
        """The edges as 1-based ``(i, j)`` tuples, i < j."""
        return frozenset(map(tuple, (self.edge_array + 1).tolist()))

    @cached_property
    def connected(self) -> bool:
        """Whether the edges join all m agents; checked once per topology."""
        # plain int pairs: one list per edge would be thousands of
        # GC-tracked objects
        return _is_connected(self.m, zip(*(self.edge_array + 1).T.tolist()))

    def degrees(self):
        """Degree of each agent as an int array indexed 0..m-1."""
        return np.bincount(self.edge_array.ravel(), minlength=self.m)

    def to_edge_list_text(self) -> str:
        """Serialize as: first line ``m``, then one ``i j`` line per edge."""
        lines = [str(self.m)]
        for i, j in (self.edge_array + 1).tolist():
            lines.append(f"{i} {j}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_edge_list_text(text: str) -> "Topology":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InvalidArgumentError("empty edge-list text")
        try:
            m = int(lines[0])
        except ValueError:
            raise InvalidArgumentError(
                f"bad agent count line: {lines[0]!r}") from None
        if m < 2:
            raise InvalidArgumentError(f"need at least 2 agents, got m={m}")
        pairs = []
        for ln in lines[1:]:
            try:        # two integer tokens
                i, j = (int(tok) for tok in ln.split())
            except ValueError:
                raise InvalidArgumentError(f"bad edge line: {ln!r}") from None
            if not (1 <= i <= m and 1 <= j <= m) or i == j:
                raise InvalidArgumentError(f"bad edge line: {ln!r}")
            pairs.append((i - 1, j - 1))
        topo = Topology(m=m, edge_array=_sorted_pairs(pairs))
        if not topo.connected:
            raise InvalidArgumentError("edge list describes a disconnected graph")
        return topo


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Symmetric doubly stochastic weight matrix with positive spectrum: the
    Metropolis weights of ``topology`` blended with the identity at
    ``laziness``.

    ``operator`` is its only stored form and what the round multiplies by:
    the dense W, or a CSR copy of it when the graph is large and sparse
    (both give an ndarray from ``@``).  Compared and hashed by identity, as
    ``Topology`` is: its fields are arrays."""

    operator: object           # np.ndarray or scipy.sparse.csr_array
    laziness: float            # blend level actually used
    topology: Topology

    @classmethod
    def from_dense(cls, w: np.ndarray, laziness: float,
                   topology: Topology) -> "MixingMatrix":
        """Hold the dense ``w``, a blend of ``topology``'s Metropolis weights,
        in the form the round multiplies by.  The spectrum is read from
        ``topology`` and ``laziness``, not from ``w``."""
        m = topology.m
        # CSR iff m >= 200 and nnz <= m^2/20: the measured W@X crossover at n=4
        if m >= 200 and 20 * (2 * len(topology.edge_array) + m) <= m ** 2:
            w = _csr(w, topology)
        return cls(operator=w, laziness=laziness, topology=topology)

    @property
    def m(self) -> int:
        return self.topology.m

    @property
    def w(self) -> np.ndarray:
        """The dense W: the operator itself, or a new copy of the CSR form."""
        op = self.operator
        return op if isinstance(op, np.ndarray) else op.toarray()

    @cached_property
    def eig_w(self) -> np.ndarray:
        """Spectrum of W, ascending: lz + (1 - lz) * eig(W_raw), with W_raw
        rebuilt from the topology; decomposed once, on first read."""
        lz = self.laziness
        return lz + (1.0 - lz) * np.linalg.eigvalsh(_metropolis_raw(self.topology))

    @property
    def rho_min(self) -> float:
        return float(self.eig_w[0])

    @property
    def rho2_l(self) -> float:
        """Second-smallest eigenvalue of L = I - W, from eig(L) = 1 - eig(W).

        A connected graph gives L exactly one zero eigenvalue (relative
        tolerance 1e-9 against L's spectral radius); anything else raises.
        """
        eig_l = 1.0 - self.eig_w[::-1]          # ascending
        radius = max(abs(eig_l[0]), abs(eig_l[-1]), 1.0)
        n_zero = int(np.sum(np.abs(eig_l) <= _ZERO_EIG_RTOL * radius))
        if n_zero != 1:
            raise InvalidArgumentError(
                f"expected exactly one zero eigenvalue of L, found {n_zero}")
        return float(eig_l[1])

    def to_csv(self) -> str:
        """Row-major CSV with 17 significant digits."""
        buf = io.StringIO()
        np.savetxt(buf, self.w, fmt="%.17g", delimiter=",")
        return buf.getvalue()


def _csr(w: np.ndarray, t: Topology):
    """``csr_array(w)`` for a blend ``w`` of ``t``'s Metropolis weights,
    gathered only where it is nonzero: at every edge, both ways, and on the
    diagonal, 2k + m distinct places, instead of all m^2 entries; scipy's
    COO to CSR conversion orders each row's columns."""
    from scipy.sparse import coo_array
    i, j = t.edge_array.T.astype(np.int32)
    diag = np.arange(t.m, dtype=np.int32)
    rows, cols = np.concatenate([i, j, diag]), np.concatenate([j, i, diag])
    return coo_array((w[rows, cols], (rows, cols)), shape=w.shape).tocsr()


def _sorted_pairs(pairs) -> np.ndarray:
    """The distinct undirected pairs as a ``Topology.edge_array``."""
    pairs = np.sort(np.array(pairs, dtype=np.intp).reshape(-1, 2), axis=1)
    return np.unique(pairs, axis=0)


def _is_connected(m, edges) -> bool:
    """Whether the 1-based pairs ``edges`` join agents 1..m into one set:
    a union-find with path halving, which stops at the edge that makes the
    (m - 1)-th join."""
    parent = list(range(m + 1))         # indexed by agent; 0 is unused
    apart = m - 1
    for a, b in edges:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            apart -= 1
            if apart == 0:
                break
    return apart == 0


def build_topology(kind: str, m: int, p: float | None = None, seed: int = 0) -> Topology:
    """Build a connected topology.

    Parameters
    ----------
    kind : one of ``TOPOLOGY_KINDS``
    m : number of agents, >= 2
    p : edge probability, required for ``random_gnp``
    seed : base seed; ``random_gnp`` derives a fresh stream per retry

    Raises
    ------
    InvalidArgumentError
        If m < 2, p is out of range, or kind is unknown.
    ConstructionFailure
        If 1000 consecutive G(m, p) draws are disconnected.
    """
    if m < 2:
        raise InvalidArgumentError(f"need at least 2 agents, got m={m}")
    if kind == "ring":
        i = np.arange(m)
        return Topology(m=m, edge_array=_sorted_pairs(
            np.column_stack([i, (i + 1) % m])))
    if kind == "complete":
        return Topology(m=m, edge_array=np.column_stack(np.triu_indices(m, 1)))
    if kind == "random_gnp":
        if p is None or not (0.0 < p <= 1.0):
            raise InvalidArgumentError(f"random_gnp needs 0 < p <= 1, got {p}")
        # One uniform per pair (i, j > i), row by row: pair (i, j) is draw
        # start[i] + j - i - 1, taken _GNP_DRAW_FLOATS at a time.
        start = np.concatenate(([0], np.cumsum(np.arange(m - 1, 0, -1))))
        total, step = int(start[-1]), _GNP_DRAW_FLOATS
        for attempt in range(_GNP_MAX_RETRIES):
            rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, attempt])
            hits = np.concatenate([
                a + np.flatnonzero(rng.random(min(step, total - a)) < p)
                for a in range(0, total, step)])
            i = np.searchsorted(start, hits, side="right") - 1
            topo = Topology(m=m, edge_array=np.column_stack(
                [i, hits - start[i] + i + 1]), retries=attempt)
            if topo.connected:
                return topo
        raise ConstructionFailure(
            f"no connected G({m}, {p}) sample in {_GNP_MAX_RETRIES} retries"
        )
    raise InvalidArgumentError(f"unknown topology kind {kind!r}")


def _metropolis_edges(t: Topology):
    """Edge end points ``i``, ``j`` and weights 1/(1 + max(deg_i, deg_j))."""
    deg, (i, j) = t.degrees(), t.edge_array.T
    return i, j, 1.0 / (1.0 + np.maximum(deg[i], deg[j]))


def _metropolis_raw(t: Topology) -> np.ndarray:
    """Dense Metropolis-Hastings weights of ``t``, before any blend."""
    m = t.m
    i, j, w_e = _metropolis_edges(t)
    w_raw = np.zeros((m, m))
    w_raw[i, j] = w_raw[j, i] = w_e
    np.fill_diagonal(w_raw, 1.0 - w_raw.sum(axis=1))
    return w_raw


def _lanczos_bound(t: Topology) -> float:
    """An upper bound on lambda_min(W_raw), the same bits on every call: the
    Rayleigh quotient at the lowest Ritz vector of _LANCZOS_STEPS Lanczos
    steps from a fixed start, fully reorthogonalized.  W_raw is applied
    through the edges; its diagonal, summed edge by edge, is W_raw's to a
    few ulps."""
    i, j, w_e = _metropolis_edges(t)
    diag = 1.0 - (np.bincount(i, w_e, t.m) + np.bincount(j, w_e, t.m))

    def apply(v):
        return (diag * v + np.bincount(i, w_e * v[j], t.m)
                + np.bincount(j, w_e * v[i], t.m))

    k = min(_LANCZOS_STEPS, t.m)
    q, tri = np.zeros((k, t.m)), np.zeros((k, k))
    v = np.random.default_rng(0).standard_normal(t.m)
    q[0] = v / np.linalg.norm(v)
    for s in range(k):
        u = apply(q[s])
        tri[s, s] = q[s] @ u
        for _ in range(2):                  # twice is enough
            u -= q[:s + 1].T @ (q[:s + 1] @ u)
        beta = np.linalg.norm(u)
        if s + 1 == k or beta <= 1e-12:     # done, or an invariant subspace
            break
        tri[s, s + 1] = tri[s + 1, s] = beta
        q[s + 1] = u / beta
    y = np.linalg.eigh(tri[:s + 1, :s + 1])[1][:, 0] @ q[:s + 1]
    return float(y @ apply(y) / (y @ y))


def _positive_definite(a: np.ndarray, scale: float, shift: float) -> bool:
    """Whether ``scale * a + shift * I`` is positive definite, for a
    symmetric ``a``, which is overwritten.

    A blocked Cholesky factorization, in place in the lower triangle: each
    diagonal block of at most _CHOLESKY_ROWS rows is factored, and its
    Schur complement update is applied to the rows below it (the last block
    has none), through the inverse of its factor, cheaper than a solve.
    """
    m, k = len(a), _CHOLESKY_ROWS
    a *= scale
    a[np.diag_indices(m)] += shift
    for s in range(0, m, k):
        e = s + k
        try:
            lead = np.linalg.cholesky(a[s:e, s:e])
        except np.linalg.LinAlgError:
            return False
        if e < m:
            x = np.linalg.inv(lead) @ a[e:, s:e].T      # L^-1 C
            d = a[e:, e:]                               # D, a view
            for r in range(0, m - e, k):                # D -= C^T B^-1 C
                d[r:r + k, :r + k] -= x[:, r:r + k].T @ x[:, :r + k]
    return True


def metropolis_weights(t: Topology, laziness: float = 0.1) -> MixingMatrix:
    """Metropolis-Hastings mixing matrix, lazily blended with the identity.

    Edge weights are 1/(1 + max(deg_i, deg_j)); the self-weight absorbs the
    remainder so each row sums to one.  The returned matrix is
    ``laziness * I + (1 - laziness) * W_raw``.  A level is accepted when
    ``(1 - lz) * W_raw + (lz - 1e-9) * I`` is positive definite, that is,
    when the blend's smallest eigenvalue exceeds 1e-9, so that rounding noise
    about an exact zero cannot decide the level.  If the requested level
    fails, laziness is raised through 0.1, 0.2, ..., 0.5; the level used is
    recorded on the result.  The test is a Cholesky factorization, so no
    spectrum is computed here: ``MixingMatrix.eig_w`` computes it when read.
    Beyond _CHOLESKY_ROWS agents, a Lanczos bound rq >= lambda_min(W_raw)
    drops the levels that must fail, so that usually only the level used is
    factored.  The last level, 0.5 or more, needs no test: s_ii >= 1/(1 + d_i)
    gives lambda_min(W_raw) >= 2/(1 + d_max) - 1 (Gershgorin), so its blend
    has lambda_min >= 1/(1 + d_max) >= 1/m > 1e-9, and the screen keeps it,
    as (1 - lz) * rq + lz >= 2 lz - 1 >= 0.
    """
    if not (0.0 <= laziness < 1.0):
        raise InvalidArgumentError(f"laziness must be in [0, 1), got {laziness}")
    if not t.connected:
        raise InvalidArgumentError("topology is disconnected")

    candidates = [laziness] + [lz for lz in _LAZINESS_LADDER if lz > laziness]
    if t.m > _CHOLESKY_ROWS:
        rq = _lanczos_bound(t)      # a blend negative at rq must fail
        candidates = [lz for lz in candidates
                      if (1.0 - lz) * rq + lz >= -_ZERO_EIG_RTOL]
    # the test overwrites its copy of W_raw; the last level needs none
    lz = next((lz for lz in candidates[:-1] if _positive_definite(
        _metropolis_raw(t), 1.0 - lz, lz - _ZERO_EIG_RTOL)), candidates[-1])
    w = _metropolis_raw(t)
    w *= 1.0 - lz                   # blended in place, bit-identical
    w[np.diag_indices(t.m)] += lz   # to lz * I + (1 - lz) * w_raw
    return MixingMatrix.from_dense(w, lz, t)
