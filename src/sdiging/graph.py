"""Undirected topologies, doubly stochastic mixing matrices, spectral data.

Agents are numbered 1..m in topologies and edge-list files; matrices are
0-indexed numpy arrays.  Each mixing matrix's spectrum is computed once,
at construction; every spectral quantity is read from it.  The operator
the round multiplies by, dense or CSR, is derived once, on first use.
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

_GNP_MAX_RETRIES = 1000

TOPOLOGY_KINDS = ("ring", "complete", "random_gnp")


@dataclass(frozen=True)
class Topology:
    """A connected undirected graph on agents 1..m (no explicit self-loops)."""

    m: int
    edges: frozenset
    retries: int = 0

    def degrees(self):
        """Degree of each agent as an int array indexed 0..m-1."""
        return np.bincount(_edge_array(self.edges).ravel(), minlength=self.m)

    def to_edge_list_text(self) -> str:
        """Serialize as: first line ``m``, then one ``i j`` line per edge."""
        lines = [str(self.m)]
        for i, j in sorted(self.edges):
            lines.append(f"{i} {j}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_edge_list_text(text: str) -> "Topology":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InvalidArgumentError("empty edge-list text")
        m = int(lines[0])
        edges = set()
        for ln in lines[1:]:
            i, j = (int(tok) for tok in ln.split())
            if not (1 <= i <= m and 1 <= j <= m) or i == j:
                raise InvalidArgumentError(f"bad edge line: {ln!r}")
            edges.add((min(i, j), max(i, j)))
        topo = Topology(m=m, edges=frozenset(edges))
        if not _is_connected(m, edges):
            raise InvalidArgumentError("edge list describes a disconnected graph")
        return topo


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weight matrix with positive spectrum."""

    w: np.ndarray
    eig_w: np.ndarray          # sorted ascending
    laziness: float            # blend level actually used
    topology: Topology

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @cached_property
    def operator(self):
        """What the round multiplies by: ``w`` itself, or a CSR copy of it
        when the graph is large and sparse (both give an ndarray from ``@``)."""
        # CSR iff m >= 200 and nnz <= m^2/20: the measured W@X crossover at n=4
        if self.m >= 200 and 20 * np.count_nonzero(self.w) <= self.m ** 2:
            from scipy.sparse import csr_array
            return csr_array(self.w)
        return self.w

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


def _edge_array(edges) -> np.ndarray:
    """The edges as a (k, 2) array of 0-based agent indices."""
    return np.array(list(edges), dtype=int).reshape(-1, 2) - 1


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _is_connected(m, edges) -> bool:
    uf = _UnionFind(m)
    for i, j in edges:
        uf.union(i - 1, j - 1)
    root = uf.find(0)
    return all(uf.find(k) == root for k in range(m))


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
        edges = {(i, i + 1) for i in range(1, m)} | {(1, m)} if m > 2 else {(1, 2)}
        return Topology(m=m, edges=frozenset(edges))
    if kind == "complete":
        edges = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
        return Topology(m=m, edges=frozenset(edges))
    if kind == "random_gnp":
        if p is None or not (0.0 < p <= 1.0):
            raise InvalidArgumentError(f"random_gnp needs 0 < p <= 1, got {p}")
        for attempt in range(_GNP_MAX_RETRIES):
            rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, attempt])
            edges = set()
            for i in range(1, m + 1):
                # one uniform per pair (i, j > i), in the per-pair draw order
                hits = np.flatnonzero(rng.random(m - i) < p)
                edges.update((i, i + 1 + int(k)) for k in hits)
            if _is_connected(m, edges):
                return Topology(m=m, edges=frozenset(edges), retries=attempt)
        raise ConstructionFailure(
            f"no connected G({m}, {p}) sample in {_GNP_MAX_RETRIES} retries"
        )
    raise InvalidArgumentError(f"unknown topology kind {kind!r}")


def metropolis_weights(t: Topology, laziness: float = 0.1) -> MixingMatrix:
    """Metropolis-Hastings mixing matrix, lazily blended with the identity.

    Edge weights are 1/(1 + max(deg_i, deg_j)); the self-weight absorbs the
    remainder so each row sums to one.  The returned matrix is
    ``laziness * I + (1 - laziness) * W_raw``.  If the blend still has a
    non-positive eigenvalue, laziness is raised through 0.1, 0.2, ..., 0.5
    until the spectrum is strictly positive; the level used is recorded on
    the result.  An eigenvalue within 1e-9 of zero counts as zero, so that
    rounding noise about an exact zero cannot decide the level.
    """
    if not (0.0 <= laziness < 1.0):
        raise InvalidArgumentError(f"laziness must be in [0, 1), got {laziness}")
    if not _is_connected(t.m, t.edges):
        raise InvalidArgumentError("topology is disconnected")

    m = t.m
    deg = t.degrees()
    i, j = _edge_array(t.edges).T
    w_raw = np.zeros((m, m))
    w_raw[i, j] = w_raw[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(w_raw, 1.0 - w_raw.sum(axis=1))

    # The blend's spectrum is lz + (1 - lz) * eig(W_raw), in the same order,
    # so one decomposition serves every laziness level.
    eig_raw = np.linalg.eigvalsh(w_raw)
    candidates = [laziness] + [lz for lz in _LAZINESS_LADDER if lz > laziness]
    for lz in candidates:
        eig = lz + (1.0 - lz) * eig_raw
        if eig[0] > _ZERO_EIG_RTOL:
            w = w_raw                       # blended in place, bit-identical
            w *= 1.0 - lz                   # to lz * I + (1 - lz) * w_raw
            w[np.diag_indices(m)] += lz
            return MixingMatrix(w=w, eig_w=eig, laziness=lz, topology=t)
    raise ConstructionFailure("could not make the spectrum positive by laziness 0.5")
