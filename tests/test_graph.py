import tracemalloc

import numpy as np
import pytest

from sdiging import graph
from sdiging.errors import ConstructionFailure, InvalidArgumentError


def test_ring_m4_edges():
    t = graph.build_topology("ring", 4, seed=7)
    assert t.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})


def test_complete_m3_edges():
    t = graph.build_topology("complete", 3, seed=0)
    assert t.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_ring_m2_single_edge():
    t = graph.build_topology("ring", 2, seed=0)
    assert t.edges == frozenset({(1, 2)})


def test_m_below_two_rejected():
    with pytest.raises(InvalidArgumentError):
        graph.build_topology("ring", 1, seed=0)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidArgumentError):
        graph.build_topology("torus", 4, seed=0)


def test_gnp_requires_p():
    with pytest.raises(InvalidArgumentError):
        graph.build_topology("random_gnp", 10, seed=0)


def test_gnp_is_connected_and_deterministic():
    t1 = graph.build_topology("random_gnp", 10, p=0.4, seed=42)
    t2 = graph.build_topology("random_gnp", 10, p=0.4, seed=42)
    assert t1.edges == t2.edges
    assert graph._is_connected(t1.m, t1.edges)


def bfs_connected(m, edges):
    """Whether the 1-based pairs ``edges`` join agents 1..m: a breadth-first
    walk from agent 1, independent of the union-find under test."""
    adjacent = {a: set() for a in range(1, m + 1)}
    for i, j in edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    seen, frontier = {1}, [1]
    while frontier:
        frontier = [b for a in frontier for b in adjacent[a] - seen]
        seen.update(frontier)
    return len(seen) == m


@pytest.mark.parametrize("m, edges, connected", [
    (4, [(1, 2), (2, 3)], False),                   # agent 4 isolated
    (4, [(1, 2), (3, 4)], False),                   # two components
    (2, [], False),
    (3, [(1, 2), (2, 1), (1, 2)], False),           # duplicates of one pair
    (3, [(1, 2), (1, 2), (2, 3), (3, 2)], True),
    (5, [(1, 2), (4, 5), (2, 3), (3, 1), (3, 4)], True),  # spanning edge last
    (5, [(1, 2), (4, 5), (2, 3), (3, 1)], False),
    (2, [(1, 2)], True),
    (6, [(6, 5), (5, 4), (4, 3), (3, 2), (2, 1)], True),
])
def test_is_connected_matches_breadth_first_walk(m, edges, connected):
    assert graph._is_connected(m, iter(edges)) == bfs_connected(m, edges) \
        == connected


def test_gnp_mean_edge_count_matches_rejection_oracle():
    # Oracle: rejection-sample connected G(10, 0.4) graphs with an
    # independent sampler and compare mean edge counts at 3 s.e.
    m, p, n_samples = 10, 0.4, 800
    built = [len(graph.build_topology("random_gnp", m, p=p, seed=s).edges)
             for s in range(n_samples)]

    rng = np.random.default_rng(987654321)
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    oracle = []
    while len(oracle) < n_samples:
        mask = rng.random(len(pairs)) < p
        edges = {pairs[k] for k in range(len(pairs)) if mask[k]}
        if bfs_connected(m, edges):
            oracle.append(len(edges))
    se = np.std(oracle, ddof=1) / np.sqrt(n_samples)
    assert abs(np.mean(built) - np.mean(oracle)) < 3.0 * np.sqrt(2.0) * se


def per_draw_gnp(m, p, seed):
    """G(m, p) with one scalar uniform per pair, retried on a fresh stream
    until connected: the sampler's reference draw order."""
    for attempt in range(1000):
        rng = np.random.default_rng([seed, attempt])
        edges = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < p}
        if graph._is_connected(m, edges):
            return edges, attempt
    raise AssertionError("no connected sample")


@pytest.mark.parametrize("m, p, seed, retries", [
    (1000, 0.02, 3, 0), (1000, 0.02, 7, 0), (20, 0.4, 3, 0),
    (50, 0.05, 1, 3), (12, 0.15, 4, 2),
    (400, 0.013, 3, 1)])     # 79 800 pairs: each attempt spans two draws
def test_gnp_edges_match_per_draw_sampling(m, p, seed, retries):
    t = graph.build_topology("random_gnp", m, p=p, seed=seed)
    assert (t.edges, t.retries) == (frozenset(per_draw_gnp(m, p, seed)[0]),
                                    retries)


@pytest.mark.parametrize("floats", [1, 7, 48, 100])
def test_gnp_edges_match_per_draw_sampling_in_small_draws(monkeypatch, floats):
    # draw calls that end inside a row, and rows that span several calls
    monkeypatch.setattr(graph, "_GNP_DRAW_FLOATS", floats)
    t = graph.build_topology("random_gnp", 50, p=0.05, seed=1)
    assert (t.edges, t.retries) == (frozenset(per_draw_gnp(50, 0.05, 1)[0]), 3)
    assert np.array_equal(t.edge_array, np.array(sorted(t.edges)) - 1)


def test_gnp_draws_are_bounded_in_memory():
    # all 8 M uniforms of G(4000, p) at once would take 64 MB
    tracemalloc.start()
    try:
        graph.build_topology("random_gnp", 4000, p=0.002, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_gnp_retry_exhaustion():
    # p so small that a connected sample on m=30 essentially never appears
    with pytest.raises(ConstructionFailure):
        graph.build_topology("random_gnp", 30, p=0.001, seed=1)


def test_metropolis_m2_complete():
    # Symmetry forces equal raw weights 0.5; the raw blend has eigenvalue 0,
    # so the positivity ladder lifts laziness to 0.1 and the returned matrix
    # is the corresponding blend of [[.5,.5],[.5,.5]] with the identity.
    t = graph.build_topology("complete", 2, seed=0)
    w = graph.metropolis_weights(t, laziness=0.0)
    assert w.laziness == pytest.approx(0.1)
    raw = (w.w - w.laziness * np.eye(2)) / (1.0 - w.laziness)
    assert np.allclose(raw, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
    assert w.rho_min > 0.0


def test_metropolis_ring4_raw_spectrum_and_lazification():
    # Raw ring-of-4 weights are 1/3 everywhere relevant; the circulant
    # eigenvalues are {1, 1/3, 1/3, -1/3} (frozen from the characteristic
    # polynomial of circ(1/3, 1/3, 0, 1/3)), so laziness must rise.
    t = graph.build_topology("ring", 4, seed=0)
    deg = t.degrees()
    assert list(deg) == [2, 2, 2, 2]
    w_raw = np.full((4, 4), 0.0)
    for i, j in t.edges:
        w_raw[i - 1, j - 1] = w_raw[j - 1, i - 1] = 1.0 / 3.0
    np.fill_diagonal(w_raw, 1.0 / 3.0)
    raw_eigs = np.sort(np.linalg.eigvalsh(w_raw))
    assert np.allclose(raw_eigs, [-1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-12)

    w = graph.metropolis_weights(t, laziness=0.0)
    assert w.laziness == pytest.approx(0.3)
    assert w.rho_min > 0.0
    expect = 0.3 * np.eye(4) + 0.7 * w_raw
    assert np.allclose(w.w, expect, atol=1e-15)


def test_laziness_half_always_positive():
    for kind, m in (("ring", 6), ("complete", 5)):
        t = graph.build_topology(kind, m, seed=0)
        w = graph.metropolis_weights(t, laziness=0.5)
        assert w.rho_min > 0.0
        assert w.laziness == pytest.approx(0.5)


def test_doubly_stochastic_and_symmetric():
    for kind, m, p in (("ring", 4, None), ("complete", 6, None),
                       ("random_gnp", 12, 0.4)):
        t = graph.build_topology(kind, m, p=p, seed=5)
        w = graph.metropolis_weights(t)
        ones = np.ones(w.m)
        assert np.abs(w.w @ ones - ones).max() < 1e-12
        assert np.abs(ones @ w.w - ones).max() < 1e-12
        assert np.abs(w.w - w.w.T).max() == 0.0
        assert np.all(np.diag(w.w) > 0.0)


def test_sparsity_pattern_matches_topology():
    t = graph.build_topology("random_gnp", 9, p=0.35, seed=11)
    w = graph.metropolis_weights(t)
    for i in range(9):
        for j in range(i + 1, 9):
            on_edge = (i + 1, j + 1) in t.edges
            assert (w.w[i, j] > 0.0) == on_edge


def test_disconnected_topology_rejected():
    t = graph.Topology(m=4, edge_array=np.array([[0, 1], [2, 3]]))
    with pytest.raises(InvalidArgumentError):
        graph.metropolis_weights(t)


@pytest.mark.parametrize("kind, m, p", [
    ("ring", 2, None), ("ring", 6, None), ("complete", 5, None),
    ("random_gnp", 30, 0.3)])
def test_edge_array_is_sorted_edges(kind, m, p):
    t = graph.build_topology(kind, m, p=p, seed=2)
    assert t.edge_array.shape == (len(t.edges), 2)
    assert t.edge_array.tolist() == [[i - 1, j - 1] for i, j in sorted(t.edges)]


def test_connectivity_checked_once_per_topology(monkeypatch):
    calls = []
    is_connected = graph._is_connected
    monkeypatch.setattr(graph, "_is_connected",
                        lambda m, e: calls.append(m) or is_connected(m, e))
    t = graph.build_topology("random_gnp", 12, p=0.15, seed=4)
    graph.metropolis_weights(t)
    graph.metropolis_weights(t, laziness=0.3)
    assert len(calls) == t.retries + 1 == 3


def test_spectral_m2_analytic():
    # 2x2 analytic case: for W = [[.5,.5],[.5,.5]], L has eigenvalues {0, 1}.
    t = graph.build_topology("complete", 2, seed=0)
    w_half = np.full((2, 2), 0.5)
    w = graph.MixingMatrix.from_dense(w_half, laziness=0.0, topology=t)
    assert np.allclose(np.linalg.eigvalsh(np.eye(2) - w.w), [0.0, 1.0],
                       atol=1e-14)
    assert w.rho2_l ** 2 == pytest.approx(1.0, abs=1e-14)


def test_spectral_ring4_charpoly_oracle():
    # Independent oracle at m=4: roots of the characteristic polynomial
    # of L = I - W via np.poly / np.roots.
    t = graph.build_topology("ring", 4, seed=0)
    w = graph.metropolis_weights(t)
    roots = np.sort(np.real(np.roots(np.poly(np.eye(4) - w.w))))
    assert abs(roots[0]) < 1e-9
    assert w.rho2_l == pytest.approx(roots[1], abs=1e-9)
    assert w.rho2_l ** 2 == pytest.approx(roots[1] ** 2, rel=1e-8)


def test_spectral_gap_probe_inequality():
    # x'Lx >= rho2(L) * ||x - mean(x) 1||^2 on random probes.
    t = graph.build_topology("random_gnp", 10, p=0.4, seed=3)
    w = graph.metropolis_weights(t)
    lmat = np.eye(10) - w.w
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(10)
        centered = x - x.mean()
        assert x @ lmat @ x >= w.rho2_l * (centered @ centered) - 1e-9


def test_rho2_rejects_two_zero_laplacian_eigenvalues():
    # Two disconnected halves: W has eigenvalue 1 twice, so L has two zeros.
    half = np.full((2, 2), 0.5)
    w_two = np.block([[half, np.zeros((2, 2))], [np.zeros((2, 2)), half]])
    t = graph.Topology(m=4, edge_array=np.array([[0, 1], [2, 3]]))
    w = graph.MixingMatrix.from_dense(w_two, laziness=0.0, topology=t)
    with pytest.raises(InvalidArgumentError):
        w.rho2_l


def reference_raw(t):
    """Per-edge Metropolis weights W_raw, and the degrees."""
    m = t.m
    deg = [0] * m
    for i, j in t.edges:
        deg[i - 1] += 1
        deg[j - 1] += 1
    w_raw = np.zeros((m, m))
    for i, j in t.edges:
        wij = 1.0 / (1.0 + max(deg[i - 1], deg[j - 1]))
        w_raw[i - 1, j - 1] = wij
        w_raw[j - 1, i - 1] = wij
    np.fill_diagonal(w_raw, 1.0 - w_raw.sum(axis=1))
    return w_raw, deg


def reference_metropolis(t, laziness):
    """Per-edge weights, and one full decomposition of each blend tried."""
    m = t.m
    w_raw, deg = reference_raw(t)
    for lz in [laziness] + [z for z in (0.1, 0.2, 0.3, 0.4, 0.5) if z > laziness]:
        w = lz * np.eye(m) + (1.0 - lz) * w_raw
        if np.linalg.eigvalsh(w)[0] > 1e-9:
            return w, lz, deg
    raise AssertionError("no positive blend")


@pytest.mark.parametrize("kind, m, p, seed", [
    ("ring", 2, None, 0), ("ring", 4, None, 0), ("ring", 9, None, 0),
    ("ring", 20, None, 0), ("complete", 3, None, 0), ("complete", 7, None, 0),
    ("random_gnp", 20, 0.4, 3), ("random_gnp", 50, 0.1, 1),
    ("random_gnp", 5, 0.5, 6), ("random_gnp", 1000, 0.02, 3)])
def test_metropolis_matches_per_edge_reference(kind, m, p, seed):
    t = graph.build_topology(kind, m, p=p, seed=seed)
    for laziness in ((0.0, 0.1, 0.25) if m < 1000 else (0.1,)):
        w = graph.metropolis_weights(t, laziness=laziness)
        w_ref, lz_ref, deg_ref = reference_metropolis(t, laziness)
        assert list(t.degrees()) == deg_ref
        assert np.array_equal(w.w, w_ref)
        assert w.laziness == lz_ref
        assert np.abs(w.eig_w - np.linalg.eigvalsh(w.w)).max() < 1e-13
        rho2_ref = np.linalg.eigvalsh(np.eye(m) - w.w)[1]
        assert abs(w.rho2_l - rho2_ref) < 1e-12


def reference_laziness(t, laziness):
    """The eigenvalue ladder on one decomposition of W_raw: the first level
    lz whose blend has lz + (1 - lz) * lambda_min(W_raw) > 1e-9."""
    lam_min = np.linalg.eigvalsh(reference_raw(t)[0])[0]
    for lz in [laziness] + [z for z in (0.1, 0.2, 0.3, 0.4, 0.5) if z > laziness]:
        if lz + (1.0 - lz) * lam_min > 1e-9:
            return lz
    raise AssertionError("no positive blend")


PARITY_GRAPHS = [
    ("ring", 2, None, 0), ("ring", 3, None, 0), ("ring", 4, None, 0),
    ("ring", 7, None, 0), ("ring", 64, None, 0), ("ring", 513, None, 0),
    ("ring", 600, None, 0), ("ring", 1000, None, 0), ("ring", 1001, None, 0),
    ("complete", 2, None, 0), ("complete", 3, None, 0),
    ("complete", 10, None, 0), ("complete", 100, None, 0),
    ("complete", 513, None, 0), ("complete", 600, None, 0),
    ("random_gnp", 5, 0.5, 6), ("random_gnp", 12, 0.3, 1),
    ("random_gnp", 20, 0.4, 3), ("random_gnp", 50, 0.1, 1),
    ("random_gnp", 200, 0.05, 2), ("random_gnp", 300, 0.03, 0),
    ("random_gnp", 300, 0.05, 0), ("random_gnp", 520, 0.02, 1),
    ("random_gnp", 600, 0.02, 3), ("random_gnp", 1000, 0.02, 3),
    ("random_gnp", 1000, 0.02, 4)]


@pytest.mark.parametrize("kind, m, p, seed", PARITY_GRAPHS)
def test_cholesky_laziness_matches_eigenvalue_ladder(kind, m, p, seed):
    # Beyond 64 agents the test factors 64-row blocks, each followed by its
    # Schur complement update, with a shorter last block at m = 513, 520,
    # 600 and 1000, after the Lanczos bound has dropped the levels that
    # must fail.  An even ring at 0.25 and a complete graph at 0 have an
    # exact zero eigenvalue in the blend, which must not pass.
    t = graph.build_topology(kind, m, p=p, seed=seed)
    for laziness in (0.0, 0.1, 0.25):
        got = graph.metropolis_weights(t, laziness=laziness).laziness
        assert got == reference_laziness(t, laziness)


@pytest.mark.parametrize("kind, m, p, seed", PARITY_GRAPHS)
def test_lanczos_bound_is_above_smallest_eigenvalue(kind, m, p, seed):
    # A Rayleigh quotient: never below lambda_min(W_raw), beyond rounding,
    # and the same bits on every call
    t = graph.build_topology(kind, m, p=p, seed=seed)
    rq = graph._lanczos_bound(t)
    assert rq >= np.linalg.eigvalsh(reference_raw(t)[0])[0] - 1e-12
    assert rq.hex() == graph._lanczos_bound(t).hex()


@pytest.mark.parametrize("kind, m, p, seed, laziness, used", [
    ("random_gnp", 1000, 0.02, 3, 0.1, 0.2),
    ("random_gnp", 1000, 0.02, 4, 0.1, 0.3),
    ("ring", 1000, None, 0, 0.1, 0.3)])
def test_laziness_is_chosen_with_one_factorization(monkeypatch, kind, m, p,
                                                   seed, laziness, used):
    # the Lanczos bound drops every level below the one used, unfactored
    calls = []
    positive_definite = graph._positive_definite
    monkeypatch.setattr(graph, "_positive_definite",
                        lambda *a: calls.append(1) or positive_definite(*a))
    t = graph.build_topology(kind, m, p=p, seed=seed)
    assert graph.metropolis_weights(t, laziness=laziness).laziness == used
    assert len(calls) == 1


@pytest.mark.parametrize("kind, m, p, seed, laziness, lifted_to", [
    ("complete", 3, None, 0, 0.0, 0.1), ("ring", 10, None, 0, 0.25, 0.3),
    ("random_gnp", 5, 0.5, 6, 0.1, 0.3)])
def test_exact_zero_eigenvalue_lifts_laziness(kind, m, p, seed, laziness,
                                              lifted_to):
    # Each blend has an exact zero eigenvalue (G(5, 0.5) seed 6 has raw
    # eigenvalue -1/4, so the 0.2 blend does); rounding noise of either sign
    # about that zero must not count as a positive spectrum.
    t = graph.build_topology(kind, m, p=p, seed=seed)
    w = graph.metropolis_weights(t, laziness=laziness)
    assert w.laziness == lifted_to
    assert w.rho_min > 1e-3


def test_metropolis_decomposes_once(monkeypatch, forbid_large_eigh):
    # ring(4) climbs the ladder from 0.0 to 0.3, and G(1000, 0.02) to 0.2,
    # without a decomposition beyond the Lanczos tridiagonal; the spectrum
    # is decomposed on its first read and kept.
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(1) or eigvalsh(a))
    for t, used in ((graph.build_topology("ring", 4), 0.3),
                    (graph.build_topology("random_gnp", 1000, 0.02, 3), 0.2)):
        calls.clear()
        w = graph.metropolis_weights(t, laziness=0.0)
        assert w.laziness == used
        assert len(calls) == 0
        first = w.eig_w
        assert len(calls) == 1
        assert w.eig_w is first
        assert len(calls) == 1


@pytest.mark.parametrize("kind, m, p, seed, csr", [
    ("random_gnp", 20, 0.4, 3, False),      # va2, 43% nonzero
    ("random_gnp", 10, 0.4, 9, False),      # localization compare
    ("random_gnp", 200, 0.1, 3, False),     # 10.7% nonzero
    ("random_gnp", 1000, 0.02, 3, True),    # 2.1% nonzero
    ("ring", 1000, None, 0, True)])
def test_operator_is_csr_only_when_large_and_sparse(kind, m, p, seed, csr):
    w = graph.metropolis_weights(graph.build_topology(kind, m, p=p, seed=seed))
    assert w.operator is w.operator             # built once per matrix
    if not csr:
        assert w.operator is w.w
        return
    from scipy.sparse import csr_array
    assert isinstance(w.operator, csr_array)
    ref = csr_array(reference_metropolis(w.topology, w.laziness)[0])
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(w.operator, part), getattr(ref, part))
    assert np.array_equal(w.w, ref.toarray())
    assert w.operator.nnz == np.count_nonzero(w.w)
    # the CSR is the matrix's only stored form
    assert not any(isinstance(v, np.ndarray) and v.ndim == 2
                   for v in vars(w).values())


@pytest.mark.parametrize("m, edges, csr", [
    (199, 199, False), (200, 900, True), (200, 901, False)])
def test_operator_rule_boundary(m, edges, csr):
    # CSR iff m >= 200 and nnz <= m^2/20, with nnz = 2 * edges + m: 2000 of
    # 40000 at 900 edges, 2002 at 901.  The first pairs in lexicographic
    # order join agent 1 to every other agent, so the graph is connected.
    pairs = np.column_stack(np.triu_indices(m, 1))[:edges]
    w = graph.metropolis_weights(graph.Topology(m=m, edge_array=pairs))
    assert np.count_nonzero(w.w) == 2 * edges + m
    assert (w.operator is not w.w) == csr


@pytest.mark.parametrize("kind, m, p, seed", [
    ("ring", 200, None, 0), ("ring", 1001, None, 0), ("complete", 200, None, 0),
    ("random_gnp", 200, 0.1, 3), ("random_gnp", 1000, 0.02, 3)])
def test_csr_from_topology_equals_csr_array(kind, m, p, seed):
    # at level 0 and at the level the ladder raises it to (every graph here
    # needs a lift); the complete graph is held dense, so its CSR is built
    # here only to check the assembly
    t = graph.build_topology(kind, m, p=p, seed=seed)
    w_raw = reference_raw(t)[0]
    lifted = reference_metropolis(t, 0.0)[1]
    assert lifted > 0.0
    from scipy.sparse import csr_array
    for lz in (0.0, lifted):
        w = lz * np.eye(m) + (1.0 - lz) * w_raw
        got, ref = graph._csr(w, t), csr_array(w)
        assert got.nnz == 2 * len(t.edge_array) + m
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(ref, part)
            assert a.dtype == b.dtype and np.array_equal(a, b), part


def test_eigendecomposition_reconstruction():
    t = graph.build_topology("random_gnp", 8, p=0.5, seed=9)
    w = graph.metropolis_weights(t)
    eig, vec = np.linalg.eigh(w.w)
    assert np.abs(vec @ np.diag(eig) @ vec.T - w.w).max() < 1e-10
    assert eig[-1] == pytest.approx(1.0, abs=1e-12)
    # eigenvector of eigenvalue 1 is parallel to the all-ones vector
    v1 = vec[:, -1]
    assert np.abs(np.abs(v1) - 1.0 / np.sqrt(8)).max() < 1e-10


def test_edge_list_round_trip():
    t = graph.build_topology("random_gnp", 7, p=0.5, seed=2)
    text = t.to_edge_list_text()
    back = graph.Topology.from_edge_list_text(text)
    assert back.m == t.m and back.edges == t.edges


def test_edge_list_rejects_bad_lines():
    with pytest.raises(InvalidArgumentError):
        graph.Topology.from_edge_list_text("3\n1 1\n")
    with pytest.raises(InvalidArgumentError):
        graph.Topology.from_edge_list_text("3\n1 4\n")
    with pytest.raises(InvalidArgumentError):
        # connected pair missing agent 3
        graph.Topology.from_edge_list_text("3\n1 2\n")


@pytest.mark.parametrize("m", [1, 0, -3])
def test_edge_list_needs_two_agents(m):
    # the same check and message as build_topology's
    with pytest.raises(InvalidArgumentError,
                       match=f"need at least 2 agents, got m={m}$"):
        graph.Topology.from_edge_list_text(f"{m}\n")


@pytest.mark.parametrize("text", [
    "3\n1 2 3\n", "3\n1\n", "3\n1 x\n", "3\n1 2.0\n",
    "three\n1 2\n", "3.0\n1 2\n"], ids=[
    "three_tokens", "one_token", "letter", "float_token", "word_m", "float_m"])
def test_edge_list_malformed_line_is_invalid_argument(text):
    # a wrong token count or a non-integer token or agent count is the
    # same documented error as an out-of-range edge, not a bare ValueError
    with pytest.raises(InvalidArgumentError, match="bad"):
        graph.Topology.from_edge_list_text(text)


def test_mixing_matrix_compares_and_hashes_by_identity():
    t = graph.build_topology("ring", 4, seed=0)
    a, b = graph.metropolis_weights(t), graph.metropolis_weights(t)
    assert np.array_equal(a.w, b.w)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_mixing_csv_full_precision():
    t = graph.build_topology("ring", 5, seed=0)
    w = graph.metropolis_weights(t)
    rows = w.to_csv().strip().splitlines()
    back = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.array_equal(back, w.w)
