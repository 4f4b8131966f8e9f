import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sdiging import graph, saga
from sdiging.objectives import LocalObjective, quadratic_family


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=2, max_value=15),
       p=st.floats(min_value=0.3, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_mixing_matrix_invariants(m, p, seed):
    t = graph.build_topology("random_gnp", m, p=p, seed=seed)
    w = graph.metropolis_weights(t)
    ones = np.ones(m)
    assert np.abs(w.w @ ones - ones).max() < 1e-12
    assert np.abs(ones @ w.w - ones).max() < 1e-12
    assert np.abs(w.w - w.w.T).max() == 0.0
    assert w.rho_min > 0.0
    assert abs(w.eig_w[-1] - 1.0) < 1e-12
    assert w.rho2_l > 0.0


@settings(max_examples=30, deadline=None)
@given(q=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       n_scrambles=st.integers(min_value=0, max_value=8))
def test_saga_unbiased_for_arbitrary_table_state(q, seed, n_scrambles):
    prob = quadratic_family(1, q, 2, (1.0, 3.0), seed=seed)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(2)
    grads = np.concatenate([prob.drawn_gradients(x0[None], np.array([h]))
                            for h in range(1, q + 1)])
    t = saga.GradientTables(grads[None], [q], seed, [0])

    def estimate(tables, x, idx):
        fresh = prob.drawn_gradients(x[None], np.array([idx]))
        return tables.update(np.array([idx]), fresh)[0]

    for _ in range(n_scrambles):
        estimate(t, rng.standard_normal(2), int(t.draw()[0]))
    x = rng.standard_normal(2)
    acc = np.zeros(2)
    for idx in range(1, q + 1):
        acc += estimate(copy.deepcopy(t), x, idx)
    ref = LocalObjective(prob, 0).full_gradient(x)
    assert np.linalg.norm(acc / q - ref) <= 1e-12 * (1 + np.linalg.norm(ref))
    t.check_sums()
