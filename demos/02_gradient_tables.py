"""Variance-reduced stochastic gradients from a per-agent table.

Demonstrates the unbiasedness of the table-based estimator, the O(1)
running-sum bookkeeping, and checkpoint/restore with stream replay, on the
stacked tables the engine runs (here holding one agent).
"""

import copy

import numpy as np

from sdiging import engine, saga
from sdiging.objectives import quadratic_family

problem = quadratic_family(1, 5, 3, (1.0, 3.0), seed=2)     # one agent, q = 5
rng = np.random.default_rng(0)

# every slot evaluated at x0 = 0; the index stream is keyed by (seed, agent)
tables = engine.make_tables(problem, seed=42)
print(f"table holds {problem.q[0]} stored gradients of dimension "
      f"{problem.dim}")


def estimate(t, x, idx):
    """SAGA estimate at x from component idx (1-based); updates the table."""
    fresh = problem.drawn_gradients(x[None], np.array([idx]))
    return t.update(np.array([idx]), fresh)[0]


# scramble the table with a few updates, then check unbiasedness:
# averaging the estimator over every possible index recovers the
# full local gradient exactly
for _ in range(10):
    estimate(tables, rng.standard_normal(3), int(tables.draw()[0]))
x = rng.standard_normal(3)
acc = np.zeros(3)
q = int(problem.q[0])
for idx in range(1, q + 1):
    acc += estimate(copy.deepcopy(tables), x, idx)
full = problem.local_gradients(x[None])[0]
print(f"exhaustive average vs full gradient: "
      f"gap {np.linalg.norm(acc / q - full):.2e}")

# the cached running sum never drifts from the direct sum
for _ in range(2000):
    estimate(tables, rng.standard_normal(3), int(tables.draw()[0]))
drift = np.linalg.norm(tables.sums[0] - tables.grads[0].sum(axis=0))
print(f"running-sum drift after 2000 updates: {drift:.2e}")
tables.check_sums()

# a checkpoint is one agent's row of the tables with its stream position,
# so restored tables continue with exactly the draws the original makes
dump = saga.dump_table(tables, 0)
restored = saga.load_table(dump, problem, 0)
future_a = [int(tables.draw()[0]) for _ in range(8)]
future_b = [int(restored.draw()[0]) for _ in range(8)]
print(f"post-restore draws match: {future_a == future_b} ({future_a})")
