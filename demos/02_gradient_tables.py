"""Variance-reduced stochastic gradients from a per-agent table.

Demonstrates the unbiasedness of the table-based estimator, the O(1)
running-sum bookkeeping, and checkpoint/restore with stream replay, on the
stacked tables the engine runs (here holding one agent).
"""

import copy

import numpy as np

from sdiging import saga
from sdiging.objectives import full_local_gradient, quadratic_family

lo = quadratic_family(1, 5, 3, (1.0, 3.0), seed=2).locals[0]
rng = np.random.default_rng(0)

# every slot evaluated at x0 = 0; the index stream is keyed by (seed, agent)
grads = np.stack([c.gradient(np.zeros(3)) for c in lo.components])
tables = saga.GradientTables(grads[None], [lo.q], seed=42, agent_ids=[0])
print(f"table holds {tables[0].q} stored gradients of dimension "
      f"{tables[0].dim}")


def estimate(t, x, idx):
    """SAGA estimate at x from component idx (1-based); updates the table."""
    return t.update(np.array([idx]), lo.components[idx - 1].gradient(x)[None])[0]


# scramble the table with a few updates, then check unbiasedness:
# averaging the estimator over every possible index recovers the
# full local gradient exactly
for _ in range(10):
    estimate(tables, rng.standard_normal(3), int(tables.draw()[0]))
x = rng.standard_normal(3)
acc = np.zeros(3)
for idx in range(1, lo.q + 1):
    acc += estimate(copy.deepcopy(tables), x, idx)
full = full_local_gradient(lo, x)
print(f"exhaustive average vs full gradient: "
      f"gap {np.linalg.norm(acc / lo.q - full):.2e}")

# the cached running sum never drifts from the direct sum
for _ in range(2000):
    estimate(tables, rng.standard_normal(3), int(tables.draw()[0]))
drift = np.linalg.norm(tables.sums[0] - tables.grads[0].sum(axis=0))
print(f"running-sum drift after 2000 updates: {drift:.2e}")
tables.check_sums()

# checkpoints capture the stream position, so restored tables continue
# with exactly the draws the original would have made
dump = saga.dump_table(tables[0])
restored = saga.load_table(dump, lo)
future_a = [int(tables.draw()[0]) for _ in range(8)]
future_b = [int(restored.draw()[0]) for _ in range(8)]
print(f"post-restore draws match: {future_a == future_b} ({future_a})")
