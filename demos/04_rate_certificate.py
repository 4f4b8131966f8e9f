"""Certify a linear convergence rate and check it empirically.

On a well-conditioned quadratic ensemble the certificate machinery
produces a step-size interval, a rate constant, and an iteration-count
estimate; a simulation at the certified step-size then shows the
guaranteed contraction (conservatively) holding in practice.
"""

import numpy as np

from sdiging import engine, graph
from sdiging.objectives import quadratic_family

prob = quadratic_family(5, 4, 3, (1.0, 2.0), seed=0)
topo = graph.build_topology("complete", 5, seed=0)
w = graph.metropolis_weights(topo)

cert = engine.certificate_for_problem(w, prob)
print(cert.to_text())

kappa = float(np.sum(prob.known_optimum ** 2))
k_needed = engine.iterations_to_accuracy(cert, kappa=kappa, epsilon=1e-6)
print(f"guaranteed rounds to 1e-6 squared error: {k_needed}")

rounds = 3000
tables = engine.make_tables(prob, seed=1)
state = engine.init_state("sdiging", prob, tables)
errs = []
for _ in range(rounds):
    state = engine.step("sdiging", state, w, prob, cert.alpha, tables)
    errs.append(float(np.mean(np.sum((state.x - prob.known_optimum) ** 2,
                                     axis=1))))
burn = rounds // 10
factor = (errs[-1] / errs[burn]) ** (1.0 / (rounds - 1 - burn))
print(f"empirical per-round contraction {factor:.6f} "
      f"(certified bound {1.0 / (1.0 + cert.delta):.6f})")
print("the certificate is deliberately conservative; observed progress is "
      "much faster than guaranteed")
