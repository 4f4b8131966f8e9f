"""Build network topologies and inspect their mixing matrices.

Shows the three topology kinds, the Metropolis weight construction with
automatic lazification (each level accepted by a Cholesky positivity test,
without a decomposition), and the spectral quantities the convergence
bounds consume: rho_min = lambda_min(W) and rho2(L) for L = I - W, both
read from the one spectrum of W, computed when first read.
"""

import numpy as np

from sdiging import graph

for kind, m, p in (("ring", 6, None), ("complete", 6, None),
                   ("random_gnp", 12, 0.4)):
    topo = graph.build_topology(kind, m, p=p, seed=7)
    w = graph.metropolis_weights(topo)
    print(f"{kind:<12} m={m:<3} edges={len(topo.edges):<3} "
          f"laziness={w.laziness:.1f} rho_min={w.rho_min:.4f} "
          f"rho2(L)={w.rho2_l:.4f}")

# the ring of 4 has a negative raw eigenvalue, so laziness is raised
ring4 = graph.metropolis_weights(graph.build_topology("ring", 4, seed=0),
                                 laziness=0.0)
print(f"\nring m=4 requested laziness 0.0, got {ring4.laziness}; "
      f"spectrum {np.round(ring4.eig_w, 4)}")

# topologies round-trip through the edge-list text format
text = ring4.topology.to_edge_list_text()
print("\nedge-list serialization:")
print(text)
back = graph.Topology.from_edge_list_text(text)
assert back.edges == ring4.topology.edges
print("round-trip ok; mixing matrix CSV starts with:")
print(ring4.to_csv().splitlines()[0])
