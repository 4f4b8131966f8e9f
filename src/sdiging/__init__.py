"""Decentralized consensus optimization with stochastic gradient tracking.

A small numpy library for simulating synchronous-round multi-agent
optimization over undirected graphs: gradient tracking with full local
gradients, its variance-reduced stochastic variant, the equivalent
primal-dual iteration, and the linear-rate certification machinery that
goes with them.
"""

__version__ = "0.1.0"
