"""Decentralized normalized SGD with gradient tracking and fast gossip.

Simulation and verification library for decentralized stochastic
optimization of objectives whose smoothness degrades with the gradient
norm. The main pieces:

- problems: synthetic objective families with proved smoothness constants
- topology: graphs, Metropolis mixing matrices, and their validation
- gossip: plain and accelerated consensus averaging
- optimizers: the normalized tracking method plus unnormalized baselines
- hyperparams: theory-driven parameter calculator and step-size guard
- analysis: potential function, consensus/descent checks, output summaries
- harness / cli / config: reproducible multi-seed experiments

Import from the submodules; the package root holds only __version__.
"""

__version__ = "0.1.0"
