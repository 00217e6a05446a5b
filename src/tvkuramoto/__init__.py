"""Kuramoto networks with time-varying, signed couplings: simulation and
stability certificates for phase-difference (PD) trajectories.

Modules:
    signals      -- time-varying scalar/vector/matrix signals with exact window integrals
    graph        -- signed networks, Laplacians, threshold graphs, spanning trees
    linalg       -- LAPACK eigensolves, state-transition matrices, contraction factors
    dynamics     -- fixed-step simulation of the oscillator network, PD utilities
    certificates -- invariance and asymptotic-stability criteria with witness reports
    scenarios    -- periodic-switching, small-perturbation and fast-switching experiments
    cli          -- command-line entry point
"""

from tvkuramoto import certificates, dynamics, graph, linalg, scenarios, signals

__version__ = "0.1.0"

__all__ = ["signals", "graph", "linalg", "dynamics", "certificates", "scenarios", "__version__"]
