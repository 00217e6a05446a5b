"""Signed weighted digraphs, their Laplacians, threshold graphs and mixing quantities.

Convention: entry a[i, j] is the weight of the link j -> i (column influences row),
weights may be negative, and the diagonal is zero (no self-links). The signed
Laplacian has l_ij = -a_ij off the diagonal and zero row sums. Node indices are
0-based in this API; file formats and reports use 1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tvkuramoto.signals import TimeSignal


@dataclass(frozen=True)
class SignedNetwork:
    """Weighted signed adjacency for m oscillators at one time instant."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if (np.abs(a.diagonal()) > 0).any():
            raise ValueError("self-links are not allowed (nonzero diagonal)")
        object.__setattr__(self, "adjacency", a)

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class ThresholdGraph:
    """Boolean digraph keeping edges whose Laplacian entry lies below -eta."""

    edges: np.ndarray  # m x m bool, edges[i, j] True means j -> i present

    @property
    def m(self) -> int:
        return self.edges.shape[0]


def _adjacency_of(net) -> np.ndarray:
    if isinstance(net, SignedNetwork):
        return net.adjacency
    return SignedNetwork(np.asarray(net, dtype=float)).adjacency


def laplacian_from_adjacency(net) -> np.ndarray:
    """Signed Laplacian: l_ij = -a_ij off-diagonal, diagonal set for zero row sums."""
    a = _adjacency_of(net)
    lap = -a
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def threshold_graph(lap: np.ndarray, eta: float) -> ThresholdGraph:
    """Keep directed edges (i, j), i != j, with l_ij strictly below -eta."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    lap = np.asarray(lap, dtype=float)
    edges = lap < -eta
    np.fill_diagonal(edges, False)
    return ThresholdGraph(edges)


def has_spanning_tree(g) -> bool:
    """True iff some root reaches every node along the influence direction.

    Edge (i, j) means j influences i, so reachability follows j -> i. The
    boolean transitive closure comes from ceil(log2 m) squarings of the
    reflexive reachability matrix; a root exists iff some row is all True.
    """
    edges = g.edges if isinstance(g, ThresholdGraph) else np.asarray(g, dtype=bool)
    m = edges.shape[0]
    reach = edges.T | np.eye(m, dtype=bool)  # reach[j, i]: j reaches i
    length = 1  # reach covers every path of at most this many links
    while length < m - 1:
        reach = reach @ reach
        length *= 2
    return bool(reach.all(axis=1).any())


def common_positive_neighbors(net, i: int, j: int) -> set:
    """Nodes k with a_ik > 0 and a_jk > 0 (positive influencers of both i and j).

    Returns the raw set; callers exclude k = i, j where a formula requires it
    (the zero diagonal already keeps i and j themselves out).
    """
    if i == j:
        raise ValueError("common_positive_neighbors needs two distinct nodes")
    a = _adjacency_of(net)
    return set(np.nonzero((a[i] > 0) & (a[j] > 0))[0].tolist())


def _pair_tensors(a: np.ndarray):
    """Per-pair views ai[i, j, k] = a_ik, aj[i, j, k] = a_jk, and the mask k in {i, j}."""
    m = a.shape[0]
    ai = a[:, None, :]
    aj = a[None, :, :]
    idx = np.arange(m)
    k_is_pair = (idx[None, None, :] == idx[:, None, None]) | (
        idx[None, None, :] == idx[None, :, None]
    )
    return ai, aj, k_is_pair


def _pair_sums(a: np.ndarray) -> tuple:
    """Per-pair sums shared by the pointwise invariance test and the mixing quantities.

    common_min[i, j] sums min(a_ik, a_jk) over the common positive neighborhood
    {k: a_ik > 0 and a_jk > 0}; neg_sum[i, j] sums the negative parts
    min(a_ik, 0) + min(a_jk, 0) over the other k != i, j, so it is <= 0.
    """
    ai, aj, k_is_pair = _pair_tensors(a)
    pos = (ai > 0) & (aj > 0)
    common_min = np.where(pos, np.minimum(ai, aj), 0.0).sum(axis=2)
    neg_parts = np.minimum(ai, 0.0) + np.minimum(aj, 0.0)
    neg_sum = np.where(~pos & ~k_is_pair, neg_parts, 0.0).sum(axis=2)
    return common_min, neg_sum


def ergodic_quantities(coupling: TimeSignal, grid: np.ndarray) -> tuple:
    """Mixing quantities (mu0, mu1, mu2) of a coupling-matrix signal over a grid.

    mu0: grid max of the pairwise minimum of sum_{k in common positive
         neighborhood} min(a_ik, a_jk) -- the ergodic coefficient of the
         positive part of the graph.
    mu1: grid max of the pairwise maximum of the summed negative mass
         -[a_ik]^- - [a_jk]^- outside the common positive neighborhood.
    mu2: grid max of the pairwise minimum of a_ij + a_ji.

    Grid extrema stand in for suprema over continuous time; exact for
    piecewise-constant signals when the grid includes all breakpoints. A grid
    point whose matrix is the same array as the one before it adds nothing and
    is skipped, so piecewise-constant signals cost one pass per piece.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty sampling grid")
    mu0 = mu1 = mu2 = -np.inf
    prev = None
    for t in grid:
        a = np.asarray(coupling.evaluate(float(t)), dtype=float)
        if a is prev:
            continue
        prev = a
        m = a.shape[0]
        if m < 2:
            mu0, mu1, mu2 = max(mu0, 0.0), max(mu1, 0.0), max(mu2, 0.0)
            continue
        common_min, neg_sum = _pair_sums(a)
        off = ~np.eye(m, dtype=bool)
        mu0 = max(mu0, float(common_min[off].min()))
        mu1 = max(mu1, float(-neg_sum[off].min()))
        mu2 = max(mu2, float((a + a.T)[off].min()))
    return mu0, mu1, mu2
