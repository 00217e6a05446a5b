"""Signed weighted digraphs, their Laplacians, threshold graphs and mixing quantities.

Convention: entry a[i, j] is the weight of the link j -> i (column influences row),
weights may be negative, and the diagonal is zero (no self-links). The signed
Laplacian has l_ij = -a_ij off the diagonal and zero row sums. Node indices are
0-based in this API; file formats and reports use 1-based labels.
"""

from __future__ import annotations

import numpy as np

from tvkuramoto.signals import SinusoidSignal, TimeSignal, _numbers, probe


def _checked_adjacency(a) -> np.ndarray:
    """a as a float array; ValueError unless it is square with a zero diagonal."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if (np.abs(a.diagonal()) > 0).any():
        raise ValueError("self-links are not allowed (nonzero diagonal)")
    return a


def check_coupling(sig: TimeSignal) -> int:
    """m of a coupling signal; ValueError unless it is m x m, m >= 2, and every matrix
    it is built from (table pieces, sinusoid base and amplitude) has a zero diagonal."""
    shape = sig.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"coupling signal must be an m x m matrix, got shape {shape}")
    if shape[0] < 2:
        raise ValueError(f"coupling must couple at least two oscillators, got m={shape[0]}")
    parts = [sig.base, sig.amplitude] if isinstance(sig, SinusoidSignal) else sig.values
    for v in parts:
        _checked_adjacency(np.broadcast_to(v, shape))
    return shape[0]


def laplacian_from_adjacency(a) -> np.ndarray:
    """Signed Laplacian: l_ij = -a_ij off-diagonal, diagonal set for zero row sums."""
    lap = -_checked_adjacency(a)
    np.fill_diagonal(lap, 0.0)  # -a holds -0.0 there
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def threshold_graph(lap: np.ndarray, eta: float) -> np.ndarray:
    """Boolean digraph of the directed edges (i, j), i != j, with l_ij strictly below -eta.

    edges[i, j] True means the link j -> i is kept. A stack of Laplacians
    (..., m, m) gives the stack of their graphs.
    """
    _numbers("eta", eta, 0, ">0")
    lap = np.asarray(lap, dtype=float)
    return (lap < -eta) & ~np.eye(lap.shape[-1], dtype=bool)


def has_spanning_tree(g) -> bool:
    """True iff some root reaches every node along the influence direction.

    Edge (i, j) means j influences i, so reachability follows j -> i. The
    boolean transitive closure comes from ceil(log2 m) squarings of the
    reflexive reachability matrix; a root exists iff some row is all True.
    """
    edges = np.asarray(g, dtype=bool)
    m = edges.shape[0]
    reach = edges.T | np.eye(m, dtype=bool)  # reach[j, i]: j reaches i
    length = 1  # reach covers every path of at most this many links
    while length < m - 1:
        reach = reach @ reach
        length *= 2
    return bool(reach.all(axis=1).any())


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


def ergodic_quantities(coupling: TimeSignal) -> tuple:
    """Mixing quantities (mu0, mu1, mu2) of a coupling-matrix signal, maxima over t.

    mu0: max of the pairwise minimum of sum_{k in common positive
         neighborhood} min(a_ik, a_jk) -- the ergodic coefficient of the
         positive part of the graph.
    mu1: max of the pairwise maximum of the summed negative mass
         -[a_ik]^- - [a_jk]^- outside the common positive neighborhood.
    mu2: max of the pairwise minimum of a_ij + a_ji.

    The maxima are over signals.probe: exact over the stored pieces of a
    piecewise-constant signal, over its sample grid for a smooth one. A pair
    needs m >= 2, so a coupling that is not m x m with m >= 2 raises ValueError.
    """
    if len(coupling.shape) != 2 or not 2 <= coupling.shape[0] == coupling.shape[1]:
        raise ValueError(f"coupling must be an m x m matrix, m >= 2, got shape {coupling.shape}")
    mu0 = mu1 = mu2 = -np.inf
    for _, a in probe(coupling):
        common_min, neg_sum = _pair_sums(a)
        off = ~np.eye(a.shape[0], dtype=bool)
        mu0 = max(mu0, float(common_min[off].min()))
        mu1 = max(mu1, float(-neg_sum[off].min()))
        mu2 = max(mu2, float((a + a.T)[off].min()))
    return mu0, mu1, mu2
