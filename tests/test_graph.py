import json

import numpy as np
import pytest

from tvkuramoto.cli import bundled_config_path
from tvkuramoto.graph import (
    _pair_sums,
    ergodic_quantities,
    has_spanning_tree,
    laplacian_from_adjacency,
    threshold_graph,
)
from tvkuramoto.signals import ConstantSignal, SwitchingSignal
from grid_oracle import even_grid


def bfs_spanning_tree(edges: np.ndarray) -> bool:
    """Per-root BFS oracle: some root reaches all nodes along j -> i."""
    m = edges.shape[0]
    for root in range(m):
        seen = np.zeros(m, dtype=bool)
        seen[root] = True
        stack = [root]
        while stack:
            j = stack.pop()
            for i in np.nonzero(edges[:, j])[0]:
                if not seen[i]:
                    seen[i] = True
                    stack.append(int(i))
        if seen.all():
            return True
    return False


def loop_ergodic_quantities(coupling, grid):
    """Pair-by-pair loop oracle for (mu0, mu1, mu2), one grid point at a time."""
    mu0s, mu1s, mu2s = [], [], []
    for t in grid:
        a = np.asarray(coupling.evaluate(float(t)), dtype=float)
        m = a.shape[0]
        best0, best1, best2 = None, None, None
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                pos = (a[i] > 0) & (a[j] > 0)
                s0 = float(np.minimum(a[i], a[j])[pos].sum())
                neg = ~pos
                neg[i] = neg[j] = False
                s1 = float((-np.minimum(a[i][neg], 0.0) - np.minimum(a[j][neg], 0.0)).sum())
                s2 = float(a[i, j] + a[j, i])
                best0 = s0 if best0 is None else min(best0, s0)
                best1 = s1 if best1 is None else max(best1, s1)
                best2 = s2 if best2 is None else min(best2, s2)
        mu0s.append(best0)
        mu1s.append(best1)
        mu2s.append(best2)
    return max(mu0s), max(mu1s), max(mu2s)


def brute_force_spanning_tree(edges: np.ndarray) -> bool:
    """Transitive-closure oracle: some root reaches all nodes along j -> i."""
    m = edges.shape[0]
    reach = edges.T.copy()  # reach[j, i]: j influences i directly
    np.fill_diagonal(reach, True)
    for _ in range(m):
        reach = reach | (reach @ reach)
    return bool(reach.all(axis=1).any())


def test_laplacian_zero_adjacency():
    assert np.array_equal(laplacian_from_adjacency(np.zeros((3, 3))), np.zeros((3, 3)))


def test_laplacian_two_node():
    lap = laplacian_from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_signed():
    lap = laplacian_from_adjacency(np.array([[0.0, -0.5], [2.0, 0.0]]))
    assert np.allclose(lap, [[-0.5, 0.5], [-2.0, 2.0]])


def test_laplacian_rejects_self_links():
    with pytest.raises(ValueError):
        laplacian_from_adjacency(np.eye(3))


def test_laplacian_row_sums_vanish():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.normal(size=(6, 6))
        np.fill_diagonal(a, 0.0)
        lap = laplacian_from_adjacency(a)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12


def test_metzler_property_for_nonnegative_couplings():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 2, size=(5, 5))
    np.fill_diagonal(a, 0.0)
    neg_lap = -laplacian_from_adjacency(a)
    off = neg_lap - np.diag(np.diag(neg_lap))
    assert off.min() >= 0.0


def test_threshold_complete_graph():
    lap = laplacian_from_adjacency(np.ones((3, 3)) - np.eye(3))
    g = threshold_graph(lap, 0.5)
    assert g.sum() == 6


def test_threshold_strict_inequality():
    lap = laplacian_from_adjacency(np.ones((3, 3)) - np.eye(3))
    g = threshold_graph(lap, 1.0)  # l_ij = -1 exactly: strict < -1 fails
    assert g.sum() == 0


def test_threshold_matches_entrywise_scan():
    rng = np.random.default_rng(2)
    lap = laplacian_from_adjacency(rng.normal(size=(5, 5)) * (1 - np.eye(5)))
    eta = 0.01
    g = threshold_graph(lap, eta)
    for i in range(5):
        for j in range(5):
            expect = i != j and lap[i, j] < -eta
            assert g[i, j] == expect


def test_threshold_monotone_in_eta():
    rng = np.random.default_rng(3)
    lap = laplacian_from_adjacency(rng.normal(size=(6, 6)) * (1 - np.eye(6)))
    e1 = threshold_graph(lap, 0.1)
    e2 = threshold_graph(lap, 0.5)
    assert not np.any(e2 & ~e1)


def test_spanning_tree_complete_and_disconnected():
    assert has_spanning_tree(np.ones((4, 4), dtype=bool))
    two_cliques = np.zeros((4, 4), dtype=bool)
    two_cliques[0, 1] = two_cliques[1, 0] = True
    two_cliques[2, 3] = two_cliques[3, 2] = True
    assert not has_spanning_tree(two_cliques)


def test_spanning_tree_direction_matters():
    # star with hub -> leaves influence only: hub reaches everyone
    edges = np.zeros((3, 3), dtype=bool)
    edges[1, 0] = True  # 0 influences 1
    edges[2, 0] = True  # 0 influences 2
    assert has_spanning_tree(edges)
    # reverse: leaves influence hub only; no single root reaches all
    assert not has_spanning_tree(edges.T)


def test_spanning_tree_exhaustive_m3():
    for code in range(64):
        edges = np.zeros((3, 3), dtype=bool)
        bit = 0
        for i in range(3):
            for j in range(3):
                if i != j:
                    edges[i, j] = bool((code >> bit) & 1)
                    bit += 1
        assert has_spanning_tree(edges) == brute_force_spanning_tree(edges)


def test_spanning_tree_random_m6():
    rng = np.random.default_rng(4)
    for _ in range(500):
        m = int(rng.integers(2, 7))
        edges = rng.random((m, m)) < rng.uniform(0.1, 0.6)
        np.fill_diagonal(edges, False)
        assert has_spanning_tree(edges) == brute_force_spanning_tree(edges)


def test_common_positive_neighbors_star():
    # node 2, the hub, is the one positive influencer of both 0 and 1
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = a[2, 1] = 1.0
    a[1, 2] = 0.5
    common_min, neg_sum = _pair_sums(a)
    assert common_min[0, 1] == common_min[1, 0] == 0.5
    assert np.all(neg_sum == 0.0)


def test_common_positive_neighbors_all_negative():
    # no positive influencer anywhere: each of the two other nodes adds -1 - 1 to a pair
    a = -np.ones((4, 4)) + np.eye(4)
    common_min, neg_sum = _pair_sums(a)
    assert np.all(common_min == 0.0)
    off = ~np.eye(4, dtype=bool)
    assert np.all(neg_sum[off] == -4.0)


def test_common_positive_neighbors_matches_set_builder():
    # per pair, the sums over the common positive neighborhood and over the rest
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 5))
    np.fill_diagonal(a, 0.0)
    common_min, neg_sum = _pair_sums(a)
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            common = {k for k in range(5) if a[i, k] > 0 and a[j, k] > 0}
            rest = set(range(5)) - common - {i, j}
            assert common_min[i, j] == pytest.approx(sum(min(a[i, k], a[j, k]) for k in common))
            assert neg_sum[i, j] == pytest.approx(
                sum(min(a[i, k], 0.0) + min(a[j, k], 0.0) for k in rest))


def test_ergodic_quantities_two_node():
    sig = ConstantSignal([[0.0, 1.0], [1.0, 0.0]])
    mu0, mu1, mu2 = ergodic_quantities(sig)
    assert (mu0, mu1, mu2) == (0.0, 0.0, 2.0)


def test_ergodic_quantities_zero_adjacency():
    sig = ConstantSignal(np.zeros((4, 4)))
    assert ergodic_quantities(sig) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("value", [[[0.0]], 1.0, [0.0, 1.0]], ids=["1x1", "scalar", "vector"])
def test_ergodic_quantities_reject_couplings_without_a_pair(value):
    # a 1 x 1 coupling used to raise numpy's zero-size reduction error, naming no input
    with pytest.raises(ValueError, match=r"coupling must be an m x m matrix, m >= 2"):
        ergodic_quantities(ConstantSignal(value))


def test_ergodic_quantities_matches_formula_oracle():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(5, 5))
    np.fill_diagonal(a, 0.0)
    mu0, mu1, mu2 = ergodic_quantities(ConstantSignal(a))

    pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
    exp0 = min(
        sum(min(a[i, k], a[j, k]) for k in range(5) if a[i, k] > 0 and a[j, k] > 0)
        for i, j in pairs
    )
    exp1 = max(
        sum(-min(a[i, k], 0) - min(a[j, k], 0)
            for k in range(5)
            if not (a[i, k] > 0 and a[j, k] > 0) and k != i and k != j)
        for i, j in pairs
    )
    exp2 = min(a[i, j] + a[j, i] for i, j in pairs)
    assert mu0 == pytest.approx(exp0)
    assert mu1 == pytest.approx(exp1)
    assert mu2 == pytest.approx(exp2)


def test_ergodic_quantities_match_loop_oracle():
    rng = np.random.default_rng(21)
    for m in range(1, 9):
        for trial in range(6):
            pieces = []
            for _ in range(int(rng.integers(1, 4))):
                a = rng.normal(size=(m, m)) * (rng.random((m, m)) < 0.8)
                if trial % 2:  # the signals accept a nonzero diagonal; so must the formula
                    np.fill_diagonal(a, rng.normal(size=m))
                else:
                    np.fill_diagonal(a, 0.0)
                pieces.append(a)
            sig = SwitchingSignal(rng.uniform(0.2, 1.0, len(pieces)), pieces)
            grid = np.sort(np.concatenate([even_grid(sig, num=7),
                                           rng.uniform(0.0, 2 * sig.period, 5)]))
            if m == 1:  # no pair to take a quantity over, as check_coupling also says
                with pytest.raises(ValueError):
                    ergodic_quantities(sig)
                continue
            got = ergodic_quantities(sig)  # over the stored pieces, which the grid meets
            want = loop_ergodic_quantities(sig, grid)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (m, trial, got, want)


def test_spanning_tree_matches_oracles_at_m20():
    rng = np.random.default_rng(20)
    verdicts = []
    for _ in range(300):
        edges = rng.random((20, 20)) < rng.uniform(0.02, 0.3)
        np.fill_diagonal(edges, False)
        got = has_spanning_tree(edges)
        assert got == bfs_spanning_tree(edges) == brute_force_spanning_tree(edges)
        verdicts.append(got)
    assert 30 < sum(verdicts) < 270  # both verdicts well represented

    for m in (2, 3, 5, 9, 17, 20, 33):  # a directed path needs m - 1 hops
        path = np.zeros((m, m), dtype=bool)
        path[np.arange(1, m), np.arange(m - 1)] = True  # node k influences k + 1
        assert has_spanning_tree(path)
        cut = path.copy()
        cut[m - 1, m - 2] = False
        assert not has_spanning_tree(cut)


def test_threshold_on_bundled_switching_matrix():
    cfg = json.loads(bundled_config_path("ap").read_text())
    a = np.asarray(cfg["signals"]["coupling"]["pieces"][0]["value"])
    lap = laplacian_from_adjacency(a)
    g = threshold_graph(lap, 0.01)
    for i in range(5):
        for j in range(5):
            assert g[i, j] == (i != j and lap[i, j] < -0.01)

