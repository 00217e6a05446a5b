import math

import numpy as np
import pytest

from tvkuramoto.certificates import tilde_laplacian
from tvkuramoto.graph import laplacian_from_adjacency
from tvkuramoto.linalg import (
    contraction_factor,
    lambda2,
    restricted_spectrum,
    state_transition,
    symmetric_eigen,
)
from tvkuramoto.signals import ConstantSignal, SwitchingSignal


def random_psd_laplacian(rng, m, mixed_sign=False):
    """Random connected-graph Laplacian; optionally with negative couplings kept PSD."""
    a = rng.uniform(0.2, 1.5, size=(m, m))
    a = np.triu(a, 1)
    a = a + a.T
    lap = laplacian_from_adjacency(a)
    if mixed_sign:
        for _ in range(m // 2):
            i, j = rng.choice(m, size=2, replace=False)
            bump = np.zeros((m, m))
            bump[i, i] = bump[j, j] = 1.0
            bump[i, j] = bump[j, i] = -1.0
            t = 0.4
            while t > 1e-3:
                cand = lap - t * bump  # pushes l_ij positive (negative coupling)
                if restricted_spectrum(cand)[0] > 1e-6:
                    lap = cand
                    break
                t /= 2
    return lap


def test_eigen_identity():
    spec = symmetric_eigen(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])


def test_eigen_complete_graph_spectrum():
    lap = laplacian_from_adjacency(np.ones((4, 4)) - np.eye(4))
    spec = symmetric_eigen(lap)
    assert np.allclose(spec.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-10)


def test_eigen_diagonal_permutation():
    spec = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_eigen_matches_numpy_and_reconstructs():
    rng = np.random.default_rng(0)
    for m in (2, 3, 7, 20):
        mat = rng.normal(size=(m, m))
        mat = mat + mat.T
        spec = symmetric_eigen(mat)
        assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(mat), atol=1e-9 * m)
        assert np.allclose(spec.eigenvectors.T @ spec.eigenvectors, np.eye(m), atol=1e-9)
        recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
        assert np.linalg.norm(recon - mat) < 1e-8 * max(np.linalg.norm(mat), 1.0)
        for k in range(m):
            resid = mat @ spec.eigenvectors[:, k] - spec.eigenvalues[k] * spec.eigenvectors[:, k]
            assert np.linalg.norm(resid) < 1e-9 * max(np.linalg.norm(mat), 1.0)


def test_lambda2_known_graphs():
    k5 = laplacian_from_adjacency(np.ones((5, 5)) - np.eye(5))
    assert lambda2(k5) == pytest.approx(5.0, abs=1e-9)
    p2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert lambda2(p2) == pytest.approx(2.0, abs=1e-12)


def test_lambda2_rejects_nonzero_row_sums():
    with pytest.raises(ValueError):
        lambda2(np.eye(3))


def test_state_transition_zero_generator():
    gen = ConstantSignal(np.zeros((3, 3)))
    u = state_transition(gen, 0.0, 2.0, 1e-2)
    assert np.allclose(u, np.eye(3), atol=1e-12)


def test_state_transition_closed_form():
    gen = ConstantSignal([[1.0, -1.0], [-1.0, 1.0]])
    u = state_transition(gen, 0.0, 1.0, 1e-3)
    ev = np.sort(np.linalg.eigvals(u).real)
    assert abs(ev[0] - math.exp(-2.0)) < 1e-6
    assert abs(ev[1] - 1.0) < 1e-9


def test_state_transition_preserves_ones():
    rng = np.random.default_rng(1)
    lap1 = random_psd_laplacian(rng, 4)
    lap2 = random_psd_laplacian(rng, 4)
    gen = SwitchingSignal([0.5, 0.5], [lap1, lap2])
    u = state_transition(gen, 0.0, 3.0, 1e-2)
    assert np.abs(u @ np.ones(4) - 1.0).max() < 1e-8


def test_state_transition_rejects_misaligned_dt():
    gen = SwitchingSignal([0.25, 0.75], [np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(ValueError):
        state_transition(gen, 0.0, 1.0, 0.1)


def test_state_transition_semigroup():
    rng = np.random.default_rng(2)
    gen = SwitchingSignal([0.5, 0.5], [random_psd_laplacian(rng, 5),
                                       random_psd_laplacian(rng, 5)])
    for split in (0.5, 1.0, 1.5):
        u_full = state_transition(gen, 0.0, 2.0, 1e-2)
        u_a = state_transition(gen, 0.0, split, 1e-2)
        u_b = state_transition(gen, split, 2.0, 1e-2)
        assert np.linalg.norm(u_b @ u_a - u_full) < 1e-7


def test_contraction_factor_identity():
    assert contraction_factor(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_contraction_factor_closed_form():
    gen = ConstantSignal([[1.0, -1.0], [-1.0, 1.0]])
    u = state_transition(gen, 0.0, 1.0, 1e-3)
    assert abs(contraction_factor(u) - math.exp(-4.0)) < 1e-6


def test_contraction_factor_bound_random_generators():
    # factor <= 1 - h*beta_k/(1+Rh)^2 with beta_k the tilde-average rate
    rng = np.random.default_rng(3)
    r = math.pi / 3
    h = 1.0
    for trial in range(100):
        m = int(rng.integers(3, 7))
        laps = [random_psd_laplacian(rng, m, mixed_sign=trial % 2 == 0) for _ in range(2)]
        gen = SwitchingSignal([0.5, 0.5], laps)
        norm_bound = max(np.abs(np.linalg.eigvalsh(lap)).max() for lap in laps)
        avg = gen.window_average(0.0, h)
        beta = lambda2(tilde_laplacian(avg, r))
        u = state_transition(gen, 0.0, h, 5e-3)
        bound = 1.0 - h * beta / (1.0 + norm_bound * h) ** 2
        assert contraction_factor(u) <= bound + 1e-8


def test_tilde_lambda2_never_exceeds_plain_lambda2():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(3, 8))
        lap = random_psd_laplacian(rng, m, mixed_sign=True)
        for r in (math.pi / 6, math.pi / 3):
            assert lambda2(tilde_laplacian(lap, r)) <= lambda2(lap) + 1e-9


def test_consensus_for_divergent_rate_sums():
    # solutions of x' = -G(t)x agree to 1e-6 by t = 50 when window rates stay high
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = 5
        laps = [random_psd_laplacian(rng, m) for _ in range(2)]
        gen = SwitchingSignal([0.5, 0.5], laps)
        u = state_transition(gen, 0.0, 50.0, 5e-3)
        x = u @ rng.uniform(-1, 1, m)
        assert x.max() - x.min() < 1e-6
