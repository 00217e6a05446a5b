import math

import numpy as np
import pytest

from tvkuramoto.certificates import psd_fault, tilde_laplacian
from tvkuramoto.graph import laplacian_from_adjacency
from tvkuramoto.linalg import (
    contraction_factor,
    lambda2,
    restricted_spectrum,
    state_transition,
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
    assert np.allclose(restricted_spectrum(np.eye(3)), [1.0, 1.0])


def test_eigen_complete_graph_spectrum():
    # K4's Laplacian has eigenvalue 0 on the ones vector and 4 on its complement
    lap = laplacian_from_adjacency(np.ones((4, 4)) - np.eye(4))
    assert np.allclose(restricted_spectrum(lap), [4.0, 4.0, 4.0], atol=1e-10)


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        restricted_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_restricted_spectrum_matches_any_orthonormal_basis():
    # the restriction to the complement of the ones vector does not depend on its basis:
    # a QR basis of the centring projector gives the same eigenvalues as the reflector's
    rng = np.random.default_rng(0)
    for m in (2, 3, 7, 20):
        mat = rng.normal(size=(m, m))
        mat = mat + mat.T
        q = np.linalg.qr(np.eye(m) - 1.0 / m)[0][:, :m - 1]
        want = np.linalg.eigvalsh(q.T @ mat @ q)
        assert np.allclose(restricted_spectrum(mat), want, atol=1e-9 * m)


def union_of_symmetry_tests(mat):
    """True iff M fails either symmetry test, written out entry by entry:
    |M - M^T| >= 1e-10 |M| in the Frobenius norm (for M != 0), or
    max |M - M^T| > 1e-10 * max(1, max |M|)."""
    m = len(mat)
    skew = [mat[i][j] - mat[j][i] for i in range(m) for j in range(m)]
    entries = [mat[i][j] for i in range(m) for j in range(m)]
    size = math.hypot(*entries)
    frobenius = size > 0 and math.hypot(*skew) >= 1e-10 * size
    largest = max(1.0, max(abs(x) for x in entries))
    return frobenius or max(abs(x) for x in skew) > 1e-10 * largest


def test_one_symmetry_rule_rejects_what_either_test_rejects():
    # near-symmetric matrices, perturbed in one entry pair or densely, by amounts either
    # side of both thresholds, with max |M| from 1e-3 to 1e3: restricted_spectrum raises,
    # psd_fault says "asymmetric" and the union of the two tests says asymmetric together
    rng = np.random.default_rng(61)
    seen = set()
    for trial in range(600):
        m = int(rng.integers(2, 9))
        mat = rng.normal(size=(m, m))
        mat = (mat + mat.T) * 10.0 ** rng.uniform(-3.0, 3.0)
        size = 10.0 ** rng.uniform(-12.5, -8.5) * max(1.0, np.abs(mat).max())
        if trial % 2:
            mat = mat + size * rng.normal(size=(m, m))
        else:
            i, j = rng.choice(m, 2, replace=False)
            mat[i, j] += size
        want = union_of_symmetry_tests(mat.tolist())
        try:
            restricted_spectrum(mat)
            raised = False
        except ValueError:
            raised = True
        assert raised == want
        assert (psd_fault(mat)[0] == "asymmetric") == want
        skew = mat - mat.T
        frobenius = np.linalg.norm(skew) >= 1e-10 * np.linalg.norm(mat)
        seen.add((want, bool(frobenius)))
    # accepted, rejected by the Frobenius test, and rejected by the max-entry test alone
    assert seen == {(False, False), (True, True), (True, False)}


def test_lambda2_known_graphs():
    k5 = laplacian_from_adjacency(np.ones((5, 5)) - np.eye(5))
    assert lambda2(k5) == pytest.approx(5.0, abs=1e-9)
    p2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert lambda2(p2) == pytest.approx(2.0, abs=1e-12)


def test_lambda2_rejects_nonzero_row_sums():
    with pytest.raises(ValueError):
        lambda2(np.eye(3))


def union_of_row_sum_tests(mat):
    """True iff M fails either former zero-row-sum test, written out entry by entry:
    max |row sum| > 1e-8 * max(1, |M|) in the Frobenius norm (lambda2's), or
    max |row sum| > 1e-9 * max(1, max |M|) (tilde_laplacian's)."""
    rowsum = max(abs(sum(row)) for row in mat)
    entries = [x for row in mat for x in row]
    frobenius = rowsum > 1e-8 * max(1.0, math.hypot(*entries))
    return frobenius or rowsum > 1e-9 * max(1.0, max(abs(x) for x in entries))


def test_one_row_sum_rule_rejects_what_either_test_rejects():
    # symmetric zero-row-sum matrices with their diagonal perturbed in one entry or in
    # every entry, by amounts either side of both thresholds, with max |M| from 1e-3 to
    # 1e3: lambda2 and tilde_laplacian raise together, iff the union of the two tests
    # rejects (fewer than 8 columns, so numpy sums a row in Python's order)
    rng = np.random.default_rng(62)
    seen = set()
    for trial in range(600):
        m = int(rng.integers(2, 8))
        a = rng.normal(size=(m, m))
        mat = laplacian_from_adjacency((a + a.T) * (1 - np.eye(m)) * 10.0 ** rng.uniform(-3, 3))
        size = 10.0 ** rng.uniform(-11.5, -6.5) * max(1.0, np.abs(mat).max())
        if trial % 2:
            mat = mat + np.diag(size * rng.normal(size=m))
        else:
            k = int(rng.integers(m))
            mat[k, k] += size
        want = union_of_row_sum_tests(mat.tolist())
        for fn in (lambda2, lambda x: tilde_laplacian(x, 0.5)):
            try:
                fn(mat)
                raised = False
            except ValueError:
                raised = True
            assert raised == want
        rowsum = np.abs(mat.sum(axis=1)).max()
        seen.add((want, bool(rowsum > 1e-8 * max(1.0, np.linalg.norm(mat)))))
    # accepted, rejected by lambda2's test, and rejected by tilde_laplacian's test alone
    assert seen == {(False, False), (True, True), (True, False)}


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


# a 1 x 1 matrix has no subspace orthogonal to 1: each call used to index an empty
# spectrum and raise IndexError


def test_lambda2_rejects_m_below_2():
    with pytest.raises(ValueError, match=r"needs m >= 2, got m=1"):
        lambda2(np.zeros((1, 1)))


def test_psd_fault_rejects_m_below_2_and_does_not_call_it_asymmetric():
    with pytest.raises(ValueError, match=r"needs m >= 2, got m=1"):
        psd_fault(np.zeros((1, 1)))


def test_contraction_factor_rejects_m_below_2():
    with pytest.raises(ValueError, match=r"needs m >= 2, got m=1"):
        contraction_factor(np.eye(1))
