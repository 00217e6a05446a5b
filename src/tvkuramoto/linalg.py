"""Restricted spectra of symmetric matrices, and state-transition matrices.

Eigenvalues come from LAPACK through numpy.linalg.eigh. Quantities "over the
eigenspace orthogonal to 1" are computed by restricting to an explicit
orthonormal basis of that subspace rather than eigensolving a projected
matrix, which stays correct when the input is indefinite. One symmetry rule,
_check_symmetric, decides which matrices count as symmetric, and one row-sum
rule, _check_zero_row_sums, which count as zero-row-sum.
"""

from __future__ import annotations

import math

import numpy as np

from tvkuramoto import dynamics
from tvkuramoto.signals import TimeSignal, check_alignment


def _check_symmetric(mat: np.ndarray) -> np.ndarray:
    """The symmetric part of a square M; ValueError unless |M - M^T| < 1e-10 |M| in the
    Frobenius norm and max |M - M^T| <= 1e-10 * max(1, max |M|) entrywise."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"need a square matrix, got shape {mat.shape}")
    norm, skew = np.linalg.norm(mat), mat - mat.T
    if (norm > 0 and np.linalg.norm(skew) >= 1e-10 * norm) or \
            np.abs(skew).max() > 1e-10 * max(1.0, float(np.abs(mat).max())):
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (mat + mat.T)


def _check_zero_row_sums(mat) -> np.ndarray:
    """M as a float array; ValueError unless max |row sum| <= 1e-9 * max(1, max |M|)."""
    mat = np.asarray(mat, dtype=float)
    rowsum = np.abs(mat.sum(axis=1)).max()
    if rowsum > 1e-9 * max(1.0, float(np.abs(mat).max())):
        raise ValueError(f"matrix row sums are not zero (max |row sum| = {rowsum:.3g})")
    return mat


def _ones_complement_basis(m: int) -> np.ndarray:
    """Orthonormal m x (m-1) basis of the subspace orthogonal to the ones vector."""
    u = np.full(m, 1.0 / math.sqrt(m))
    v = -u
    v[0] += 1.0  # v = e1 - u, reflector H maps e1 to u
    h = np.eye(m) - 2.0 * np.outer(v, v) / (v @ v)
    return h[:, 1:]


def restricted_spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric m x m matrix, m >= 2, restricted to the
    1-orthogonal subspace."""
    sym = _check_symmetric(mat)
    m = sym.shape[0]
    if m < 2:
        raise ValueError(f"the subspace orthogonal to 1 needs m >= 2, got m={m}")
    basis = _ones_complement_basis(m)
    p = basis.T @ sym @ basis
    return np.linalg.eigh(0.5 * (p + p.T))[0]


def lambda2(mat: np.ndarray) -> float:
    """Smallest eigenvalue over the subspace orthogonal to 1.

    For a positive-semidefinite zero-row-sum matrix with a simple zero
    eigenvalue this is the second-smallest eigenvalue of the full spectrum
    (algebraic connectivity); for indefinite inputs the restriction keeps the
    value meaningful. M must have zero row sums (_check_zero_row_sums).
    """
    return float(restricted_spectrum(_check_zero_row_sums(mat))[0])


def state_transition(gen: TimeSignal, s: float, t: float, dt: float) -> np.ndarray:
    """Transition matrix U(t) of U' = -G(tau) U, U(s) = I.

    dt must divide the span and hit every breakpoint of the generator signal.
    A piecewise-constant generator whose pieces on [s, t] are all exactly
    symmetric gets the exact product of per-piece factors V exp(-Lambda tau) V^T
    (one eigh per piece), its pieces read by one piece_index call over the cut
    starts. Any other generator is integrated with the classical
    4th-order one-step method on the dt grid, so a discontinuity never falls
    inside a step and a piecewise-constant generator is evaluated once per piece.
    """
    if t < s:
        raise ValueError(f"need t >= s, got s={s}, t={t}")
    nsteps = check_alignment(gen, s, t, dt)
    m = gen.shape[0]
    if gen.is_piecewise_constant:
        cuts = np.unique(np.concatenate([[s, t], gen.breakpoints_in(s, t)]))
        pieces = [(np.asarray(gen.values[k], dtype=float), tau)
                  for k, tau in zip(gen.piece_index(cuts[:-1]).tolist(), np.diff(cuts))]
        if all(np.array_equal(g, g.T) for g, _ in pieces):
            u = np.eye(m)
            for g, tau in pieces:
                vals, vecs = np.linalg.eigh(g)
                u = (vecs * np.exp(-vals * tau)) @ vecs.T @ u
            return u
    return dynamics._rk4(lambda u, g, out: np.matmul(-g, u, out=out), np.eye(m), s, dt, nsteps,
                         (gen,))


def contraction_factor(trans) -> float:
    """Largest eigenvalue of U^T U restricted to the subspace orthogonal to 1.

    Equals the squared worst-case gain of the transition over disagreement
    vectors; 1 for the identity, below 1 once the generator mixes.
    """
    u = np.asarray(trans, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"need a square matrix, got shape {u.shape}")
    return float(restricted_spectrum(u.T @ u)[-1])
