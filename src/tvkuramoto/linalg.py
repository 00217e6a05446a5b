"""Dense symmetric eigensolver, restricted spectra, and state-transition matrices.

Eigenvalues come from LAPACK through numpy.linalg.eigh. Quantities "over the
eigenspace orthogonal to 1" are computed by restricting to an explicit
orthonormal basis of that subspace rather than eigensolving a projected
matrix, which stays correct when the input is indefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tvkuramoto import dynamics
from tvkuramoto.signals import TimeSignal, check_alignment


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Eigenvalues in ascending order with matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]


@dataclass(frozen=True)
class TransitionMatrix:
    """Linear map sending a solution at time s to its value at time t."""

    s: float
    t: float
    matrix: np.ndarray


def _check_symmetric(mat: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"need a square matrix, got shape {mat.shape}")
    norm = np.linalg.norm(mat)
    if norm > 0 and np.linalg.norm(mat - mat.T) >= rtol * norm:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (mat + mat.T)


def symmetric_eigen(mat: np.ndarray) -> SymmetricSpectrum:
    """Full spectrum of a symmetric matrix (LAPACK through numpy.linalg.eigh).

    Rejects matrices that are not symmetric to 1e-10 relative tolerance.
    """
    vals, vecs = np.linalg.eigh(_check_symmetric(mat))
    return SymmetricSpectrum(vals, vecs)


def _ones_complement_basis(m: int) -> np.ndarray:
    """Orthonormal m x (m-1) basis of the subspace orthogonal to the ones vector."""
    u = np.full(m, 1.0 / math.sqrt(m))
    v = -u
    v[0] += 1.0  # v = e1 - u, reflector H maps e1 to u
    h = np.eye(m) - 2.0 * np.outer(v, v) / (v @ v)
    return h[:, 1:]


def restricted_spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix restricted to the 1-orthogonal subspace."""
    sym = _check_symmetric(mat)
    m = sym.shape[0]
    if m == 1:
        return np.array([])
    basis = _ones_complement_basis(m)
    return symmetric_eigen(basis.T @ sym @ basis).eigenvalues


def lambda2(mat: np.ndarray) -> float:
    """Smallest eigenvalue over the subspace orthogonal to 1.

    For a positive-semidefinite zero-row-sum matrix with a simple zero
    eigenvalue this is the second-smallest eigenvalue of the full spectrum
    (algebraic connectivity); for indefinite inputs the restriction keeps the
    value meaningful.
    """
    mat = np.asarray(mat, dtype=float)
    rowsum = np.max(np.abs(mat.sum(axis=1)))
    if rowsum > 1e-8 * max(1.0, np.linalg.norm(mat)):
        raise ValueError(f"matrix row sums are not zero (max |row sum| = {rowsum:.3g})")
    return float(restricted_spectrum(mat)[0])


def state_transition(gen: TimeSignal, s: float, t: float, dt: float) -> TransitionMatrix:
    """Integrate U' = -G(tau) U, U(s) = I with the classical 4th-order one-step method.

    dt must divide the span and hit every breakpoint of the generator signal,
    so a discontinuity never falls inside a step; a piecewise-constant
    generator is evaluated once per piece.
    """
    if t < s:
        raise ValueError(f"need t >= s, got s={s}, t={t}")
    nsteps = check_alignment(gen, s, t, dt)
    u, _ = dynamics._rk4(lambda u, g: -g @ u, np.eye(gen.shape[0]), s, dt, nsteps, (gen,))
    return TransitionMatrix(s, t, u)


def contraction_factor(trans) -> float:
    """Largest eigenvalue of U^T U restricted to the subspace orthogonal to 1.

    Equals the squared worst-case gain of the transition over disagreement
    vectors; 1 for the identity, below 1 once the generator mixes.
    """
    u = trans.matrix if isinstance(trans, TransitionMatrix) else np.asarray(trans, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"need a square matrix, got shape {u.shape}")
    return float(restricted_spectrum(u.T @ u)[-1])
