"""Redundancy-free density matrices of rank k and k-dimensional subspaces.

A rank-k state on C^d is specified by k-1 simplex angles (the spectrum)
plus the k(2d-k-1) angles consumed by the truncated product ``build_ucd``
(the eigenbasis), for 2dk - k^2 - 1 scalars in total.  An orthonormal
basis of a k-dimensional subspace needs only the 2k(d-k) block angles of
``build_ucs``; ``canonicalize_subspace`` recovers those angles from any
orthonormal column set together with the residual intra-subspace unitary,
by one QR factorization that triangularizes the top k x k block followed
by the Givens row sweep that ``decompose`` also runs.
"""

from __future__ import annotations

import math

import numpy as np

from .composite import _assert_angles, _check_isometry, _ucd, _ucs, _ucs_pairs, _zeroing_sweep
from .errors import (
    LengthMismatchError,
    NonFiniteError,
    NormalizationError,
    NotHermitianError,
    NotOrthonormalError,
    NotPSDError,
    RankOutOfRangeError,
)
from .linalg import _as_square, _count, herm_eig

DENSITY_HERM_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
DENSITY_PSD_TOL = 1e-10
RANK_EIG_TOL = 1e-9


def simplex_weights(theta: np.ndarray, k: int) -> np.ndarray:
    """Probability vector of length k from k-1 angles.

    p_1 = cos^2(t_1), p_n = cos^2(t_n) * prod_{i<n} sin^2(t_i) for the
    middle entries, p_k = prod sin^2(t_i); k = 1 gives (1,).  Any finite
    real angles are accepted; the squared trig functions keep the output a
    probability vector regardless.  NaN or infinite angles raise
    ``NonFiniteError``.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    k = _count(k, "k", 1, error=RankOutOfRangeError)
    if theta.size != k - 1:
        raise LengthMismatchError(f"expected {k - 1} angles for k={k}, got {theta.size}")
    angles = theta.ravel().tolist()
    if not all(map(math.isfinite, angles)):
        raise NonFiniteError("angle vector has a NaN or infinite entry")
    p = np.ones(k)
    sin_running = 1.0
    for i, t in enumerate(angles):
        c2 = math.cos(t) ** 2
        p[i] = c2 * sin_running
        sin_running *= 1.0 - c2
    p[k - 1] = sin_running
    return p


def build_density(theta: np.ndarray, lam: np.ndarray, k: int, d: int) -> np.ndarray:
    """Rank-<=k density matrix sum_n p_n U|n><n|U† with U = build_ucd(lam, k).

    Consults exactly (k-1) + k(2d-k-1) scalars: the diagonal of ``lam``
    and every entry with both row and column beyond k are never read.
    """
    cols = _ucd(_assert_angles(lam, d), k)[:, :k]
    p = simplex_weights(theta, k)
    return (cols * p) @ cols.conj().T


def validate_density(rho: np.ndarray, rank_bound: int | None = None) -> np.ndarray:
    """Check Hermiticity, unit trace, positivity and (optionally) rank.

    Returns the ascending eigenvalues.  Raises ``NonSquareError`` /
    ``NonFiniteError`` / ``NormalizationError`` / ``NotHermitianError`` /
    ``NotPSDError`` / ``RankOutOfRangeError`` via the underlying checks.
    """
    rho = _as_square(rho)
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_HERM_TOL:
        raise NotHermitianError(f"density matrix not Hermitian within {DENSITY_HERM_TOL:.0e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise NormalizationError(f"trace {tr!r} differs from 1 beyond {DENSITY_TRACE_TOL:.0e}")
    w = herm_eig(rho).eigenvalues
    if w[0] < -DENSITY_PSD_TOL:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.3e} < -{DENSITY_PSD_TOL:.0e}")
    if rank_bound is not None:
        rank = int(np.sum(w > RANK_EIG_TOL))
        if rank > _count(rank_bound, "rank bound", 1, error=RankOutOfRangeError):
            raise RankOutOfRangeError(f"numerical rank {rank} exceeds declared bound {rank_bound}")
    return w


def subspace_basis(lam: np.ndarray, k: int, d: int) -> np.ndarray:
    """Orthonormal basis of a k-dimensional subspace: first k columns of build_ucs."""
    return _ucs(_assert_angles(lam, d), k)[:, :k].copy()


def canonicalize_subspace(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block angles and residual unitary of an orthonormal column set.

    Returns ``(lam, w)`` where ``lam`` is populated only at the 2k(d-k)
    block positions and ``w`` is the k x k unitary with

        subspace_basis(lam, k, d) @ w  ==  v      (within 1e-9).

    One QR factorization first makes the top k x k block upper triangular
    (a basis change inside the span, which ``w`` absorbs); then the row
    sweep of ``decompose`` zeroes everything below row k with plane-factor
    adjoints whose angles land at the block positions.  It needs
    1 <= k < d; a full column set, k = d, is a unitary, whose angles
    ``decompose`` gives.
    """
    v = np.array(v, dtype=complex)
    if v.ndim != 2:
        raise NotOrthonormalError(f"expected a d x k column matrix, got shape {v.shape}")
    d, k = v.shape
    _count(k, "subspace dimension", 1, d - 1, RankOutOfRangeError)
    _check_isometry(v, "column set", NotOrthonormalError)

    # With T the top block, J the index reversal and (J T J)† = Q R,
    # T (J Q J) = J R† J is upper triangular.  Triangularizations of a
    # nonsingular T differ only by column phases, which cancel in every
    # zeroing angle.
    w1 = np.linalg.qr(v[k - 1::-1, k - 1::-1].conj().T)[0][::-1, ::-1]
    v = v @ w1

    # Plane-factor adjoints zero the rows below k; the angles used are
    # exactly the block parameters of build_ucs.
    lam = _zeroing_sweep(v, _ucs_pairs(d, k))

    # What is left is the k x k residual sitting on the first k rows.
    w = v[:k, :k] @ w1.conj().T
    return lam, w
