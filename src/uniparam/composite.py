"""Composite parameterization of the unitary group U(d).

A d x d real matrix of angles ``lam`` encodes a unitary as an ordered
product of two-parameter plane factors and single-row phase factors:

    U(lam) = [ prod_{m=1}^{d-1} prod_{n=m+1}^{d} L(m, n) ] * diag(e^{i lam[l,l]})

where each factor

    L(m, n) = exp(i P_n lam[n,m]) exp(i s_{m,n} lam[m,n])

acts only on the plane spanned by basis vectors |m> and |n>.  Products
expand left to right (the (1,2) factor is leftmost).  On that plane,

    L(m, n) = [[cos r,            sin r          ],
               [-e^{i p} sin r,   e^{i p} cos r  ]],  r = lam[m,n], p = lam[n,m],

so applying a factor costs O(d) and no matrix exponential is ever
evaluated numerically.

Angle-matrix convention (all indices 1-based, matching |1>..|d>):
diagonal entries are global phases, the upper-right triangle holds plane
rotations, the lower-left triangle the relative phases.  Canonical ranges
are [0, 2*pi) on and below the diagonal and [0, pi/2] above it; the build
functions accept arbitrary real angles (everything is periodic), only
``decompose`` guarantees canonical output.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    IndexOrderError,
    IndexOutOfRangeError,
    NonFiniteError,
    NotUnitaryError,
    RankOutOfRangeError,
)

UNITARITY_INPUT_TOL = 1e-9
DECOMPOSE_ZERO_TOL = 1e-12

TWO_PI = 2.0 * math.pi


def _check_pair(m: int, n: int, d: int) -> None:
    if not (1 <= m <= d and 1 <= n <= d):
        raise IndexOutOfRangeError(f"indices ({m},{n}) outside 1..{d}")
    if m >= n:
        raise IndexOrderError(f"require m < n, got ({m},{n})")


def projector(l: int, d: int) -> np.ndarray:
    """One-dimensional projector |l><l| (1-based) in dimension d."""
    if not 1 <= l <= d:
        raise IndexOutOfRangeError(f"index {l} outside 1..{d}")
    p = np.zeros((d, d), dtype=complex)
    p[l - 1, l - 1] = 1.0
    return p


def sigma(m: int, n: int, d: int) -> np.ndarray:
    """Antisymmetric generator -i|m><n| + i|n><m| (1-based), m < n."""
    _check_pair(m, n, d)
    s = np.zeros((d, d), dtype=complex)
    s[m - 1, n - 1] = -1j
    s[n - 1, m - 1] = 1j
    return s


def _rows_update(out: np.ndarray, m0: int, n0: int, c, s, e, adjoint: bool) -> None:
    """In-place left multiplication of ``out`` by L(m,n) or its adjoint.

    ``out[i]`` is row i: a matrix, or a stack of matrices laid out with
    the matrix axes first (``out[i, j]`` is entry (i, j) of every matrix).
    For a stack ``c``, ``s`` and ``e`` are arrays over the stack, one
    factor per matrix.  Both new rows are formed from the old ones before
    either is assigned.
    """
    a, b = out[m0], out[n0]
    if adjoint:
        out[m0], out[n0] = c * a - (s * np.conj(e)) * b, s * a + (c * np.conj(e)) * b
    else:
        out[m0], out[n0] = c * a + s * b, (-s * e) * a + (c * e) * b


def apply_factor(operand: np.ndarray, m: int, n: int, rot: float, phase: float,
                 adjoint: bool = False) -> np.ndarray:
    """Left-multiply a vector or matrix by the plane factor L(m, n).

    Parameters
    ----------
    operand : array with d rows (state vector or matrix).
    m, n : 1-based plane indices, m < n.
    rot : rotation angle (the upper-right parameter lam[m,n]).
    phase : relative phase angle (the lower-left parameter lam[n,m]).
    adjoint : apply L(m, n)† instead.

    Only rows m and n of the operand change.
    """
    out = np.array(operand, dtype=complex)
    _check_pair(m, n, out.shape[0])
    _rows_update(out, m - 1, n - 1, math.cos(rot), math.sin(rot),
                 complex(math.cos(phase), math.sin(phase)), adjoint)
    return out


def _assert_angles(lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1] or lam.shape[0] < 2:
        raise IndexOutOfRangeError(
            f"angle matrix must be square with d >= 2, got shape {lam.shape}"
        )
    return lam


def _product(lam: np.ndarray, pairs: list[tuple[int, int]], diag: bool) -> np.ndarray:
    """Evaluate the ordered factor product by applying factors right-to-left.

    ``lam`` is one d x d angle matrix or a stack (..., d, d) of them; a
    stack gives the stack of products.  The work runs with the two matrix
    axes first, so ``u[i]`` is row i of every matrix and ``c[k]`` the
    cosine of factor k: a float for one matrix, an array over the stack.
    """
    d = lam.shape[-1]
    ang = lam.transpose(-2, -1, *range(lam.ndim - 2))
    u = np.zeros(ang.shape, dtype=complex)
    # the diagonal of every matrix is a stride-(d + 1) slice of the flattened angle axes
    flat = (d * d,) + ang.shape[2:]
    u.reshape(flat)[::d + 1] = np.exp(1j * ang.reshape(flat)[::d + 1]) if diag else 1.0
    m0 = [m - 1 for m, _ in reversed(pairs)]
    n0 = [n - 1 for _, n in reversed(pairs)]
    # one gather: the rotation angles lam[m, n] of all factors, then their phases lam[n, m]
    angles = ang[m0 + n0, n0 + m0]
    cos_all, sin_all = np.cos(angles), np.sin(angles)
    p = len(m0)
    c, s = cos_all[:p], sin_all[:p]
    e = np.empty(c.shape, dtype=complex)
    e.real, e.imag = cos_all[p:], sin_all[p:]
    if lam.ndim == 2:
        # Python floats multiply a row faster than numpy scalars (same values)
        c, s, e = c.tolist(), s.tolist(), e.tolist()
    for m, n, ck, sk, ek in zip(m0, n0, c, s, e):
        _rows_update(u, m, n, ck, sk, ek, False)
    return np.ascontiguousarray(u.transpose(*range(2, u.ndim), 0, 1))


def _unitary_pairs(d: int) -> list[tuple[int, int]]:
    """Plane factors of ``build_unitary``: every (m, n) with m < n, in product order."""
    return [(m, n) for m in range(1, d) for n in range(m + 1, d + 1)]


def _ucs_pairs(d: int, k: int) -> list[tuple[int, int]]:
    """Plane factors of ``build_ucs``: (m, n) with m <= k < n, in product order."""
    return [(m, n) for m in range(1, k + 1) for n in range(k + 1, d + 1)]


def build_unitary(lam: np.ndarray) -> np.ndarray:
    """Unitary built from a full d x d angle matrix.

    Uses all d^2 angles: every plane factor (m < n) followed by the
    diagonal phase factors.
    """
    lam = _assert_angles(lam)
    return _product(lam, _unitary_pairs(lam.shape[0]), diag=True)


def build_ucd(lam: np.ndarray, k: int) -> np.ndarray:
    """Truncated product for rank-k density matrices.

    Plane factors restricted to m <= k, no diagonal phases; reads only the
    k(2d-k-1) off-diagonal angles in the first k rows and columns.
    """
    lam = _assert_angles(lam)
    d = lam.shape[0]
    if not 1 <= k <= d:
        raise RankOutOfRangeError(f"rank {k} outside 1..{d}")
    pairs = [(m, n) for m in range(1, min(k, d - 1) + 1) for n in range(m + 1, d + 1)]
    return _product(lam, pairs, diag=False)


def build_ucs(lam: np.ndarray, k: int) -> np.ndarray:
    """Block product for k-dimensional subspaces.

    Plane factors with m <= k < n only; reads the 2k(d-k) angles in the
    upper-right and lower-left blocks.
    """
    lam = _assert_angles(lam)
    d = lam.shape[0]
    if not 1 <= k < d:
        raise RankOutOfRangeError(f"subspace dimension {k} outside 1..{d - 1}")
    return _product(lam, _ucs_pairs(d, k), diag=False)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U†U - I."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def zeroing_angles(a: complex, b: complex, tol: float) -> tuple[float, float]:
    """Angles (rot, phase) that zero ``b`` against pivot ``a``.

    Solves sin(rot)*a + e^{-i phase} cos(rot)*b = 0 with rot in [0, pi/2]
    and phase in [0, 2*pi).  Entries with magnitude <= tol count as zero:
    both zero -> (0, 0); only a zero -> (pi/2, 0); only b zero -> (0, 0).
    """
    am, bm = abs(a), abs(b)
    if bm <= tol:
        return 0.0, 0.0
    if am <= tol:
        return math.pi / 2, 0.0
    phase = (math.atan2(b.imag, b.real) - math.atan2(-a.imag, -a.real)) % TWO_PI
    rot = math.atan2(bm, am)
    return rot, phase


def _zeroing_sweep(a: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Angles of the factor adjoints that zero a[n, m] against a[m, m], pair by pair, in place.

    Entries up to DECOMPOSE_ZERO_TOL times the norm of column m from the
    pivot down count as zero; other angle-matrix entries stay 0.
    """
    lam = np.zeros((a.shape[0],) * 2)
    for m, n in pairs:
        tol = DECOMPOSE_ZERO_TOL * float(np.linalg.norm(a[m - 1:, m - 1]))
        rot, phase = zeroing_angles(a[m - 1, m - 1], a[n - 1, m - 1], tol)
        lam[m - 1, n - 1] = rot
        lam[n - 1, m - 1] = phase
        _rows_update(a, m - 1, n - 1, math.cos(rot), math.sin(rot),
                     complex(math.cos(phase), math.sin(phase)), True)
    return lam


def decompose(u: np.ndarray) -> np.ndarray:
    """Canonical angle matrix of a unitary; inverse of ``build_unitary``.

    Sweeps the factor adjoints over the input in product order, at each
    step choosing the pair of angles that zeroes the below-diagonal entry
    (n, m), then reads the global phases off the residual diagonal.
    Output ranges: [0, 2*pi) on and below the diagonal, [0, pi/2] above.
    """
    a = np.array(u, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise NotUnitaryError(f"expected a square matrix with d >= 2, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix has a NaN or infinite entry")
    defect = unitarity_defect(a)
    if defect > UNITARITY_INPUT_TOL:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds 1e-9")
    d = a.shape[0]
    lam = _zeroing_sweep(a, _unitary_pairs(d))
    for r in range(d):
        lam[r, r] = math.atan2(a[r, r].imag, a[r, r].real) % TWO_PI
    return lam


def random_param_matrix(d: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Angle matrix drawn uniformly from the canonical ranges."""
    if d < 2:
        raise IndexOutOfRangeError(f"dimension {d} must be >= 2")
    if rng is None:
        rng = np.random.default_rng()
    lam = rng.uniform(0.0, TWO_PI, size=(d, d))
    upper = np.triu_indices(d, k=1)
    lam[upper] = rng.uniform(0.0, math.pi / 2, size=len(upper[0]))
    return lam
