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

A product's list of plane factors is the one definition of the angles it
reads (``sigma_pairs``, filtered to m <= k in ``build_ucd``, and
``_ucs_pairs``); ``_angle_positions`` gives the entries a list reads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOrderError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonFiniteError,
    NotUnitaryError,
    RankOutOfRangeError,
    UniparamError,
)
from .linalg import _count

UNITARITY_INPUT_TOL = 1e-9
DECOMPOSE_ZERO_TOL = 1e-12

TWO_PI = 2.0 * math.pi


def _check_pair(m: int, n: int, d: int) -> None:
    m, n = (_count(i, "index", 1, d, IndexOutOfRangeError) for i in (m, n))
    if m >= n:
        raise IndexOrderError(f"require m < n, got ({m},{n})")


def projector(l: int, d: int) -> np.ndarray:
    """One-dimensional projector |l><l| (1-based) in dimension d."""
    d = _count(d, "dimension", 1, error=IndexOutOfRangeError)
    l = _count(l, "index", 1, d, IndexOutOfRangeError)
    p = np.zeros((d, d), dtype=complex)
    p[l - 1, l - 1] = 1.0
    return p


def sigma(m: int, n: int, d: int) -> np.ndarray:
    """Antisymmetric generator -i|m><n| + i|n><m| (1-based), m < n."""
    _check_pair(m, n, _count(d, "dimension", 2, error=IndexOutOfRangeError))
    s = np.zeros((d, d), dtype=complex)
    s[m - 1, n - 1] = -1j
    s[n - 1, m - 1] = 1j
    return s


def sigma_pairs(d: int) -> list[tuple[int, int]]:
    """Plane factors of ``build_unitary``: every (m, n) with m < n, in product order."""
    return [(m, n) for m in range(1, d) for n in range(m + 1, d + 1)]


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

    Only rows m and n of the operand change.  A scalar operand raises
    ``DimensionMismatchError`` and a NaN or infinite angle ``NonFiniteError``.
    """
    out = np.array(operand, dtype=complex)
    if out.ndim == 0:
        raise DimensionMismatchError("operand must be a vector or matrix, got a scalar")
    _check_pair(m, n, out.shape[0])
    if not (math.isfinite(rot) and math.isfinite(phase)):
        raise NonFiniteError(f"angles ({rot!r}, {phase!r}) are not finite")
    _rows_update(out, m - 1, n - 1, math.cos(rot), math.sin(rot),
                 complex(math.cos(phase), math.sin(phase)), adjoint)
    return out


def _assert_angles(lam: np.ndarray, d: int | None = None) -> np.ndarray:
    """The angle gate of the public builds: a square, finite d x d real matrix, d >= 2.

    NaN or infinite angles would give all-NaN products, so they raise
    ``NonFiniteError``.  The searches call ``_product`` directly and skip it.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1] or lam.shape[0] < 2:
        raise IndexOutOfRangeError(
            f"angle matrix must be square with d >= 2, got shape {lam.shape}"
        )
    if d is not None and lam.shape[0] != _count(d, "dimension", 2, error=IndexOutOfRangeError):
        raise LengthMismatchError(f"angle matrix is {lam.shape[0]}x{lam.shape[0]}, expected {d}x{d}")
    if not np.isfinite(lam).all():
        raise NonFiniteError("angle matrix has a NaN or infinite entry")
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
        # kept: numpy scalars here (same values) slowed param-roundtrip 8% (median of 10 pairs)
        c, s, e = c.tolist(), s.tolist(), e.tolist()
    for m, n, ck, sk, ek in zip(m0, n0, c, s, e):
        _rows_update(u, m, n, ck, sk, ek, False)
    return np.ascontiguousarray(u.transpose(*range(2, u.ndim), 0, 1))


def _product_pullback(lam: np.ndarray, u: np.ndarray, grad: np.ndarray,
                      pairs: list[tuple[int, int]]) -> np.ndarray:
    """Angle gradient of Re tr(G† U), U = ``_product(lam, pairs, diag=False)``, G = ``grad``.

    ``lam``, ``u`` and ``grad`` are (..., d, d) stacks; the result is the
    (..., d, d) stack of derivatives, entry (m-1, n-1) for the rotation
    lam[m, n] and (n-1, m-1) for the phase lam[n, m], zero elsewhere.
    With U = F_1 ... F_P, the factor F_k enters through
    Z_k = (F_1 ... F_{k-1})† G U† (F_1 ... F_{k-1}), so one sweep in product
    order, Z_{k+1} = F_k† Z_k F_k, gives every derivative:
    Re(e Z[m, n]) - Re(conj(e) Z[n, m]) for the rotation and Im Z[n, n] for
    the phase, e the factor's phase e^{i lam[n, m]}.

    Every factor's trig comes from one gather; each conjugation runs through ``_rows_update``.
    """
    axes = (-2, -1, *range(lam.ndim - 2))
    # in the matrix-axes-first layout, so the sweep's row and column slices are contiguous
    z = np.ascontiguousarray((grad @ np.swapaxes(u.conj(), -1, -2)).transpose(axes))
    ang = lam.transpose(axes)
    m0 = [m - 1 for m, _ in pairs]
    n0 = [n - 1 for _, n in pairs]
    p = len(pairs)
    angles = ang[m0 + n0, n0 + m0]
    cos_all, sin_all, e_all = np.cos(angles[:p]), np.sin(angles[:p]), np.exp(1j * angles[p:])
    out = np.zeros(ang.shape)
    for k, (m, n) in enumerate(zip(m0, n0)):
        c, s, e = cos_all[k], sin_all[k], e_all[k]
        out[m, n] = (e * z[m, n]).real - (e.conj() * z[n, m]).real
        out[n, m] = z[n, n].imag
        if k == p - 1:
            break
        # F† Z, then Z F = (F'† Z^T)^T with F' the factor of phase conj(e)
        _rows_update(z, m, n, c, s, e, True)
        _rows_update(z.swapaxes(0, 1), m, n, c, s, np.conj(e), True)
    return np.ascontiguousarray(out.transpose(*range(2, out.ndim), 0, 1))


def _ucs_pairs(d: int, k: int) -> list[tuple[int, int]]:
    """Plane factors of ``build_ucs``: (m, n) with m <= k < n, in product order."""
    return [(m, n) for m in range(1, k + 1) for n in range(k + 1, d + 1)]


def _angle_positions(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Row-major 0-based entries the factors ``pairs`` read: (m-1, n-1) and (n-1, m-1)."""
    return sorted([(m - 1, n - 1) for m, n in pairs] + [(n - 1, m - 1) for m, n in pairs])


def build_unitary(lam: np.ndarray) -> np.ndarray:
    """Unitary built from a full d x d angle matrix.

    Uses all d^2 angles: every plane factor (m < n) followed by the
    diagonal phase factors.
    """
    lam = _assert_angles(lam)
    return _product(lam, sigma_pairs(lam.shape[0]), diag=True)


def build_ucd(lam: np.ndarray, k: int) -> np.ndarray:
    """Truncated product for rank-k density matrices.

    Plane factors restricted to m <= k, no diagonal phases; reads only the
    k(2d-k-1) off-diagonal angles in the first k rows and columns.
    """
    return _ucd(_assert_angles(lam), k)


def _ucd(lam: np.ndarray, k: int) -> np.ndarray:
    """``build_ucd`` of angles that passed ``_assert_angles``."""
    d = lam.shape[0]
    k = _count(k, "rank", 1, d, RankOutOfRangeError)
    return _product(lam, [(m, n) for m, n in sigma_pairs(d) if m <= k], diag=False)


def build_ucs(lam: np.ndarray, k: int) -> np.ndarray:
    """Block product for k-dimensional subspaces.

    Plane factors with m <= k < n only; reads the 2k(d-k) angles in the
    upper-right and lower-left blocks.
    """
    return _ucs(_assert_angles(lam), k)


def _ucs(lam: np.ndarray, k: int) -> np.ndarray:
    """``build_ucs`` of angles that passed ``_assert_angles``."""
    d = lam.shape[0]
    k = _count(k, "subspace dimension", 1, d - 1, RankOutOfRangeError)
    return _product(lam, _ucs_pairs(d, k), diag=False)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U†U - I for a d x k column set U, with I of size k (U unitary when square).

    Entries so large that U†U overflows give ``inf``, with no warning, and
    ``_check_isometry`` fails every defect not <= its tolerance, NaN too.
    An array that is not 2-D raises ``DimensionMismatchError``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise DimensionMismatchError(f"expected a d x k column set, got shape {u.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))))
    return defect if math.isfinite(defect) else math.inf


def _check_isometry(u: np.ndarray, what: str, error: type[UniparamError]) -> None:
    """Gate of the unitary or column set ``what``: ``NonFiniteError``, or ``error`` past the tol."""
    if not np.isfinite(u).all():
        raise NonFiniteError(f"{what} has a NaN or infinite entry")
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_INPUT_TOL:
        raise error(f"unitarity defect {defect:.3e} of the {what} > {UNITARITY_INPUT_TOL:.0e}")


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
    _check_isometry(a, "matrix", NotUnitaryError)
    d = a.shape[0]
    lam = _zeroing_sweep(a, sigma_pairs(d))
    for r in range(d):
        lam[r, r] = math.atan2(a[r, r].imag, a[r, r].real) % TWO_PI
    return lam


def random_param_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Angle matrix drawn uniformly from the canonical ranges by ``rng``."""
    d = _count(d, "dimension", 2, error=IndexOutOfRangeError)
    lam = rng.uniform(0.0, TWO_PI, size=(d, d))
    upper = np.triu_indices(d, k=1)
    lam[upper] = rng.uniform(0.0, math.pi / 2, size=len(upper[0]))
    return lam
