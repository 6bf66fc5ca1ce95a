"""Concurrence-style entanglement bounds for bipartite and multipartite states.

Every term here is Wootters' concurrence (PRL 80, 2245, 1998) of one 4x4
block of a locally rotated state.  For local rotations u_a, u_b and the
generator pairs (k_a, l_a), (k_b, l_b) (1-based, k < l), X_{k_a l_a k_b l_b}
is C(R) for the block R of U rho U†, U = u_a (x) u_b, on
|k_a>,|l_a> (x) |k_b>,|l_b>, with

    C(R) = max(x_1 - x_2 - x_3 - x_4, 0)

and x_1 >= ... >= x_4 the square roots of the eigenvalues of
R (sy x sy) R^* (sy x sy).  For any factor L with R = L L† they are the
singular values of L^T (sy x sy) L: two such factors differ by a unitary
on the right, which leaves those singular values unchanged (Wootters;
Uhlmann, PRA 62, 032307, 2000).  So no block needs an eigensolve of its
own.  Each state gets one of two kinds, evaluators from rotations to
block concurrences, chosen from the eigendecomposition its positivity
check makes (``_check_state``), never per batch of rotations:

- ``_cholesky_concurrences`` when lambda_min > CHOLESKY_MIN_RATIO *
  lambda_max: every block is positive definite, and L is its Cholesky factor;
- ``_direct_concurrences`` otherwise: rho = Psi Psi† with Psi = V_r sqrt(w_r),
  r counting the eigenvalues above EIG_ROUNDOFF_RATIO * lambda_max, padded
  to max(r, 2) columns.  The 4 x r block rows F of W† Psi factor the block
  with no rotated n x n state; when F is wider than 4 columns, L = R†
  from the QR decomposition F† = Q R, since F F† = R† R.

With L of r <= 4 columns the x_i past r are 0, and the others are the
singular values of the r x r matrix L^T (sy x sy) L.  ``_concurrences``
takes them in closed form for r = 2 (ranks 1 and 2), and from one SVD
per block otherwise, and reads a difference x_1 - x_2 - x_3 - x_4 within
the SVD's accuracy, X_ROUNDOFF * x_1, as 0.

The plain bound B = sqrt(sum of X^2 over all pairs) (Chen-Albeverio-Fei,
PRL 95, 040504, 2005), its maximum over the composite parameterization
of the local rotations, the multipartite sum over bipartitions and the
distillability witness (the single block on the first two columns of two
subspace isometries, maximized) all go through it.

A two-qubit block's partial transpose R^Γ has at most one negative
eigenvalue (Sanpera, Tarrach and Vidal, PRA 58, 826, 1998), so
det(R^Γ) > PPT_DET_RATIO * (tr R)^4 proves the block PPT, hence X = 0.
Where a row of rotations sums more than one block (the bound searches,
``bound_b``), the Cholesky kind gives such blocks that 0 with no
Cholesky factor and no SVD, and every other block its unscreened value.
The one-block witness is not screened: few of its blocks are PPT, and
one determinant per block costs more there than the SVDs it saves.  Nor
is the direct kind, whose common ranks take the cheap closed form.

Each X = max(..., 0) is exactly zero wherever its block is PPT.  For a
barely-NPT state this holds on almost all of angle space, and every
uniformly seeded restart can end on that zero plateau; a block on the
PPT boundary may also leave round-off above that accuracy instead of 0.
So when the best of all restarts of ``optimized_bound_b`` or
``max_distill_x_sq`` is above -PLATEAU_X_SQ (|X| < 1e-12) and the state is NPT
(``ppt_min_eigenvalue`` below -PPT_TOL), a partial-transpose-seeded stage
runs: it minimizes the sum of the smallest eigenvalues of the partially
transposed blocks, which has no plateau, over the same angles and blocks,
and starts one more Nelder-Mead run of the objective from that
minimizer.  Results at every other input are those of the restarts alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .composite import _product, _ucs_pairs, _unitary_pairs
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    IndexOrderError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NormalizationError,
    NotPSDError,
)
from .linalg import (
    EIG_ROUNDOFF_RATIO,
    PSD_EIG_TOL,
    herm_eig,
    partial_trace,
    partial_transpose,
    permute_subsystems,
)
from .optimize import Batch, OptimizerConfig, OptimizerResult, minimize, minimize_many, refine

PPT_TOL = 1e-10
PT_SEED_RESTARTS = 6
PLATEAU_X_SQ = 1e-24
# x_1 - x_2 - x_3 - x_4 at or below this times x_1 is the SVD's round-off of a PPT block
X_ROUNDOFF = 8 * np.finfo(float).eps
# A state with lambda_min > CHOLESKY_MIN_RATIO * lambda_max has only positive-definite
# blocks: each block is E† rho E for an isometry E, so by Cauchy interlacing its
# eigenvalues lie in [lambda_min, lambda_max] of rho.  Its condition number is then
# below 1e8, far from where round-off (~1e-15 relative) could make it indefinite.
CHOLESKY_MIN_RATIO = 1e-8
# det(R^Γ) above this times (tr R)^4 proves a 4x4 block PPT, far above det's round-off
PPT_DET_RATIO = 1e-12
STATE_NORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# elementary quantities

def linear_entropy(rho: np.ndarray) -> float:
    """d/(d-1) * (1 - Tr(rho^2)), clipped into [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if d < 2:
        raise DimensionMismatchError("linear entropy needs dimension >= 2")
    purity = float(np.trace(rho @ rho).real)
    return float(np.clip(d / (d - 1) * (1.0 - purity), 0.0, 1.0))


def max_concurrence(d: int) -> float:
    """Concurrence of a maximally entangled d x d state, sqrt(2(d-1)/d)."""
    return math.sqrt(2.0 * (d - 1) / d)


def pure_m_concurrence_sq(psi: np.ndarray, d_a: int, d_b: int) -> float:
    """Squared concurrence of a bipartite pure state, 2(d-1)/d * S_L(rho_A)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if d_a != d_b:
        raise DimensionMismatchError(f"local dimensions must match, got {d_a} and {d_b}")
    if d_a * d_b != psi.size:
        raise DimensionMismatchError(f"{d_a}*{d_b} != state length {psi.size}")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise NormalizationError(f"state norm {nrm!r} differs from 1 beyond 1e-12")
    rho_a = partial_trace(np.outer(psi, psi.conj()), (d_a, d_b), keep=0)
    return 2.0 * (d_a - 1) / d_a * linear_entropy(rho_a)


# ---------------------------------------------------------------------------
# 4x4 blocks of the locally rotated state and their concurrences

Pair = tuple[tuple[int, int], tuple[int, int]]

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real  # the two-qubit spin flip, a real matrix
_FLIP_SIGNS = _SPIN_FLIP[::-1].diagonal()  # its antidiagonal, bottom row first
# block rows and columns are (A, B) bit pairs 2a + b; R^Γ(i, j) = R(a_i b_j, a_j b_i)
_PT_ROWS = np.array([[(i & 2) | (j & 1) for j in range(4)] for i in range(4)])
_PT_COLS = _PT_ROWS.T


def sigma_pairs(d: int) -> list[tuple[int, int]]:
    """All 1-based index pairs (k, l) with k < l in dimension d."""
    return [(k, l) for k in range(1, d) for l in range(k + 1, d + 1)]


@dataclass(frozen=True)
class _State:
    """A checked state and the evaluator of its 4x4 blocks.

    ``kind(data, w_a, w_b, idx)`` gives the (..., P) concurrences of the
    blocks ``idx`` of W† rho W (see ``_rotated_blocks``).  There are two
    kinds: ``_cholesky_concurrences``, with ``data`` the Hermitian part of
    rho, and ``_direct_concurrences``, with ``data`` the n x max(r, 2)
    factor Psi of rho = Psi Psi†.
    """

    rho: np.ndarray
    kind: Callable[..., np.ndarray]
    data: np.ndarray

    def concurrences(self, w_a: np.ndarray, w_b: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """(..., P) concurrences of the blocks ``idx`` of W† rho W, W = w_a (x) w_b."""
        return self.kind(self.data, w_a, w_b, idx)


def _check_state(rho: np.ndarray | _State, d_a: int, d_b: int) -> _State:
    """rho, after the shape and positivity checks every bound needs, with its kind.

    The kind is chosen from the eigendecomposition the positivity
    check makes (see the module docstring).  A ``_State`` from an earlier
    check is returned as it is.
    """
    if isinstance(rho, _State):
        return rho
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")
    if d_a * d_b != rho.shape[0]:
        raise DimensionMismatchError(f"{d_a}*{d_b} != matrix size {rho.shape[0]}")
    if d_a < 2 or d_b < 2:
        raise DimensionMismatchError("both local dimensions must be >= 2")
    w, v = herm_eig(rho)
    if w[0] < -PSD_EIG_TOL:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} < -{PSD_EIG_TOL:.0e}")
    if w[0] > CHOLESKY_MIN_RATIO * w[-1]:
        # the part herm_eig factored (rho itself when exactly Hermitian), so the blocks are
        # as positive definite as the eigenvalues w say
        return _State(rho, _cholesky_concurrences, (rho + rho.conj().T) / 2)
    rank = int(np.count_nonzero(w > EIG_ROUNDOFF_RATIO * w[-1]))
    psi = np.zeros((rho.shape[0], max(rank, 2)), dtype=complex)
    if rank:
        psi[:, :rank] = v[:, -rank:] * np.sqrt(w[-rank:])
    return _State(rho, _direct_concurrences, psi)


def _block_index(pairs: Sequence[Pair], m_b: int) -> np.ndarray:
    """(P, 4) 0-based product-basis indices of the block |k_a>,|l_a> (x) |k_b>,|l_b> of each pair.

    ``m_b`` is the B dimension of the space the blocks are cut from.
    """
    return np.array([[(i - 1) * m_b + (j - 1) for i in pa for j in pb] for pa, pb in pairs])


def _all_pairs(d_a: int, d_b: int) -> list[Pair]:
    """Every (A pair, B pair) of generator pairs, A outer."""
    return [(pa, pb) for pa in sigma_pairs(d_a) for pb in sigma_pairs(d_b)]


def _product_basis(w_a: np.ndarray, w_b: np.ndarray) -> np.ndarray:
    """(..., d_a d_b, m_a m_b) stack of W = w_a (x) w_b.

    ``w_a`` and ``w_b`` are d x m matrices, or (N, d, m) stacks of them:
    local unitaries, or the columns of isometries when only those are needed.
    """
    (d_a, m_a), (d_b, m_b) = w_a.shape[-2:], w_b.shape[-2:]
    w = w_a[..., :, None, :, None] * w_b[..., None, :, None, :]
    return w.reshape(w.shape[:-4] + (d_a * d_b, m_a * m_b))


def _rotated_blocks(rho: np.ndarray, w_a: np.ndarray, w_b: np.ndarray,
                    idx: np.ndarray) -> np.ndarray:
    """(..., P, 4, 4) stack of the blocks ``idx`` of W† rho W, W = w_a (x) w_b.

    Stacks of rotations (see ``_product_basis``) give N stacks of blocks.
    """
    w = _product_basis(w_a, w_b)
    rotated = np.swapaxes(w.conj(), -1, -2) @ rho @ w
    return rotated[..., idx[:, :, None], idx[:, None, :]]


def _provably_ppt(blocks: np.ndarray) -> np.ndarray:
    """Mask of the (..., 4, 4) blocks R with det(R^Γ) > PPT_DET_RATIO * (tr R)^4.

    R^Γ has at most one negative eigenvalue, so such a block is PPT and has X = 0.
    """
    trace = np.trace(blocks, axis1=-2, axis2=-1).real
    return np.linalg.det(blocks[..., _PT_ROWS, _PT_COLS]).real > PPT_DET_RATIO * trace ** 4


def _cholesky_concurrences(rho: np.ndarray, w_a: np.ndarray, w_b: np.ndarray,
                           idx: np.ndarray) -> np.ndarray:
    """(..., P) concurrences of the blocks of a state whose blocks are all positive definite.

    L is each block's Cholesky factor.  When a row sums more than one
    block, those ``_provably_ppt`` finds get X = 0 with no factor and no
    SVD; every other block gets the value it would get unscreened.
    """
    blocks = _rotated_blocks(rho, w_a, w_b, idx)
    if len(idx) == 1:
        return _concurrences(np.linalg.cholesky(blocks))
    kept = ~_provably_ppt(blocks)
    x = np.zeros(kept.shape)
    x[kept] = _concurrences(np.linalg.cholesky(blocks[kept]))
    return x


def _direct_concurrences(psi: np.ndarray, w_a: np.ndarray, w_b: np.ndarray,
                         idx: np.ndarray) -> np.ndarray:
    """(..., P) concurrences of the blocks of rho = Psi Psi†, from the rows F = (W† Psi)[idx].

    F is the factor L as it is while Psi has at most 4 columns, r = 2, 3
    or 4.  When Psi has more, L = R† from the QR decomposition F† = Q R,
    as F F† = R† R; QR takes no square roots of round-off, so
    rank-deficient blocks need no eigenvalue floor.
    """
    f = (np.swapaxes(_product_basis(w_a, w_b).conj(), -1, -2) @ psi)[..., idx, :]
    if psi.shape[-1] > 4:
        f = np.swapaxes(np.linalg.qr(np.swapaxes(f.conj(), -1, -2), mode="r").conj(), -1, -2)
    return _concurrences(f)


def _two_column_tau(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries a, b, d of tau = L^T (sy x sy) L = [[a, b], [b, d]] for (..., 4, 2) factors L."""
    (p0, q0), (p1, q1), (p2, q2), (p3, q3) = np.moveaxis(factors, (-2, -1), (0, 1))
    # u^T (sy x sy) v = u_1 v_2 + u_2 v_1 - u_0 v_3 - u_3 v_0 for columns u, v of L
    return (2.0 * (p1 * p2 - p0 * p3), p1 * q2 + p2 * q1 - p0 * q3 - p3 * q0,
            2.0 * (q1 * q2 - q0 * q3))


def _two_column_x(a: np.ndarray, b: np.ndarray,
                  d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_1 and x_1 - x_2, the singular values of tau = [[a, b], [b, d]], in closed form.

    With f = sqrt(|a|^2 + |b|^2), g = |conj(a) b + conj(b) d| / f and
    h = |a d - b^2| / f, the unitary that turns tau's first column into
    (f, 0), and two diagonal phases, take tau to [[f, g], [0, h]]: so
    x_1 - x_2 = hypot(f - h, g) and x_1 + x_2 = hypot(f + h, g).  When
    f = 0, tau = diag(0, d).  Every step is elementwise.
    """
    f = np.hypot(np.abs(a), np.abs(b))
    pivot = f > 0.0
    f_div = np.where(pivot, f, 1.0)
    g = np.abs(a.conj() * b + b.conj() * d) / f_div
    h = np.abs(a * d - b * b) / f_div
    abs_d = np.abs(d)
    diff = np.where(pivot, np.hypot(f - h, g), abs_d)
    return np.where(pivot, (diff + np.hypot(f + h, g)) / 2.0, abs_d), diff


def _concurrences(factors: np.ndarray) -> np.ndarray:
    """Wootters' concurrence max(x_1 - x_2 - x_3 - x_4, 0) of each block R = L L†.

    ``factors`` is a (..., 4, r) stack of the L, r = 2, 3 or 4; the x_i
    are the singular values of the r x r matrix tau = L^T (sy x sy) L,
    and those past r are 0.  Two columns take the closed form of
    ``_two_column_x``, wider factors an SVD.  A difference within
    X_ROUNDOFF * x_1, the accuracy of the SVD, is an exact 0.  Every
    step treats each block alone, so a row of a stack gets the values
    it would get alone.
    """
    if factors.shape[-1] == 2:
        x_1, c = _two_column_x(*_two_column_tau(factors))
    else:
        # L^T (sy x sy) reverses the columns of L^T and flips the sign of the outer two: the
        # exact products a matmul with the spin flip would form, without its complex cast
        lt_flip = np.swapaxes(factors, -1, -2)[..., ::-1] * _FLIP_SIGNS
        x = np.linalg.svd(lt_flip @ factors, compute_uv=False)
        x_1, c = x[..., 0], x[..., 0] - x[..., 1:].sum(axis=-1)
    return np.where(c > X_ROUNDOFF * x_1, c, 0.0)


def _state_concurrences(states: Sequence[_State], idx: np.ndarray) -> Callable[..., np.ndarray]:
    """(w_a, w_b, owner) -> (..., P) concurrences of the blocks ``idx`` of the rotated states.

    With one state, or ``owner`` None, every rotation applies to
    ``states[0]``; else row i of the (N, d, m) rotation stacks applies to
    ``states[owner[i]]``.  Rows are grouped by their state's kind and data
    shape, each group is one call of its kind, and each row's values
    equal those of the one-state call, whatever rows sit beside it.
    """
    groups: dict[tuple[Callable[..., np.ndarray], tuple[int, ...]], list[int]] = {}
    for i, s in enumerate(states):
        groups.setdefault((s.kind, s.data.shape), []).append(i)
    group, local = np.empty(len(states), dtype=int), np.empty(len(states), dtype=int)
    stacks = []
    for g, ((kind, _), members) in enumerate(groups.items()):
        group[members], local[members] = g, np.arange(len(members))
        stacks.append((kind, np.array([states[i].data for i in members])))

    def concurrences(w_a: np.ndarray, w_b: np.ndarray,
                     owner: np.ndarray | None = None) -> np.ndarray:
        if owner is None or len(states) == 1:
            return states[0].concurrences(w_a, w_b, idx)
        x = np.empty((len(owner), len(idx)))
        row_group = group[owner]
        for g, (kind, data) in enumerate(stacks):
            rows = np.flatnonzero(row_group == g)
            if rows.size:
                x[rows] = kind(data[local[owner[rows]]], w_a[rows], w_b[rows], idx)
        return x

    return concurrences


def _local_adjoint(u: np.ndarray | None, d: int) -> np.ndarray:
    """u† for a local unitary of dimension d (None -> identity)."""
    if u is None:
        return np.eye(d, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise DimensionMismatchError(f"unitary shape {u.shape} does not match dimension {d}")
    return u.conj().T


# ---------------------------------------------------------------------------
# bounds

@dataclass
class BoundReport:
    """Per-generator-pair X values and the resulting bound B = sqrt(sum X^2).

    Keys of ``terms`` are 1-based (k_a, l_a, k_b, l_b).
    """

    terms: dict[tuple[int, int, int, int], float]
    b: float

    @property
    def b_squared(self) -> float:
        return self.b * self.b


def bound_x(rho: np.ndarray, k_a: int, l_a: int, k_b: int, l_b: int,
            u_a: np.ndarray | None = None, u_b: np.ndarray | None = None,
            dims: tuple[int, int] | None = None) -> float:
    """Single term X_{k_a, l_a, k_b, l_b} >= 0 (1-based indices).

    X is the concurrence of the block on |k_a>,|l_a> (x) |k_b>,|l_b> of
    U rho U†, U = u_a (x) u_b; None means identity.  ``dims`` gives
    (d_a, d_b); when omitted it is inferred from ``u_a``, else from
    ``u_b``, else from a symmetric split, and a matrix size that does not
    split that way raises ``DimensionMismatchError``.
    """
    rho = np.asarray(rho, dtype=complex)
    if dims is not None:
        d_a, d_b = dims
    else:
        n = rho.shape[0]
        if u_a is not None:
            d_a = np.shape(u_a)[0]
            d_b = n // max(d_a, 1)
        elif u_b is not None:
            d_b = np.shape(u_b)[0]
            d_a = n // max(d_b, 1)
        else:
            d_a = d_b = math.isqrt(n)
        if d_a * d_b != n:
            raise DimensionMismatchError(
                f"matrix size {n} does not split as {d_a}*{d_b}; pass dims=(d_a, d_b)")
    state = _check_state(rho, d_a, d_b)
    for (k, l, d) in ((k_a, l_a, d_a), (k_b, l_b, d_b)):
        if not (1 <= k <= d and 1 <= l <= d):
            raise IndexOutOfRangeError(f"indices ({k},{l}) outside 1..{d}")
        if k >= l:
            raise IndexOrderError(f"require k < l, got ({k},{l})")
    x = state.concurrences(_local_adjoint(u_a, d_a), _local_adjoint(u_b, d_b),
                           _block_index([((k_a, l_a), (k_b, l_b))], d_b))
    return float(x[0])


def bound_b(rho: np.ndarray, d_a: int, d_b: int,
            u_a: np.ndarray | None = None, u_b: np.ndarray | None = None) -> BoundReport:
    """Lower bound B(rho): all d_a(d_a-1)/2 * d_b(d_b-1)/2 generator pairs.

    Each term is the concurrence of one 4x4 block of U rho U†, U = u_a (x) u_b.
    """
    state = _check_state(rho, d_a, d_b)
    pairs = _all_pairs(d_a, d_b)
    x = state.concurrences(_local_adjoint(u_a, d_a), _local_adjoint(u_b, d_b),
                           _block_index(pairs, d_b))
    terms = {pa + pb: float(xi) for (pa, pb), xi in zip(pairs, x)}
    return BoundReport(terms, float(np.sqrt(np.sum(x * x))))


# ---------------------------------------------------------------------------
# parameter packing for the optimization objectives

def _angles_at(vec: np.ndarray, pos: list[tuple[int, int]], d: int, label: str) -> np.ndarray:
    """d x d angle matrix holding ``vec`` at ``pos`` and zeros elsewhere.

    Leading axes of ``vec`` give a stack (..., d, d) of matrices.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != len(pos):
        raise LengthMismatchError(f"expected {len(pos)} angles for {label}, got {vec.shape[-1]}")
    lam = np.zeros(vec.shape[:-1] + (d, d))
    lam[..., [i for i, _ in pos], [j for _, j in pos]] = vec
    return lam


def offdiag_positions(d: int) -> list[tuple[int, int]]:
    """Row-major 0-based positions of the d^2 - d off-diagonal angles."""
    return [(i, j) for i in range(d) for j in range(d) if i != j]


def offdiag_to_matrix(vec: np.ndarray, d: int) -> np.ndarray:
    """Angle matrix with zero diagonal from a packed off-diagonal vector."""
    return _angles_at(np.ravel(vec), offdiag_positions(d), d, f"d={d}")


def ucs_block_positions(d: int, k: int = 2) -> list[tuple[int, int]]:
    """Row-major 0-based positions of the 2k(d-k) subspace-block angles."""
    return [(i, j) for i in range(d) for j in range(d)
            if (i < k <= j) or (j < k <= i)]


def ucs_block_to_matrix(vec: np.ndarray, d: int, k: int = 2) -> np.ndarray:
    """Angle matrix populated only at the subspace block positions."""
    return _angles_at(np.ravel(vec), ucs_block_positions(d, k), d, f"d={d}, k={k}")


# ---------------------------------------------------------------------------
# optimization objectives (negated for minimization)
#
# The optimized bound and the distillability witness are one search each:
# maximize the sum of X^2 over some blocks of a locally rotated state,
# over some packed angles.  One batched evaluator, (..., n) packed vectors
# -> (...) values, serves both; the optimizer steps all restarts through it
# on (N, n) stacks, and the public closures evaluate it on one vector.

Rotations = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class _Search:
    """A maximization of a sum of X^2 over local rotations (see ``_search``).

    ``rotations`` maps (..., n) packed vectors, A's angles first, to the
    stacks (w_a, w_b); ``idx`` are the blocks summed and ``seed_idx`` those
    the seeded surrogate reads.
    """

    d_a: int
    d_b: int
    n: int
    rotations: Rotations
    idx: np.ndarray
    seed_idx: np.ndarray


def _search(d_a: int, d_b: int, witness: bool = False) -> _Search:
    """The B_opt search, or with ``witness`` that of the distillability witness.

    B_opt reads the d^2 - d off-diagonal angles per side, rotates by the
    composite products ``build_unitary(offdiag_to_matrix(v, d))`` and sums
    every block; its surrogate pairs the generator pairs of ``sigma_pairs``
    one to one, as far as the shorter list goes.  The witness reads the
    4d - 8 subspace-block angles per side (none for d = 2), keeps the first
    two columns of ``build_ucs(ucs_block_to_matrix(v, d), 2)`` and reads
    the single (1,2) x (1,2) block for both.  No diagonal phases.  Both
    sides come from one ``_product`` call, the smaller side cut from the
    top-left corner of a d x d product, d = max(d_a, d_b).
    """
    d = max(d_a, d_b)
    positions, pairs = ((ucs_block_positions, _ucs_pairs(d, 2)) if witness
                        else (offdiag_positions, _unitary_pairs(d)))
    cols_a, cols_b = (2, 2) if witness else (d_a, d_b)
    # each side's angles in the top-left block of its own d x d matrix of one (2, d, d) stack;
    # the plane factors outside a smaller side's block then have zero angles, identities
    flat = [side * d * d + i * d + j
            for side, d_side in enumerate((d_a, d_b)) for i, j in positions(d_side)]

    def rotations(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lam = np.zeros(v.shape[:-1] + (2 * d * d,))
        lam[..., flat] = v
        u = _product(lam.reshape(v.shape[:-1] + (2, d, d)), pairs, diag=False)
        return u[..., 0, :d_a, :cols_a], u[..., 1, :d_b, :cols_b]

    if witness:  # cut from the 2 x 2 space the two columns per side span
        idx = seed_idx = _block_index([((1, 2), (1, 2))], 2)
    else:
        idx = _block_index(_all_pairs(d_a, d_b), d_b)
        seed_idx = _block_index(list(zip(sigma_pairs(d_a), sigma_pairs(d_b))), d_b)
    return _Search(d_a, d_b, len(flat), rotations, idx, seed_idx)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, adding its entries in index order.

    A row of a stack then sums exactly as a lone vector does; a reduction
    along the axis of a many-row array may add in another order, and the
    batched values would differ from the one-vector ones in the last bit.
    """
    total = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


def _states(rho: np.ndarray | _State | Sequence[np.ndarray | _State],
            d_a: int, d_b: int) -> list[_State]:
    """One state, or a stack or sequence of them, as checked ``_State``s."""
    if isinstance(rho, _State) or np.ndim(rho) == 2:
        rho = [rho]
    return [_check_state(r, d_a, d_b) for r in rho]


def _values(rho: np.ndarray | _State | Sequence[np.ndarray | _State],
            search: _Search) -> Callable[..., np.ndarray]:
    """Batched objective of ``search``: packed vectors -> -(sum of X^2) of each.

    ``rho`` is one state, or an (S, n, n) stack or a sequence of them
    evaluated as ``values(v, owner)``: row i of the (N, n) vectors on state
    ``owner[i]``.  The witness sums one block, so its value is -X^2.
    """
    concurrences = _state_concurrences(_states(rho, search.d_a, search.d_b), search.idx)

    def values(v: np.ndarray, owner: np.ndarray | None = None) -> np.ndarray:
        x = concurrences(*search.rotations(v), owner)
        return -_row_sums(x * x)

    return values


def _scalar(values: Batch, n: int) -> Callable[[np.ndarray], float]:
    """One-vector form of a batched objective over n angles."""

    def objective(v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float).ravel()
        if v.size != n:
            raise LengthMismatchError(f"expected {n} angles, got {v.size}")
        return float(values(v))

    return objective


def make_bopt_objective(rho: np.ndarray, d_a: int, d_b: int) -> Callable[[np.ndarray], float]:
    """Objective v -> -B^2(rho; v) over (d_a^2 - d_a) + (d_b^2 - d_b) packed angles.

    The vector is the concatenation of the A and B off-diagonal packings.
    Each packing builds a composite product Uc that acts as the *adjoint*
    of the local rotation: the terms are the block concurrences of
    Uc† rho Uc, Uc = uc_a (x) uc_b.  With that convention appended
    diagonal phases conjugate every block by a local diagonal unitary,
    which leaves its concurrence unchanged, so the diagonal angles are
    not part of the vector.
    """
    search = _search(d_a, d_b)
    return _scalar(_values(rho, search), search.n)


def bopt_objective(rho: np.ndarray, d_a: int, d_b: int,
                   params_a: np.ndarray, params_b: np.ndarray) -> float:
    """-B^2 for one pair of packed off-diagonal angle vectors."""
    f = make_bopt_objective(rho, d_a, d_b)
    return f(np.concatenate([np.asarray(params_a, dtype=float).ravel(),
                             np.asarray(params_b, dtype=float).ravel()]))


def make_distill_objective(rho: np.ndarray, d_a: int, d_b: int) -> Callable[[np.ndarray], float]:
    """Objective v -> -X^2_{1,2,1,2} over (4 d_a - 8) + (4 d_b - 8) subspace-block angles.

    Each side contributes the 4d - 8 angles of a two-dimensional subspace
    product (none for d = 2).  The term is the concurrence of the single
    block E† rho E, with E the first two columns of each subspace
    product, tensored.
    """
    search = _search(d_a, d_b, witness=True)
    return _scalar(_values(rho, search), search.n)


def distill_objective(rho: np.ndarray, d_a: int, d_b: int,
                      params_a: np.ndarray, params_b: np.ndarray) -> float:
    """-X^2_{1,2,1,2} for one pair of packed subspace-block angle vectors."""
    f = make_distill_objective(rho, d_a, d_b)
    return f(np.concatenate([np.asarray(params_a, dtype=float).ravel(),
                             np.asarray(params_b, dtype=float).ravel()]))


def _pt_surrogate(rho: np.ndarray, rotations: Rotations, idx: np.ndarray) -> Batch:
    """Batched surrogate: packed vectors -> sum of λ_min of each block's partial transpose.

    The blocks ``idx`` are those the objective sees, from the same
    rotations.  A block with a negative term is NPT, hence has a nonzero X.
    """

    def values(v: np.ndarray) -> np.ndarray:
        blocks = _rotated_blocks(rho, *rotations(v), idx)
        return _row_sums(np.linalg.eigvalsh(blocks[..., _PT_ROWS, _PT_COLS])[..., 0])

    return values


def _pt_seeded(result: OptimizerResult, objective: Callable[[np.ndarray], float],
               state: _State, search: _Search, cfg: OptimizerConfig) -> OptimizerResult:
    """Add the partial-transpose-seeded stage when all restarts ended on an NPT state's plateau.

    The plateau is any value above -PLATEAU_X_SQ, round-off of X = 0.  The
    surrogate is minimized with PT_SEED_RESTARTS restarts drawn from
    ``cfg.seed``, and one Nelder-Mead run of ``objective`` starts from its
    minimizer.  The returned result is the better of that run and
    ``result``; it keeps the restart count of ``result``, adds the stage's
    simplex steps, evaluations and objective calls, and lists the run's
    value after the restart values, so ``best_restart`` equals
    ``result.restarts`` when the run wins.  Without the stage ``result`` is returned as is; a search
    without angles (the d = 2 witness) is exact and gets no stage.
    """
    n = search.n
    if (result.value <= -PLATEAU_X_SQ or n == 0
            or ppt_min_eigenvalue(state.rho, (search.d_a, search.d_b)) >= -PPT_TOL):
        return result
    surrogate = _pt_surrogate(state.rho, search.rotations, search.seed_idx)
    seeded = minimize(_scalar(surrogate, n), n, replace(cfg, restarts=PT_SEED_RESTARTS),
                      batch=surrogate)
    run = refine(objective, seeded.x, cfg, batch=_values(state, search))
    best = run if run.value < result.value else result
    return OptimizerResult(best.value, best.x,
                           result.iterations + seeded.iterations + run.iterations,
                           result.restarts, best.converged,
                           evaluations=result.evaluations + seeded.evaluations + run.evaluations,
                           calls=result.calls + seeded.calls + run.calls,
                           restart_values=result.restart_values + run.restart_values,
                           best_restart=result.restarts if best is run else result.best_restart)


def _maximize(rhos: Sequence[np.ndarray | _State], d_a: int, d_b: int,
              cfgs: Sequence[OptimizerConfig | None], witness: bool) -> list[OptimizerResult]:
    """Minimized -(sum of X^2) of the search for each state, with the config of the same index.

    The states are checked once and their restarts stepped together in one
    ``minimize_many`` run, each state evaluating its own rows, so each
    result equals that of the state alone; the configs may differ only in
    ``seed``.  The partial-transpose-seeded stage then follows per state.
    """
    search = _search(d_a, d_b, witness)
    states = _states(rhos, d_a, d_b)
    make = make_distill_objective if witness else make_bopt_objective
    objectives = [make(state, d_a, d_b) for state in states]
    cfgs = [cfg or OptimizerConfig() for cfg in cfgs]
    results = minimize_many(objectives, search.n, cfgs, batch=_values(states, search))
    return [_pt_seeded(result, f, state, search, cfg)
            for result, f, state, cfg in zip(results, objectives, states, cfgs)]


def optimized_bounds_b(rhos: Sequence[np.ndarray], d_a: int, d_b: int,
                       cfgs: Sequence[OptimizerConfig | None]
                       ) -> list[tuple[float, OptimizerResult]]:
    """``optimized_bound_b`` of each state in ``rhos``, with the config of the same index.

    All states are optimized in one lockstep run, and each result equals
    that of ``optimized_bound_b`` on the state alone (see ``_maximize``).
    """
    return [(math.sqrt(max(-result.value, 0.0)), result)
            for result in _maximize(rhos, d_a, d_b, cfgs, witness=False)]


def optimized_bound_b(rho: np.ndarray, d_a: int, d_b: int,
                      cfg: OptimizerConfig | None = None) -> tuple[float, OptimizerResult]:
    """Maximized bound B_opt >= B via Nelder-Mead restarts.

    The restarts are those of ``minimize``, stepped together through the
    batched objective.  When all of them end on the X = 0 plateau of an
    NPT state, the partial-transpose-seeded stage (see the module
    docstring) follows.  This is the one-state case of
    ``optimized_bounds_b``.
    """
    return optimized_bounds_b([rho], d_a, d_b, [cfg])[0]


def max_distill_x_sq(rho: np.ndarray, d_a: int, d_b: int,
                     cfg: OptimizerConfig | None = None) -> tuple[float, OptimizerResult]:
    """Maximized X^2_{1,2,1,2}; positive values witness distillability.

    The search runs over the 4d - 8 subspace angles per side, and the
    partial-transpose-seeded stage follows as for ``optimized_bound_b``.
    """
    (result,) = _maximize([rho], d_a, d_b, [cfg], witness=True)
    return max(-result.value, 0.0), result


# ---------------------------------------------------------------------------
# partial transposition test, bipartitions, copies

def ppt_min_eigenvalue(rho: np.ndarray, dims: Sequence[int], which: int = 1) -> float:
    """Minimum eigenvalue of the partial transpose; < -1e-10 means NPT."""
    pt = partial_transpose(np.asarray(rho, dtype=complex), dims, which)
    return float(herm_eig(pt).eigenvalues[0])


@dataclass(frozen=True)
class Bipartition:
    """Split of n subsystems into groups alpha and beta (0-based indices)."""

    n: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    d_alpha: int
    d_beta: int


def enumerate_bipartitions(n: int, dims: Sequence[int]) -> list[Bipartition]:
    """All 2^(n-1) - 1 splits, ordered by bitmask, subsystem 0 always in alpha."""
    dims = tuple(int(d) for d in dims)
    if n < 2:
        raise DimensionMismatchError(f"need at least 2 subsystems, got {n}")
    if len(dims) != n:
        raise DimensionMismatchError(f"dims has length {len(dims)}, expected {n}")
    parts = []
    for mask in range(2 ** (n - 1) - 1):
        alpha = (0,) + tuple(i + 1 for i in range(n - 1) if mask >> i & 1)
        beta = tuple(i for i in range(n) if i not in alpha)
        parts.append(Bipartition(
            n, alpha, beta,
            int(np.prod([dims[i] for i in alpha])),
            int(np.prod([dims[i] for i in beta])),
        ))
    return parts


@dataclass
class MultipartiteBound:
    """Bound summed over every bipartition, with the per-bipartition reports."""

    parts: tuple[tuple[Bipartition, BoundReport], ...]
    b: float

    @property
    def b_squared(self) -> float:
        return self.b * self.b


def multipartite_bound_b(rho: np.ndarray, dims: Sequence[int],
                         unitaries: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
                         ) -> MultipartiteBound:
    """Sum of bipartite B^2 over all bipartitions of an n-partite state.

    For each bipartition the subsystems are permuted into a contiguous
    alpha (x) beta layout (alpha factors first, in index order) before the
    bipartite bound is evaluated.  ``unitaries``, if given, lists one
    (u_alpha, u_beta) pair per bipartition in enumeration order.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in dims)
    parts = enumerate_bipartitions(len(dims), dims)
    if unitaries is not None and len(unitaries) != len(parts):
        raise DimensionMismatchError(
            f"expected {len(parts)} unitary pairs, got {len(unitaries)}")
    reports = []
    total_sq = 0.0
    for i, bp in enumerate(parts):
        perm = list(bp.alpha) + list(bp.beta)
        rho_p = permute_subsystems(rho, dims, perm)
        u_a, u_b = unitaries[i] if unitaries is not None else (None, None)
        rep = bound_b(rho_p, bp.d_alpha, bp.d_beta, u_a, u_b)
        reports.append((bp, rep))
        total_sq += rep.b_squared
    return MultipartiteBound(tuple(reports), math.sqrt(total_sq))


def n_copy_state(rho: np.ndarray, dims: Sequence[int], n: int,
                 max_dim: int = 256) -> np.ndarray:
    """n-fold tensor power regrouped to the (A...A | B...B) bipartition.

    ``dims`` is the (d_a, d_b) layout of one copy; the result acts on
    d_a^n x d_b^n with all A factors first.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise DimensionMismatchError(f"expected a bipartite dims pair, got {dims}")
    if dims[0] * dims[1] != rho.shape[0]:
        raise DimensionMismatchError(f"{dims[0]}*{dims[1]} != matrix size {rho.shape[0]}")
    if n < 1:
        raise DimensionMismatchError(f"copy count must be >= 1, got {n}")
    total = (dims[0] * dims[1]) ** n
    if total > max_dim:
        raise DimensionTooLargeError(f"total dimension {total} exceeds cap {max_dim}")
    if n == 1:
        return rho.copy()
    out = rho
    for _ in range(n - 1):
        out = np.kron(out, rho)
    # copies are laid out A1 B1 A2 B2 ...; regroup to A1..An B1..Bn
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return permute_subsystems(out, dims * n, perm)
