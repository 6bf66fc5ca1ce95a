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

Each call factors each block once.  A call whose gradient will be read
(``full``: the BFGS steps of the searches) takes one full SVD per block,
and one full QR of a wide F: the singular values give the x_i, and the
singular vectors and Q serve the gradient.  Every other call (the
simplex scoring, the re-evaluations, ``make_*_objective``, ``bound_b``
and the candidate scoring of ``lifted_bounds_b``) takes the singular
values alone and QR's R alone, which cost less; a gradient asked of such
a call factors its blocks again.  The two SVDs' singular values may
differ in the last bits, so every value a search reports comes from the
values-only form, and the full form's values only steer the search.

The plain bound B = sqrt(sum of X^2 over all pairs) (Chen-Albeverio-Fei,
PRL 95, 040504, 2005), its maximum over the composite parameterization
of the local rotations, the multipartite sum over bipartitions and the
distillability witness (the single block on the first two columns of two
subspace isometries, maximized) all go through it.  The searches' packed
angles are those the plane-factor lists of their composite products read.

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
So once per search call a partial-transpose-seeded stage runs, in one
lockstep, for every state whose best restart is above -PLATEAU_X_SQ
(|X| < 1e-12) and that is NPT (``ppt_min_eigenvalue`` below
-DENSITY_PSD_TOL): it minimizes the sum of the smallest eigenvalues of
the partially transposed blocks, which has no plateau, over the same
angles and blocks, and starts one more run of the search from that
minimizer.  Other states' results are those of the restarts alone.

Both searches, B_opt and the witness, and the seeded stage's surrogate
run BFGS (see ``optimize``) on exact gradients.  Every plane factor is
a closed-form 2x2 rotation, so one function per objective
(``_objective``, ``_pt_surrogate``) gives each row's value and a
closure for its angle gradient.  Each kind returns its blocks'
concurrences with a pullback built from the same factors, which only a
called gradient runs.  Per block,
dX = sum_i eps_i Re(u_i† dtau v_i), eps = (+1, -1, -1, -1), from the SVD
of tau (closed form for two columns); any factor of the block serves,
so dL = dR L^-† / 2 for the Cholesky kind and the QR factor's Q maps
back for the direct kind's wide F.  The blocks' terms sum to one
gradient on W = w_a (x) w_b, which one contraction per side and one
sweep back through ``_product``'s plane factors (``_product_pullback``)
take to every angle, for the witness's two columns per side as for
B_opt's full rotations.  The witness's one block is the whole rotated
4x4 matrix: only the Cholesky kind and the surrogate skip its gather and
scatter (``_whole``), and the direct kind cuts it as any block.  Blocks
with X = 0 (PPT, screened or zeroed by the round-off rule) add exactly
0, and X^2 is C^1 at the PPT boundary, where 2 X dX vanishes.  X has a
kink where a block's tau loses rank (x_2 = 0 for two columns); rank-2
states have their maxima there, which BFGS approaches slowly, and a run
whose line search no longer moves it stops.
Each start's simplex is scored, and each result re-evaluated, by the
values-only form, with no gradient called.  The surrogate's blocks take
the same path from W† rho W to the angles, from the gradient M^Γ of each
block's lambda_min(R^Γ), M = e e† for its eigenvector e.

BFGS restarts land in the better of two maxima about one time in five
at the fig1 states that have two, so twelve restarts can all miss it.
``lifted_bounds_b`` continues results from candidate angles, such as the
optima of related states: one BFGS run from each state's best
candidate, where that beats the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .composite import (
    _angle_positions,
    _check_isometry,
    _check_pair,
    _product,
    _product_pullback,
    _ucs_pairs,
    sigma_pairs,
)
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    LengthMismatchError,
    NormalizationError,
    NotPSDError,
    NotUnitaryError,
    RankOutOfRangeError,
)
from .linalg import (
    EIG_ROUNDOFF_RATIO,
    PSD_EIG_TOL,
    _as_square,
    _check_dims,
    _count,
    herm_eig,
    partial_trace,
    partial_transpose,
    permute_subsystems,
)
from .optimize import Objective, OptimizerConfig, OptimizerResult, Values, minimize_many, refine
from .states import DENSITY_PSD_TOL, DENSITY_TRACE_TOL

PT_SEED_RESTARTS = 6
PLATEAU_X_SQ = 1e-24
# a candidate must beat a result's -B^2 by more than this to start a lifting run
LIFT_MARGIN = 1e-12
# x_1 - x_2 - x_3 - x_4 at or below this times x_1 is the SVD's round-off of a PPT block
X_ROUNDOFF = 8 * np.finfo(float).eps
# A state with lambda_min > CHOLESKY_MIN_RATIO * lambda_max has only positive-definite
# blocks: each block is E† rho E for an isometry E, so by Cauchy interlacing its
# eigenvalues lie in [lambda_min, lambda_max] of rho.  Its condition number is then
# below 1e8, far from where round-off (~1e-15 relative) could make it indefinite.
CHOLESKY_MIN_RATIO = 1e-8
# det(R^Γ) above this times (tr R)^4 proves a 4x4 block PPT, far above det's round-off
PPT_DET_RATIO = 1e-12
N_COPY_MAX_DIM = 256


# ---------------------------------------------------------------------------
# elementary quantities

def linear_entropy(rho: np.ndarray) -> float:
    """d/(d-1) * (1 - Tr(rho^2)), clipped into [0, 1]."""
    rho = _as_square(rho)
    d = rho.shape[0]
    if d < 2:
        raise DimensionMismatchError("linear entropy needs dimension >= 2")
    purity = float(np.trace(rho @ rho).real)
    return float(np.clip(d / (d - 1) * (1.0 - purity), 0.0, 1.0))


def max_concurrence(d: int) -> float:
    """Concurrence of a maximally entangled d x d state, sqrt(2(d-1)/d)."""
    d = _count(d, "dimension", 1)
    return math.sqrt(2.0 * (d - 1) / d)


def pure_m_concurrence_sq(psi: np.ndarray, d_a: int, d_b: int) -> float:
    """Squared concurrence of a bipartite pure state, 2(d-1)/d * S_L(rho_A)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if d_a != d_b:
        raise DimensionMismatchError(f"local dimensions must match, got {d_a} and {d_b}")
    if d_a * d_b != psi.size:
        raise DimensionMismatchError(f"{d_a}*{d_b} != state length {psi.size}")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > DENSITY_TRACE_TOL:
        raise NormalizationError(f"state norm {nrm!r} is not 1 within {DENSITY_TRACE_TOL:.0e}")
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


@dataclass(frozen=True)
class _State:
    """A checked state and the evaluator of its 4x4 blocks.

    ``kind(data, w_a, w_b, idx, full=False)`` gives the (..., P)
    concurrences of the blocks ``idx`` of W† rho W (see
    ``_rotated_blocks``) and their pullback: called, it gives the
    (N, n, m) gradient of the rows' sums of X^2 with respect to
    W = w_a (x) w_b.  With ``full`` the value pass factors each block in
    full for the pullback (see ``_concurrences``).  There are two kinds:
    ``_cholesky_concurrences``, with ``data`` the Hermitian part of rho,
    and ``_direct_concurrences``, with ``data`` the n x max(r, 2) factor
    Psi of rho = Psi Psi†.
    """

    rho: np.ndarray
    kind: Callable[..., tuple[np.ndarray, Callable[[], np.ndarray]]]
    data: np.ndarray


def _check_state(rho: np.ndarray | _State, d_a: int, d_b: int) -> _State:
    """rho, after the shape and positivity checks every bound needs, with its kind.

    The kind is chosen from the eigendecomposition the positivity
    check makes (see the module docstring).  A ``_State`` from an earlier
    check is returned as it is.
    """
    if isinstance(rho, _State):
        return rho
    rho, _ = _check_dims(rho, (d_a, d_b))
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


# kept: without it distill-witness scaled_wall_s rose 2.5-6.8% (4 of 4 pairs, seeds 2701-2704)
def _whole(idx: np.ndarray, m: int) -> bool:
    """Whether the blocks ``idx`` are one block that is the whole m x m matrix, in order.

    ``_block_index`` lists a block's indices in increasing order, so one
    block of m = 4 indices is the identity (the witness's block).
    """
    return idx.shape == (1, m)


def _rotated_blocks(rho: np.ndarray, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(..., P, 4, 4) stack of the blocks ``idx`` of W† rho W.

    ``w`` is W = w_a (x) w_b from ``_product_basis``; a stack of them gives
    N stacks of blocks.  The whole rotated matrix, as one block, is not
    gathered.
    """
    rotated = np.swapaxes(w.conj(), -1, -2) @ rho @ w
    if _whole(idx, w.shape[-1]):
        return rotated[..., None, :, :]
    return rotated[..., idx[:, :, None], idx[:, None, :]]


def _rotated_pullback(rho: np.ndarray, w: np.ndarray, idx: np.ndarray,
                      g: np.ndarray) -> np.ndarray:
    """(N, n, m) gradient G, d = Re tr(G† dW), of the blocks' terms sum Re tr(g_p dR_p).

    The R_p are the blocks ``idx`` of W† rho W, as ``_rotated_blocks`` cuts
    them from the (N, n, m) stack W, and ``g`` is the (N, P, 4, 4) stack of
    the g_p.  They are scattered onto W† rho W as S, which changes by
    dW† rho W + W† rho dW, so G = rho W (S + S†).  The whole matrix, as one
    block, is S itself.
    """
    m = w.shape[-1]
    if _whole(idx, m):
        s = g.reshape(len(g), m, m)
    else:
        s = _scatter_add(g.reshape(len(g), -1), (idx[:, :, None] * m + idx[:, None, :]).ravel(),
                         m * m).reshape(-1, m, m)
    return rho @ w @ (s + np.swapaxes(s.conj(), -1, -2))


def _provably_ppt(blocks: np.ndarray) -> np.ndarray:
    """Mask of the (..., 4, 4) blocks R with det(R^Γ) > PPT_DET_RATIO * (tr R)^4.

    R^Γ has at most one negative eigenvalue, so such a block is PPT and has X = 0.
    """
    trace = np.trace(blocks, axis1=-2, axis2=-1).real
    return np.linalg.det(blocks[..., _PT_ROWS, _PT_COLS]).real > PPT_DET_RATIO * trace ** 4


def _cholesky_concurrences(rho: np.ndarray, w_a: np.ndarray, w_b: np.ndarray,
                           idx: np.ndarray, full: bool = False
                           ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """(..., P) concurrences of the blocks of a state whose blocks are all positive definite.

    L is each block's Cholesky factor.  When a row sums more than one
    block, those ``_provably_ppt`` finds get X = 0 with no factor and no
    SVD; every other block gets the value it would get unscreened.  The
    pullback's G (see ``_State``) has d(sum X^2) = Re tr(G† dW).  Any
    factor with L L† = R gives the same x_i, so dL = dR L^-† / 2 may stand
    in for the Cholesky factor's own derivative, and
    d(X^2) = Re tr(L^-† H dR) / 2 (H from ``_concurrences``).  Screened
    blocks have X = 0 and add 0.  The pullback reuses the value pass's W
    and its factors' tau.
    """
    w = _product_basis(w_a, w_b)
    blocks = _rotated_blocks(rho, w, idx)
    # a lone block is never screened, and its view needs no masked copy
    kept = ~_provably_ppt(blocks) if len(idx) > 1 else ...
    x = np.zeros(blocks.shape[:-2])
    factors = np.linalg.cholesky(blocks[kept])
    x[kept], factor_gradient = _concurrences(factors, full)

    def pullback() -> np.ndarray:
        g = np.zeros(blocks.shape, dtype=complex)
        g[kept] = np.linalg.solve(np.swapaxes(factors.conj(), -1, -2), factor_gradient()) / 2.0
        return _rotated_pullback(rho, w, idx, g)

    return x, pullback


def _direct_concurrences(psi: np.ndarray, w_a: np.ndarray, w_b: np.ndarray,
                         idx: np.ndarray, full: bool = False
                         ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """(..., P) concurrences of the blocks of rho = Psi Psi†, from the rows F = (W† Psi)[idx].

    F is the factor L as it is while Psi has at most 4 columns, r = 2, 3
    or 4.  When Psi has more, L = R† from the QR decomposition F† = Q R,
    as F F† = R† R; QR takes no square roots of round-off, so
    rank-deficient blocks need no eigenvalue floor.  The pullback is that
    of ``_cholesky_concurrences``: F = L Q† has the tau of L with Q mapping
    its singular vectors, so H = Q H_L, and dF = (dW† Psi)[idx].  With
    ``full`` one full QR gives R and Q, whose R equals ``mode="r"``'s bit
    for bit; else the pullback takes Q from a QR of its own.
    """
    f = (np.swapaxes(_product_basis(w_a, w_b).conj(), -1, -2) @ psi)[..., idx, :]
    wide = psi.shape[-1] > 4
    if wide:
        qr = np.linalg.qr(np.swapaxes(f.conj(), -1, -2), mode="reduced" if full else "r")
        factors = np.swapaxes((qr[1] if full else qr).conj(), -1, -2)
    else:
        factors = f
    x, factor_gradient = _concurrences(factors, full)

    def pullback() -> np.ndarray:
        h = factor_gradient()
        if wide:
            h = (qr if full else np.linalg.qr(np.swapaxes(f.conj(), -1, -2)))[0] @ h
        # the columns of H go to the rows idx of dW†
        h = np.moveaxis(h, -3, -2)
        n_rows, width = h.shape[:2]
        h_cols = _scatter_add(h.reshape(n_rows * width, -1), idx.ravel(),
                              w_a.shape[-1] * w_b.shape[-1])
        return psi @ h_cols.reshape(n_rows, width, -1)

    return x, pullback


# the weights of x_1 .. x_4 in x_1 - x_2 - x_3 - x_4
_X_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def _scatter_add(values: np.ndarray, positions: np.ndarray, size: int) -> np.ndarray:
    """(N, size) sums of the (N, K) complex ``values`` at the K ``positions`` of each row."""
    rows = values.shape[0]
    index = (np.arange(rows)[:, None] * size + positions).ravel()
    total = rows * size
    out = np.bincount(index, values.real.ravel(), total).astype(complex)
    out.imag = np.bincount(index, values.imag.ravel(), total)
    return out.reshape(rows, size)


def _lt_flip(factors: np.ndarray) -> np.ndarray:
    """L^T (sy x sy) for a (..., 4, r) stack of factors L.

    It reverses the columns of L^T and flips the sign of the outer two: the
    exact products a matmul with the spin flip would form, without its
    complex cast.
    """
    return np.swapaxes(factors, -1, -2)[..., ::-1] * _FLIP_SIGNS


def _two_column_tau(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries a, b, d of tau = L^T (sy x sy) L = [[a, b], [b, d]] for (..., 4, 2) factors L."""
    (p0, q0), (p1, q1), (p2, q2), (p3, q3) = np.moveaxis(factors, (-2, -1), (0, 1))
    # u^T (sy x sy) v = u_1 v_2 + u_2 v_1 - u_0 v_3 - u_3 v_0 for columns u, v of L
    return (2.0 * (p1 * p2 - p0 * p3), p1 * q2 + p2 * q1 - p0 * q3 - p3 * q0,
            2.0 * (q1 * q2 - q0 * q3))


def _two_column_x(a: np.ndarray, b: np.ndarray, d: np.ndarray,
                  det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_1 and x_1 - x_2, the singular values of tau = [[a, b], [b, d]], in closed form.

    ``det`` is det tau = a d - b^2.  With f = sqrt(|a|^2 + |b|^2),
    g = |conj(a) b + conj(b) d| / f and h = |det| / f, the unitary that
    turns tau's first column into (f, 0), and two diagonal phases, take
    tau to [[f, g], [0, h]]: so x_1 - x_2 = hypot(f - h, g) and
    x_1 + x_2 = hypot(f + h, g).  When f = 0, tau = diag(0, d).  Every
    step is elementwise.
    """
    f = np.hypot(np.abs(a), np.abs(b))
    pivot = f > 0.0
    f_div = np.where(pivot, f, 1.0)
    g = np.abs(a.conj() * b + b.conj() * d) / f_div
    h = np.abs(det) / f_div
    abs_d = np.abs(d)
    diff = np.where(pivot, np.hypot(f - h, g), abs_d)
    return np.where(pivot, (diff + np.hypot(f + h, g)) / 2.0, abs_d), diff


def _concurrences(factors: np.ndarray, full: bool = False
                  ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Wootters' concurrence max(x_1 - x_2 - x_3 - x_4, 0) of each block R = L L†, and a gradient.

    ``factors`` is a (..., 4, r) stack of the L, r = 2, 3 or 4; the x_i
    are the singular values of the r x r matrix tau = L^T (sy x sy) L,
    and those past r are 0.  Two columns take the closed form of
    ``_two_column_x``, wider factors an SVD.  A difference within
    X_ROUNDOFF * x_1, the accuracy of the SVD, is an exact 0.  Every
    step treats each block alone, so a row of a stack gets the values
    it would get alone.  Each block takes one SVD per call: with ``full``
    the full one, whose U and V the closure reuses; else the singular
    values alone, and a called closure takes the full one.  Their
    singular values may differ in the last bits.

    The closure gives the (..., r, 4) H with d(X^2) = Re tr(H dL), from
    the value pass's tau.  With d(X^2) = Re tr(K dtau) and tau symmetric,
    H = (K + K^T) L^T (sy x sy).  Two columns take the closed form
    X^2 = |tau|_F^2 - 2 |det tau|, so K = 2 (tau† - w adj(tau)) with w the
    phase of conj(det tau), 0 where det tau = 0.  Wider factors take the
    SVD tau = U diag(x) V†, where dx_i = Re(u_i† dtau v_i), so
    K = 2 X V diag(+1, -1, -1, -1) U†.  Blocks with X = 0 get H = 0.
    """
    if factors.shape[-1] == 2:
        a, b, d = _two_column_tau(factors)
        det = a * d - b * b
        x_1, c = _two_column_x(a, b, d, det)
        x = np.where(c > X_ROUNDOFF * x_1, c, 0.0)

        def gradient() -> np.ndarray:
            mag = np.abs(det)
            w = np.where(mag > 0.0, det.conj() / np.where(mag > 0.0, mag, 1.0), 0.0)
            k = np.empty(det.shape + (2, 2), dtype=complex)
            k[..., 0, 0] = a.conj() - w * d
            k[..., 0, 1] = k[..., 1, 0] = b.conj() + w * b
            k[..., 1, 1] = d.conj() - w * a
            k *= np.where(x > 0.0, 4.0, 0.0)[..., None, None]
            return k @ _lt_flip(factors)

        return x, gradient
    lt_flip = _lt_flip(factors)
    tau = lt_flip @ factors
    svd = np.linalg.svd(tau, compute_uv=full)
    sv = svd[1] if full else svd
    x_1, c = sv[..., 0], sv[..., 0] - sv[..., 1:].sum(axis=-1)
    x = np.where(c > X_ROUNDOFF * x_1, c, 0.0)

    def gradient() -> np.ndarray:
        u, _, vh = svd if full else np.linalg.svd(tau)
        k = (np.swapaxes(vh.conj(), -1, -2) * _X_SIGNS[:factors.shape[-1]]) @ np.swapaxes(
            u.conj(), -1, -2)
        return (2.0 * x[..., None, None]) * (k + np.swapaxes(k, -1, -2)) @ lt_flip

    return x, gradient


def _by_state(states: Sequence[_State], idx: np.ndarray
              ) -> Callable[..., tuple[np.ndarray, Callable[[], np.ndarray]]]:
    """(w_a, w_b, owner, full) -> each row's concurrences of the blocks ``idx`` and their pullback.

    With ``owner`` None every rotation applies to ``states[0]``, whose kind gives
    both; so does one state, a shortcut with the grouped path's outputs.  Else
    row i of the (N, d, m) rotation stacks applies to ``states[owner[i]]``: rows
    are grouped by their state's kind and data shape, each group is one call of
    its kind on its states' stacked data, and the pullback gathers the groups'
    gradients.  Each row's outputs equal those of the one-state call, whatever
    rows sit beside it.  ``full`` goes to every kind call.
    """
    groups: dict[tuple[Callable[..., tuple], tuple[int, ...]], list[int]] = {}
    for i, s in enumerate(states):
        groups.setdefault((s.kind, s.data.shape), []).append(i)
    group, local = np.empty(len(states), dtype=int), np.empty(len(states), dtype=int)
    stacks = []
    for g, members in enumerate(groups.values()):
        group[members], local[members] = g, np.arange(len(members))
        stacks.append((states[members[0]].kind, np.array([states[i].data for i in members])))

    def by_state(w_a: np.ndarray, w_b: np.ndarray, owner: np.ndarray | None = None,
                 full: bool = False) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        # kept: without it distill-witness scaled_wall_s rose 2.9% (10 of 10 pairs, 15101-15110)
        if owner is None or len(states) == 1:
            return states[0].kind(states[0].data, w_a, w_b, idx, full)
        row_group = group[owner]
        x, parts = np.empty((len(owner), len(idx))), []
        for g, (kind, data) in enumerate(stacks):
            rows = np.flatnonzero(row_group == g)
            if rows.size:
                x[rows], back = kind(data[local[owner[rows]]], w_a[rows], w_b[rows], idx, full)
                parts.append((rows, back))

        def pullback() -> np.ndarray:
            grad = np.empty((len(owner), states[0].rho.shape[0],
                             w_a.shape[-1] * w_b.shape[-1]), dtype=complex)
            for rows, back in parts:
                grad[rows] = back()
            return grad

        return x, pullback

    return by_state


def _local_adjoint(u: np.ndarray | None, d: int) -> np.ndarray:
    """u† for a local unitary of dimension d (None -> identity).

    A matrix whose unitarity defect exceeds UNITARITY_INPUT_TOL raises
    ``NotUnitaryError``: rotating by it gives numbers that bound nothing.
    """
    if u is None:
        return np.eye(d, dtype=complex)
    u = _check_dims(u, (d,))[0]
    _check_isometry(u, "local unitary", NotUnitaryError)
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
    (d_a, d_b), and anything but a pair raises ``DimensionMismatchError``.
    When omitted it is inferred from ``u_a``, else from ``u_b``, after the
    matrix checks of each, else from a symmetric split, and a matrix size
    that does not split that way raises ``DimensionMismatchError``.
    """
    rho = _as_square(rho)
    if dims is not None:
        if np.shape(dims) != (2,):
            raise DimensionMismatchError(f"dims must be a pair (d_a, d_b), got {dims!r}")
        d_a, d_b = dims
    else:
        n = rho.shape[0]
        if u_a is not None:
            d_a = _as_square(u_a).shape[0]
            d_b = n // d_a
        elif u_b is not None:
            d_b = _as_square(u_b).shape[0]
            d_a = n // d_b
        else:
            d_a = d_b = math.isqrt(n)
        if d_a * d_b != n:
            raise DimensionMismatchError(
                f"matrix size {n} does not split as {d_a}*{d_b}; pass dims=(d_a, d_b)")
    _check_pair(k_a, l_a, d_a)
    _check_pair(k_b, l_b, d_b)
    state = _check_state(rho, d_a, d_b)
    x, _ = state.kind(state.data, _local_adjoint(u_a, d_a), _local_adjoint(u_b, d_b),
                      _block_index([((k_a, l_a), (k_b, l_b))], d_b))
    return float(x[0])


def bound_b(rho: np.ndarray, d_a: int, d_b: int,
            u_a: np.ndarray | None = None, u_b: np.ndarray | None = None) -> BoundReport:
    """Lower bound B(rho): all d_a(d_a-1)/2 * d_b(d_b-1)/2 generator pairs.

    Each term is the concurrence of one 4x4 block of U rho U†, U = u_a (x) u_b.
    """
    state = _check_state(rho, d_a, d_b)
    pairs = _all_pairs(d_a, d_b)
    x, _ = state.kind(state.data, _local_adjoint(u_a, d_a), _local_adjoint(u_b, d_b),
                      _block_index(pairs, d_b))
    terms = {pa + pb: float(xi) for (pa, pb), xi in zip(pairs, x)}
    return BoundReport(terms, float(np.sqrt(np.sum(x * x))))


# ---------------------------------------------------------------------------
# parameter packing for the optimization objectives

def _index(pos: Sequence[tuple[int, ...]], axes: int) -> tuple[np.ndarray, ...]:
    """The ``axes`` index arrays of the positions ``pos``, empty ones for no positions."""
    return tuple(np.array(pos, dtype=int).reshape(-1, axes).T)


def _angles_at(vec: np.ndarray, index: tuple[np.ndarray, ...], shape: tuple[int, ...]
               ) -> np.ndarray:
    """Array of ``shape`` holding ``vec`` at ``index`` (see ``_index``) and zeros elsewhere.

    Leading axes of ``vec`` give a stack (..., *shape); a last axis of
    another length than the layout raises ``LengthMismatchError``.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != index[0].size:
        raise LengthMismatchError(f"expected {index[0].size} angles, got {vec.shape[-1]}")
    lam = np.zeros(vec.shape[:-1] + shape)
    lam[(..., *index)] = vec
    return lam


def offdiag_positions(d: int) -> list[tuple[int, int]]:
    """Row-major 0-based positions of the d^2 - d off-diagonal angles, those of ``sigma_pairs``.

    A d that is not an integer >= 2 raises ``DimensionMismatchError``.
    """
    return _angle_positions(sigma_pairs(_count(d, "dimension", 2)))


def offdiag_to_matrix(vec: np.ndarray, d: int) -> np.ndarray:
    """Angle matrix with zero diagonal from a packed off-diagonal vector."""
    return _angles_at(np.ravel(vec), _index(offdiag_positions(d), 2), (d, d))


def ucs_block_positions(d: int, k: int = 2) -> list[tuple[int, int]]:
    """Row-major 0-based positions of the 2k(d-k) subspace-block angles, those of ``build_ucs``.

    d as in ``offdiag_positions``; a k that is not an integer in 1..d raises
    ``RankOutOfRangeError`` (k = d has no block angles).
    """
    d = _count(d, "dimension", 2)
    return _angle_positions(_ucs_pairs(d, _count(k, "subspace dimension", 1, d,
                                                 RankOutOfRangeError)))


def ucs_block_to_matrix(vec: np.ndarray, d: int, k: int = 2) -> np.ndarray:
    """Angle matrix populated only at the subspace block positions."""
    return _angles_at(np.ravel(vec), _index(ucs_block_positions(d, k), 2), (d, d))


# ---------------------------------------------------------------------------
# optimization objectives (negated for minimization)
#
# The optimized bound and the distillability witness are one search each:
# maximize the sum of X^2 over some blocks of a locally rotated state,
# over some packed angles.  One batched objective, (..., n) packed vectors
# -> (...) values and a gradient closure, serves both; it steps every
# restart of either by BFGS on (N, n) stacks, and the public closures
# evaluate it on one vector.

# v -> (w_a, w_b, back); back(g) is the (N, n) angle gradient of Re tr(g† dW) for the
# (N, d_a d_b, m_a m_b) gradient g on W = w_a (x) w_b
RotationsVJP = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, Callable[..., np.ndarray]]]


@dataclass(frozen=True)
class _Search:
    """A maximization of a sum of X^2 over local rotations (see ``_search``).

    ``rotations_vjp`` maps (..., n) packed vectors, A's angles first, to
    the stacks (w_a, w_b) and their pullback from W = w_a (x) w_b to the
    angles, which the search's and the surrogate's gradients run through;
    ``idx`` are the blocks summed and ``seed_idx`` those the seeded
    surrogate reads.
    """

    d_a: int
    d_b: int
    n: int
    rotations_vjp: RotationsVJP
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
    top-left corner of a d x d product, d = max(d_a, d_b).  A side packs
    its angles as ``offdiag_to_matrix`` or ``ucs_block_to_matrix`` does
    for its own dimension, through one ``_angles_at`` index built here,
    which also reads the gradient back.
    Both give the rotations' pullback through the same factors: one
    contraction of W's gradient per side, then ``_product_pullback``, so
    both searches and their surrogates run on gradients.  A local
    dimension that is not an integer >= 2 raises ``DimensionMismatchError``.
    """
    d_a, d_b = (_count(d, "local dimension", 2) for d in (d_a, d_b))
    d = max(d_a, d_b)
    pairs = _ucs_pairs(d, 2) if witness else sigma_pairs(d)
    cols_a, cols_b = (2, 2) if witness else (d_a, d_b)
    layout = ucs_block_positions if witness else offdiag_positions
    # each side's angles in the top-left block of its own d x d matrix of one (2, d, d) stack;
    # the plane factors outside a smaller side's block then have zero angles, identities
    index = _index([(side, i, j) for side, d_side in enumerate((d_a, d_b))
                    for i, j in layout(d_side)], 3)

    def rotations_vjp(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable[..., np.ndarray]]:
        lam = _angles_at(v, index, (2, d, d))
        u = _product(lam, pairs, diag=False)

        w_a, w_b = u[..., 0, :d_a, :cols_a], u[..., 1, :d_b, :cols_b]

        def back(g_w: np.ndarray) -> np.ndarray:
            g_w = g_w.reshape(-1, d_a, d_b, cols_a, cols_b)
            g = np.zeros(u.shape, dtype=complex)
            g[..., 0, :d_a, :cols_a] = np.einsum("rabcd,rbd->rac", g_w, w_b.conj())
            g[..., 1, :d_b, :cols_b] = np.einsum("rabcd,rac->rbd", g_w, w_a.conj())
            return _product_pullback(lam, u, g, pairs)[(..., *index)]

        return w_a, w_b, back

    if witness:  # cut from the 2 x 2 space the two columns per side span
        idx = seed_idx = _block_index([((1, 2), (1, 2))], 2)
    else:
        idx = _block_index(_all_pairs(d_a, d_b), d_b)
        seed_idx = _block_index(list(zip(sigma_pairs(d_a), sigma_pairs(d_b))), d_b)
    return _Search(d_a, d_b, index[0].size, rotations_vjp, idx, seed_idx)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, adding its entries in index order.

    A row of a stack then sums exactly as a lone vector does; a reduction
    along the axis of a many-row array may add in another order, and the
    batched values would differ from the one-vector ones in the last bit.
    """
    return np.cumsum(a, axis=-1)[..., -1]


def _states(rho: np.ndarray | _State | Sequence[np.ndarray | _State],
            d_a: int, d_b: int) -> list[_State]:
    """One state, or a stack or sequence of them, as checked ``_State``s.

    An array is one state unless it is 3-D, a stack.  A sequence is one
    state when its first entry is a row, and an empty one is no states; it
    is never stacked, so states of other sizes reach their own size check.
    """
    try:
        one = (rho.ndim != 3 if isinstance(rho, np.ndarray)
               else isinstance(rho, _State) or (len(rho) > 0 and np.ndim(rho[0]) == 1))
    except ValueError:  # numpy's, for a ragged first entry: a malformed state of a sequence
        one = False
    except (TypeError, LookupError):  # no length or no first entry: not a sequence
        one = True
    return [_check_state(r, d_a, d_b) for r in ([rho] if one else rho)]


def _objective(rho: np.ndarray | _State | Sequence[np.ndarray | _State],
               search: _Search) -> Objective:
    """Batched objective of ``search``: packed vectors -> -(sum of X^2) of each, and a gradient.

    ``rho`` is one state, or an (S, n, n) stack or a sequence of them
    evaluated as ``objective(v, owner)``: row i of the (N, n) vectors on
    state ``owner[i]``.  The witness sums one block, so its value is -X^2.
    The returned closure gives the (N, n) angle gradients: each kind's
    pullback gives the gradient G of the blocks' sum of X^2 with respect
    to W = w_a (x) w_b, which the search's pullback takes to the angles.
    ``objective(v, owner, full=True)`` factors each block in full in the
    value pass, for a gradient that will be read (see ``_concurrences``);
    ``_full_and_values`` hands both forms to the optimizer.
    """
    by_state = _by_state(_states(rho, search.d_a, search.d_b), search.idx)

    def objective(v: np.ndarray, owner: np.ndarray | None = None, full: bool = False
                  ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        w_a, w_b, back = search.rotations_vjp(v)
        x, pullback = by_state(w_a, w_b, owner, full)
        return -_row_sums(x * x), lambda: -back(pullback())

    return objective


def _full_and_values(objective: Objective) -> tuple[Objective, Values]:
    """The optimizer's ``objective`` and ``values`` of an ``_objective``.

    The steps, whose gradient is read, factor each block in full; the
    simplex scoring and the re-evaluation take the values alone, the
    values the results report.
    """
    return partial(objective, full=True), lambda v, owner: objective(v, owner)[0]


def _scalar(objective: Objective) -> Callable[[np.ndarray], float]:
    """One-vector form, values only, of a batched objective; ``_angles_at`` checks the length.

    An ``_objective`` called so takes the values-only factorizations.
    """
    return lambda v: float(objective(np.asarray(v, dtype=float).ravel())[0])


def _at_pair(f: Callable[[np.ndarray], float], params_a: np.ndarray,
             params_b: np.ndarray) -> float:
    """``f`` at the concatenation of the A packing ``params_a`` and the B packing ``params_b``."""
    return f(np.concatenate([np.ravel(params_a), np.ravel(params_b)]))


def make_bopt_objective(rho: np.ndarray, d_a: int, d_b: int) -> Callable[[np.ndarray], float]:
    """Objective v -> -B^2(rho; v) over (d_a^2 - d_a) + (d_b^2 - d_b) packed angles.

    The vector is the concatenation of the A and B off-diagonal packings,
    by construction: the search packs both through one ``_angles_at``
    index (see ``_search``).  Each packing builds a composite product Uc
    that acts as the *adjoint* of the local rotation: the terms are the
    block concurrences of Uc† rho Uc, Uc = uc_a (x) uc_b.  With that
    convention appended diagonal phases conjugate every block by a local
    diagonal unitary, which leaves its concurrence unchanged, so the
    diagonal angles are not part of the vector.  A stack of states raises ``NonSquareError``.
    """
    return _scalar(_objective([rho], _search(d_a, d_b)))


def bopt_objective(rho: np.ndarray, d_a: int, d_b: int,
                   params_a: np.ndarray, params_b: np.ndarray) -> float:
    """-B^2 for one pair of packed off-diagonal angle vectors."""
    return _at_pair(make_bopt_objective(rho, d_a, d_b), params_a, params_b)


def make_distill_objective(rho: np.ndarray, d_a: int, d_b: int) -> Callable[[np.ndarray], float]:
    """Objective v -> -X^2_{1,2,1,2} over (4 d_a - 8) + (4 d_b - 8) subspace-block angles.

    The vector is the concatenation of the A and B packings of
    ``ucs_block_to_matrix`` with k = 2, by construction as for
    ``make_bopt_objective``: the 4d - 8 angles of a two-dimensional
    subspace product per side (none for d = 2).  The term is the
    concurrence of the single block E† rho E, with E the first two
    columns of each subspace product, tensored.  ``rho`` is one state.
    """
    return _scalar(_objective([rho], _search(d_a, d_b, witness=True)))


def distill_objective(rho: np.ndarray, d_a: int, d_b: int,
                      params_a: np.ndarray, params_b: np.ndarray) -> float:
    """-X^2_{1,2,1,2} for one pair of packed subspace-block angle vectors."""
    return _at_pair(make_distill_objective(rho, d_a, d_b), params_a, params_b)


def _pt_surrogate(rho: np.ndarray, search: _Search) -> Objective:
    """Batched surrogate: packed vectors -> sum of λ_min of each block's partial transpose.

    ``rho`` is one state or an (S, n, n) stack; row i of the (N, n) vectors
    rotates ``rho[owner[i]]``, or the first state with ``owner`` None, and
    its outputs do not depend on the rows beside it.  A block of
    ``search.seed_idx`` with a negative term is NPT, hence has a nonzero X.
    The returned closure gives the (N, n) angle gradients.  With e the unit
    eigenvector of λ_min, dλ_min = e† dR^Γ e = Re tr(M dR^Γ) for M = e e†.
    The partial transpose permutes a block's entries and is its own
    inverse, so Re tr(M dR^Γ) = Re tr(M^Γ dR): M^Γ is the block's gradient,
    which ``_rotated_pullback`` and the search's pullback take to the angles.
    λ_min has a kink where it is degenerate, as X has where tau loses rank.
    """
    idx = search.seed_idx
    stack = np.reshape(rho, (-1,) + np.shape(rho)[-2:])

    def surrogate(v: np.ndarray, owner: np.ndarray | None = None
                  ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        w_a, w_b, back = search.rotations_vjp(v)
        w = _product_basis(w_a, w_b)
        own = stack[0] if owner is None else stack[owner]
        eigenvalues, vectors = np.linalg.eigh(_rotated_blocks(own, w, idx)[..., _PT_ROWS, _PT_COLS])

        def gradient() -> np.ndarray:
            e = vectors[..., 0]
            m = e[..., :, None] * e[..., None, :].conj()
            return back(_rotated_pullback(own, w, idx, m[..., _PT_ROWS, _PT_COLS]))

        return _row_sums(eigenvalues[..., 0]), gradient

    return surrogate


def _continued(results: Sequence[OptimizerResult], states: Sequence[_State], search: _Search,
               starts: Mapping[int, np.ndarray], stages: Mapping[int, OptimizerResult]
               ) -> list[OptimizerResult]:
    """``results``, each one that ``starts`` names continued by one BFGS run of ``search``.

    ``states[i]`` is the state of ``results[i]`` and ``starts[i]`` the start
    of its run.  The runs (``refine`` on ``_objective``) step in one
    lockstep, each as it would alone; other results stay as they are.  Per
    continued result, the better of it and its run gives the value and
    point, and the restart count stays the result's; steps, evaluations
    and objective calls add those of the run and of ``stages[i]``, if any,
    the work that prepared the start.  The run's value is appended to the
    restart values; when the run wins, ``best_restart`` is its index.
    """
    joined = list(results)
    if starts:
        objective, values = _full_and_values(_objective([states[i] for i in starts], search))
        for i, run in zip(starts, refine(objective, list(starts.values()), values=values)):
            result = results[i]
            best = run if run.value < result.value else result
            parts = (result, run) + ((stages[i],) if i in stages else ())
            joined[i] = OptimizerResult(
                best.value, best.x, sum(r.iterations for r in parts), result.restarts,
                best.converged, evaluations=sum(r.evaluations for r in parts),
                calls=sum(r.calls for r in parts),
                restart_values=result.restart_values + run.restart_values,
                best_restart=len(result.restart_values) if best is run else result.best_restart)
    return joined


def _pt_seeded(results: Sequence[OptimizerResult], states: Sequence[_State], search: _Search,
               cfgs: Sequence[OptimizerConfig]) -> list[OptimizerResult]:
    """``results`` after the partial-transpose-seeded stage of every plateau NPT state.

    A result is on the plateau when its value is above -PLATEAU_X_SQ,
    round-off of X = 0.  The surrogates (``_pt_surrogate``) of all such NPT
    states are minimized in one ``minimize_many``, state i with
    PT_SEED_RESTARTS restarts drawn from ``cfgs[i].seed``, and their
    results continue with one run of the search from their minimizers, the
    surrogates' work added (``_continued``).  A search without angles (the
    d = 2 witness) is exact and gets no stage.
    """
    plateau = [i for i, (result, state) in enumerate(zip(results, states)) if not (
        result.value <= -PLATEAU_X_SQ or search.n == 0
        or ppt_min_eigenvalue(state.rho, (search.d_a, search.d_b)) >= -DENSITY_PSD_TOL)]
    if not plateau:
        return list(results)
    seeded = dict(zip(plateau, minimize_many(
        _pt_surrogate(np.array([states[i].rho for i in plateau]), search), search.n,
        [replace(cfgs[i], restarts=PT_SEED_RESTARTS) for i in plateau])))
    return _continued(results, states, search, {i: s.x for i, s in seeded.items()}, seeded)


def _maximize(rhos: Sequence[np.ndarray | _State], d_a: int, d_b: int,
              cfgs: Sequence[OptimizerConfig | None], witness: bool) -> list[OptimizerResult]:
    """Minimized -(sum of X^2) of the search for each state, with the config of the same index.

    The states are checked once and their restarts stepped together in one
    lockstep BFGS run on the search's objective (``_objective``), each state
    evaluating its own rows, so each result equals that of the state alone; the
    configs may differ only in ``seed``, and None is the default
    ``OptimizerConfig()``.  The steps factor each block in full, and one
    batched values-only call re-evaluates the results (see
    ``_full_and_values``).  The partial-transpose-seeded stage then runs
    once, in one lockstep, for every plateau NPT state (``_pt_seeded``).
    """
    search = _search(d_a, d_b, witness)
    states = _states(rhos, d_a, d_b)
    cfgs = [OptimizerConfig() if cfg is None else cfg for cfg in cfgs]
    if len(cfgs) != len(states):
        raise LengthMismatchError(f"{len(states)} states but {len(cfgs)} configs")
    objective, values = _full_and_values(_objective(states, search))
    results = minimize_many(objective, search.n, cfgs, values=values)
    return _pt_seeded(results, states, search, cfgs)


def optimized_bounds_b(rhos: Sequence[np.ndarray], d_a: int, d_b: int,
                       cfgs: Sequence[OptimizerConfig | None]
                       ) -> list[tuple[float, OptimizerResult]]:
    """``optimized_bound_b`` of each state in ``rhos``, with the config of the same index.

    All states share one lockstep run and its ``calls``, and each other field
    equals that of ``optimized_bound_b`` on the state alone (see ``_maximize``).
    A ``cfgs`` of another length than ``rhos`` raises ``LengthMismatchError``.
    """
    return [(math.sqrt(max(-result.value, 0.0)), result)
            for result in _maximize(rhos, d_a, d_b, cfgs, witness=False)]


def optimized_bound_b(rho: np.ndarray, d_a: int, d_b: int,
                      cfg: OptimizerConfig | None = None) -> tuple[float, OptimizerResult]:
    """Maximized bound B_opt >= B via BFGS restarts on exact gradients.

    The restarts are those of ``minimize_many`` on the batched objective
    and its gradients (``_objective``), and the partial-transpose-seeded
    stage runs if the state is on the plateau (see the module docstring).
    This is the one-state case of ``optimized_bounds_b``.
    """
    return optimized_bounds_b([rho], d_a, d_b, [cfg])[0]


def lifted_bounds_b(rhos: Sequence[np.ndarray], d_a: int, d_b: int,
                    results: Sequence[OptimizerResult], candidates: Sequence[np.ndarray]
                    ) -> list[tuple[float, OptimizerResult]]:
    """Results of ``optimized_bounds_b`` on ``rhos``, lifted by BFGS runs from candidate angles.

    ``candidates[i]`` is a (k, n) array of packed angle vectors for
    ``rhos[i]``, such as the optima of related states, and ``results[i]``
    the state's result; lists of other lengths, or candidates of another
    width, raise ``LengthMismatchError``.  One batched call evaluates
    every candidate.  Where a state's best candidate lies below its result
    by more than LIFT_MARGIN, one BFGS run (``refine``) starts from it; the
    runs of all such states step together, each as it would alone, and
    continue their results as the seeded stage's run does
    (``_continued``).  A run never ends above the candidate it starts
    from, so a bound only rises.  Returns (B_opt, result) per state.
    """
    search = _search(d_a, d_b)
    states = _states(rhos, d_a, d_b)
    results = list(results)
    if not len(states) == len(results) == len(candidates):
        raise LengthMismatchError(f"{len(states)} states, {len(results)} results and "
                                  f"{len(candidates)} candidate sets")
    scored = [(i, c) for i, c in enumerate(candidates) if len(c)]
    for _, c in scored:
        if np.shape(c)[1:] != (search.n,):
            raise LengthMismatchError(f"candidates need {search.n} angles each, "
                                      f"got an array of shape {np.shape(c)}")
    starts = {}
    if scored:
        values = _objective(states, search)(
            np.concatenate([c for _, c in scored]),
            np.concatenate([np.full(len(c), i) for i, c in scored]))[0]
        for i, c in scored:
            own, values = values[:len(c)], values[len(c):]
            b = int(np.argmin(own))
            results[i] = replace(results[i], evaluations=results[i].evaluations + len(c),
                                 calls=results[i].calls + 1)
            if own[b] < results[i].value - LIFT_MARGIN:
                starts[i] = c[b]
    return [(math.sqrt(max(-result.value, 0.0)), result)
            for result in _continued(results, states, search, starts, {})]


def max_distill_x_sq(rho: np.ndarray, d_a: int, d_b: int,
                     cfg: OptimizerConfig | None = None) -> tuple[float, OptimizerResult]:
    """Maximized X^2_{1,2,1,2}; positive values witness distillability.

    The search runs BFGS restarts over the 4d - 8 subspace angles per
    side, and the seeded stage, as ``optimized_bound_b`` does over its own.
    """
    (result,) = _maximize([rho], d_a, d_b, [cfg], witness=True)
    return max(-result.value, 0.0), result


# ---------------------------------------------------------------------------
# partial transposition test, bipartitions, copies

def ppt_min_eigenvalue(rho: np.ndarray, dims: Sequence[int]) -> float:
    """Minimum eigenvalue of the partial transpose of subsystem 1 (0-based); < -1e-10 means NPT.

    With two parties, transposing either one gives the same spectrum.
    """
    pt = partial_transpose(rho, dims, 1)
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
    dims = tuple(_count(d, "subsystem dimension", 1) for d in dims)
    n = _count(n, "subsystem count", 2)
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


def multipartite_bound_b(rho: np.ndarray, dims: Sequence[int]) -> MultipartiteBound:
    """Sum of bipartite B^2 over all bipartitions of an n-partite state.

    For each bipartition the subsystems are permuted into a contiguous
    alpha (x) beta layout (alpha factors first, in index order) before the
    bipartite bound is evaluated.
    """
    rho, dims = _check_dims(rho, dims)
    parts = enumerate_bipartitions(len(dims), dims)
    reports = []
    total_sq = 0.0
    for bp in parts:
        perm = list(bp.alpha) + list(bp.beta)
        rho_p = permute_subsystems(rho, dims, perm)
        rep = bound_b(rho_p, bp.d_alpha, bp.d_beta)
        reports.append((bp, rep))
        total_sq += rep.b_squared
    return MultipartiteBound(tuple(reports), math.sqrt(total_sq))


def n_copy_state(rho: np.ndarray, dims: Sequence[int], n: int) -> np.ndarray:
    """n-fold tensor power regrouped to the (A...A | B...B) bipartition.

    ``dims`` is the (d_a, d_b) layout of one copy; the result acts on
    d_a^n x d_b^n with all A factors first, past one copy at most N_COPY_MAX_DIM in total.
    """
    rho, dims = _check_dims(rho, dims)
    if len(dims) != 2:
        raise DimensionMismatchError(f"expected a bipartite dims pair, got {dims}")
    n = _count(n, "copy count", 1)
    if n == 1:
        return rho.copy()
    total = (dims[0] * dims[1]) ** n
    if total > N_COPY_MAX_DIM:
        raise DimensionTooLargeError(f"total dimension {total} exceeds cap {N_COPY_MAX_DIM}")
    out = rho
    for _ in range(n - 1):
        out = np.kron(out, rho)
    # copies are laid out A1 B1 A2 B2 ...; regroup to A1..An B1..Bn
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return permute_subsystems(out, dims * n, perm)
