"""Dense complex linear algebra substrate.

Hermitian eigendecomposition, PSD matrix square root, Kronecker products,
and subsystem operations (partial trace, partial transpose, reordering) on
row-major dense complex matrices.  Everything here is a pure function on
immutable inputs; results are freshly allocated arrays.

``_as_square`` is the one matrix gate of the package: every matrix argument
is made complex and checked to be 2-D, square and finite before any
arithmetic (``NonSquareError``, also for input that does not convert, and
``NonFiniteError``).  ``_check_dims`` runs it and then checks that ``dims``
multiply to the matrix size (``DimensionMismatchError``); every function
that takes a matrix and dims starts there.  ``_count`` is the one gate of
integer arguments: a dimension, index, rank or count that is not an
integer, or outside its range, raises the error its caller names.

Subsystem indices are 0-based positions into the ``dims`` list.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
    UniparamError,
)

HERMITICITY_TOL = 1e-9
PSD_EIG_TOL = 1e-8
# eigenvalues below this times the largest are eigensolver round-off of a zero eigenvalue
EIG_ROUNDOFF_RATIO = 1e-13


class HermitianEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(m: np.ndarray) -> np.ndarray:
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged lists, strings, objects
        raise NonSquareError(f"expected a numeric square matrix ({exc})") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise NonSquareError(f"expected a non-empty square matrix, got shape {m.shape}")
    # NaN fails every tolerance test downstream, so it is rejected first
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has a NaN or infinite entry")
    return m


def herm_eig(m: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (m + m†)/2 before factorization, which
    only absorbs round-off: inputs deviating from Hermiticity by more
    than ``HERMITICITY_TOL`` (max-norm) are rejected.

    Raises
    ------
    NonSquareError, NonFiniteError, NotHermitianError, ConvergenceError
    """
    m = _as_square(m)
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise NotHermitianError(f"matrix is not Hermitian within {HERMITICITY_TOL:.0e}")
    h = (m + m.conj().T) / 2
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    return HermitianEig(w, v)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD Hermitian matrix.

    Eigenvalues in [-1e-8, 0) are treated as round-off and clamped to
    zero; anything more negative raises ``NotPSDError``.
    """
    w, v = herm_eig(m)
    if w[0] < -PSD_EIG_TOL:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} < -{PSD_EIG_TOL:.0e}")
    w = np.clip(w, 0.0, None)
    # Eigensolver noise of order eps on rank-deficient input would square
    # root to ~1e-8; zero anything negligible relative to the top.
    w[w < w[-1] * EIG_ROUNDOFF_RATIO] = 0.0
    r = (v * np.sqrt(w)) @ v.conj().T
    return (r + r.conj().T) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a ⊗ b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _count(value: int, name: str, least: int, most: int | None = None,
           error: type[UniparamError] = DimensionMismatchError) -> int:
    """``value`` as an int; a non-integer (bool included) or one outside least..most raises."""
    if (isinstance(value, bool) or not isinstance(value, Integral) or value < least
            or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    m = _as_square(m)
    try:
        dims = tuple(_count(d, "subsystem dimension", 1) for d in dims)
    except TypeError:
        raise DimensionMismatchError(f"dims must be a sequence of integers, got {dims!r}") from None
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatchError(
            f"product of dims {dims} does not match matrix size {m.shape[0]}"
        )
    return m, dims


def partial_transpose(m: np.ndarray, dims: Sequence[int], which: int) -> np.ndarray:
    """Transpose the tensor factor ``which`` (0-based) of a composite matrix."""
    m, dims = _check_dims(m, dims)
    n = len(dims)
    which = _count(which, "subsystem index", 0, n - 1)
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[which], axes[n + which] = axes[n + which], axes[which]
    return np.ascontiguousarray(t.transpose(axes).reshape(m.shape))


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: int) -> np.ndarray:
    """Trace out every subsystem except ``keep`` (0-based)."""
    m, dims = _check_dims(m, dims)
    n = len(dims)
    keep = _count(keep, "subsystem index", 0, n - 1)
    t = m.reshape(dims + dims)
    # Contract row/column axis pairs of the traced subsystems, back to front
    # so earlier axis numbers stay valid.
    for sub in reversed(range(n)):
        if sub == keep:
            continue
        t = np.trace(t, axis1=sub, axis2=t.ndim // 2 + sub)
    return np.ascontiguousarray(t)


def permute_subsystems(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so that new factor i is old factor ``perm[i]``."""
    m, dims = _check_dims(m, dims)
    n = len(dims)
    try:
        perm = [_count(p, "permutation entry", 0, n - 1) for p in perm]
    except TypeError:
        raise DimensionMismatchError(f"perm must be a sequence of integers, got {perm!r}") from None
    if sorted(perm) != list(range(n)):
        raise DimensionMismatchError(f"{perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(dims + dims)
    axes = perm + [n + p for p in perm]
    return np.ascontiguousarray(t.transpose(axes).reshape(m.shape))
