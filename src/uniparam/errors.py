"""Exception types raised by uniparam."""


class UniparamError(ValueError):
    """Base class for all uniparam errors."""


class NonSquareError(UniparamError):
    """Matrix expected to be square is not."""


class NonFiniteError(UniparamError):
    """Matrix has a NaN or infinite entry."""


class NotHermitianError(UniparamError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class ConvergenceError(UniparamError):
    """An iterative eigensolver failed to converge."""


class NotPSDError(UniparamError):
    """Matrix has an eigenvalue below the positive-semidefinite tolerance."""


class DimensionMismatchError(UniparamError):
    """Operand dimensions are inconsistent with the declared subsystem layout."""


class DimensionTooLargeError(UniparamError):
    """Requested construction exceeds the dense-matrix size cap."""


class IndexOutOfRangeError(UniparamError):
    """Basis-vector index outside 1..d."""


class IndexOrderError(UniparamError):
    """Index pair must satisfy m < n."""


class RankOutOfRangeError(UniparamError):
    """Rank / subspace dimension outside its admissible range."""


class NotUnitaryError(UniparamError):
    """Matrix deviates from unitarity beyond tolerance."""


class NotOrthonormalError(UniparamError):
    """Column set deviates from orthonormality beyond tolerance."""


class LengthMismatchError(UniparamError):
    """Parameter vector has the wrong length."""


class NormalizationError(UniparamError):
    """Vector or matrix violates its normalization invariant."""
