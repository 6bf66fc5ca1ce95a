import itertools
import math
import warnings

import numpy as np
import pytest

from uniparam import (
    LengthMismatchError,
    NotHermitianError,
    NotPSDError,
    NotOrthonormalError,
    RankOutOfRangeError,
    build_density,
    build_ucd,
    canonicalize_subspace,
    herm_eig,
    random_param_matrix,
    simplex_weights,
    subspace_basis,
    unitarity_defect,
    validate_density,
)
from helpers import haar_unitary


def uniform_spectrum_angles(k):
    """Angles giving p = (1/k, ..., 1/k)."""
    return [math.acos(1.0 / math.sqrt(k - i)) for i in range(k - 1)]


def test_simplex_examples():
    assert np.array_equal(simplex_weights([], 1), [1.0])
    assert np.allclose(simplex_weights([math.pi / 4], 2), [0.5, 0.5], atol=1e-15)
    assert np.allclose(simplex_weights([math.pi / 2, math.pi / 3], 3),
                       [0.0, 0.25, 0.75], atol=1e-15)


def test_simplex_is_probability_vector():
    rng = np.random.default_rng(31)
    for k in range(1, 8):
        for _ in range(20):
            p = simplex_weights(rng.uniform(-7, 7, k - 1), k)
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) < 1e-14


def test_simplex_length_mismatch():
    with pytest.raises(LengthMismatchError):
        simplex_weights([0.1, 0.2], 2)


def test_build_density_pure_zero_angles():
    rho = build_density([], np.zeros((3, 3)), 1, 3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_build_density_maximally_mixed():
    d = 4
    rho = build_density(uniform_spectrum_angles(d), np.zeros((d, d)), d, d)
    assert np.max(np.abs(rho - np.eye(d) / d)) < 1e-14


def test_build_density_rank_and_invariants():
    rng = np.random.default_rng(32)
    for _ in range(50):
        lam = random_param_matrix(4, rng)
        theta = rng.uniform(0, math.pi / 2, 1)
        rho = build_density(theta, lam, 2, 4)
        w = validate_density(rho, rank_bound=2)
        assert np.sum(w > 1e-9) <= 2


def test_build_density_dead_parameters_bitwise():
    rng = np.random.default_rng(33)
    d, k = 5, 2
    lam = random_param_matrix(d, rng)
    theta = rng.uniform(0.2, 1.3, k - 1)
    rho = build_density(theta, lam, k, d)
    perturbed = lam.copy()
    np.fill_diagonal(perturbed, rng.uniform(0, 2, d))
    for i in range(k, d):
        for j in range(k, d):
            if i != j:
                perturbed[i, j] += 0.37
    assert np.array_equal(build_density(theta, perturbed, k, d), rho)


def test_build_density_live_parameters_pure_state():
    rng = np.random.default_rng(34)
    d, k = 4, 1
    lam = rng.uniform(0.2, 1.2, (d, d))
    rho = build_density([], lam, k, d)
    live = 0
    for i in range(d):
        for j in range(d):
            perturbed = lam.copy()
            perturbed[i, j] += 0.37
            if not np.array_equal(build_density([], perturbed, k, d), rho):
                live += 1
    assert live == 2 * (d - 1)


def test_build_density_errors():
    with pytest.raises(RankOutOfRangeError):
        build_density([0.1, 0.2, 0.3], np.zeros((3, 3)), 4, 3)
    with pytest.raises(LengthMismatchError):
        build_density([0.1], np.zeros((3, 3)), 1, 3)


def test_density_and_subspace_builds_gate_the_angles_once(monkeypatch):
    import uniparam.composite
    import uniparam.states

    calls = []
    gate = uniparam.composite._assert_angles

    def counted(*args):
        calls.append(args)
        return gate(*args)

    for module in (uniparam.composite, uniparam.states):
        monkeypatch.setattr(module, "_assert_angles", counted)
    build_density([0.3, 0.7], np.zeros((4, 4)), 3, 4)
    subspace_basis(np.zeros((4, 4)), 2, 4)
    assert len(calls) == 2


def test_subspace_basis_zero_angles():
    b = subspace_basis(np.zeros((4, 4)), 2, 4)
    assert np.array_equal(b, np.eye(4, dtype=complex)[:, :2])


def test_subspace_basis_single_factor():
    lam = np.zeros((2, 2))
    lam[0, 1] = math.pi / 4
    lam[1, 0] = math.pi
    b = subspace_basis(lam, 1, 2)
    expected = np.array([[1.0 / math.sqrt(2)], [1.0 / math.sqrt(2)]])
    assert np.max(np.abs(b - expected)) < 1e-14


def test_subspace_basis_orthonormal():
    rng = np.random.default_rng(35)
    for d, k in ((3, 1), (4, 2), (6, 3)):
        for _ in range(20):
            b = subspace_basis(random_param_matrix(d, rng), k, d)
            assert np.max(np.abs(b.conj().T @ b - np.eye(k))) < 1e-12


def test_subspace_basis_rank_errors():
    with pytest.raises(RankOutOfRangeError):
        subspace_basis(np.zeros((3, 3)), 3, 3)


def test_canonicalize_trivial_basis():
    lam, w = canonicalize_subspace(np.eye(4, dtype=complex)[:, :2])
    assert np.array_equal(lam, np.zeros((4, 4)))
    assert np.max(np.abs(w - np.eye(2))) < 1e-14


def test_canonicalize_flip_example():
    lam, w = canonicalize_subspace(np.array([[0.0], [1.0]], dtype=complex))
    assert abs(lam[0, 1] - math.pi / 2) < 1e-14
    assert w.shape == (1, 1)
    assert abs(abs(w[0, 0]) - 1.0) < 1e-14


def test_canonicalize_roundtrip_random():
    rng = np.random.default_rng(36)
    inputs = [haar_unitary(rng, d)[:, :k]
              for d in range(2, 9) for k in range(1, d) for _ in range(20)]
    # phased basis columns: the top k x k block is singular once a column lies below row k
    for d in range(2, 6):
        for k in range(1, d):
            for cols in itertools.permutations(range(d), k):
                inputs += [np.eye(d)[:, cols] * phase for phase in (1, 1j, -1, np.exp(0.3j))]
    for v in inputs:
        d, k = v.shape
        lam, w = canonicalize_subspace(v)
        used = np.nonzero(lam)
        assert all((i < k <= j) or (j < k <= i) for i, j in zip(*used))
        upper, lower = lam[np.triu_indices(d, 1)], lam[np.tril_indices(d, -1)]
        assert np.all((upper >= 0.0) & (upper <= math.pi / 2))
        assert np.all((lower >= 0.0) & (lower < 2 * math.pi))
        b = subspace_basis(lam, k, d)
        assert np.max(np.abs(b @ w - v)) < 1e-9
        assert np.max(np.abs(b @ b.conj().T - v @ v.conj().T)) < 1e-9
        assert np.max(np.abs(w.conj().T @ w - np.eye(k))) < 1e-9


def test_canonicalize_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormalError):
        canonicalize_subspace(np.ones((3, 2), dtype=complex))



def test_canonicalize_rejects_overflowing_entries():
    # the Gram product overflowed with a RuntimeWarning before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotOrthonormalError, match="inf"):
            canonicalize_subspace(np.full((3, 1), 1e300))

def test_canonicalize_orthonormality_boundary():
    # (1 + e) V has Gram defect (1 + e)^2 - 1, about 2e, against the 1e-9 input tolerance
    d, k = 5, 2
    v = subspace_basis(random_param_matrix(d, np.random.default_rng(9)), k, d)
    inside, outside = (1 + 0.25e-9) * v, (1 + 1e-9) * v
    assert 0.4e-9 < unitarity_defect(inside) < 0.6e-9
    assert 1.9e-9 < unitarity_defect(outside) < 2.1e-9
    lam, w = canonicalize_subspace(inside)
    assert np.max(np.abs(subspace_basis(lam, k, d) @ w - v)) < 1e-8
    with pytest.raises(NotOrthonormalError):
        canonicalize_subspace(outside)


BAD_INPUTS = {
    "validate_density non-Hermitian": (NotHermitianError,
                                       lambda: validate_density(np.triu(np.ones((2, 2))) / 2)),
    "validate_density non-PSD": (NotPSDError, lambda: validate_density(np.diag([1.5, -0.5]))),
    "canonicalize_subspace 1-D": (NotOrthonormalError,
                                  lambda: canonicalize_subspace(np.array([1.0, 0.0]))),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_raise_their_errors(case):
    error, call = BAD_INPUTS[case]
    with pytest.raises(error):
        call()


def test_canonicalize_rejects_full_and_empty_column_sets():
    # k = d is a unitary (see decompose); subspace_basis needs 1 <= k < d
    for v in (np.eye(3), np.zeros((3, 0))):
        with pytest.raises(RankOutOfRangeError):
            canonicalize_subspace(v)


def test_ucd_consistency_with_density():
    rng = np.random.default_rng(37)
    d, k = 4, 3
    lam = random_param_matrix(d, rng)
    theta = rng.uniform(0, 1.5, k - 1)
    p = simplex_weights(theta, k)
    u = build_ucd(lam, k)
    expected = sum(p[i] * np.outer(u[:, i], u[:, i].conj()) for i in range(k))
    assert np.max(np.abs(build_density(theta, lam, k, d) - expected)) < 1e-13


def test_validate_density_rejects_rank_violation():
    with pytest.raises(RankOutOfRangeError):
        validate_density(np.eye(4) / 4, rank_bound=2)


@pytest.mark.parametrize("bound", [2.5, 4.0, True])
def test_validate_density_rejects_non_integer_rank_bound(bound):
    # 2.5 and True were accepted as bounds, and 4.0 compared as 4
    with pytest.raises(RankOutOfRangeError, match="integer"):
        validate_density(np.eye(4) / 4, rank_bound=bound)


def test_validate_density_accepts_numpy_integer_rank_bound():
    w = validate_density(np.eye(4) / 4, rank_bound=np.int64(4))
    assert np.array_equal(w, validate_density(np.eye(4) / 4))


def test_validate_density_eigensworth():
    w = validate_density(np.eye(3) / 3)
    assert np.allclose(w, [1 / 3] * 3, atol=1e-14)
    assert herm_eig(np.eye(3) / 3).eigenvalues[0] > 0


@pytest.mark.parametrize("k", [1.0, 2.0, 1.5, True])
def test_simplex_weights_rejects_non_integer_k(k):
    # simplex_weights([], 1.0) raised a bare TypeError from np.ones
    with pytest.raises(RankOutOfRangeError, match="integer"):
        simplex_weights([0.3] * (int(k) - 1), k)


def test_simplex_weights_accepts_numpy_integer_k():
    assert np.array_equal(simplex_weights([0.3], np.int64(2)), simplex_weights([0.3], 2))
