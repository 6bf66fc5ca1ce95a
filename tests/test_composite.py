import math
import warnings

import numpy as np
import pytest

from uniparam import (
    DimensionMismatchError,
    IndexOrderError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonFiniteError,
    NotUnitaryError,
    RankOutOfRangeError,
    apply_factor,
    build_density,
    build_ucd,
    build_ucs,
    build_unitary,
    decompose,
    projector,
    random_param_matrix,
    sigma,
    simplex_weights,
    subspace_basis,
    unitarity_defect,
)
from helpers import (
    assert_same_bits,
    expi_hermitian,
    haar_unitary,
    product_pullback_reference,
)

ROT_EXAMPLE = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def test_projector_examples():
    assert np.array_equal(projector(1, 2), np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(projector(3, 3), np.diag([0.0, 0.0, 1.0]).astype(complex))


def test_projector_identities():
    for d in range(2, 7):
        for l in range(1, d + 1):
            p = projector(l, d)
            assert np.array_equal(p @ p, p)
            assert np.trace(p) == 1.0
    with pytest.raises(IndexOutOfRangeError):
        projector(0, 3)
    with pytest.raises(IndexOutOfRangeError):
        projector(4, 3)


def test_sigma_examples():
    assert np.array_equal(sigma(1, 2, 2), np.array([[0, -1j], [1j, 0]]))
    s = sigma(1, 3, 3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 2], expected[2, 0] = -1j, 1j
    assert np.array_equal(s, expected)


def test_sigma_square_identity():
    for d in range(2, 7):
        for m in range(1, d):
            for n in range(m + 1, d + 1):
                s = sigma(m, n, d)
                assert np.max(np.abs(s - s.conj().T)) == 0.0
                assert np.array_equal(s @ s, projector(m, d) + projector(n, d))


def test_sigma_errors():
    with pytest.raises(IndexOrderError):
        sigma(2, 2, 3)
    with pytest.raises(IndexOrderError):
        sigma(3, 1, 3)
    with pytest.raises(IndexOutOfRangeError):
        sigma(1, 4, 3)


def test_apply_factor_identity_angles():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(apply_factor(m, 2, 4, 0.0, 0.0), m, atol=1e-15)


def test_apply_factor_rotation_example():
    out = apply_factor(np.eye(2), 1, 2, math.pi / 2, 0.0)
    assert np.max(np.abs(out - ROT_EXAMPLE)) < 1e-15


def test_apply_factor_adjoint_cancels():
    rng = np.random.default_rng(22)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    for _ in range(20):
        i, j = sorted(rng.choice(5, size=2, replace=False) + 1)
        rot, phase = rng.uniform(0, 2 * math.pi, 2)
        out = apply_factor(apply_factor(m, i, j, rot, phase), i, j, rot, phase, adjoint=True)
        assert np.max(np.abs(out - m)) < 1e-13


def test_apply_factor_matches_matrix_exponentials():
    rng = np.random.default_rng(23)
    for d in range(2, 6):
        m_op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(10):
            i, j = sorted(rng.choice(d, size=2, replace=False) + 1)
            rot, phase = rng.uniform(0, 2 * math.pi, 2)
            factor = expi_hermitian(projector(j, d), phase) @ expi_hermitian(sigma(i, j, d), rot)
            assert np.max(np.abs(apply_factor(m_op, i, j, rot, phase) - factor @ m_op)) < 1e-12


def test_build_unitary_examples():
    assert np.allclose(build_unitary(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    lam = np.zeros((2, 2))
    lam[0, 1] = math.pi / 2
    assert np.max(np.abs(build_unitary(lam) - ROT_EXAMPLE)) < 1e-15

    lam = np.zeros((2, 2))
    lam[0, 0] = 0.7
    assert np.max(np.abs(build_unitary(lam) - np.diag([np.exp(0.7j), 1.0]))) < 1e-15


def test_build_unitary_unitarity():
    rng = np.random.default_rng(24)
    for d in range(2, 7):
        for _ in range(100):
            u = build_unitary(rng.uniform(-10, 10, (d, d)))
            assert unitarity_defect(u) < 1e-12


def test_build_ucd_matches_full_product():
    rng = np.random.default_rng(25)
    for d in (3, 5):
        lam = random_param_matrix(d, rng)
        lam_nodiag = lam.copy()
        np.fill_diagonal(lam_nodiag, 0.0)
        for k in (d - 1, d):
            assert np.max(np.abs(build_ucd(lam, k) - build_unitary(lam_nodiag))) < 1e-14


def test_build_ucd_ignores_dead_entries():
    rng = np.random.default_rng(26)
    lam = random_param_matrix(3, rng)
    u = build_ucd(lam, 1)
    perturbed = lam.copy()
    perturbed[1, 2] += 0.37
    perturbed[2, 1] += 0.58
    np.fill_diagonal(perturbed, rng.uniform(0, 2, 3))
    assert np.array_equal(build_ucd(perturbed, 1), u)
    assert unitarity_defect(u) < 1e-12


def test_build_ucs_examples():
    assert np.allclose(build_ucs(np.zeros((4, 4)), 2), np.eye(4), atol=1e-15)
    rng = np.random.default_rng(27)
    lam = random_param_matrix(2, rng)
    assert np.array_equal(build_ucs(lam, 1), build_ucd(lam, 1))


def test_build_ucs_ignores_top_block():
    rng = np.random.default_rng(28)
    lam = random_param_matrix(4, rng)
    u = build_ucs(lam, 2)
    perturbed = lam.copy()
    perturbed[0, 1] += 0.41
    perturbed[1, 0] += 0.13
    perturbed[2, 3] += 0.77
    perturbed[3, 2] += 0.29
    np.fill_diagonal(perturbed, rng.uniform(0, 2, 4))
    assert np.array_equal(build_ucs(perturbed, 2), u)
    assert unitarity_defect(u) < 1e-12


def test_decompose_identity():
    assert np.array_equal(decompose(np.eye(4)), np.zeros((4, 4)))


def test_decompose_rotation_example():
    lam = decompose(ROT_EXAMPLE)
    expected = np.zeros((2, 2))
    expected[0, 1] = math.pi / 2
    assert np.max(np.abs(lam - expected)) < 1e-14


def test_decompose_roundtrip_built():
    rng = np.random.default_rng(29)
    for d in range(2, 7):
        for _ in range(50):
            u = build_unitary(random_param_matrix(d, rng))
            lam = decompose(u)
            assert np.max(np.abs(build_unitary(lam) - u)) < 1e-10


def test_decompose_canonical_ranges_and_fixed_point():
    rng = np.random.default_rng(30)
    for d in (2, 4, 6):
        for _ in range(25):
            u = haar_unitary(rng, d)
            lam = decompose(u)
            lower = np.tril_indices(d)
            assert np.all(lam[lower] >= 0.0) and np.all(lam[lower] < 2 * math.pi)
            upper = np.triu_indices(d, k=1)
            assert np.all(lam[upper] >= 0.0) and np.all(lam[upper] <= math.pi / 2)
            rebuilt = build_unitary(lam)
            assert np.max(np.abs(rebuilt - u)) < 1e-10
            assert np.max(np.abs(decompose(rebuilt) - lam)) < 1e-10


def test_decompose_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        decompose(np.ones((3, 3)))


BAD_SHAPES = {
    "build_unitary non-square": (IndexOutOfRangeError, lambda: build_unitary(np.zeros((2, 3)))),
    "build_density wrong d": (LengthMismatchError,
                              lambda: build_density([0.4], np.zeros((3, 3)), 2, 4)),
    "decompose non-square": (NotUnitaryError, lambda: decompose(np.eye(3)[:, :2])),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_bad_shapes_raise_their_errors(case):
    error, call = BAD_SHAPES[case]
    with pytest.raises(error):
        call()


def test_decompose_unitarity_boundary():
    # (1 + e) U has defect (1 + e)^2 - 1, about 2e, against the 1e-9 input tolerance
    u = build_unitary(random_param_matrix(4, np.random.default_rng(8)))
    inside, outside = (1 + 0.25e-9) * u, (1 + 1e-9) * u
    assert 0.4e-9 < unitarity_defect(inside) < 0.6e-9
    assert 1.9e-9 < unitarity_defect(outside) < 2.1e-9
    assert np.max(np.abs(build_unitary(decompose(inside)) - u)) < 1e-8
    with pytest.raises(NotUnitaryError):
        decompose(outside)


def test_unitarity_defect_of_overflowing_entries_is_inf():
    # U†U overflowed with a RuntimeWarning, and a NaN defect would pass a `defect > tol` gate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert unitarity_defect(np.full((2, 2), 1e200)) == math.inf
        assert unitarity_defect(np.full((3, 2), 1e300 + 1e300j)) == math.inf
        with pytest.raises(NotUnitaryError, match="inf"):
            decompose(np.full((2, 2), 1e308))


def test_stacked_product_matches_single_builds():
    from uniparam.composite import _product, _ucs_pairs, sigma_pairs

    rng = np.random.default_rng(17)
    for d in (2, 3, 5):
        lams = np.stack([random_param_matrix(d, rng) for _ in range(7)])
        stack = _product(lams, sigma_pairs(d), diag=True)
        assert stack.shape == (7, d, d)
        for lam, u in zip(lams, stack):
            assert np.max(np.abs(u - build_unitary(lam))) <= 1e-15
        if d > 2:
            ucs = _product(lams, _ucs_pairs(d, 2), diag=False)
            for lam, u in zip(lams, ucs):
                assert np.max(np.abs(u - build_ucs(lam, 2))) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_product_pullback_equals_full_conjugation_reference(d):
    # the sweep takes every factor's trig before it and updates only the rows and columns
    # a later factor reads: every derivative must be that of the full sweep, bit for bit
    from uniparam.composite import _product, _product_pullback, _ucs_pairs, sigma_pairs

    rng = np.random.default_rng(90 + d)
    factor_lists = ([sigma_pairs(d)] + [_ucs_pairs(d, k) for k in range(1, d)]
                    + [[(m, n) for m, n in sigma_pairs(d) if m <= k] for k in range(1, d - 1)])
    for pairs in factor_lists:
        for stack in ((), (12, 2)):
            lam = rng.uniform(0.0, 2 * np.pi, stack + (d, d))
            u = _product(lam, pairs, diag=False)
            grad = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
            assert_same_bits(_product_pullback(lam, u, grad, pairs),
                             product_pullback_reference(lam, u, grad, pairs))


NON_FINITE_ANGLE = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan}


def _angles_with(bad):
    lam = np.full((3, 3), 0.3)
    lam[0, 2] = bad
    return lam


@pytest.mark.parametrize("kind", sorted(NON_FINITE_ANGLE))
@pytest.mark.parametrize("entry", [
    lambda bad: build_unitary(_angles_with(bad)),
    lambda bad: build_ucd(_angles_with(bad), 2),
    lambda bad: build_ucs(_angles_with(bad), 1),
    lambda bad: subspace_basis(_angles_with(bad), 1, 3),
    lambda bad: build_density([0.4], _angles_with(bad), 2, 3),
    lambda bad: build_density([bad], np.zeros((3, 3)), 2, 3),
    lambda bad: simplex_weights([0.2, bad], 3),
    lambda bad: apply_factor(np.eye(3), 1, 2, bad, 0.0),
    lambda bad: apply_factor(np.eye(3), 1, 2, 0.0, bad),
], ids=["build_unitary", "build_ucd", "build_ucs", "subspace_basis", "build_density-lam",
        "build_density-theta", "simplex_weights", "apply_factor-rot", "apply_factor-phase"])
def test_non_finite_angles_rejected_before_arithmetic(entry, kind):
    # without the check these returned all-NaN matrices or weights, with RuntimeWarnings
    with np.errstate(all="raise"), pytest.raises(NonFiniteError):
        entry(NON_FINITE_ANGLE[kind])


@pytest.mark.parametrize("entry, operand", [
    (lambda a: apply_factor(a, 1, 2, 0.3, 0.1), np.array(1.0)),
    (unitarity_defect, np.array(1.0)),
    (unitarity_defect, np.ones(3) / np.sqrt(3)),
    (unitarity_defect, np.ones((2, 2, 2))),
], ids=["apply_factor-0d", "unitarity_defect-0d", "unitarity_defect-1d",
        "unitarity_defect-3d"])
def test_operand_shape_rejected_before_arithmetic(entry, operand):
    # a 0-d operand or a 1-D column set raised a bare IndexError from its shape, and a 3-D
    # stack gave a number that is no unitarity defect
    with np.errstate(all="raise"), pytest.raises(DimensionMismatchError):
        entry(operand)


LAM3 = np.full((3, 3), 0.3)
NON_INTEGER_INDEX = {
    "sigma m 1.0": (IndexOutOfRangeError, lambda: sigma(1.0, 2, 3)),
    "sigma n 2.0": (IndexOutOfRangeError, lambda: sigma(1, 2.0, 3)),
    "projector 1.5": (IndexOutOfRangeError, lambda: projector(1.5, 3)),
    "projector 2.0": (IndexOutOfRangeError, lambda: projector(2.0, 3)),
    "apply_factor 1.0": (IndexOutOfRangeError, lambda: apply_factor(np.eye(3), 1.0, 2, 0.1, 0.2)),
    "random_param_matrix 3.0": (IndexOutOfRangeError,
                                lambda: random_param_matrix(3.0, np.random.default_rng(0))),
    "build_ucd 1.5": (RankOutOfRangeError, lambda: build_ucd(LAM3, 1.5)),
    "build_ucd 2.0": (RankOutOfRangeError, lambda: build_ucd(LAM3, 2.0)),
    "build_ucs 1.5": (RankOutOfRangeError, lambda: build_ucs(LAM3, 1.5)),
    "subspace_basis 1.0": (RankOutOfRangeError, lambda: subspace_basis(LAM3, 1.0, 3)),
    "build_density 1.5": (RankOutOfRangeError, lambda: build_density([0.4], LAM3, 1.5, 3)),
    "sigma d 3.0": (IndexOutOfRangeError, lambda: sigma(1, 2, 3.0)),
    "projector d 3.0": (IndexOutOfRangeError, lambda: projector(1, 3.0)),
    "subspace_basis d 3.0": (IndexOutOfRangeError, lambda: subspace_basis(LAM3, 1, 3.0)),
    "build_density d 3.0": (IndexOutOfRangeError, lambda: build_density([], LAM3, 1, 3.0)),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_INDEX))
def test_non_integer_indices_and_ranks_raise_their_errors(case):
    # these raised numpy's IndexError or a bare TypeError, build_ucd(lam, 1.5) returned the
    # rank-1 product, and subspace_basis and build_density took d = 3.0
    error, call = NON_INTEGER_INDEX[case]
    with pytest.raises(error, match="integer"):
        call()


def test_numpy_integer_indices_and_ranks_accepted():
    i = np.int64
    assert np.array_equal(sigma(i(1), np.int32(3), i(3)), sigma(1, 3, 3))
    assert np.array_equal(projector(np.uint8(2), i(3)), projector(2, 3))
    assert np.array_equal(build_density([], LAM3, 1, i(3)), build_density([], LAM3, 1, 3))
    assert np.array_equal(apply_factor(np.eye(3), i(1), i(2), 0.1, 0.2),
                          apply_factor(np.eye(3), 1, 2, 0.1, 0.2))
    assert np.array_equal(build_ucd(LAM3, i(2)), build_ucd(LAM3, 2))
    assert np.array_equal(build_ucs(LAM3, i(1)), build_ucs(LAM3, 1))
    assert np.array_equal(subspace_basis(LAM3, i(2), i(3)), subspace_basis(LAM3, 2, 3))
    assert np.array_equal(random_param_matrix(i(3), np.random.default_rng(0)),
                          random_param_matrix(3, np.random.default_rng(0)))
