import numpy as np
import pytest

from uniparam import (
    DimensionMismatchError,
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
    bound_b,
    canonicalize_subspace,
    decompose,
    herm_eig,
    kron,
    max_distill_x_sq,
    multipartite_bound_b,
    optimized_bound_b,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    ppt_min_eigenvalue,
    psd_sqrt,
    validate_density,
)
from helpers import bell_state, psi1_qutrit, ptrace_loops, rand_density, rand_hermitian


def test_herm_eig_diagonal():
    w, v = herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-14)
    assert np.max(np.abs((v * w) @ v.conj().T - np.diag([3.0, 1.0, 2.0]))) < 1e-13


def test_herm_eig_pauli_y():
    w, _ = herm_eig(np.array([[0, -1j], [1j, 0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rand_hermitian(rng, 6)
        w, v = herm_eig(m)
        assert np.all(np.diff(w) >= -1e-14)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) < 1e-10


def test_herm_eig_rejects_bad_input():
    with pytest.raises(NonSquareError):
        herm_eig(np.zeros((2, 3)))
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = a.conj().T @ a
        m /= np.max(np.abs(m))
        r = psd_sqrt(m)
        assert np.max(np.abs(r - r.conj().T)) < 1e-13
        assert np.max(np.abs(r @ r - m)) < 1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_kron_examples():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
                       np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_mixed_product_and_associativity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        assert np.max(np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d))) < 1e-12
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-12


def test_partial_transpose_product_state():
    rng = np.random.default_rng(14)
    ra, rb = rand_density(rng, 2), rand_density(rng, 3)
    pt = partial_transpose(kron(ra, rb), (2, 3), which=1)
    assert np.max(np.abs(pt - kron(ra, rb.T))) < 1e-14


def test_partial_transpose_involution():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for which in (0, 1):
        assert np.array_equal(
            partial_transpose(partial_transpose(m, (2, 3), which), (2, 3), which), m)


def test_partial_transpose_bell():
    psi = bell_state()
    pt = partial_transpose(np.outer(psi, psi.conj()), (2, 2), 1)
    assert abs(herm_eig(pt).eigenvalues[0] - (-0.5)) < 1e-13


def test_partial_trace_product_state():
    rng = np.random.default_rng(16)
    ra, rb = rand_density(rng, 3), rand_density(rng, 2)
    rho = kron(ra, rb)
    assert np.max(np.abs(partial_trace(rho, (3, 2), keep=0) - ra)) < 1e-13
    assert np.max(np.abs(partial_trace(rho, (3, 2), keep=1) - rb)) < 1e-13


def test_partial_trace_bell():
    psi = bell_state()
    red = partial_trace(np.outer(psi, psi.conj()), (2, 2), keep=0)
    assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-14


def test_partial_trace_qutrit_oracle():
    psi = psi1_qutrit()
    rho = np.outer(psi, psi.conj())
    red = partial_trace(rho, (3, 3), keep=0)
    assert np.max(np.abs(red - np.eye(3) / 3)) < 1e-14
    assert np.max(np.abs(red - ptrace_loops(rho, 3, 3, keep_a=True))) < 1e-14


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(17)
    rho = rand_density(rng, 12)
    for dims in ((3, 4), (2, 2, 3)):
        for keep in range(len(dims)):
            red = partial_trace(rho, dims, keep)
            assert abs(np.trace(red) - np.trace(rho)) < 1e-12


def test_dims_validation():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(6), (2, 2), keep=0)
    with pytest.raises(DimensionMismatchError):
        partial_transpose(np.eye(6), (2, 3), which=2)


def test_permute_subsystems():
    rng = np.random.default_rng(18)
    ra, rb, rc = (rand_density(rng, d) for d in (2, 3, 2))
    rho = kron(kron(ra, rb), rc)
    swapped = permute_subsystems(rho, (2, 3, 2), (2, 0, 1))
    assert np.max(np.abs(swapped - kron(kron(rc, ra), rb))) < 1e-13
    assert np.array_equal(permute_subsystems(rho, (2, 3, 2), (0, 1, 2)), rho)


NON_FINITE = {"inf": np.diag([np.inf, 0.0, 0.0, 0.0]), "nan": np.full((4, 4), np.nan)}


@pytest.mark.parametrize("kind", sorted(NON_FINITE))
@pytest.mark.parametrize("entry", [
    herm_eig,
    lambda m: bound_b(m, 2, 2),
    lambda m: optimized_bound_b(m, 2, 2),
    lambda m: max_distill_x_sq(m, 2, 2),
    lambda m: multipartite_bound_b(m, (2, 2)),
    lambda m: ppt_min_eigenvalue(m, (2, 2)),
    decompose,
    lambda m: canonicalize_subspace(m[:, :2]),
    validate_density,
], ids=["herm_eig", "bound_b", "optimized_bound_b", "max_distill_x_sq",
        "multipartite_bound_b", "ppt_min_eigenvalue", "decompose", "canonicalize_subspace",
        "validate_density"])
def test_non_finite_input_rejected_before_arithmetic(entry, kind):
    # NaN fails every tolerance test, so without the check these returned 0, nan or NaN output
    with np.errstate(all="raise"), pytest.raises(NonFiniteError):
        entry(NON_FINITE[kind])
