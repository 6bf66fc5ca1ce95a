import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from uniparam import (
    DimensionMismatchError,
    DimensionTooLargeError,
    IndexOrderError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonSquareError,
    NormalizationError,
    NotPSDError,
    NotUnitaryError,
    OptimizerConfig,
    RankOutOfRangeError,
    bopt_objective,
    bound_b,
    bound_x,
    build_unitary,
    distill_objective,
    enumerate_bipartitions,
    kron,
    linear_entropy,
    make_bopt_objective,
    make_distill_objective,
    max_concurrence,
    max_distill_x_sq,
    multipartite_bound_b,
    n_copy_state,
    offdiag_positions,
    offdiag_to_matrix,
    optimized_bound_b,
    optimized_bounds_b,
    ppt_min_eigenvalue,
    pure_m_concurrence_sq,
    sigma,
    ucs_block_positions,
    ucs_block_to_matrix,
)
from helpers import (
    assert_same_bits,
    bell_state,
    ghz_state,
    haar_state,
    haar_unitary,
    kind_pullback_reference,
    nelder_mead_restarts,
    pt_surrogate_gradient_reference,
    psi1_qutrit,
    pure_sigma_sum,
    rand_density,
    werner_state,
    wootters_concurrence,
)


def test_linear_entropy_examples():
    psi = haar_state(np.random.default_rng(41), 4)
    assert linear_entropy(np.outer(psi, psi.conj())) < 1e-14
    assert abs(linear_entropy(np.eye(5) / 5) - 1.0) < 1e-14
    assert abs(linear_entropy(np.diag([0.75, 0.25])) - 0.75) < 1e-14


def test_pure_concurrence_examples():
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0
    assert pure_m_concurrence_sq(product, 2, 2) < 1e-14
    assert abs(pure_m_concurrence_sq(psi1_qutrit(), 3, 3) - 4.0 / 3.0) < 1e-14
    assert abs(pure_m_concurrence_sq(bell_state(), 2, 2) - 1.0) < 1e-14


def test_pure_concurrence_errors():
    with pytest.raises(NormalizationError):
        pure_m_concurrence_sq(np.ones(4), 2, 2)
    with pytest.raises(DimensionMismatchError):
        pure_m_concurrence_sq(np.ones(6) / math.sqrt(6), 2, 3)


def test_bound_x_product_state_zero():
    rng = np.random.default_rng(42)
    a, b = haar_state(rng, 3), haar_state(rng, 3)
    rho = np.outer(kron(a[:, None], b[:, None]).ravel(),
                   kron(a[:, None], b[:, None]).ravel().conj())
    for ka, la, kb, lb in ((1, 2, 1, 2), (1, 3, 2, 3), (2, 3, 1, 3)):
        assert bound_x(rho, ka, la, kb, lb) < 1e-12


def test_bound_x_bell_and_mixed():
    psi = bell_state()
    assert abs(bound_x(np.outer(psi, psi.conj()), 1, 2, 1, 2) - 1.0) < 1e-12
    assert bound_x(np.eye(9) / 9, 1, 2, 1, 2) == 0.0
    assert bound_x(np.eye(9) / 9, 2, 3, 1, 3) == 0.0
    assert bound_x(np.eye(9) / 9, 2, 3, 1, 3, dims=np.array([3, 3])) == 0.0


def test_bound_x_matches_wootters_oracle():
    rng = np.random.default_rng(43)
    eye = np.eye(2, dtype=complex)
    for _ in range(50):
        rho = rand_density(rng, 4)
        assert abs(bound_x(rho, 1, 2, 1, 2, eye, eye) - wootters_concurrence(rho)) < 1e-10


def test_bound_x_infers_dims_from_u_b():
    rng = np.random.default_rng(44)
    rho = rand_density(rng, 12, rank=1)
    u_b = haar_unitary(rng, 4)
    expected = bound_x(rho, 1, 2, 2, 4, u_b=u_b, dims=(3, 4))
    assert expected > 1e-3
    assert bound_x(rho, 1, 2, 2, 4, u_b=u_b) == expected
    assert bound_x(rho, 1, 2, 1, 2, u_b=np.eye(4)) == bound_x(rho, 1, 2, 1, 2, dims=(3, 4))
    # no symmetric split and no unitary to read a dimension from
    with pytest.raises(DimensionMismatchError, match="dims"):
        bound_x(rho, 1, 2, 1, 2)
    with pytest.raises(DimensionMismatchError, match="dims"):
        bound_x(rho, 1, 2, 1, 2, u_b=np.eye(5))


def test_bound_x_rejects_bad_index_pairs():
    rho = rand_density(np.random.default_rng(45), 6)
    # (1, 3) is a valid pair on the 3-dimensional B side only
    assert bound_x(rho, 1, 2, 1, 3, dims=(2, 3)) >= 0.0
    for error, pairs in ((IndexOutOfRangeError, ((0, 2), (1, 4), (1, 3))),
                         (IndexOrderError, ((2, 1), (2, 2)))):
        for k, l in pairs:
            with pytest.raises(error):
                bound_x(rho, k, l, 1, 2, dims=(2, 3))  # A side
            if (k, l) != (1, 3):
                with pytest.raises(error):
                    bound_x(rho, 1, 2, k, l, dims=(2, 3))  # B side


def test_bound_x_checks_index_pairs_before_state():
    # the pairs are checked before the state, so a state that would fail its own check
    # still reports the bad index
    with pytest.raises(IndexOutOfRangeError):
        bound_x(np.diag([1.0, 0.0, 0.0, -0.5]), 0, 2, 1, 2)


@pytest.mark.parametrize("e, accepted", [(0.5e-8, True), (2e-8, False)])
def test_bound_b_lenient_psd_boundary(e, accepted):
    # unit trace, one eigenvalue -e: the bounds accept down to -PSD_EIG_TOL (1e-8)
    rho = np.diag([0.5, 0.5 + e, 0.0, -e])
    if accepted:
        assert bound_b(rho, 2, 2).b >= 0.0
    else:
        with pytest.raises(NotPSDError, match="eigenvalue"):
            bound_b(rho, 2, 2)


def test_bound_b_terms_match_wootters_oracle_unequal_dims():
    # every term is the concurrence of one 4x4 block of (u_a x u_b) rho (u_a x u_b)†
    rng = np.random.default_rng(57)
    syy = np.kron(sigma(1, 2, 2), sigma(1, 2, 2))
    for d_a, d_b in ((3, 4), (4, 3)):
        n = d_a * d_b
        for rank in (1, 4, n):
            for _ in range(3):
                psi = haar_state(rng, n)
                rho = np.outer(psi, psi.conj()) if rank == 1 else rand_density(rng, n, rank)
                u_a, u_b = haar_unitary(rng, d_a), haar_unitary(rng, d_b)
                w = kron(u_a, u_b)
                rotated = w @ rho @ w.conj().T
                report = bound_b(rho, d_a, d_b, u_a, u_b)
                assert len(report.terms) == d_a * (d_a - 1) * d_b * (d_b - 1) // 4
                for (ka, la, kb, lb), x in report.terms.items():
                    idx = [(i - 1) * d_b + (j - 1) for i in (ka, la) for j in (kb, lb)]
                    oracle = wootters_concurrence(rotated[np.ix_(idx, idx)])
                    if rank > 1:
                        assert abs(x - oracle) < 1e-10
                        continue
                    # A rank-1 block |phi><phi| has concurrence |phi^T (sy x sy) phi|.
                    # The oracle's general eigensolver leaves ~1e-17 in the three
                    # zero eigenvalues, ~1e-8 in their square roots.
                    phi = (w @ psi)[idx]
                    assert abs(x - abs(phi @ syy @ phi)) < 1e-12
                    assert abs(x - oracle) < 1e-7


def test_bound_b_pure_states():
    rng = np.random.default_rng(44)
    a, b = haar_state(rng, 2), haar_state(rng, 2)
    product = np.outer(np.kron(a, b), np.kron(a, b).conj())
    assert bound_b(product, 2, 2).b < 1e-9

    psi = psi1_qutrit()
    rep = bound_b(np.outer(psi, psi.conj()), 3, 3)
    assert abs(rep.b_squared - 4.0 / 3.0) < 1e-9
    assert abs(rep.b_squared - sum(x * x for x in rep.terms.values())) < 1e-12
    assert len(rep.terms) == 9


def test_pure_state_collapse_property():
    rng = np.random.default_rng(45)
    for d in (2, 3):
        for _ in range(25):
            psi = haar_state(rng, d * d)
            rho = np.outer(psi, psi.conj())
            b_sq = bound_b(rho, d, d).b_squared
            assert abs(b_sq - pure_m_concurrence_sq(psi, d, d)) < 1e-9
            assert abs(b_sq - pure_sigma_sum(psi, d)) < 1e-9


def test_conjugation_identity():
    rng = np.random.default_rng(46)
    for _ in range(10):
        rho = rand_density(rng, 9)
        u_a, u_b = haar_unitary(rng, 3), haar_unitary(rng, 3)
        big = kron(u_a, u_b)
        rotated = big @ rho @ big.conj().T
        for ka, la, kb, lb in ((1, 2, 1, 2), (2, 3, 1, 3)):
            lhs = bound_x(rotated, ka, la, kb, lb, dims=(3, 3))
            rhs = bound_x(rho, ka, la, kb, lb, u_a, u_b)
            assert abs(lhs - rhs) < 1e-10


def test_bopt_gauge_invariance():
    rng = np.random.default_rng(47)
    for _ in range(5):
        rho = rand_density(rng, 9)
        pa, pb = rng.uniform(0, 2 * math.pi, 6), rng.uniform(0, 2 * math.pi, 6)
        value = bopt_objective(rho, 3, 3, pa, pb)

        lam_a, lam_b = offdiag_to_matrix(pa, 3), offdiag_to_matrix(pb, 3)
        np.fill_diagonal(lam_a, rng.uniform(0, 2 * math.pi, 3))
        np.fill_diagonal(lam_b, rng.uniform(0, 2 * math.pi, 3))
        # built composite products act as the adjoints of the local rotations
        u_a = build_unitary(lam_a).conj().T
        u_b = build_unitary(lam_b).conj().T
        big = kron(u_a, u_b)
        unreduced = -bound_b(big @ rho @ big.conj().T, 3, 3).b_squared
        assert abs(value - unreduced) < 1e-12


def test_bopt_phase_periodicity():
    rng = np.random.default_rng(48)
    rho = rand_density(rng, 9)
    pa, pb = rng.uniform(0, 2 * math.pi, 6), rng.uniform(0, 2 * math.pi, 6)
    base = bopt_objective(rho, 3, 3, pa, pb)
    positions = offdiag_positions(3)
    for idx, (i, j) in enumerate(positions):
        if i > j:  # lower-left phase group
            shifted = pa.copy()
            shifted[idx] += 2 * math.pi
            assert abs(bopt_objective(rho, 3, 3, shifted, pb) - base) < 1e-10


def test_bopt_zero_params_is_identity_bound():
    rng = np.random.default_rng(49)
    rho = rand_density(rng, 9)
    value = bopt_objective(rho, 3, 3, np.zeros(6), np.zeros(6))
    assert abs(value + bound_b(rho, 3, 3).b_squared) < 1e-12


def test_objective_length_validation():
    rho = np.eye(9) / 9
    f = make_bopt_objective(rho, 3, 3)
    with pytest.raises(LengthMismatchError):
        f(np.zeros(5))
    with pytest.raises(LengthMismatchError):
        distill_objective(rho, 3, 3, np.zeros(3), np.zeros(4))


def test_distill_objective_psi1():
    psi = psi1_qutrit()
    rho = np.outer(psi, psi.conj())
    value = distill_objective(rho, 3, 3, np.zeros(4), np.zeros(4))
    oracle = abs(np.vdot(psi, kron(sigma(1, 2, 3), sigma(1, 2, 3)) @ psi.conj())) ** 2
    assert value < 0.0
    assert abs(value + oracle) < 1e-12
    assert abs(oracle - 4.0 / 9.0) < 1e-14


def test_distill_objective_separable_nonnegative():
    rng = np.random.default_rng(50)
    a, b = rand_density(rng, 3), rand_density(rng, 3)
    rho = kron(a, b)
    for _ in range(15):
        v = rng.uniform(0, 2 * math.pi, 8)
        assert distill_objective(rho, 3, 3, v[:4], v[4:]) >= -1e-12


def test_distill_objective_werner():
    for w in (0.5, 0.9):
        rho = werner_state(w)
        value = distill_objective(rho, 2, 2, np.zeros(0), np.zeros(0))
        expected = ((3 * w - 1) / 2) ** 2
        assert abs(value + expected) < 1e-12
    assert distill_objective(werner_state(0.2), 2, 2, np.zeros(0), np.zeros(0)) == 0.0


def test_bopt_interior_noise_state_negative():
    # interior NPT point of the two-state/noise mixing plane: already the
    # identity-rotation bound is positive, so the objective is negative
    from uniparam.cli import fig1_state

    rho = fig1_state(0.4, 0.4)
    assert ppt_min_eigenvalue(rho, (3, 3)) < -1e-10
    assert bopt_objective(rho, 3, 3, np.zeros(6), np.zeros(6)) < -1e-3


def test_ppt_min_eigenvalue():
    rng = np.random.default_rng(51)
    product = kron(rand_density(rng, 2), rand_density(rng, 2))
    assert ppt_min_eigenvalue(product, (2, 2)) > -1e-12

    psi = bell_state()
    assert abs(ppt_min_eigenvalue(np.outer(psi, psi.conj()), (2, 2)) + 0.5) < 1e-13

    psi = psi1_qutrit()
    assert ppt_min_eigenvalue(np.outer(psi, psi.conj()), (3, 3)) < -1e-3


def test_two_qubit_ppt_matches_witness():
    # PPT is necessary and sufficient for separability in 2x2, so the
    # exact term at identity flags exactly the NPT states
    rng = np.random.default_rng(56)
    for _ in range(40):
        rho = rand_density(rng, 4, rank=rng.integers(1, 5))
        npt = ppt_min_eigenvalue(rho, (2, 2)) < -1e-10
        witness = -distill_objective(rho, 2, 2, np.zeros(0), np.zeros(0)) > 1e-8
        assert witness == npt


def test_enumerate_bipartitions():
    assert len(enumerate_bipartitions(2, (2, 3))) == 1
    parts = enumerate_bipartitions(3, (2, 2, 2))
    assert len(parts) == 3
    splits = {(bp.alpha, bp.beta) for bp in parts}
    assert splits == {((0,), (1, 2)), ((0, 1), (2,)), ((0, 2), (1,))}
    assert len(enumerate_bipartitions(4, (2, 2, 2, 2))) == 7
    assert enumerate_bipartitions(np.uint8(3), (2, 2, 2)) == parts


def test_bipartition_invariants():
    dims = (2, 3, 2, 2)
    for bp in enumerate_bipartitions(4, dims):
        assert bp.alpha and bp.beta
        assert not set(bp.alpha) & set(bp.beta)
        assert sorted(bp.alpha + bp.beta) == list(range(4))
        assert bp.d_alpha * bp.d_beta == int(np.prod(dims))
        assert 0 in bp.alpha


def test_multipartite_reduces_to_bipartite():
    rng = np.random.default_rng(52)
    rho = rand_density(rng, 9)
    multi = multipartite_bound_b(rho, (3, 3))
    direct = bound_b(rho, 3, 3)
    assert abs(multi.b - direct.b) < 1e-14
    assert len(multi.parts) == 1


def test_multipartite_ghz_and_product():
    psi = ghz_state()
    report = multipartite_bound_b(np.outer(psi, psi.conj()), (2, 2, 2))
    assert report.b > 0.5
    assert report.b_squared == report.b * report.b
    values = [rep.b_squared for _, rep in report.parts]
    assert max(values) - min(values) < 1e-10

    rng = np.random.default_rng(53)
    product = kron(kron(rand_density(rng, 2), rand_density(rng, 2)), rand_density(rng, 2))
    assert multipartite_bound_b(product, (2, 2, 2)).b < 1e-9


def test_n_copy_state():
    rng = np.random.default_rng(54)
    rho = rand_density(rng, 4)
    assert np.array_equal(n_copy_state(rho, (2, 2), 1), rho)
    assert np.array_equal(n_copy_state(rho, (2, 2), np.int32(2)), n_copy_state(rho, (2, 2), 2))

    a, b = rand_density(rng, 2), rand_density(rng, 2)
    product = kron(a, b)
    two = n_copy_state(product, (2, 2), 2)
    assert np.max(np.abs(two - kron(kron(a, a), kron(b, b)))) < 1e-14

    two = n_copy_state(rho, (2, 2), 2)
    assert abs(np.trace(two) - 1.0) < 1e-12
    w1 = np.sort(np.linalg.eigvalsh(rho))
    w2 = np.sort(np.linalg.eigvalsh(two))
    assert np.max(np.abs(w2 - np.sort(np.outer(w1, w1).ravel()))) < 1e-12

    with pytest.raises(DimensionTooLargeError):
        n_copy_state(rho, (2, 2), 5)


def test_n_copy_state_caps_only_a_tensor_power():
    # the distill command takes every copy count through n_copy_state, so one copy of a state
    # past the cap is that state, not a DimensionTooLargeError
    rho = np.eye(300) / 300
    one = n_copy_state(rho, (20, 15), 1)
    assert np.array_equal(one, rho) and one is not rho
    with pytest.raises(DimensionTooLargeError):
        n_copy_state(np.eye(17) / 17, (17, 1), 2)


def test_optimized_bound_never_below_plain():
    rng = np.random.default_rng(55)
    rho = rand_density(rng, 4)
    cfg = OptimizerConfig(restarts=3, seed=1)
    b_opt, result = optimized_bound_b(rho, 2, 2, cfg)
    assert b_opt >= bound_b(rho, 2, 2).b - 1e-9
    assert result.restarts == 3


@pytest.mark.parametrize("alpha, beta, seed", [
    pytest.param(0.10, 0.25, 0, id="0.1-0.25"),
    pytest.param(0.25, 0.10, 0, id="0.25-0.1"),
    # at this seed a four-restart surrogate stage ended on one NPT block (7.38e-4)
    pytest.param(0.25, 0.10, 31, id="0.25-0.1-seed31"),
])
def test_optimized_bound_certifies_barely_npt_fig1(alpha, beta, seed):
    # every uniform restart ends on the X = 0 plateau at these grid points;
    # the partial-transpose-seeded stage must still find the NPT blocks
    from uniparam.cli import fig1_state

    rho = fig1_state(alpha, beta)
    cfg = OptimizerConfig(seed=seed)
    b_opt, result = optimized_bound_b(rho, 3, 3, cfg)
    assert b_opt / max_concurrence(3) > 1e-3
    assert result.restarts == cfg.restarts

    # the objective's angles enter bound_b as the adjoint rotations
    u_a = build_unitary(offdiag_to_matrix(result.x[:6], 3)).conj().T
    u_b = build_unitary(offdiag_to_matrix(result.x[6:], 3)).conj().T
    report = bound_b(rho, 3, 3, u_a, u_b)
    assert abs(report.b - b_opt) < 1e-12
    w = kron(u_a, u_b)
    rotated = w @ rho @ w.conj().T
    nonzero = {key: x for key, x in report.terms.items() if x > 0.0}
    assert nonzero
    for (ka, la, kb, lb), x in nonzero.items():
        idx = [(i - 1) * 3 + (j - 1) for i in (ka, la) for j in (kb, lb)]
        assert abs(x - wootters_concurrence(rotated[np.ix_(idx, idx)])) < 1e-10


def test_pt_seeded_stage_skips_ppt_plateau():
    # PPT grid state on the plateau: the result is that of the restarts alone
    from uniparam.cli import fig1_state

    rho = fig1_state(0.10, 0.20)
    assert ppt_min_eigenvalue(rho, (3, 3)) >= -1e-10
    cfg = OptimizerConfig(seed=4)
    b_opt, result = optimized_bound_b(rho, 3, 3, cfg)
    plain = nelder_mead_restarts(make_bopt_objective(rho, 3, 3), 12, cfg)
    assert b_opt == 0.0
    assert result.iterations == plain.iterations
    assert np.array_equal(result.x, plain.x)


def test_max_distill_werner():
    x_sq, result = max_distill_x_sq(werner_state(0.9), 2, 2)
    assert abs(x_sq - ((3 * 0.9 - 1) / 2) ** 2) < 1e-12
    assert result.iterations == 0

    x_sq, _ = max_distill_x_sq(werner_state(0.2), 2, 2)
    assert x_sq == 0.0


def test_packing_counts():
    assert len(offdiag_positions(3)) == 6
    assert len(ucs_block_positions(5, 2)) == 4 * 5 - 8
    assert ucs_block_positions(4, 2) == [(0, 2), (0, 3), (1, 2), (1, 3),
                                         (2, 0), (2, 1), (3, 0), (3, 1)]


@pytest.mark.parametrize("d, k", [(3, 2), (4, 2), (5, 1), (5, 3)])
def test_ucs_block_to_matrix_places_row_major(d, k):
    positions = ucs_block_positions(d, k)
    assert len(positions) == 2 * k * (d - k)
    vec = np.arange(1.0, len(positions) + 1.0)
    lam = ucs_block_to_matrix(vec, d, k)
    assert lam.shape == (d, d)
    expected = np.zeros((d, d))
    for value, (i, j) in zip(vec, positions):
        assert (i < k) != (j < k)  # one index in the first k, the other past them
        expected[i, j] = value
    assert np.array_equal(lam, expected)
    # row-major: the positions are the nonzero entries read row by row
    assert np.array_equal(lam[lam != 0.0], vec)
    for wrong in (len(positions) - 1, len(positions) + 1):
        with pytest.raises(LengthMismatchError):
            ucs_block_to_matrix(np.ones(wrong), d, k)


@pytest.mark.parametrize("d", range(2, 9))
def test_packed_positions_equal_row_major_predicates(d):
    # oracle: the row-major predicates of the two layouts, independent of the factor lists
    assert offdiag_positions(d) == [(i, j) for i in range(d) for j in range(d) if i != j]
    for k in range(1, d):
        assert ucs_block_positions(d, k) == [(i, j) for i in range(d) for j in range(d)
                                             if (i < k <= j) or (j < k <= i)]


def test_normalization_constant():
    assert abs(max_concurrence(3) - 2.0 / math.sqrt(3.0)) < 1e-15
    assert abs(max_concurrence(2) - 1.0) < 1e-15
    # numpy integers are counts too
    assert max_concurrence(np.int64(3)) == max_concurrence(3) and max_concurrence(1) == 0.0


BAD_COUNTS = {
    "max_concurrence 0": lambda: max_concurrence(0),
    "max_concurrence -1": lambda: max_concurrence(-1),
    "max_concurrence 2.0": lambda: max_concurrence(2.0),
    "max_concurrence True": lambda: max_concurrence(True),
    "n_copy_state 0": lambda: n_copy_state(np.eye(4) / 4, (2, 2), 0),
    "n_copy_state 2.0": lambda: n_copy_state(np.eye(4) / 4, (2, 2), 2.0),
    "n_copy_state True": lambda: n_copy_state(np.eye(4) / 4, (2, 2), True),
    "bipartitions 1": lambda: enumerate_bipartitions(1, (4,)),
    "bipartitions 2.0": lambda: enumerate_bipartitions(2.0, (2, 2)),
    "bipartitions True": lambda: enumerate_bipartitions(True, (4,)),
    "bound_x dims triple": lambda: bound_x(np.eye(9) / 9, 1, 2, 1, 2, dims=(3, 3, 1)),
    "bound_x dims scalar": lambda: bound_x(np.eye(9) / 9, 1, 2, 1, 2, dims=9),
    "ppt_min_eigenvalue dims scalar": lambda: ppt_min_eigenvalue(np.eye(4) / 4, 4),
    "multipartite_bound_b dims scalar": lambda: multipartite_bound_b(np.eye(4) / 4, 4),
    "n_copy_state dims scalar": lambda: n_copy_state(np.eye(4) / 4, 4, 2),
    "n_copy_state dims triple": lambda: n_copy_state(np.eye(8) / 8, (2, 2, 2), 2),
    "bipartitions dims short": lambda: enumerate_bipartitions(3, (2, 2)),
    "bound_b d_a 1": lambda: bound_b(np.eye(4) / 4, 1, 4),
    "linear_entropy 1x1": lambda: linear_entropy(np.ones((1, 1))),
    "pure_m_concurrence_sq length": lambda: pure_m_concurrence_sq(np.ones(8) / math.sqrt(8), 3, 3),
    # the layout helpers raised a bare TypeError from range, or returned an empty layout
    "offdiag_positions 3.0": lambda: offdiag_positions(3.0),
    "offdiag_positions -1": lambda: offdiag_positions(-1),
    "offdiag_to_matrix 3.0": lambda: offdiag_to_matrix(np.zeros(6), 3.0),
    "ucs_block_positions d 1": lambda: ucs_block_positions(1, 1),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_bad_counts_and_dims_raise_dimension_mismatch(case):
    # before the checks these raised ZeroDivisionError, TypeError or an unpacking ValueError,
    # or returned a number (max_concurrence(-1) = 2.0, one copy for True)
    with pytest.raises(DimensionMismatchError):
        BAD_COUNTS[case]()


BAD_SUBSPACE_DIMS = {
    "ucs_block_positions 2.0": lambda: ucs_block_positions(5, 2.0),
    "ucs_block_to_matrix 2.0": lambda: ucs_block_to_matrix(np.zeros(8), 4, 2.0),
    "ucs_block_positions 5 > d": lambda: ucs_block_positions(3, 5),
    "ucs_block_to_matrix 0": lambda: ucs_block_to_matrix(np.zeros(0), 4, 0),
}


@pytest.mark.parametrize("case", sorted(BAD_SUBSPACE_DIMS))
def test_bad_subspace_dims_raise_rank_out_of_range(case):
    # a non-integer k raised a bare TypeError from range, and a k outside 1..d gave an empty layout
    with pytest.raises(RankOutOfRangeError, match="subspace dimension"):
        BAD_SUBSPACE_DIMS[case]()


def test_full_subspace_has_no_block_angles():
    # k = d is the qubit side of the witness, which reads no angles
    assert ucs_block_positions(2, 2) == [] and ucs_block_positions(4, 4) == []
    assert np.array_equal(ucs_block_to_matrix(np.zeros(0), 2, 2), np.zeros((2, 2)))


def test_ragged_state_lists_raise_dimension_mismatch():
    # telling one state from a list stacked the list, and numpy raised a bare ValueError
    # (inhomogeneous shape)
    from uniparam.entanglement import lifted_bounds_b

    states = [np.eye(9) / 9, np.eye(16) / 16]
    with pytest.raises(DimensionMismatchError, match="16"):
        optimized_bounds_b(states, 3, 3, [None, None])
    with pytest.raises(DimensionMismatchError, match="16"):
        lifted_bounds_b(states, 3, 3, [None, None], [np.zeros((0, 12))] * 2)


def test_states_reads_one_state_a_stack_or_a_sequence():
    from uniparam.entanglement import _check_state, _states

    rng = np.random.default_rng(47)
    rho, other = rand_density(rng, 6), rand_density(rng, 6)
    checked = _check_state(rho, 2, 3)
    for one in (rho, rho.tolist(), checked):
        (state,) = _states(one, 2, 3)
        assert np.array_equal(state.rho, rho)
    for many in (np.stack([rho, other]), [rho, other], [checked, other.tolist()]):
        first, second = _states(many, 2, 3)
        assert np.array_equal(first.rho, rho) and np.array_equal(second.rho, other)


MIXED_4 = np.eye(4) / 4
NON_INTEGER_DIMS = {
    "bound_b 2.0": lambda: bound_b(MIXED_4, 2.0, 2.0),
    "optimized_bound_b 2.0": lambda: optimized_bound_b(MIXED_4, 2.0, 2.0),
    "max_distill_x_sq 2.0": lambda: max_distill_x_sq(MIXED_4, 2, 2.0),
    "make_bopt_objective 2.0": lambda: make_bopt_objective(MIXED_4, 2.0, 2),
    "bound_x dims 2.0": lambda: bound_x(MIXED_4, 1, 2, 1, 2, dims=(2.0, 2.0)),
    "ppt_min_eigenvalue 2.5": lambda: ppt_min_eigenvalue(MIXED_4, (2.5, 1.6)),
    "ppt_min_eigenvalue 2.0": lambda: ppt_min_eigenvalue(MIXED_4, (2.0, 2.0)),
    "multipartite_bound_b 2.0": lambda: multipartite_bound_b(MIXED_4, (2, 2.0)),
    "bipartitions dims 2.5": lambda: enumerate_bipartitions(2, (2.5, 2)),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_DIMS))
def test_non_integer_dims_raise_dimension_mismatch(case):
    # these raised a bare TypeError, or were truncated by int(): (2.5, 1.6) was reported as
    # dims (2, 1), and (2.0, 2.0) passed
    with pytest.raises(DimensionMismatchError, match="integer"):
        NON_INTEGER_DIMS[case]()


def test_non_integer_index_raises_index_out_of_range():
    # bound_x(rho, 1.0, 2.0, 1, 2) raised numpy's IndexError
    for indices in ((1.0, 2, 1, 2), (1, 2.0, 1, 2), (1, 2, 1.0, 2), (1, 2, 1.5, 2)):
        with pytest.raises(IndexOutOfRangeError, match="integer"):
            bound_x(MIXED_4, *indices)


def test_numpy_integer_dims_and_indices_accepted():
    i = np.int64
    rho = rand_density(np.random.default_rng(46), 6)
    assert bound_b(rho, i(2), i(3)) == bound_b(rho, 2, 3)
    assert (bound_x(rho, i(1), i(2), i(1), np.int32(3), dims=(i(2), i(3)))
            == bound_x(rho, 1, 2, 1, 3, dims=(2, 3)))
    assert ppt_min_eigenvalue(rho, (i(2), i(3))) == ppt_min_eigenvalue(rho, (2, 3))
    cfg = OptimizerConfig(restarts=2)
    assert optimized_bound_b(rho, i(2), i(3), cfg)[0] == optimized_bound_b(rho, 2, 3, cfg)[0]


@pytest.mark.parametrize("d_a, d_b", [(3, 3), (4, 4), (3, 4)])
def test_batched_objectives_equal_closures(d_a, d_b):
    from uniparam.entanglement import (
        _block_index,
        _objective,
        _pt_surrogate,
        _scalar,
        _search,
        sigma_pairs,
    )

    rng = np.random.default_rng(10 * d_a + d_b)
    rho = rand_density(rng, d_a * d_b, rank=3)
    n_bopt = d_a * d_a - d_a + d_b * d_b - d_b
    bopt = _search(d_a, d_b)
    # the surrogate reads the generator pairs of the two sides one to one
    assert np.array_equal(bopt.seed_idx,
                          _block_index(list(zip(sigma_pairs(d_a), sigma_pairs(d_b))), d_b))
    cases = [
        (_objective(rho, bopt), make_bopt_objective(rho, d_a, d_b), n_bopt),
        (_objective(rho, _search(d_a, d_b, witness=True)), make_distill_objective(rho, d_a, d_b),
         4 * d_a - 8 + 4 * d_b - 8),
    ]
    surrogate = _pt_surrogate(rho, bopt)
    cases.append((surrogate, _scalar(surrogate), n_bopt))
    for objective, closure, n in cases:
        v = rng.uniform(0.0, 2 * np.pi, (25, n))
        v[0] = 0.0
        values = objective(v)[0]
        assert values.shape == (25,)
        # bit for bit: a restart's values must not depend on the rows beside it
        for i in range(25):
            assert values[i] == closure(v[i])


@pytest.mark.parametrize("d_a, d_b", [(3, 4), (2, 3)])
def test_objectives_unequal_dims(d_a, d_b):
    rng = np.random.default_rng(7 * d_a + d_b)
    rho = rand_density(rng, d_a * d_b, rank=2)
    plain = bound_b(rho, d_a, d_b).b
    assert plain > 1e-3
    n_a, n_b = d_a * d_a - d_a, d_b * d_b - d_b
    f = make_bopt_objective(rho, d_a, d_b)
    assert abs(f(np.zeros(n_a + n_b)) + plain ** 2) < 1e-12
    # per side, the angles enter bound_b as the adjoint rotations
    v = rng.uniform(0.0, 2 * np.pi, n_a + n_b)
    u_a = build_unitary(offdiag_to_matrix(v[:n_a], d_a)).conj().T
    u_b = build_unitary(offdiag_to_matrix(v[n_a:], d_b)).conj().T
    assert abs(f(v) + bound_b(rho, d_a, d_b, u_a, u_b).b ** 2) < 1e-12
    with pytest.raises(LengthMismatchError):
        f(np.zeros(2 * n_a))

    g = make_distill_objective(rho, d_a, d_b)
    n_distill = 4 * d_a - 8 + 4 * d_b - 8  # a d = 2 side has no angles
    term = bound_x(rho, 1, 2, 1, 2, dims=(d_a, d_b))
    assert abs(g(np.zeros(n_distill)) + term ** 2) < 1e-12

    cfg = OptimizerConfig(restarts=2, seed=3)
    b_opt, result = optimized_bound_b(rho, d_a, d_b, cfg)
    assert result.x.size == n_a + n_b
    assert b_opt >= plain - 1e-12
    x_sq, result = max_distill_x_sq(rho, d_a, d_b, cfg)
    assert result.x.size == n_distill
    assert x_sq >= term ** 2 - 1e-12


def test_seeded_stage_telemetry():
    # at this barely-NPT grid point every restart ends at 0 and the seeded run wins
    from uniparam.cli import fig1_state

    cfg = OptimizerConfig()
    _, result = optimized_bound_b(fig1_state(0.10, 0.25), 3, 3, cfg)
    assert len(result.restart_values) == cfg.restarts + 1
    assert all(v == 0.0 for v in result.restart_values[:cfg.restarts])
    assert result.best_restart == cfg.restarts
    assert result.value == result.restart_values[-1] < 0.0
    assert result.evaluations > result.iterations


def assert_same_result(a, b):
    assert np.array_equal(a.x, b.x)
    assert ((a.value, a.iterations, a.restarts, a.converged, a.history, a.evaluations,
             a.restart_values, a.best_restart)
            == (b.value, b.iterations, b.restarts, b.converged, b.history, b.evaluations,
                b.restart_values, b.best_restart))


@pytest.mark.parametrize("case", ["fig1", "random-3x4"])
def test_optimized_bounds_many_equal_one_at_a_time(case):
    from uniparam.cli import fig1_state

    if case == "fig1":
        # a PPT plateau state, the barely-NPT point where the seeded stage runs, an NPT state
        rhos = [fig1_state(0.10, 0.20), fig1_state(0.10, 0.25), fig1_state(0.5, 0.25)]
        dims, cfg = (3, 3), OptimizerConfig(restarts=4)
    else:
        rng = np.random.default_rng(77)
        rhos = [rand_density(rng, 12, rank=r) for r in (1, 2, 12)]
        dims, cfg = (3, 4), OptimizerConfig(restarts=3)
    cfgs = [replace(cfg, seed=3 + i) for i in range(len(rhos))]
    many = optimized_bounds_b(rhos, *dims, cfgs)
    assert len(many) == len(rhos)
    for rho, c, (b, result) in zip(rhos, cfgs, many):
        b_one, one = optimized_bound_b(rho, *dims, c)
        assert b == b_one
        assert_same_result(result, one)
    # the seeded run won at the barely-NPT point and at the full-rank state
    assert many[1 if case == "fig1" else 2][1].best_restart == cfg.restarts
    # the joint run's rows equal those of the one-vector closure
    plain = nelder_mead_restarts(make_bopt_objective(rhos[0], *dims), many[0][1].x.size, cfgs[0])
    assert_same_result(many[0][1], plain)


def test_pt_seeded_stage_runs_on_round_off_plateau():
    # a best value of -1e-32 is round-off of X = 0 on a PPT block, not a certified bound
    from uniparam.cli import fig1_state
    from uniparam.entanglement import _check_state, _pt_seeded, _search
    from uniparam.optimize import OptimizerResult

    cfg = OptimizerConfig()
    state, search = _check_state(fig1_state(0.10, 0.25), 3, 3), _search(3, 3)
    plateau = OptimizerResult(-1e-32, np.zeros(search.n), 0, cfg.restarts, True, evaluations=1,
                              restart_values=(-1e-32,) * cfg.restarts, best_restart=0)
    (result,) = _pt_seeded([plateau], [state], search, [cfg])
    assert len(result.restart_values) == cfg.restarts + 1
    assert result.best_restart == cfg.restarts
    assert abs(math.sqrt(-result.value) / max_concurrence(3) - 1.2783e-3) < 1e-7


@pytest.mark.parametrize("case", ["fig1-band", "fig1-barely-npt", "random-2x3"])
def test_max_distill_equals_minimize(case):
    from uniparam.cli import fig1_state
    from uniparam.entanglement import PT_SEED_RESTARTS, _pt_surrogate, _scalar, _search
    from uniparam.optimize import OptimizerResult

    if case == "random-2x3":
        rho, dims = rand_density(np.random.default_rng(23), 6), (2, 3)
    else:
        # (0.25, 0) is PPT and its restarts end at -1.2e-32, round-off of X = 0
        alpha, beta = (0.25, 0.0) if case == "fig1-band" else (0.10, 0.25)
        rho, dims = fig1_state(alpha, beta), (3, 3)
    cfg = OptimizerConfig(seed=5)
    f = make_distill_objective(rho, *dims)
    n = (4 * dims[0] - 8) + (4 * dims[1] - 8)
    expected = nelder_mead_restarts(f, n, cfg)
    if case == "fig1-barely-npt":
        # every restart ends at 0, and the run seeded from the surrogate's minimizer wins
        assert expected.value == 0.0
        search = _search(*dims, witness=True)
        surrogate = _pt_surrogate(rho, search)
        seeded = nelder_mead_restarts(_scalar(surrogate), n,
                                      replace(cfg, restarts=PT_SEED_RESTARTS))
        run = nelder_mead_restarts(f, n, cfg, starts=[seeded.x])
        assert run.value < 0.0
        expected = OptimizerResult(
            run.value, run.x, expected.iterations + seeded.iterations + run.iterations,
            expected.restarts, run.converged,
            evaluations=expected.evaluations + seeded.evaluations + run.evaluations,
            restart_values=expected.restart_values + run.restart_values,
            best_restart=cfg.restarts, calls=expected.calls + seeded.calls + run.calls)
    # the witness runs BFGS from the same starts: Nelder-Mead's search is the reference it may
    # not fall below, and BFGS needs fewer points wherever it has a gradient to follow
    x_sq, result = max_distill_x_sq(rho, *dims, cfg)
    reference = max(-expected.value, 0.0)
    assert x_sq >= reference * (1.0 - 1e-6)
    assert result.value == make_distill_objective(rho, *dims)(result.x)
    if case == "fig1-barely-npt":
        assert result.best_restart == result.restarts == cfg.restarts
        assert len(result.restart_values) == cfg.restarts + 1
    if case != "fig1-band":  # PPT: every run of either search stops on its first simplex
        assert result.evaluations < expected.evaluations


# ---------------------------------------------------------------------------
# exact values on the isotropic axes and at the Werner threshold

def test_optimized_bound_exact_on_isotropic_axes():
    # beta = 0 is the isotropic family with fidelity F = alpha + (1 - alpha)/9; alpha = 0 is
    # the same family up to the local qutrit shift.  Its normalized concurrence is
    # (4 alpha - 1)/3 for alpha >= 1/4 (Rungta-Caves, PRA 67, 012307, 2003).
    from uniparam.cli import fig1_state

    weights = (0.3, 0.5, 0.75, 1.0)
    points = [(a, 0.0) for a in weights] + [(0.0, a) for a in weights]
    rhos = [fig1_state(alpha, beta) for alpha, beta in points]
    results = optimized_bounds_b(rhos, 3, 3, [OptimizerConfig()] * len(rhos))
    for (alpha, beta), (b_opt, _) in zip(points, results):
        exact = (4 * (alpha + beta) - 1) / 3
        normalized = b_opt / max_concurrence(3)
        assert abs(normalized - exact) < 1e-9, (alpha, beta)
        # a lower bound above the exact value would be a wrong answer, not a loose one
        assert normalized <= exact + 1e-12, (alpha, beta)


def werner_family(d, beta):
    """(I + beta F)/(d^2 + beta d), F the swap of two d-level systems."""
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    return (np.eye(d * d) + beta * swap) / (d * d + beta * d)


@pytest.mark.parametrize("d", [3, 4])
def test_distill_witness_werner_threshold(d):
    # W(beta) is NPT for beta < -1/d and 1-distillable iff beta < -1/2: a Schmidt-rank-2
    # vector has <psi|P_phi+|psi> <= 2/d, and F^Gamma = d P_phi+
    for beta in (-0.45, -0.49):
        rho = werner_family(d, beta)
        assert ppt_min_eigenvalue(rho, (d, d)) < -1e-10
        x_sq, result = max_distill_x_sq(rho, d, d)
        assert x_sq == 0.0, beta
        # every restart ended on the zero plateau, so the seeded stage ran and found nothing
        assert len(result.restart_values) == OptimizerConfig().restarts + 1
    for beta in (-0.51, -0.55):
        x_sq, _ = max_distill_x_sq(werner_family(d, beta), d, d)
        assert x_sq > 1e-8, beta


# ---------------------------------------------------------------------------
# block factor kinds

def _kind_states(rng):
    """One 3x4 state of each factor kind, by the name of its factor."""
    w = np.geomspace(1.0, 1e-10, 12)
    u = haar_unitary(rng, 12)
    return {
        "cholesky, full rank": rand_density(rng, 12),
        "direct, rank 1": rand_density(rng, 12, rank=1),
        "direct, rank 2": rand_density(rng, 12, rank=2),
        "direct, rank 6": rand_density(rng, 12, rank=6),
        "direct, ill-conditioned full rank": (u * (w / w.sum())) @ u.conj().T,
    }


def test_factor_kind_choice():
    from uniparam.entanglement import _check_state, _cholesky_concurrences, _direct_concurrences

    kinds = {"cholesky": _cholesky_concurrences, "direct": _direct_concurrences}
    # Psi has max(r, 2) columns
    widths = {"direct, rank 1": 2, "direct, rank 2": 2, "direct, rank 6": 6}
    for name, rho in _kind_states(np.random.default_rng(61)).items():
        state = _check_state(rho, 3, 4)
        assert state.kind is kinds[name.split(",")[0]], name
        if name in widths:
            assert state.data.shape == (12, widths[name]), name
        # a checked state passes through unchanged
        assert _check_state(state, 3, 4) is state


def test_factor_kinds_match_wootters_oracle():
    rng = np.random.default_rng(62)
    for name, rho in _kind_states(rng).items():
        full_rank = name.startswith("cholesky")
        for _ in range(3):
            u_a, u_b = haar_unitary(rng, 3), haar_unitary(rng, 4)
            w = kron(u_a, u_b)
            rotated = w @ rho @ w.conj().T
            for (ka, la, kb, lb), x in bound_b(rho, 3, 4, u_a, u_b).terms.items():
                idx = [(i - 1) * 4 + (j - 1) for i in (ka, la) for j in (kb, lb)]
                oracle = wootters_concurrence(rotated[np.ix_(idx, idx)])
                # the oracle's documented accuracy: ~5e-14 at full rank, ~1.5e-8 below
                assert abs(x - oracle) < (1e-10 if full_rank else 1e-7), name


def test_factor_kinds_batched_rows_equal_closures():
    from uniparam.entanglement import _objective, _search

    rng = np.random.default_rng(63)
    rhos = list(_kind_states(rng).values())
    n_bopt, n_distill = 6 + 12, 4 + 8
    v = rng.uniform(0.0, 2 * np.pi, (40, n_bopt))
    owner = rng.integers(0, len(rhos), 40)
    owner[:len(rhos)] = np.arange(len(rhos))  # every kind present
    bopt, witness = _search(3, 4), _search(3, 4, witness=True)
    stacked = _objective(np.array(rhos), bopt)(v, owner)[0]
    single = [_objective(rho, bopt) for rho in rhos]
    closures = [make_bopt_objective(rho, 3, 4) for rho in rhos]
    for i in range(len(v)):
        assert stacked[i] == single[owner[i]](v[i])[0] == closures[owner[i]](v[i])
    # rows of one state do not depend on the rows of other kinds beside them
    for s, rho in enumerate(rhos):
        rows = np.flatnonzero(owner == s)
        assert np.array_equal(_objective([rho], bopt)(v[rows], np.zeros(rows.size, int))[0],
                              stacked[rows])

    v = rng.uniform(0.0, 2 * np.pi, (25, n_distill))
    for rho in rhos:
        objective, closure = _objective(rho, witness), make_distill_objective(rho, 3, 4)
        values = objective(v)[0]
        for i in range(len(v)):
            assert values[i] == closure(v[i])


def test_two_column_concurrences_match_svd():
    from uniparam.entanglement import (
        _SPIN_FLIP,
        X_ROUNDOFF,
        _concurrences,
        _two_column_tau,
    )

    def cplx(rng, *shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def svd_of_tau(f):
        a, b, d = _two_column_tau(f)
        # tau's entries are those of the matmul up to its round-off, eps * |L|^2
        tau = np.swapaxes(f, -1, -2) @ _SPIN_FLIP @ f
        scale = np.sum(np.abs(f) ** 2, axis=(-2, -1))
        for entry, ref in ((a, tau[..., 0, 0]), (b, tau[..., 0, 1]), (d, tau[..., 1, 1])):
            assert np.all(np.abs(entry - ref) <= 8 * np.finfo(float).eps * scale)
        x = np.linalg.svd(np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2),
                          compute_uv=False)
        return x[..., 0], x[..., 0] - x[..., 1]

    rng = np.random.default_rng(65)
    rank2 = cplx(rng, 50, 40, 4, 2)
    # rank 1 pads a zero column; a zero first column is the case f = 0
    rank1, rank1_first_zero = rank2.copy(), rank2.copy()
    rank1[..., 1] = 0.0
    rank1_first_zero[..., 0] = 0.0
    for f in (rank1, rank1_first_zero, rank2):
        x_1, c = svd_of_tau(f)
        assert np.all(np.abs(_concurrences(f)[0] - c) <= 1e-14 * x_1)
    # product columns u (x) v: tau's exact diagonal is 0 and its singular values are equal,
    # so every nonzero result is round-off the zero rule missed
    cols = [(cplx(rng, 2000, 2, 1) * cplx(rng, 2000, 1, 2)).reshape(2000, 4) for _ in range(2)]
    separable = np.stack(cols, axis=-1) * np.array([1.0, 0.3])
    x_1, c = svd_of_tau(separable)
    assert (np.count_nonzero(_concurrences(separable)[0])
            <= np.count_nonzero(c > X_ROUNDOFF * x_1))


@pytest.mark.parametrize("witness", [False, True])
@pytest.mark.parametrize("d_a, d_b", [(3, 3), (4, 4), (2, 3), (3, 4)])
def test_search_rotations_equal_per_side_builds(d_a, d_b, witness):
    from uniparam.composite import _product, _ucs_pairs, sigma_pairs
    from uniparam.entanglement import _angles_at, _index, _search

    def side(v, d):
        if witness:
            lam = _angles_at(v, _index(ucs_block_positions(d, 2), 2), (d, d))
            return _product(lam, _ucs_pairs(d, 2), diag=False)[..., :2]
        return _product(_angles_at(v, _index(offdiag_positions(d), 2), (d, d)), sigma_pairs(d),
                        diag=False)

    search = _search(d_a, d_b, witness)
    n_a = 4 * d_a - 8 if witness else d_a * d_a - d_a
    rng = np.random.default_rng(10 * d_a + d_b + witness)
    for v in (rng.uniform(0.0, 2 * np.pi, (7, search.n)), rng.uniform(0.0, 2 * np.pi, search.n)):
        w_a, w_b, _ = search.rotations_vjp(v)
        ref_a, ref_b = side(v[..., :n_a], d_a), side(v[..., n_a:], d_b)
        assert w_a.shape == ref_a.shape and w_b.shape == ref_b.shape
        assert np.all(w_a == ref_a) and np.all(w_b == ref_b)


def test_cholesky_kind_just_above_threshold():
    from uniparam.entanglement import (
        CHOLESKY_MIN_RATIO,
        _all_pairs,
        _block_index,
        _check_state,
        _cholesky_concurrences,
        _direct_concurrences,
        _objective,
        _search,
    )

    rng = np.random.default_rng(64)
    w = np.geomspace(1.0, 1.5 * CHOLESKY_MIN_RATIO, 12)
    u = haar_unitary(rng, 12)
    rho = (u * (w / w.sum())) @ u.conj().T
    state = _check_state(rho, 3, 4)
    assert state.kind is _cholesky_concurrences
    w_rho, v_rho = np.linalg.eigh(rho)
    psi = v_rho * np.sqrt(w_rho)
    idx = _block_index(_all_pairs(3, 4), 4)
    for _ in range(200):
        u_a, u_b = haar_unitary(rng, 3), haar_unitary(rng, 4)
        x, _ = state.kind(state.data, u_a, u_b, idx)  # raises LinAlgError on an indefinite block
        assert np.allclose(x, _direct_concurrences(psi, u_a, u_b, idx)[0],
                           rtol=0.0, atol=1e-9)
    values = _objective(state, _search(3, 4))(rng.uniform(0.0, 2 * np.pi, (200, 18)))[0]
    assert np.all(np.isfinite(values))


def test_direct_kind_exact_above_rank_four():
    from uniparam.entanglement import _check_state, _direct_concurrences

    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    block = [0, 1, 4, 5]  # |1,2> (x) |1,2> of a 3 x 4 system
    for p in (0.2, 0.5, 0.8):
        rho = np.zeros((12, 12), dtype=complex)
        rho[np.ix_(block, block)] = 0.6 * (p * np.outer(singlet, singlet)
                                           + (1.0 - p) * np.eye(4) / 4.0)
        rho[10, 10], rho[11, 11] = 0.25, 0.15  # |3,3> and |3,4>
        state = _check_state(rho, 3, 4)
        assert state.kind is _direct_concurrences and state.data.shape == (12, 6)
        exact = 0.6 * max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(bound_x(rho, 1, 2, 1, 2, dims=(3, 4)) - exact) < 1e-12, p


def test_ppt_fig1_axis_points_give_exact_zero():
    from uniparam.cli import fig1_state

    for alpha, beta in ((0.0, 0.25), (0.25, 0.0)):
        rho = fig1_state(alpha, beta)
        assert ppt_min_eigenvalue(rho, (3, 3)) >= -1e-10  # PPT, on the boundary
        assert bound_b(rho, 3, 3).b == 0.0
        assert optimized_bound_b(rho, 3, 3)[0] == 0.0


# ---------------------------------------------------------------------------
# screen of provably PPT blocks in the summed searches

def test_pt_index_map_equals_partial_transpose():
    from uniparam import partial_transpose
    from uniparam.entanglement import _PT_COLS, _PT_ROWS

    rng = np.random.default_rng(71)
    blocks = rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4))
    expected = np.array([partial_transpose(r, (2, 2), 1) for r in blocks])
    assert np.array_equal(blocks[..., _PT_ROWS, _PT_COLS], expected)


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 3), (3, 4), (4, 4)])
def test_ppt_screen_leaves_other_blocks_bit_identical(d_a, d_b):
    from uniparam.entanglement import (
        _all_pairs,
        _block_index,
        _by_state,
        _check_state,
        _cholesky_concurrences,
        _concurrences,
        _product_basis,
        _provably_ppt,
        _rotated_blocks,
    )

    rng = np.random.default_rng(72 + 10 * d_a + d_b)
    pairs = _all_pairs(d_a, d_b)
    if len(pairs) == 1:  # two qubits: sum the one block twice, so the screen applies
        pairs = pairs * 2
    idx = _block_index(pairs, d_b)
    states = [_check_state(rand_density(rng, d_a * d_b), d_a, d_b) for _ in range(4)]
    assert all(state.kind is _cholesky_concurrences for state in states)
    rows = 40
    w_a = np.array([haar_unitary(rng, d_a) for _ in range(rows)])
    w_b = np.array([haar_unitary(rng, d_b) for _ in range(rows)])
    owner = rng.integers(0, len(states), rows)
    owner[:len(states)] = np.arange(len(states))
    stacked = _by_state(states, idx)(w_a, w_b, owner)[0]
    screened_count = 0
    for s, state in enumerate(states):
        mine = np.flatnonzero(owner == s)
        x, _ = state.kind(state.data, w_a[mine], w_b[mine], idx)
        assert np.array_equal(stacked[mine], x)
        blocks = _rotated_blocks(state.data, _product_basis(w_a[mine], w_b[mine]), idx)
        unscreened = _concurrences(np.linalg.cholesky(blocks))[0]
        screened = _provably_ppt(blocks)
        assert np.array_equal(x[~screened], unscreened[~screened])
        assert np.all(x[screened] == 0.0)
        # a screened block's unscreened value is round-off of its exact 0
        trace = np.trace(blocks, axis1=-2, axis2=-1).real
        assert np.all(unscreened[screened] <= 1e-12 * trace[screened])
        screened_count += np.count_nonzero(screened)
    assert 0 < screened_count < stacked.size


def test_ppt_screen_sign_on_werner_blocks():
    from uniparam.entanglement import _PT_COLS, _PT_ROWS, _provably_ppt

    # w |Phi+><Phi+| + (1 - w) I/4 is NPT iff w > 1/3; local unitaries keep det(R^Γ)
    rng = np.random.default_rng(73)
    for w, npt in ((0.30, False), (0.36, True)):
        assert (ppt_min_eigenvalue(werner_state(w), (2, 2)) < -1e-10) == npt
        local = [kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in range(20)]
        blocks = np.array([u @ werner_state(w) @ u.conj().T for u in local])
        det = np.linalg.det(blocks[..., _PT_ROWS, _PT_COLS]).real
        assert np.all((det < 0.0) == npt), w
        # the rule is relative to the block's trace, as blocks of a larger state are
        for scale in (1.0, 0.05):
            assert np.all(_provably_ppt(scale * blocks) != npt), (w, scale)


def test_witness_search_does_not_screen(monkeypatch):
    from uniparam.cli import fig1_state
    from uniparam.entanglement import _check_state, _cholesky_concurrences

    calls = []
    det = np.linalg.det

    def counting_det(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    # barely NPT and of the Cholesky kind: the restarts and the seeded stage both run
    rho = fig1_state(0.10, 0.25)
    assert _check_state(rho, 3, 3).kind is _cholesky_concurrences
    x_sq, result = max_distill_x_sq(rho, 3, 3)
    assert x_sq > 0.0 and len(result.restart_values) == OptimizerConfig().restarts + 1
    assert calls == []
    # the bound's search sums nine blocks per row and does screen
    optimized_bound_b(rho, 3, 3, OptimizerConfig(restarts=1))
    assert calls


# ---------------------------------------------------------------------------
# local rotations must be unitary

@pytest.mark.parametrize("u", [3 * np.eye(2), np.ones((2, 2))], ids=["3I", "ones"])
def test_local_rotations_must_be_unitary(u):
    # rotating by these gave B = 9.0 (the maximum is 1) and B = 0.0 for the Bell state
    psi = bell_state()
    rho = np.outer(psi, psi.conj())
    for side in ("u_a", "u_b"):
        with pytest.raises(NotUnitaryError):
            bound_b(rho, 2, 2, **{side: u})
        with pytest.raises(NotUnitaryError):
            bound_x(rho, 1, 2, 1, 2, **{side: u})
    # a unitary within the input tolerance is still accepted
    assert abs(bound_b(rho, 2, 2, u_a=np.eye(2) * (1 + 1e-10)).b - 1.0) < 1e-9


def test_local_rotations_with_overflowing_entries_rejected():
    # the unitarity check's Gram product overflowed with a RuntimeWarning before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitaryError, match="inf"):
            bound_b(np.eye(4) / 4, 2, 2, u_a=np.full((2, 2), 1e300))


# ---------------------------------------------------------------------------
# the B_opt search's value-and-gradient evaluator

def _gradient_states(rng, d_a, d_b):
    """NPT states of each factor kind and width for the split d_a x d_b, by name."""
    n = d_a * d_b
    psi = haar_state(rng, n)
    states = {"cholesky": 0.9 * np.outer(psi, psi.conj()) + 0.1 * rand_density(rng, n)}
    for r in (1, 2, 3, 4, 5):
        if r < n:
            states[f"direct r={r}"] = rand_density(rng, n, rank=r)
    # full rank below the Cholesky ratio: the factor keeps all n columns
    w = np.geomspace(1.0, 1e-10, n)
    u = haar_unitary(rng, n)
    states["direct ill-conditioned"] = (u * (w / w.sum())) @ u.conj().T
    return states


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 3), (2, 3), (3, 4), (4, 4)])
def test_bopt_gradients_match_central_differences(d_a, d_b):
    # the B_opt search and, through the same kinds, the witness's one block on two columns
    from uniparam.entanglement import (
        _check_state,
        _cholesky_concurrences,
        _direct_concurrences,
        _objective,
        _search,
    )

    kinds = {"cholesky": _cholesky_concurrences, "direct": _direct_concurrences}
    rng = np.random.default_rng(100 + 10 * d_a + d_b)
    # B_opt, then with fresh states the witness, whose one block is PPT on much of angle
    # space at the higher ranks, so it takes more rows (the two-qubit witness has no angles)
    searches = [(_search(d_a, d_b), 6)]
    if d_a * d_b > 4:
        searches.append((_search(d_a, d_b, witness=True), 30))
    widths = set()
    for search, rows in searches:
        for name, rho in _gradient_states(rng, d_a, d_b).items():
            state = _check_state(rho, d_a, d_b)
            assert state.kind is kinds[name.split()[0]], name
            widths.add(state.data.shape[1])
            v = rng.uniform(0.0, 2 * np.pi, (rows, search.n))
            v[0] = 0.0
            objective = _objective(state, search)
            values, gradient = objective(v)
            grads = gradient()
            # the values are those of the one-vector rows, bit for bit
            assert np.array_equal(values, [objective(row)[0] for row in v]), name
            assert grads.shape == v.shape
            central = np.empty_like(grads)
            for i in range(search.n):
                step = np.zeros(search.n)
                step[i] = 1e-6
                central[:, i] = (objective(v + step)[0] - objective(v - step)[0]) / 2e-6
            assert np.max(np.abs(grads - central)) < 1e-7, name
            # B of a pure state is its concurrence, and a two-qubit state is its one block:
            # both are locally invariant, so only the others show that the check is not of zeros
            if name != "direct r=1" and d_a * d_b > 4:
                assert np.max(np.abs(grads)) > 1e-3, name
    # direct widths 2 (ranks 1 and 2), 3, 4 and, past 4 columns, the QR factor
    assert {2, 3, 4} <= widths
    assert (max(widths) > 4) == (d_a * d_b > 4)


def test_bopt_gradients_batched_rows_equal_one_at_a_time():
    from uniparam.entanglement import _objective, _search

    rng = np.random.default_rng(64)
    rhos = list(_gradient_states(rng, 3, 4).values())
    for search in (_search(3, 4), _search(3, 4, witness=True)):
        v = rng.uniform(0.0, 2 * np.pi, (30, search.n))
        owner = rng.integers(0, len(rhos), 30)
        owner[:len(rhos)] = np.arange(len(rhos))
        values, gradient = _objective(np.array(rhos), search)(v, owner)
        grads = gradient()
        for i in range(len(v)):
            one_value, one_gradient = _objective(rhos[owner[i]], search)(v[i:i + 1])
            assert values[i] == one_value[0]
            assert np.array_equal(grads[i], one_gradient()[0])


def test_bopt_gradients_zero_on_screened_and_zero_rule_rows():
    from uniparam.cli import fig1_state
    from uniparam.entanglement import (
        _by_state,
        _check_state,
        _concurrences,
        _objective,
        _product_basis,
        _provably_ppt,
        _rotated_blocks,
        _search,
    )

    rng = np.random.default_rng(65)
    search = _search(3, 3)
    v = rng.uniform(0.0, 2 * np.pi, (50, search.n))
    # a PPT grid state of the Cholesky kind: every block of these rows is screened out
    state = _check_state(fig1_state(0.10, 0.20), 3, 3)
    w_a, w_b, _ = search.rotations_vjp(v)
    assert _provably_ppt(_rotated_blocks(state.data, _product_basis(w_a, w_b), search.idx)).all()
    values, gradient = _objective(state, search)(v)
    grads = gradient()
    assert np.all(values == 0.0) and np.all(grads == 0.0)

    # a separable rank-2 state: rows whose blocks the zero rule or max(c, 0) all set to 0
    prods = [np.kron(haar_state(rng, 3), haar_state(rng, 3)) for _ in range(2)]
    state = _check_state(sum(0.5 * np.outer(p, p.conj()) for p in prods), 3, 3)
    v = rng.uniform(0.0, 2 * np.pi, (200, search.n))
    w_a, w_b, _ = search.rotations_vjp(v)
    zero = (_by_state([state], search.idx)(w_a, w_b)[0] == 0.0).all(axis=1)
    assert zero.sum() > 5
    values, gradient = _objective(state, search)(v)
    grads = gradient()
    assert np.all(values[zero] == 0.0) and np.all(grads[zero] == 0.0)

    # per block: separable factors, many of them zeroed by the round-off rule, add exactly 0
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for r in (2, 3, 4):
        factors = (cplx(2000, 2, 1, r) * cplx(2000, 1, 2, r)).reshape(2000, 4, r)
        x, gradient = _concurrences(factors)
        h = gradient()
        assert np.count_nonzero(x == 0.0) > 1000
        assert np.all(h[x == 0.0] == 0.0)


@pytest.mark.parametrize("d_a, d_b", [(3, 3), (3, 4), (4, 4)])
def test_kind_pullbacks_equal_recomputing_reference(d_a, d_b):
    # the pullbacks reuse the value pass's W, tau and spin-flipped factors and skip the
    # witness's whole-block gather and scatter: each must equal the recomputing form, bit
    # for bit, for B_opt's screened rows and the witness's one block
    from uniparam.entanglement import (
        _check_state,
        _cholesky_concurrences,
        _product_basis,
        _provably_ppt,
        _rotated_blocks,
        _search,
    )

    rng = np.random.default_rng(400 + 10 * d_a + d_b)
    n = d_a * d_b
    psi = haar_state(rng, n)
    rhos = {"cholesky": 0.4 * np.outer(psi, psi.conj()) + 0.6 * np.eye(n) / n}
    for r in (1, 2, 3, 4, 6):
        rhos[f"direct r={r}"] = rand_density(rng, n, rank=r)
    widths, bopt = set(), _search(d_a, d_b)
    for search in (bopt, _search(d_a, d_b, witness=True)):
        v = rng.uniform(0.0, 2 * np.pi, (20, search.n))
        w_a, w_b, _ = search.rotations_vjp(v)
        for name, rho in rhos.items():
            state = _check_state(rho, d_a, d_b)
            x, pullback = state.kind(state.data, w_a, w_b, search.idx)
            assert np.count_nonzero(x) > 0, name
            assert_same_bits(pullback(), kind_pullback_reference(state, w_a, w_b, search.idx))
            if state.kind is not _cholesky_concurrences:
                widths.add(state.data.shape[1])
            elif search is bopt:
                # B_opt's rows screen some blocks of this state and keep others
                blocks = _rotated_blocks(state.data, _product_basis(w_a, w_b), search.idx)
                assert 0 < np.count_nonzero(_provably_ppt(blocks)) < x.size, name
    # direct factors of two (ranks 1 and 2), three and four columns, and the QR factor of six
    assert widths == {2, 3, 4, 6}


@pytest.mark.parametrize("witness", [False, True], ids=["bopt", "witness"])
def test_pt_surrogate_gradient_equals_recomputing_reference(witness):
    from uniparam.entanglement import _pt_surrogate, _search

    rng = np.random.default_rng(410 + witness)
    search = _search(3, 4, witness)
    for rho in (rand_density(rng, 12), rand_density(rng, 12, rank=2)):
        v = rng.uniform(0.0, 2 * np.pi, (15, search.n))
        assert_same_bits(_pt_surrogate(rho, search)(v)[1](),
                         pt_surrogate_gradient_reference(rho, search, v))


def test_bopt_search_runs_bfgs():
    # the B_opt and witness restarts are BFGS runs: each run's first call is its start's
    # simplex, then one trial point per call, so the evaluations stay far below Nelder-Mead's
    from uniparam.cli import fig1_state

    rho = fig1_state(0.5, 0.25)
    cfg = OptimizerConfig(restarts=4, seed=2)
    for search, make, n in ((optimized_bound_b, make_bopt_objective, 12),
                            (max_distill_x_sq, make_distill_objective, 8)):
        _, result = search(rho, 3, 3, cfg)
        plain = nelder_mead_restarts(make(rho, 3, 3), n, cfg)
        assert -result.value >= -plain.value - 1e-12
        assert result.evaluations < plain.evaluations / 3
        assert result.value == make(rho, 3, 3)(result.x)
        assert result.restart_values[result.best_restart] == result.value


def test_lifted_bounds_rise_only_from_a_better_candidate():
    # at fig1 (0.50, 0.05) the zero start alone stops at the plain bound's maximum; 48 restarts
    # find the better one, and a run from that optimum lifts the one-restart result to it
    from uniparam.cli import fig1_state
    from uniparam.entanglement import LIFT_MARGIN, lifted_bounds_b

    rho = fig1_state(0.50, 0.05)
    low_b, low = optimized_bound_b(rho, 3, 3, OptimizerConfig(restarts=1))
    high_b, high = optimized_bound_b(rho, 3, 3, OptimizerConfig(restarts=48, seed=3))
    assert high.value < low.value - 1e-6
    worse = np.zeros((1, 12)) + 0.3
    assert make_bopt_objective(rho, 3, 3)(worse[0]) > low.value - LIFT_MARGIN
    (b, lifted), (same_b, same), (none_b, none) = lifted_bounds_b(
        [rho, rho, rho], 3, 3, [low, low, low],
        [np.array([worse[0], high.x]), worse, np.zeros((0, 12))])
    assert high_b - 1e-9 <= b and lifted.value <= high.value
    assert lifted.value == make_bopt_objective(rho, 3, 3)(lifted.x)
    assert lifted.best_restart == low.restarts == 1
    assert lifted.restart_values == low.restart_values + (lifted.value,)
    assert lifted.evaluations > low.evaluations + 2 and lifted.iterations >= low.iterations
    # a candidate that is no better adds its evaluation and call, and nothing else
    assert (same_b, same.value, same.best_restart) == (low_b, low.value, low.best_restart)
    assert np.array_equal(same.x, low.x)
    assert (same.evaluations, same.calls) == (low.evaluations + 1, low.calls + 1)
    assert none is low and none_b == low_b


def test_lifted_best_restart_indexes_the_winning_entry():
    # a seeded result lists restarts + 1 values, so a lifting run's value is entry 13 of 14, and
    # best_restart read 12, the restarts, the value of the seeded run that did not win
    from uniparam.cli import fig1_state
    from uniparam.entanglement import lifted_bounds_b

    rho = fig1_state(0.15, 0.25)
    _, low = optimized_bound_b(rho, 3, 3, OptimizerConfig(seed=0))
    _, high = optimized_bound_b(rho, 3, 3, OptimizerConfig(seed=1))
    assert high.value < low.value - 1e-6
    seeded = replace(low, restart_values=low.restart_values + (low.value,))
    ((_, lifted),) = lifted_bounds_b([rho], 3, 3, [seeded], [high.x[None]])
    assert lifted.value <= high.value
    assert lifted.restart_values == seeded.restart_values + (lifted.value,)
    assert lifted.best_restart == len(seeded.restart_values) == low.restarts + 1
    assert lifted.restart_values[lifted.best_restart] == lifted.value


def test_batched_bounds_reject_mismatched_lengths():
    # the batched bounds zipped their lists, so a short one dropped states without an error,
    # and a candidate of the wrong width failed in a numpy broadcast
    from uniparam.cli import fig1_state
    from uniparam.entanglement import lifted_bounds_b

    rhos = [fig1_state(0.5, 0.25), fig1_state(0.25, 0.5)]
    cfg = OptimizerConfig(restarts=1)
    with pytest.raises(LengthMismatchError):
        optimized_bounds_b(rhos, 3, 3, [cfg])
    with pytest.raises(LengthMismatchError):
        optimized_bounds_b(rhos[:1], 3, 3, [cfg, cfg])
    results = [result for _, result in optimized_bounds_b(rhos, 3, 3, [cfg, cfg])]
    none = np.zeros((0, 12))
    with pytest.raises(LengthMismatchError):
        lifted_bounds_b(rhos, 3, 3, results[:1], [none, none])
    with pytest.raises(LengthMismatchError):
        lifted_bounds_b(rhos, 3, 3, results, [none])
    for wrong in (np.zeros((1, 11)), np.zeros((1, 13)), np.zeros(12)):
        with pytest.raises(LengthMismatchError):
            lifted_bounds_b(rhos, 3, 3, results, [none, wrong])
    # an empty candidate set needs no width
    lifted = lifted_bounds_b(rhos, 3, 3, results, [np.array([]), none])
    assert [r for _, r in lifted] == results


def test_batched_bounds_read_every_batch_as_states():
    # an empty batch read as one state and failed its shape check, and a 0-d array was iterated
    # into a bare TypeError
    from uniparam.entanglement import lifted_bounds_b

    assert optimized_bounds_b([], 3, 3, []) == []
    assert optimized_bounds_b(np.zeros((0, 9, 9)), 3, 3, []) == []
    assert lifted_bounds_b([], 3, 3, [], []) == []
    with pytest.raises(NonSquareError):
        optimized_bounds_b(np.array(5.0), 2, 2, [None])
    with pytest.raises(NonSquareError):
        lifted_bounds_b(np.array(5.0), 2, 2, [None], [np.zeros((0, 4))])


# ---------------------------------------------------------------------------
# the seeded stage's partial-transpose surrogate

@pytest.mark.parametrize("d_a, d_b", [(3, 3), (3, 4), (2, 3)])
@pytest.mark.parametrize("witness", [False, True], ids=["bopt", "witness"])
def test_pt_surrogate_gradients_match_central_differences(d_a, d_b, witness):
    from uniparam.entanglement import (
        _check_state,
        _cholesky_concurrences,
        _pt_surrogate,
        _search,
    )

    rng = np.random.default_rng(300 + 10 * d_a + d_b + witness)
    search = _search(d_a, d_b, witness)
    rhos = {"cholesky": rand_density(rng, d_a * d_b), "rank 2": rand_density(rng, d_a * d_b, 2)}
    assert _check_state(rhos["cholesky"], d_a, d_b).kind is _cholesky_concurrences
    for name, rho in rhos.items():
        surrogate = _pt_surrogate(rho, search)
        v = rng.uniform(0.0, 2 * np.pi, (6, search.n))
        v[0] = 0.0
        values, gradient = surrogate(v)
        grads = gradient()
        # the values are those of the one-vector rows, bit for bit
        assert np.array_equal(values, [surrogate(row)[0] for row in v]), name
        assert grads.shape == v.shape
        central = np.empty_like(grads)
        for i in range(search.n):
            step = np.zeros(search.n)
            step[i] = 1e-6
            central[:, i] = (surrogate(v + step)[0] - surrogate(v - step)[0]) / 2e-6
        scale = np.max(np.abs(central))
        assert scale > 1e-3, name
        assert np.max(np.abs(grads - central)) < 1e-6 * scale, name


def test_pt_surrogate_stacked_rows_equal_one_vector_values():
    from uniparam.entanglement import _pt_surrogate, _search

    rng = np.random.default_rng(310)
    rho = rand_density(rng, 12, rank=3)
    for search in (_search(3, 4), _search(3, 4, witness=True)):
        surrogate = _pt_surrogate(rho, search)
        v = rng.uniform(0.0, 2 * np.pi, (25, search.n))
        values, gradient = surrogate(v)
        grads = gradient()
        for i in range(len(v)):
            one_value, one_gradient = surrogate(v[i:i + 1])
            assert values[i] == one_value[0] == surrogate(v[i])[0]
            assert np.array_equal(grads[i], one_gradient()[0])


@pytest.mark.parametrize("witness", [False, True], ids=["bopt", "witness"])
def test_seeded_stage_evaluations_below_nelder_mead(witness):
    # Nelder-Mead on the surrogate alone took 2,000-10,000 points at the fig1 band states
    from uniparam.cli import fig1_state
    from uniparam.entanglement import (
        PLATEAU_X_SQ,
        PT_SEED_RESTARTS,
        _check_state,
        _pt_seeded,
        _pt_surrogate,
        _scalar,
        _search,
    )
    from uniparam.optimize import OptimizerResult

    rho, cfg = fig1_state(0.10, 0.25), OptimizerConfig(seed=2)
    state, search = _check_state(rho, 3, 3), _search(3, 3, witness)
    # a plateau result that carries no work, so the stage's work is all the result reports
    plateau = OptimizerResult(0.0, np.zeros(search.n), 0, cfg.restarts, True,
                              restart_values=(0.0,) * cfg.restarts, best_restart=0)
    (stage,) = _pt_seeded([plateau], [state], search, [cfg])
    assert stage.best_restart == cfg.restarts and stage.value < -PLATEAU_X_SQ
    surrogate = _pt_surrogate(rho, search)
    reference = nelder_mead_restarts(_scalar(surrogate), search.n,
                                     replace(cfg, restarts=PT_SEED_RESTARTS))
    assert stage.evaluations < reference.evaluations
    assert stage.calls < reference.calls


@pytest.mark.parametrize("witness", [False, True], ids=["bopt", "witness"])
def test_pt_surrogate_state_stack_rows_equal_one_state_rows(witness):
    # the seeded stage minimizes the surrogates of several states in one lockstep
    from uniparam.entanglement import _pt_surrogate, _search

    rng = np.random.default_rng(2800 + witness)
    search = _search(3, 4, witness)
    rhos = [rand_density(rng, 12), rand_density(rng, 12, rank=2), rand_density(rng, 12, rank=5)]
    v = rng.uniform(0.0, 2 * np.pi, (25, search.n))
    owner = rng.integers(0, len(rhos), len(v))
    values, gradient = _pt_surrogate(np.array(rhos), search)(v, owner)
    grads = gradient()
    for s, rho in enumerate(rhos):
        rows = np.flatnonzero(owner == s)
        assert rows.size
        one_values, one_gradient = _pt_surrogate(rho, search)(v[rows])
        assert_same_bits(values[rows], one_values)
        assert_same_bits(grads[rows], one_gradient())
    # a stack of one state, and a stack read with no owner, are the first state alone
    one_values, one_gradient = _pt_surrogate(rhos[0], search)(v)
    for surrogate, own in ((_pt_surrogate(np.array(rhos[:1]), search), np.zeros(len(v), int)),
                           (_pt_surrogate(np.array(rhos), search), None)):
        stacked_values, stacked_gradient = surrogate(v, own)
        assert_same_bits(stacked_values, one_values)
        assert_same_bits(stacked_gradient(), one_gradient())


def test_seeded_stage_of_two_states_equals_each_alone():
    # both barely-NPT states end every restart on the plateau; their stage is one lockstep
    from uniparam.cli import fig1_state

    cfg = OptimizerConfig(seed=0)
    rhos = [fig1_state(0.10, 0.25), fig1_state(0.25, 0.10)]
    many = optimized_bounds_b(rhos, 3, 3, [cfg] * 2)
    for rho, (b, result) in zip(rhos, many):
        assert len(result.restart_values) == cfg.restarts + 1
        assert all(v > -1e-24 for v in result.restart_values[:cfg.restarts])
        b_one, one = optimized_bound_b(rho, 3, 3, cfg)
        assert b == b_one
        assert_same_result(result, one)
    # the two results share the calls of every lockstep they ran in
    assert many[0][1].calls == many[1][1].calls


# ---------------------------------------------------------------------------
# one factorization per block per call

def _factorizations(monkeypatch):
    """Wrap ``np.linalg.svd`` and ``np.linalg.qr``; the list gets (form, blocks) per call.

    The forms are "svd", "svd values", "qr" and "qr r"; blocks is the
    number of matrices in the stack.
    """
    log = []
    svd, qr = np.linalg.svd, np.linalg.qr

    def blocks(a):
        return int(np.prod(np.shape(a)[:-2]))

    def counted_svd(a, full_matrices=True, compute_uv=True, **kwargs):
        log.append(("svd" if compute_uv else "svd values", blocks(a)))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    def counted_qr(a, mode="reduced"):
        log.append(("qr r" if mode == "r" else "qr", blocks(a)))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    return log


SVD_PATH_CASES = ["bopt, full rank", "witness, full rank", "bopt, rank 3", "bopt, rank 6",
                  "witness, rank 6"]


def _svd_path_case(name):
    """(state, search) on the SVD path: the Cholesky kind and direct widths 3 and 6 (wide)."""
    from uniparam.entanglement import (
        _check_state,
        _cholesky_concurrences,
        _direct_concurrences,
        _search,
    )

    rng = np.random.default_rng(2600)
    psi = haar_state(rng, 9)  # entangled enough that few blocks are PPT
    states = {"full rank": _check_state(0.7 * np.outer(psi, psi.conj())
                                        + 0.3 * rand_density(rng, 9), 3, 3),
              "rank 3": _check_state(rand_density(rng, 9, rank=3), 3, 3),
              "rank 6": _check_state(rand_density(rng, 9, rank=6), 3, 3)}
    assert states["full rank"].kind is _cholesky_concurrences
    assert states["rank 3"].kind is states["rank 6"].kind is _direct_concurrences
    assert (states["rank 3"].data.shape[1], states["rank 6"].data.shape[1]) == (3, 6)
    search, rank = name.split(", ")
    return states[rank], _search(3, 3, witness=search == "witness")


@pytest.mark.parametrize("name", SVD_PATH_CASES)
def test_gradient_calls_factor_each_block_once(monkeypatch, name):
    # a call whose gradient is read takes one full SVD of each block (and one full QR of a
    # wide factor), whose U and V the closure reuses; a values-only call takes no U, V or Q
    from uniparam.entanglement import _objective

    state, search = _svd_path_case(name)
    v = np.random.default_rng(2601).uniform(0.0, 2 * np.pi, (6, search.n))
    objective = _objective(state, search)
    log = _factorizations(monkeypatch)
    values_only = objective(v)[0]
    assert log and {form for form, _ in log} <= {"svd values", "qr r"}
    svd_blocks = sum(n for form, n in log if form == "svd values")
    qr_blocks = sum(n for form, n in log if form == "qr r")
    # only the direct kind's wide factor takes a QR
    assert svd_blocks > 0 and qr_blocks == (svd_blocks if name.endswith("rank 6") else 0)

    log.clear()
    values, gradient = objective(v, None, full=True)
    gradient()
    assert {form for form, _ in log} <= {"svd", "qr"}
    # the PPT screen keeps the same blocks in both forms, so each is factored exactly once
    assert sum(n for form, n in log if form == "svd") == svd_blocks
    assert sum(n for form, n in log if form == "qr") == qr_blocks
    assert len(log) == 1 + (qr_blocks > 0)
    # the two SVDs' singular values differ at most in the last bits
    assert np.allclose(values, values_only, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", SVD_PATH_CASES)
def test_full_factorization_gradients_match_central_differences(name):
    # the full SVD's U and V, and a wide factor's full QR, give the gradient of the values
    from uniparam.entanglement import _objective

    state, search = _svd_path_case(name)
    v = np.random.default_rng(2611).uniform(0.0, 2 * np.pi, (6, search.n))
    objective = _objective(state, search)
    values, gradient = objective(v, None, full=True)
    grads = gradient()
    central = np.empty_like(grads)
    for i in range(search.n):
        step = np.zeros(search.n)
        step[i] = 1e-6
        central[:, i] = (objective(v + step)[0] - objective(v - step)[0]) / 2e-6
    assert np.max(np.abs(grads)) > 1e-3
    assert np.max(np.abs(grads - central)) < 1e-7

    # a closure called after a values-only pass factors again and gives the same gradient
    later = objective(v)[1]()
    assert np.max(np.abs(later - grads)) <= 1e-12 * np.max(np.abs(grads))


@pytest.mark.parametrize("rank", ["full rank", "rank 6"])
def test_searches_read_factorizations_by_position(monkeypatch, rank):
    # numpy before 2.0 returns svd's (U, S, Vh) and qr's (Q, R) as plain tuples, and the
    # gradient calls read them as .S, .Q and .R, an AttributeError there
    cfg = OptimizerConfig(restarts=2, seed=1)
    rho = _svd_path_case(f"bopt, {rank}")[0].rho
    expected = [search(rho, 3, 3, cfg)[1] for search in (optimized_bound_b, max_distill_x_sq)]
    svd, qr = np.linalg.svd, np.linalg.qr

    def plain(result):
        return tuple(result) if isinstance(result, tuple) else result

    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: plain(svd(*args, **kwargs)))
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: plain(qr(*args, **kwargs)))
    assert type(np.linalg.svd(np.eye(3))) is type(np.linalg.qr(np.eye(3))) is tuple
    for search, alone in zip((optimized_bound_b, max_distill_x_sq), expected):
        assert_same_result(search(rho, 3, 3, cfg)[1], alone)


def test_searches_report_values_only_values():
    # the steps run on the full SVD's values; every reported value is the values-only one
    rng = np.random.default_rng(2620)
    cfg = OptimizerConfig(restarts=3, seed=5)
    for rank in (3, 6, 9):
        rho = rand_density(rng, 9, rank=rank)
        for search, make in ((optimized_bound_b, make_bopt_objective),
                             (max_distill_x_sq, make_distill_objective)):
            _, result = search(rho, 3, 3, cfg)
            assert result.value == make(rho, 3, 3)(result.x)
            assert result.restart_values[result.best_restart] == result.value


def test_falsy_config_raises_uniparam_error():
    # `cfg or OptimizerConfig()` ran the default 12 restarts for a config of 0
    from uniparam.errors import UniparamError

    for bad in (0, "", []):
        with pytest.raises(UniparamError):
            optimized_bound_b(MIXED_4, 2, 2, bad)
        with pytest.raises(UniparamError):
            max_distill_x_sq(np.eye(9) / 9, 3, 3, bad)


def test_scalar_state_raises_non_square():
    # _states took len() of a scalar, and Python raised a bare TypeError
    from uniparam.errors import NonSquareError

    with pytest.raises(NonSquareError):
        optimized_bounds_b(5.0, 2, 2, [None])
    with pytest.raises(NonSquareError):
        optimized_bound_b(5.0, 2, 2)
