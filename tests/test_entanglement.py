import math
from dataclasses import replace

import numpy as np
import pytest

from uniparam import (
    DimensionMismatchError,
    DimensionTooLargeError,
    LengthMismatchError,
    NormalizationError,
    OptimizerConfig,
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
    minimize,
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
    bell_state,
    ghz_state,
    haar_state,
    haar_unitary,
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
    values = [rep.b_squared for _, rep in report.parts]
    assert max(values) - min(values) < 1e-10

    rng = np.random.default_rng(53)
    product = kron(kron(rand_density(rng, 2), rand_density(rng, 2)), rand_density(rng, 2))
    assert multipartite_bound_b(product, (2, 2, 2)).b < 1e-9


def test_n_copy_state():
    rng = np.random.default_rng(54)
    rho = rand_density(rng, 4)
    assert np.array_equal(n_copy_state(rho, (2, 2), 1), rho)

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


def test_optimized_bound_never_below_plain():
    rng = np.random.default_rng(55)
    rho = rand_density(rng, 4)
    cfg = OptimizerConfig(max_iterations=400, restarts=3, seed=1)
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
    plain = minimize(make_bopt_objective(rho, 3, 3), 12, cfg)
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


def test_normalization_constant():
    assert abs(max_concurrence(3) - 2.0 / math.sqrt(3.0)) < 1e-15
    assert abs(max_concurrence(2) - 1.0) < 1e-15


@pytest.mark.parametrize("d_a, d_b", [(3, 3), (4, 4), (3, 4)])
def test_batched_objectives_equal_closures(d_a, d_b):
    from uniparam.entanglement import (
        _block_index,
        _pt_surrogate,
        _scalar,
        _search,
        _values,
        sigma_pairs,
    )

    rng = np.random.default_rng(10 * d_a + d_b)
    rho = rand_density(rng, d_a * d_b, rank=3)
    n_bopt = d_a * d_a - d_a + d_b * d_b - d_b
    idx = _block_index(list(zip(sigma_pairs(d_a), sigma_pairs(d_b))), d_b)
    cases = [
        (_values(rho, _search(d_a, d_b)), make_bopt_objective(rho, d_a, d_b), n_bopt),
        (_values(rho, _search(d_a, d_b, witness=True)), make_distill_objective(rho, d_a, d_b),
         4 * d_a - 8 + 4 * d_b - 8),
    ]
    surrogate = _pt_surrogate(rho, _search(d_a, d_b).rotations, idx)
    cases.append((surrogate, _scalar(surrogate, n_bopt), n_bopt))
    for batch, closure, n in cases:
        v = rng.uniform(0.0, 2 * np.pi, (25, n))
        v[0] = 0.0
        values = batch(v)
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

    cfg = OptimizerConfig(max_iterations=300, restarts=2, seed=3)
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
        dims, cfg = (3, 4), OptimizerConfig(max_iterations=300, restarts=3)
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
    plain = minimize(make_bopt_objective(rhos[0], *dims), many[0][1].x.size, cfgs[0])
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
    result = _pt_seeded(plateau, make_bopt_objective(state, 3, 3), state, search, cfg)
    assert len(result.restart_values) == cfg.restarts + 1
    assert result.best_restart == cfg.restarts
    assert abs(math.sqrt(-result.value) / max_concurrence(3) - 1.2783e-3) < 1e-7


@pytest.mark.parametrize("case", ["fig1-band", "fig1-barely-npt", "random-2x3"])
def test_max_distill_equals_minimize(case):
    from uniparam.cli import fig1_state
    from uniparam.entanglement import PT_SEED_RESTARTS, _pt_surrogate, _scalar, _search
    from uniparam.optimize import OptimizerResult, refine

    if case == "random-2x3":
        rho, dims = rand_density(np.random.default_rng(23), 6), (2, 3)
    else:
        # (0.25, 0) is PPT and its restarts end at -1.2e-32, round-off of X = 0
        alpha, beta = (0.25, 0.0) if case == "fig1-band" else (0.10, 0.25)
        rho, dims = fig1_state(alpha, beta), (3, 3)
    cfg = OptimizerConfig(seed=5)
    f = make_distill_objective(rho, *dims)
    n = (4 * dims[0] - 8) + (4 * dims[1] - 8)
    expected = minimize(f, n, cfg)
    if case == "fig1-barely-npt":
        # every restart ends at 0, and the run seeded from the surrogate's minimizer wins
        assert expected.value == 0.0
        search = _search(*dims, witness=True)
        surrogate = _pt_surrogate(rho, search.rotations, search.seed_idx)
        seeded = minimize(_scalar(surrogate, n), n, replace(cfg, restarts=PT_SEED_RESTARTS))
        run = refine(f, seeded.x, cfg)
        assert run.value < 0.0
        expected = OptimizerResult(
            run.value, run.x, expected.iterations + seeded.iterations + run.iterations,
            expected.restarts, run.converged,
            evaluations=expected.evaluations + seeded.evaluations + run.evaluations,
            restart_values=expected.restart_values + run.restart_values,
            best_restart=cfg.restarts, calls=expected.calls + seeded.calls + run.calls)
    x_sq, result = max_distill_x_sq(rho, *dims, cfg)
    assert x_sq == max(-expected.value, 0.0)
    assert_same_result(result, expected)
    assert result.calls == expected.calls


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
    from uniparam.entanglement import _search, _values

    rng = np.random.default_rng(63)
    rhos = list(_kind_states(rng).values())
    n_bopt, n_distill = 6 + 12, 4 + 8
    v = rng.uniform(0.0, 2 * np.pi, (40, n_bopt))
    owner = rng.integers(0, len(rhos), 40)
    owner[:len(rhos)] = np.arange(len(rhos))  # every kind present
    bopt, witness = _search(3, 4), _search(3, 4, witness=True)
    stacked = _values(np.array(rhos), bopt)(v, owner)
    single = [_values(rho, bopt) for rho in rhos]
    closures = [make_bopt_objective(rho, 3, 4) for rho in rhos]
    for i in range(len(v)):
        assert stacked[i] == single[owner[i]](v[i]) == closures[owner[i]](v[i])
    # rows of one state do not depend on the rows of other kinds beside them
    for s, rho in enumerate(rhos):
        rows = np.flatnonzero(owner == s)
        assert np.array_equal(_values([rho], bopt)(v[rows], np.zeros(rows.size, int)),
                              stacked[rows])

    v = rng.uniform(0.0, 2 * np.pi, (25, n_distill))
    for rho in rhos:
        batch, closure = _values(rho, witness), make_distill_objective(rho, 3, 4)
        values = batch(v)
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
        assert np.all(np.abs(_concurrences(f) - c) <= 1e-14 * x_1)
    # product columns u (x) v: tau's exact diagonal is 0 and its singular values are equal,
    # so every nonzero result is round-off the zero rule missed
    cols = [(cplx(rng, 2000, 2, 1) * cplx(rng, 2000, 1, 2)).reshape(2000, 4) for _ in range(2)]
    separable = np.stack(cols, axis=-1) * np.array([1.0, 0.3])
    x_1, c = svd_of_tau(separable)
    assert (np.count_nonzero(_concurrences(separable))
            <= np.count_nonzero(c > X_ROUNDOFF * x_1))


@pytest.mark.parametrize("witness", [False, True])
@pytest.mark.parametrize("d_a, d_b", [(3, 3), (4, 4), (2, 3), (3, 4)])
def test_search_rotations_equal_per_side_builds(d_a, d_b, witness):
    from uniparam.composite import _product, _ucs_pairs, _unitary_pairs
    from uniparam.entanglement import _angles_at, _search

    def side(v, d):
        if witness:
            lam = _angles_at(v, ucs_block_positions(d, 2), d, "side")
            return _product(lam, _ucs_pairs(d, 2), diag=False)[..., :2]
        return _product(_angles_at(v, offdiag_positions(d), d, "side"), _unitary_pairs(d),
                        diag=False)

    search = _search(d_a, d_b, witness)
    n_a = 4 * d_a - 8 if witness else d_a * d_a - d_a
    rng = np.random.default_rng(10 * d_a + d_b + witness)
    for v in (rng.uniform(0.0, 2 * np.pi, (7, search.n)), rng.uniform(0.0, 2 * np.pi, search.n)):
        w_a, w_b = search.rotations(v)
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
        _search,
        _values,
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
        x = state.concurrences(u_a, u_b, idx)  # raises LinAlgError on an indefinite block
        assert np.allclose(x, _direct_concurrences(psi, u_a, u_b, idx),
                           rtol=0.0, atol=1e-9)
    values = _values(state, _search(3, 4))(rng.uniform(0.0, 2 * np.pi, (200, 18)))
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
        _check_state,
        _cholesky_concurrences,
        _concurrences,
        _provably_ppt,
        _rotated_blocks,
        _state_concurrences,
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
    stacked = _state_concurrences(states, idx)(w_a, w_b, owner)
    screened_count = 0
    for s, state in enumerate(states):
        mine = np.flatnonzero(owner == s)
        x = state.concurrences(w_a[mine], w_b[mine], idx)
        assert np.array_equal(stacked[mine], x)
        blocks = _rotated_blocks(state.data, w_a[mine], w_b[mine], idx)
        unscreened = _concurrences(np.linalg.cholesky(blocks))
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
    optimized_bound_b(rho, 3, 3, OptimizerConfig(restarts=1, max_iterations=5))
    assert calls
