"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

The fig1 grid scan (criteria 6a-6d) is computed once per session by a
module-scoped fixture with the pinned settings: step 0.05, 12 restarts,
base seed 0.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from uniparam import (
    bopt_objective,
    bound_b,
    bound_x,
    build_density,
    build_unitary,
    decompose,
    enumerate_bipartitions,
    kron,
    linear_entropy,
    make_distill_objective,
    max_distill_x_sq,
    multipartite_bound_b,
    offdiag_to_matrix,
    partial_trace,
    ppt_min_eigenvalue,
    random_param_matrix,
    subspace_basis,
    unitarity_defect,
    validate_density,
)
from uniparam.cli import main as cli_main
from uniparam.cli import run_fig1_scan
from helpers import (
    ghz_state,
    haar_state,
    rand_density,
    werner_state,
    wootters_concurrence,
)

PERTURB = 0.37


def report(name, ok, detail=""):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else ""))


def test_criterion_1_unitarity_and_roundtrip():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_defect = worst_resid = 0.0
    for d in range(2, 7):
        for _ in range(500):
            u = build_unitary(random_param_matrix(d, rng))
            worst_defect = max(worst_defect, unitarity_defect(u))
            worst_resid = max(worst_resid, float(np.max(np.abs(build_unitary(decompose(u)) - u))))
    elapsed = time.perf_counter() - t0
    ok = worst_defect < 1e-12 and worst_resid < 1e-10 and elapsed < 10.0
    report("1 (unitarity & round trip)", ok,
           f"defect={worst_defect:.2e} resid={worst_resid:.2e} {elapsed:.1f}s")
    assert worst_defect < 1e-12
    assert worst_resid < 1e-10
    assert elapsed < 10.0


def _live_density_params(rng, d, k):
    theta = rng.uniform(0.2, 1.2, k - 1)
    lam = rng.uniform(0.3, 1.1, (d, d))
    base = build_density(theta, lam, k, d)
    live = 0
    for i in range(k - 1):
        shifted = theta.copy()
        shifted[i] += PERTURB
        assert not np.array_equal(build_density(shifted, lam, k, d), base)
        live += 1
    for i in range(d):
        for j in range(d):
            shifted = lam.copy()
            shifted[i, j] += PERTURB
            if not np.array_equal(build_density(theta, shifted, k, d), base):
                live += 1
    return live


def _live_subspace_params(rng, d, k):
    lam = rng.uniform(0.3, 1.1, (d, d))
    base = subspace_basis(lam, k, d)
    live = 0
    for i in range(d):
        for j in range(d):
            shifted = lam.copy()
            shifted[i, j] += PERTURB
            if not np.array_equal(subspace_basis(shifted, k, d), base):
                live += 1
    return live


def test_criterion_2_parameter_count_audit():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 7):
        for k in range(1, d + 1):
            expected = 2 * d * k - k * k - 1
            got = _live_density_params(rng, d, k)
            ok &= got == expected
            assert got == expected, f"density d={d} k={k}: {got} != {expected}"
        for k in range(1, d):
            expected = 2 * k * (d - k)
            got = _live_subspace_params(rng, d, k)
            ok &= got == expected
            assert got == expected, f"subspace d={d} k={k}: {got} != {expected}"
    elapsed = time.perf_counter() - t0
    report("2 (parameter-count audit)", ok and elapsed < 30.0, f"{elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_3_density_invariants():
    rng = np.random.default_rng(1003)
    for d in range(2, 7):
        for k in range(1, d + 1):
            for _ in range(200):
                theta = rng.uniform(0, math.pi / 2, k - 1)
                rho = build_density(theta, random_param_matrix(d, rng), k, d)
                w = validate_density(rho, rank_bound=k)  # raises on violation
                assert abs(float(np.sum(w)) - 1.0) < 1e-12
    report("3 (density invariants)", True, "200 states per (d,k), d<=6")


def test_criterion_4_pure_state_collapse():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for d in (2, 3):
        for _ in range(100):
            psi = haar_state(rng, d * d)
            rho_a = partial_trace(np.outer(psi, psi.conj()), (d, d), keep=0)
            target = 2 * (d - 1) / d * linear_entropy(rho_a)
            b_sq = bound_b(np.outer(psi, psi.conj()), d, d).b_squared
            worst = max(worst, abs(b_sq - target))
    report("4 (pure-state collapse)", worst < 1e-9, f"worst={worst:.2e}")
    assert worst < 1e-9


def test_criterion_5_wootters_oracle():
    rng = np.random.default_rng(1005)
    eye = np.eye(2, dtype=complex)
    worst = 0.0
    for _ in range(200):
        rho = rand_density(rng, 4)
        diff = abs(bound_x(rho, 1, 2, 1, 2, eye, eye) - wootters_concurrence(rho))
        worst = max(worst, diff)
    report("5 (Wootters oracle)", worst < 1e-10, f"worst={worst:.2e}")
    assert worst < 1e-10


@pytest.fixture(scope="module")
def fig1_scan():
    t0 = time.perf_counter()
    rows = run_fig1_scan(0.05, optimize=True, restarts=12, seed=0,
                         jobs=os.cpu_count())
    return rows, time.perf_counter() - t0


def test_criterion_6a_unoptimized_blind_spots(fig1_scan):
    rows, _ = fig1_scan
    npt = [r for r in rows if r.is_state and not r.is_ppt]
    blind = [r for r in npt if r.bound_plain < 1e-6]
    report("6a (plain bound blind spots)", len(blind) > 0,
           f"{len(blind)} NPT grid states with plain bound < 1e-6")
    assert len(blind) > 0


def test_criterion_6b_optimized_detects_all_npt(fig1_scan):
    rows, _ = fig1_scan
    npt = [r for r in rows if r.is_state and not r.is_ppt]
    violations = [(r.alpha, r.beta, r.bound_opt) for r in npt if not r.bound_opt > 1e-3]
    report("6b (optimized bound positive on all NPT)", not violations,
           f"{len(violations)} violations: " +
           "; ".join(f"({a:.2f},{b:.2f})->{v:.2e}" for a, b, v in violations[:4]))
    assert not violations, (
        "optimized bound not > 1e-3 at NPT grid points (barely-NPT boundary "
        f"states; see decisions ledger): {violations}")


def test_criterion_6c_optimized_never_below_plain(fig1_scan):
    rows, _ = fig1_scan
    state_rows = [r for r in rows if r.is_state]
    worst = min(r.bound_opt - r.bound_plain for r in state_rows)
    report("6c (opt >= plain)", worst >= -1e-9, f"min(opt-plain)={worst:.2e}")
    assert worst >= -1e-9


def test_criterion_6d_pure_corner_normalized(fig1_scan):
    rows, elapsed = fig1_scan
    corner = [r for r in rows if abs(r.alpha - 1.0) < 1e-12 and abs(r.beta) < 1e-12]
    assert len(corner) == 1
    value = corner[0].bound_plain
    ok = abs(value - 1.0) < 1e-6 and not corner[0].is_ppt
    report("6d (pure corner normalized to 1)", ok,
           f"value={value:.9f}; scan took {elapsed:.0f}s")
    assert abs(value - 1.0) < 1e-6
    assert elapsed < 600.0


def test_fig1_scan_lifted_rows(fig1_scan):
    # rows where all 12 restarts of the state's own B_opt search can miss the better maximum
    # that a grid neighbour or the mirror finds: the scan's lift round carries it over
    rows, _ = fig1_scan
    at = {(round(r.alpha / 0.05), round(r.beta / 0.05)): r.bound_opt for r in rows}
    for (ia, ib), floor in (((2, 10), 0.3249242361), ((10, 1), 0.3269696006),
                            ((9, 1), 0.2605335205)):
        assert at[(ia, ib)] > floor - 1e-9
        assert at[(ib, ia)] > floor - 1e-9
    # at (0.15, 0.25) and its mirror most restarts end on the X = 0 plateau; the rows reach
    # the realignment comparator's value (ROADMAP item 6)
    assert abs(at[(3, 5)] - 0.017945) < 1e-6
    assert abs(at[(5, 3)] - 0.017945) < 1e-6


def test_criterion_7_distillability_sweep(tmp_path, capsys):
    mismatches = []
    for i in range(21):
        w = 0.05 * i
        rho = werner_state(w)
        x_sq, _ = max_distill_x_sq(rho, 2, 2)
        witness = x_sq > 1e-8
        npt = ppt_min_eigenvalue(rho, (2, 2)) < -1e-10
        expected = w > 1.0 / 3.0
        if witness != expected and abs(w - 1.0 / 3.0) > 0.05 + 1e-12:
            mismatches.append((w, witness))
        assert witness == npt, f"witness/PPT oracle disagree at w={w}"

    from uniparam.cli import matrix_to_json
    path = tmp_path / "iso3.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(9, dtype=complex) / 9)))
    code = cli_main(["distill", "--state", str(path), "--dims", "3,3", "--restarts", "2"])
    doc = json.loads(capsys.readouterr().out)
    ok = not mismatches and code == 0 and doc["n_params"] == 8
    report("7 (distillability sweep)", ok,
           f"mismatches={mismatches} d3_params={doc['n_params']}")
    assert not mismatches
    assert doc["n_params"] == 8


def test_criterion_8_gauge_invariance():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(50):
        rho = rand_density(rng, 9)
        pa = rng.uniform(0, 2 * math.pi, 6)
        pb = rng.uniform(0, 2 * math.pi, 6)
        value = bopt_objective(rho, 3, 3, pa, pb)

        lam_a, lam_b = offdiag_to_matrix(pa, 3), offdiag_to_matrix(pb, 3)
        np.fill_diagonal(lam_a, rng.uniform(0, 2 * math.pi, 3))
        np.fill_diagonal(lam_b, rng.uniform(0, 2 * math.pi, 3))
        u_a = build_unitary(lam_a).conj().T
        u_b = build_unitary(lam_b).conj().T
        big = kron(u_a, u_b)
        unreduced = -bound_b(big @ rho @ big.conj().T, 3, 3).b_squared
        worst = max(worst, abs(value - unreduced))
    report("8 (diagonal-phase gauge invariance)", worst < 1e-12, f"worst={worst:.2e}")
    assert worst < 1e-12


def test_criterion_9_multipartite_sanity():
    psi = ghz_state()
    ghz_report = multipartite_bound_b(np.outer(psi, psi.conj()), (2, 2, 2))
    values = [rep.b_squared for _, rep in ghz_report.parts]
    spread = max(values) - min(values)

    rng = np.random.default_rng(1009)
    product = kron(kron(rand_density(rng, 2), rand_density(rng, 2)), rand_density(rng, 2))
    product_bound = multipartite_bound_b(product, (2, 2, 2)).b

    n_parts = len(enumerate_bipartitions(3, (2, 2, 2)))
    ok = ghz_report.b > 0 and spread < 1e-10 and product_bound < 1e-9 and n_parts == 3
    report("9 (multipartite sanity)", ok,
           f"ghz={ghz_report.b:.4f} spread={spread:.2e} product={product_bound:.2e}")
    assert ghz_report.b > 0
    assert spread < 1e-10
    assert product_bound < 1e-9
    assert n_parts == 3
