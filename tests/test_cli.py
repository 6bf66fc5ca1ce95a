import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import uniparam
from uniparam import (
    OptimizerConfig,
    bound_b,
    max_concurrence,
    max_distill_x_sq,
    optimized_bound_b,
    unitarity_defect,
)
from uniparam.cli import (
    fig1_state,
    load_matrix_file,
    main,
    matrix_from_json,
    matrix_to_json,
    run_fig1_scan,
    write_scan_csv,
)
from uniparam.errors import UniparamError
from helpers import bell_state, rand_density, werner_state


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(np.asarray(m, dtype=complex))))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(61)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_gen_unitary_zero_params(tmp_path, capsys):
    params = write_matrix(tmp_path / "zeros.json", np.zeros((2, 2)))
    code, out, _ = run_cli(capsys, "gen-unitary", "--dim", "2", "--params", params)
    assert code == 0
    assert np.max(np.abs(matrix_from_json(json.loads(out)) - np.eye(2))) < 1e-15


def test_gen_unitary_seeded_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen-unitary", "--dim", "3", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "gen-unitary", "--dim", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    u = matrix_from_json(json.loads(out1))
    assert unitarity_defect(u) < 1e-12


def test_decompose_identity(tmp_path, capsys):
    path = write_matrix(tmp_path / "eye.json", np.eye(3))
    code, out, _ = run_cli(capsys, "decompose", "--input", path)
    assert code == 0
    lam = matrix_from_json(json.loads(out))
    assert np.max(np.abs(lam)) == 0.0


def test_decompose_rotation_and_roundtrip(tmp_path, capsys):
    u = np.array([[0.0, 1.0], [-1.0, 0.0]])
    path = write_matrix(tmp_path / "rot.json", u)
    code, out, _ = run_cli(capsys, "decompose", "--input", path)
    assert code == 0
    lam = matrix_from_json(json.loads(out)).real
    expected = np.zeros((2, 2))
    expected[0, 1] = math.pi / 2
    assert np.max(np.abs(lam - expected)) < 1e-14

    params = write_matrix(tmp_path / "lam.json", lam)
    code, out, _ = run_cli(capsys, "gen-unitary", "--dim", "2", "--params", params)
    assert code == 0
    assert np.max(np.abs(matrix_from_json(json.loads(out)) - u)) < 1e-10


def test_decompose_rejects_non_unitary(tmp_path, capsys):
    path = write_matrix(tmp_path / "bad.json", np.ones((2, 2)))
    code, _, err = run_cli(capsys, "decompose", "--input", path)
    assert code == 2
    assert "error:" in err


def test_bound_maximally_mixed(tmp_path, capsys):
    path = write_matrix(tmp_path / "mixed.json", np.eye(9) / 9)
    code, out, _ = run_cli(capsys, "bound", "--state", path, "--dims", "3,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] < 1e-12
    assert len(doc["terms"]) == 9


def test_bound_bell_with_optimize(tmp_path, capsys):
    psi = bell_state()
    path = write_matrix(tmp_path / "bell.json", np.outer(psi, psi.conj()))
    code, out, _ = run_cli(capsys, "bound", "--state", path, "--dims", "2,2",
                           "--optimize", "--restarts", "3", "--seed", "1", "--normalize")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["b"] - 1.0) < 1e-9
    assert doc["b_opt"] >= doc["b"] - 1e-9
    assert abs(doc["b_normalized"] - doc["b"]) < 1e-12  # d=2 normalization is 1
    assert doc["optimizer"]["restarts"] == 3


def test_optimizer_report_telemetry(tmp_path, capsys):
    psi = bell_state()
    path = write_matrix(tmp_path / "bell.json", np.outer(psi, psi.conj()))
    code, out, _ = run_cli(capsys, "bound", "--state", path, "--dims", "2,2",
                           "--optimize", "--restarts", "3", "--seed", "1")
    assert code == 0
    report = json.loads(out)["optimizer"]
    # the concurrence of a two-qubit state is locally invariant: every
    # restart stops on its first, flat simplex of 4 + 1 points
    assert report["iterations"] == 0
    assert report["evaluations"] == 3 * 5 + 1
    assert report["best_restart"] == 0


def test_optimizer_report_calls(tmp_path, capsys):
    # the report carries the library run's batched objective calls next to its evaluations
    rho = rand_density(np.random.default_rng(7), 6, rank=2)
    path = write_matrix(tmp_path / "rho.json", rho)
    code, out, _ = run_cli(capsys, "bound", "--state", path, "--dims", "2,3",
                           "--optimize", "--restarts", "2", "--seed", "4")
    assert code == 0
    report = json.loads(out)["optimizer"]
    _, result = optimized_bound_b(rho, 2, 3, OptimizerConfig(restarts=2, seed=4))
    assert (report["calls"], report["evaluations"]) == (result.calls, result.evaluations)
    assert 1 < report["calls"] < report["evaluations"]


def test_bound_rejects_invalid_state(tmp_path, capsys):
    path = write_matrix(tmp_path / "notrho.json", np.eye(4))  # trace 4
    code, _, err = run_cli(capsys, "bound", "--state", path, "--dims", "2,2")
    assert code == 2
    assert "error:" in err


def test_bound_missing_file(capsys):
    code, _, err = run_cli(capsys, "bound", "--state", "/nonexistent.json", "--dims", "2,2")
    assert code == 2
    assert "error:" in err


def test_distill_werner(tmp_path, capsys):
    path = write_matrix(tmp_path / "w9.json", werner_state(0.9))
    code, out, _ = run_cli(capsys, "distill", "--state", path, "--dims", "2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["distillable_witness"] is True
    assert abs(doc["max_x_sq"] - ((3 * 0.9 - 1) / 2) ** 2) < 1e-10
    assert doc["n_params"] == 0

    path = write_matrix(tmp_path / "w2.json", werner_state(0.2))
    code, out, _ = run_cli(capsys, "distill", "--state", path, "--dims", "2,2")
    assert json.loads(out)["distillable_witness"] is False


def test_distill_product_state(tmp_path, capsys):
    rng = np.random.default_rng(62)
    rho = np.kron(rand_density(rng, 2), rand_density(rng, 2))
    path = write_matrix(tmp_path / "prod.json", rho)
    code, out, _ = run_cli(capsys, "distill", "--state", path, "--dims", "2,2",
                           "--restarts", "2")
    assert code == 0
    assert json.loads(out)["distillable_witness"] is False


def test_distill_qutrit_param_count(tmp_path, capsys):
    path = write_matrix(tmp_path / "iso.json", np.eye(9) / 9)
    code, out, _ = run_cli(capsys, "distill", "--state", path, "--dims", "3,3",
                           "--restarts", "2")
    assert code == 0
    assert json.loads(out)["n_params"] == 8


def test_distill_barely_npt_qutrit(tmp_path, capsys):
    # 1-distillable fig1 grid state on which every uniform restart sits at X = 0
    path = write_matrix(tmp_path / "fig1.json", fig1_state(0.10, 0.25))
    code, out, _ = run_cli(capsys, "distill", "--state", path, "--dims", "3,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["distillable_witness"] is True
    assert doc["optimizer"]["restarts"] == 12


def test_bound_and_distill_unequal_dims(tmp_path, capsys):
    rho = rand_density(np.random.default_rng(64), 6, rank=2)
    path = write_matrix(tmp_path / "rho23.json", rho)
    code, out, _ = run_cli(capsys, "bound", "--state", path, "--dims", "2,3", "--normalize")
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == bound_b(rho, 2, 3).b
    assert doc["normalization"] == max_concurrence(2)

    code, out, _ = run_cli(capsys, "distill", "--state", path, "--dims", "2,3",
                           "--restarts", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 3]
    assert doc["n_params"] == (4 * 2 - 8) + (4 * 3 - 8)
    x_sq, _ = max_distill_x_sq(rho, 2, 3, OptimizerConfig(restarts=2))
    assert doc["max_x_sq"] == x_sq


def test_distill_copies_cap(tmp_path, capsys):
    path = write_matrix(tmp_path / "w.json", werner_state(0.9))
    code, _, err = run_cli(capsys, "distill", "--state", path, "--dims", "2,2",
                           "--copies", "6")
    assert code == 2
    assert "error:" in err


def test_fig1_scan_small(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "fig1", "--step", "0.25", "--jobs", "1",
                         "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,is_state,is_ppt,bound_plain,bound_opt"
    assert len(lines) == 1 + 25  # full 5x5 square
    rows = [line.split(",") for line in lines[1:]]
    non_states = [r for r in rows if r[2] == "false"]
    assert len(non_states) == 10  # alpha + beta > 1 corner
    assert all(r[4] == "" and r[5] == "" for r in non_states)
    origin = rows[0]
    assert origin[2] == "true" and origin[3] == "true" and float(origin[4]) == 0.0


def test_fig1_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, "fig1", "--step", "0.25", "--jobs", "1", "--out", str(a))[0] == 0
    assert run_cli(capsys, "fig1", "--step", "0.25", "--jobs", "1", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_fig1_optimized_rows_independent_of_jobs():
    # each worker optimizes its share of the states in one joint run
    scans = [run_fig1_scan(0.25, optimize=True, restarts=3, jobs=jobs) for jobs in (1, 2, 3)]
    for scan in scans[1:]:
        assert [vars(r) for r in scan] == [vars(r) for r in scans[0]]
    rows = scans[0]
    assert [(r.alpha, r.beta) for r in rows] == [(a * 0.25, b * 0.25)
                                                 for a in range(5) for b in range(5)]
    assert all((r.bound_opt is None) == (not r.is_state) for r in rows)
    # the point (0.5, 0.25) has grid indices (2, 1) and its own seed
    seed = int(np.random.SeedSequence([0, 2, 1]).generate_state(1)[0])
    b_opt, _ = optimized_bound_b(fig1_state(0.5, 0.25), 3, 3,
                                 OptimizerConfig(restarts=3, seed=seed))
    assert rows[11].bound_opt == b_opt / max_concurrence(3)


def test_fig1_plain_scan_starts_no_pool(monkeypatch):
    import uniparam.cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a scan without optimize started a process pool")

    monkeypatch.setattr(uniparam.cli, "ProcessPoolExecutor", no_pool)
    rows = run_fig1_scan(0.25, optimize=False, jobs=2)
    assert len(rows) == 25
    assert all(r.bound_opt is None for r in rows)


def test_fig1_bad_step(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fig1", "--step", "0.5", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "error:" in err


def test_fig1_state_definition():
    rho = fig1_state(0.3, 0.2)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
    # pure components are orthogonal maximally entangled states
    assert abs(fig1_state(1.0, 0.0)[0, 4] - 1 / 3) < 1e-14
    assert abs(fig1_state(0.0, 1.0)[1, 5] - 1 / 3) < 1e-14


def test_scan_rows_roundtrip(tmp_path):
    rows = run_fig1_scan(0.25, optimize=False, jobs=1)
    write_scan_csv(rows, str(tmp_path / "s.csv"))
    text = (tmp_path / "s.csv").read_text()
    assert text.count("\n") == 26


def test_module_entrypoint_smoke(tmp_path):
    params = tmp_path / "zeros.json"
    params.write_text(json.dumps(matrix_to_json(np.zeros((2, 2), dtype=complex))))
    # the child runs the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(uniparam.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "uniparam", "gen-unitary", "--dim", "2",
         "--params", str(params)],
        capture_output=True, text=True, check=False, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rows"] == 2


def test_csv_number_formatting():
    from uniparam.cli import _fmt

    assert _fmt(1.0 / 3.0) == "0.333333333333"  # 12 significant digits
    assert _fmt(None) == ""
    assert "." not in _fmt(0.0) or _fmt(0.0) == "0"


def test_gen_unitary_shape_mismatch(tmp_path, capsys):
    params = write_matrix(tmp_path / "p.json", np.zeros((3, 3)))
    code, _, err = run_cli(capsys, "gen-unitary", "--dim", "2", "--params", params)
    assert code == 2
    assert "error:" in err


def test_load_matrix_file_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "decompose", "--input", str(bad))
    assert code == 2
    assert "error:" in err

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}))
    code, _, err = run_cli(capsys, "decompose", "--input", str(short))
    assert code == 2

    entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    for name, doc in {
        "bare numbers": {"rows": 2, "cols": 2, "data": [1, 2, 3, 4]},
        "scalar data": {"rows": 2, "cols": 2, "data": 5},
        "text entry": {"rows": 2, "cols": 2, "data": [["x", 0]] + entries[1:]},
        "text rows": {"rows": "two", "cols": 2, "data": entries},
        "non-utf-8 bytes": b'{"rows": 2, "cols": 2, "data": "\xff\xfe"}',
        "deep nesting": b"[" * 100_000,
        "infinite rows": b'{"rows": 1e999, "cols": 2, "data": []}',
        "huge integer entry": {"rows": 2, "cols": 2, "data": [[10**400, 0]] + entries[1:]},
        "fractional rows": {"rows": 2.7, "cols": 2, "data": entries},
        "boolean rows": {"rows": True, "cols": 4, "data": entries},
        "numeric strings and booleans": {
            "rows": 2, "cols": 2, "data": [["1.5", "0"], [True, False], [0, 0], [1, 0]]},
        "numeric string entry": {"rows": 2, "cols": 2, "data": [["1.5", 0]] + entries[1:]},
        "boolean entry": {"rows": 2, "cols": 2, "data": [[True, 0]] + entries[1:]},
    }.items():
        path = tmp_path / "malformed.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        with pytest.raises(UniparamError):
            load_matrix_file(str(path))
        for command in (["decompose", "--input"], ["gen-unitary", "--dim", "2", "--params"]):
            code, out, err = run_cli(capsys, *command, str(path))
            assert (code, out) == (2, ""), (name, command)
            assert "error:" in err and "Traceback" not in err, (name, command)


def test_distill_rejects_zero_restarts(tmp_path, capsys):
    path = write_matrix(tmp_path / "iso.json", np.eye(9) / 9)
    code, out, err = run_cli(capsys, "distill", "--state", path, "--dims", "3,3",
                             "--restarts", "0")
    assert code == 2
    assert out == ""
    assert "error: --restarts" in err


def test_distill_rejects_non_integer_dims(tmp_path, capsys):
    path = write_matrix(tmp_path / "iso.json", np.eye(9) / 9)
    code, out, err = run_cli(capsys, "distill", "--state", path, "--dims", "3,x")
    assert code == 2
    assert out == ""
    assert "error: --dims" in err


def test_distill_rejects_zero_copies(tmp_path, capsys):
    path = write_matrix(tmp_path / "w.json", werner_state(0.9))
    code, out, err = run_cli(capsys, "distill", "--state", path, "--dims", "2,2",
                             "--copies", "0")
    assert code == 2
    assert out == ""
    assert "error: --copies" in err


def test_fig1_rejects_negative_jobs(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, "fig1", "--step", "0.25", "--jobs", "-3",
                           "--out", str(out_csv))
    assert code == 2
    assert "error: --jobs" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_fig1_scan_rejects_jobs_below_one(jobs):
    with pytest.raises(UniparamError, match="jobs"):
        run_fig1_scan(0.25, optimize=True, jobs=jobs)


@pytest.mark.parametrize("message, expected", [
    ("Unable to allocate 11.9 GiB", "error: Unable to allocate 11.9 GiB"),
    ("", "error: out of memory"),  # a bare MemoryError still names its cause
])
def test_gen_unitary_out_of_memory_exits_2(monkeypatch, capsys, message, expected):
    import uniparam.cli

    def no_memory(d, rng):
        raise MemoryError(message)

    monkeypatch.setattr(uniparam.cli, "random_param_matrix", no_memory)
    code, out, err = run_cli(capsys, "gen-unitary", "--dim", "40000", "--seed", "0")
    assert (code, out, err) == (2, "", expected + "\n")
