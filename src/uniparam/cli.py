"""Command-line interface.

Subcommands: gen-unitary, decompose, bound, distill, fig1.  Matrices are
exchanged as JSON documents {"rows": R, "cols": C, "data": [[re, im], ...]}
with entries row-major.  Exit codes: 0 success, 2 input error, 3 internal
numerical failure.

Indexing note: documentation and reports use 1-based basis labels
|1>..|d> (matching the angle-matrix convention); file formats and arrays
are 0-based row-major.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .composite import build_unitary, decompose, random_param_matrix
from .entanglement import (
    PPT_TOL,
    bound_b,
    max_concurrence,
    max_distill_x_sq,
    n_copy_state,
    optimized_bound_b,
    optimized_bounds_b,
    ppt_min_eigenvalue,
)
from .errors import ConvergenceError, UniparamError
from .linalg import herm_eig
from .optimize import OptimizerConfig, OptimizerResult
from .states import DENSITY_PSD_TOL, validate_density

DISTILL_WITNESS_TOL = 1e-8
# lowest accepted value of each integer option (options a subcommand lacks are skipped)
OPTION_MINIMUMS = {"seed": 0, "restarts": 1, "copies": 1, "jobs": 1}

_INDEXING_NOTE = (
    "Basis labels in documentation and reports are 1-based (|1>..|d|); "
    "JSON/CSV layouts and array data are 0-based row-major."
)


# ---------------------------------------------------------------------------
# matrix files

def matrix_to_json(m: np.ndarray) -> dict:
    """JSON document for a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(doc: dict) -> np.ndarray:
    """Parse and validate a matrix document."""
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except (KeyError, TypeError) as exc:
        raise UniparamError(f"matrix file missing field: {exc}") from exc
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (rows, cols)):
        raise UniparamError(
            f"matrix file rows and cols must be integers, got {rows!r} and {cols!r}")
    if not isinstance(data, list):
        raise UniparamError("matrix file data must be a list of [re, im] pairs")
    if rows < 1 or cols < 1 or len(data) != rows * cols:
        raise UniparamError(
            f"matrix file data length {len(data)} does not match {rows}x{cols}")
    # numeric strings and booleans would convert to floats below, but the format has numbers only
    if not all(isinstance(pair, list) and len(pair) == 2
               and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
               for pair in data):
        raise UniparamError("matrix file data must be a list of [re, im] number pairs")
    try:
        pairs = np.array(data, dtype=float)
    except OverflowError as exc:
        raise UniparamError(f"matrix file data has an entry out of float range ({exc})") from exc
    if not np.all(np.isfinite(pairs)):
        raise UniparamError("matrix file data has non-finite entries")
    # the two float columns of a C-ordered (n, 2) array are the parts of n complex numbers
    return pairs.view(complex).reshape(rows, cols)


def load_matrix_file(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes and too deep nesting
            raise UniparamError(f"{path}: invalid JSON ({exc})") from exc
    return matrix_from_json(doc)


def _real_matrix(m: np.ndarray, what: str) -> np.ndarray:
    if np.max(np.abs(m.imag)) > 1e-12:
        raise UniparamError(f"{what} must be real (imaginary parts found)")
    return m.real.copy()


# ---------------------------------------------------------------------------
# fig1 scan

PSI_1 = np.zeros(9, dtype=complex)
PSI_1[[0, 4, 8]] = 1.0 / math.sqrt(3.0)  # (|11> + |22> + |33>)/sqrt(3)
PSI_2 = np.zeros(9, dtype=complex)
PSI_2[[1, 5, 6]] = 1.0 / math.sqrt(3.0)  # (|12> + |23> + |31>)/sqrt(3)


def fig1_state(alpha: float, beta: float) -> np.ndarray:
    """Two maximally entangled qutrit states mixed with uncolored noise."""
    rho = alpha * np.outer(PSI_1, PSI_1.conj())
    rho += beta * np.outer(PSI_2, PSI_2.conj())
    rho += (1.0 - alpha - beta) / 9.0 * np.eye(9)
    return rho


@dataclass
class ScanRow:
    """One grid point of the mixing-plane scan (bounds are normalized)."""

    alpha: float
    beta: float
    is_state: bool
    is_ppt: bool
    bound_plain: float | None
    bound_opt: float | None


def _point_seed(base_seed: int, ia: int, ib: int) -> int:
    return int(np.random.SeedSequence([base_seed, ia, ib]).generate_state(1)[0])


def _fig1_point(alpha: float, beta: float) -> ScanRow:
    """The checks and the plain bound of one grid point; ``bound_opt`` is left empty."""
    rho = fig1_state(alpha, beta)
    is_state = bool(herm_eig(rho).eigenvalues[0] >= -DENSITY_PSD_TOL)
    is_ppt = bool(ppt_min_eigenvalue(rho, (3, 3), which=1) >= -PPT_TOL)
    bound_plain = bound_b(rho, 3, 3).b / max_concurrence(3) if is_state else None
    return ScanRow(alpha, beta, is_state, is_ppt, bound_plain, None)


def _fig1_share(share: tuple) -> list[float]:
    """Normalized ``bound_opt`` of one worker's states, in the order given.

    They are maximized in one ``optimized_bounds_b`` run, each with the
    seed of its grid indices.
    """
    points, restarts, base_seed = share
    bounds = optimized_bounds_b(
        [fig1_state(alpha, beta) for _, _, alpha, beta in points], 3, 3,
        [OptimizerConfig(restarts=restarts, seed=_point_seed(base_seed, ia, ib))
         for ia, ib, _, _ in points])
    return [b_opt / max_concurrence(3) for b_opt, _ in bounds]


def run_fig1_scan(step: float, optimize: bool = False, restarts: int = 12,
                  seed: int = 0, jobs: int | None = None) -> list[ScanRow]:
    """Scan the full [0,1]^2 mixing square on a grid of spacing ``step``.

    Rows come back in deterministic grid order (alpha outer, beta inner);
    grid points that are not density matrices carry empty bounds but are
    still emitted.  Every point is checked once, here.  With ``optimize``
    the states are dealt round-robin in grid order to ``jobs`` shares, and
    each share is one task of a process pool.  A share's states are
    optimized in one joint run, each with its own seed and restarts, so
    the rows do not depend on ``jobs``.
    """
    if not 0.0 < step <= 0.25:
        raise UniparamError(f"step must lie in (0, 0.25], got {step}")
    if jobs is not None and jobs < 1:
        raise UniparamError(f"jobs must be >= 1, got {jobs}")
    num = int(math.floor((1.0 + 1e-9) / step))
    points = [(ia, ib, ia * step, ib * step) for ia in range(num + 1) for ib in range(num + 1)]
    rows = [_fig1_point(alpha, beta) for _, _, alpha, beta in points]
    if not optimize:
        return rows
    if jobs is None:
        jobs = os.cpu_count() or 1
    states = [i for i, row in enumerate(rows) if row.is_state]
    dealt = [states[j::jobs] for j in range(min(jobs, len(states)))]
    shares = [([points[i] for i in idx], restarts, seed) for idx in dealt]
    if len(shares) > 1:
        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            bounds = list(pool.map(_fig1_share, shares))
    else:
        bounds = [_fig1_share(share) for share in shares]
    for idx, share_bounds in zip(dealt, bounds):
        for i, b_opt in zip(idx, share_bounds):
            rows[i].bound_opt = b_opt
    return rows


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def write_scan_csv(rows: list[ScanRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "beta", "is_state", "is_ppt", "bound_plain", "bound_opt"])
        for r in rows:
            writer.writerow([
                _fmt(r.alpha), _fmt(r.beta),
                "true" if r.is_state else "false",
                "true" if r.is_ppt else "false",
                _fmt(r.bound_plain), _fmt(r.bound_opt),
            ])


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_unitary(args: argparse.Namespace) -> int:
    if args.dim < 2:
        raise UniparamError(f"--dim must be >= 2, got {args.dim}")
    if args.params is not None:
        lam = _real_matrix(load_matrix_file(args.params), "parameter matrix")
        if lam.shape != (args.dim, args.dim):
            raise UniparamError(
                f"parameter matrix is {lam.shape[0]}x{lam.shape[1]}, expected {args.dim}x{args.dim}")
    else:
        lam = random_param_matrix(args.dim, np.random.default_rng(args.seed))
    print(json.dumps(matrix_to_json(build_unitary(lam))))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    u = load_matrix_file(args.input)
    lam = decompose(u)
    print(json.dumps(matrix_to_json(lam)))
    return 0


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UniparamError(f"--dims expects 'dA,dB', got {text!r}")
    try:
        d_a, d_b = (int(p) for p in parts)
    except ValueError:
        raise UniparamError(f"--dims expects two integers 'dA,dB', got {text!r}") from None
    if d_a < 2 or d_b < 2:
        raise UniparamError(f"local dimensions must be >= 2, got {d_a},{d_b}")
    return d_a, d_b


def _load_state(path: str, d_a: int, d_b: int) -> np.ndarray:
    rho = load_matrix_file(path)
    if rho.shape[0] != rho.shape[1] or rho.shape[0] != d_a * d_b:
        raise UniparamError(
            f"state is {rho.shape[0]}x{rho.shape[1]}, expected {d_a * d_b}x{d_a * d_b}")
    validate_density(rho)
    return rho


def _optimizer_report(result: OptimizerResult) -> dict:
    return {"iterations": result.iterations, "evaluations": result.evaluations,
            "calls": result.calls, "restarts": result.restarts, "best_restart": result.best_restart,
            "converged": result.converged}


def _cmd_bound(args: argparse.Namespace) -> int:
    d_a, d_b = _parse_dims(args.dims)
    rho = _load_state(args.state, d_a, d_b)
    norm = max_concurrence(min(d_a, d_b))
    report = bound_b(rho, d_a, d_b)
    out = {
        "dims": [d_a, d_b],
        "b": report.b,
        "terms": [
            {"k_a": ka, "l_a": la, "k_b": kb, "l_b": lb, "x": x}
            for (ka, la, kb, lb), x in report.terms.items()
        ],
    }
    if args.normalize:
        out["normalization"] = norm
        out["b_normalized"] = report.b / norm
    if args.optimize:
        cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
        b_opt, result = optimized_bound_b(rho, d_a, d_b, cfg)
        out["b_opt"] = b_opt
        if args.normalize:
            out["b_opt_normalized"] = b_opt / norm
        out["optimizer"] = _optimizer_report(result)
    print(json.dumps(out))
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    d_a, d_b = _parse_dims(args.dims)
    rho = _load_state(args.state, d_a, d_b)
    if args.copies > 1:
        rho = n_copy_state(rho, (d_a, d_b), args.copies)
        d_a, d_b = d_a ** args.copies, d_b ** args.copies
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    x_sq, result = max_distill_x_sq(rho, d_a, d_b, cfg)
    print(json.dumps({
        "dims": [d_a, d_b],
        "copies": args.copies,
        "max_x_sq": x_sq,
        "distillable_witness": bool(x_sq > DISTILL_WITNESS_TOL),
        "n_params": result.x.size,
        "optimizer": _optimizer_report(result),
    }))
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    rows = run_fig1_scan(args.step, optimize=args.optimize, restarts=args.restarts,
                         seed=args.seed, jobs=args.jobs)
    write_scan_csv(rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniparam",
        description="Composite-parameterized unitaries, density matrices, "
                    "and concurrence lower bounds.",
        epilog=_INDEXING_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-unitary", help="build a unitary from angles",
                       epilog=_INDEXING_NOTE)
    p.add_argument("--dim", type=int, required=True, help="dimension d >= 2")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--seed", type=int, help="draw angles uniformly from canonical ranges")
    src.add_argument("--params", help="JSON file with a d x d real angle matrix")
    p.set_defaults(func=_cmd_gen_unitary)

    p = sub.add_parser("decompose", help="canonical angles of a unitary",
                       epilog=_INDEXING_NOTE)
    p.add_argument("--input", required=True, help="JSON matrix file with a unitary")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bound", help="concurrence lower bound of a state",
                       epilog=_INDEXING_NOTE)
    p.add_argument("--state", required=True, help="JSON matrix file with a density matrix")
    p.add_argument("--dims", required=True, help="local dimensions, e.g. 3,3")
    p.add_argument("--optimize", action="store_true", help="also maximize over local rotations")
    p.add_argument("--restarts", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true",
                   help="also report bounds divided by sqrt(2(d-1)/d), d = min(dA, dB)")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("distill", help="distillability witness of a state",
                       epilog=_INDEXING_NOTE)
    p.add_argument("--state", required=True, help="JSON matrix file with a density matrix")
    p.add_argument("--dims", required=True, help="local dimensions, e.g. 3,3")
    p.add_argument("--copies", type=int, default=1, help="tensor-power copies (default 1)")
    p.add_argument("--restarts", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("fig1", help="grid scan of the two-state noise mixing plane",
                       epilog="Per-point optimizer seeds derive from --seed and the "
                              "grid indices. " + _INDEXING_NOTE)
    p.add_argument("--step", type=float, required=True, help="grid spacing in (0, 0.25]")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--restarts", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: all cores)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_fig1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for name, low in OPTION_MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            print(f"error: --{name} must be >= {low}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UniparamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
