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
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace

import numpy as np

from .composite import _assert_angles, build_unitary, decompose, random_param_matrix
from .entanglement import (
    bound_b,
    lifted_bounds_b,
    max_concurrence,
    max_distill_x_sq,
    n_copy_state,
    offdiag_positions,
    offdiag_to_matrix,
    optimized_bound_b,
    optimized_bounds_b,
    ppt_min_eigenvalue,
)
from .errors import ConvergenceError, UniparamError
from .linalg import _count, herm_eig
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
    rows, cols = (_count(n, f"matrix file {name}", 1, error=UniparamError)
                  for n, name in ((rows, "rows"), (cols, "cols")))
    if not isinstance(data, list):
        raise UniparamError("matrix file data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
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
# fig1(beta, alpha) = V fig1(alpha, beta) V† for the local permutation V = P (x) Q, with
# P|j> = |-j> and Q|j> = |1 - j> (mod 3): V swaps PSI_1 and PSI_2 and keeps the noise
_MIRROR = (np.eye(3)[[0, 2, 1]], np.eye(3)[[1, 0, 2]])


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


def _fig1_point(alpha: float, beta: float, rho: np.ndarray) -> ScanRow:
    """The checks and plain bound of ``rho`` = fig1(alpha, beta); ``bound_opt`` is left empty."""
    is_state = bool(herm_eig(rho).eigenvalues[0] >= -DENSITY_PSD_TOL)
    is_ppt = bool(ppt_min_eigenvalue(rho, (3, 3)) >= -DENSITY_PSD_TOL)
    bound_plain = bound_b(rho, 3, 3).b / max_concurrence(3) if is_state else None
    return ScanRow(alpha, beta, is_state, is_ppt, bound_plain, None)


def _mirror_angles(x: np.ndarray) -> np.ndarray:
    """B_opt angles at fig1(beta, alpha) that score what ``x`` scores at fig1(alpha, beta).

    B_opt reads the blocks of W† rho W, W = w_a (x) w_b, and V W reads the
    same blocks of V rho V† (see ``_MIRROR``).  ``decompose`` takes each
    side of V W back to angles; the search drops their diagonal phases,
    which leave every block's concurrence unchanged.
    """
    sides = []
    for v, perm in zip(np.split(x, 2), _MIRROR):
        lam = decompose(perm @ build_unitary(offdiag_to_matrix(v, 3)))
        sides.append([lam[i, j] for i, j in offdiag_positions(3)])
    return np.concatenate(sides)


def _fig1_candidates(ia: int, ib: int, best: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """Optima from ``best`` (keyed by grid indices) for state (ia, ib) to start from.

    They are those of its grid neighbours, and its mirror's, transported
    by ``_mirror_angles``.
    """
    near = [best[k] for k in ((ia - 1, ib), (ia + 1, ib), (ia, ib - 1), (ia, ib + 1))
            if k in best]
    if ia != ib and (ib, ia) in best:
        near.append(_mirror_angles(best[(ib, ia)]))
    return np.array(near)


def run_fig1_scan(step: float, optimize: bool = False, restarts: int = 12,
                  seed: int = 0, jobs: int | None = None) -> list[ScanRow]:
    """Scan the full [0,1]^2 mixing square on a grid of spacing ``step``.

    Rows come back in deterministic grid order (alpha outer, beta inner);
    grid points that are not density matrices carry empty bounds but are
    still emitted.  The settings are checked before any grid point, and
    every grid state is built and checked once, here.  With ``optimize``
    the states are dealt round-robin in grid order to ``jobs`` shares, and
    each share is one ``optimized_bounds_b`` call in a process pool: one
    joint run, each state with its own seed and restarts, so the rows do
    not depend on ``jobs``.  A second round then lifts each state from the
    optima of its grid neighbours and of its mirror (``lifted_bounds_b``):
    twelve restarts can all miss a state's best maximum where a related
    state's finds it, and the mirrored rows, related by a local
    permutation, have equal bounds.  The second round runs in the calling
    process, in one ``lifted_bounds_b`` call on every state; it reads only
    the first round's results, so it does not depend on ``jobs`` either.
    """
    if not 0.0 < step <= 0.25:
        raise UniparamError(f"step must lie in (0, 0.25], got {step}")
    jobs = (os.cpu_count() or 1) if jobs is None else _count(jobs, "jobs", 1, error=UniparamError)
    cfg = OptimizerConfig(restarts=restarts, seed=seed)
    num = int(math.floor((1.0 + 1e-9) / step))
    points = [(ia, ib, ia * step, ib * step) for ia in range(num + 1) for ib in range(num + 1)]
    rhos = [fig1_state(alpha, beta) for _, _, alpha, beta in points]
    rows = [_fig1_point(alpha, beta, rho) for (_, _, alpha, beta), rho in zip(points, rhos)]
    if not optimize:
        return rows
    states = [i for i, row in enumerate(rows) if row.is_state]
    dealt = [states[j::jobs] for j in range(min(jobs, len(states)))]
    cfgs = [[replace(cfg, seed=_point_seed(seed, *points[i][:2])) for i in idx] for idx in dealt]
    with ExitStack() as stack:
        run = map
        if len(dealt) > 1:
            run = stack.enter_context(ProcessPoolExecutor(max_workers=len(dealt))).map
        shares = run(optimized_bounds_b, [[rhos[i] for i in idx] for idx in dealt],
                     itertools.repeat(3), itertools.repeat(3), cfgs)
        results = dict(zip(itertools.chain(*dealt), (r for _, r in itertools.chain(*shares))))
    best = {points[i][:2]: result.x for i, result in results.items()}
    bounds = lifted_bounds_b([rhos[i] for i in states], 3, 3, [results[i] for i in states],
                             [_fig1_candidates(*points[i][:2], best) for i in states])
    for i, (b_opt, _) in zip(states, bounds):
        rows[i].bound_opt = b_opt / max_concurrence(3)
    return rows


def _fmt(value: float | bool | None) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}"


def write_scan_csv(rows: list[ScanRow], path: str) -> None:
    """One CSV column per ``ScanRow`` field, in field order, with a header of the field names."""
    names = [f.name for f in fields(ScanRow)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_fmt(getattr(r, name)) for name in names] for r in rows)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_unitary(args: argparse.Namespace) -> int:
    if args.params is not None:
        lam = _assert_angles(_real_matrix(load_matrix_file(args.params), "parameter matrix"),
                             args.dim)
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
    try:  # the unpacking also fails on a count of parts other than two
        d_a, d_b = (int(p) for p in text.split(","))
    except ValueError:
        raise UniparamError(f"--dims expects two integers 'dA,dB', got {text!r}") from None
    return d_a, d_b


def _load_state(path: str) -> np.ndarray:
    rho = load_matrix_file(path)
    validate_density(rho)
    return rho


def _optimizer_report(result: OptimizerResult) -> dict:
    return {"iterations": result.iterations, "evaluations": result.evaluations,
            "calls": result.calls, "restarts": result.restarts, "best_restart": result.best_restart,
            "converged": result.converged}


def _cmd_bound(args: argparse.Namespace) -> int:
    d_a, d_b = _parse_dims(args.dims)
    rho = _load_state(args.state)
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
    rho = _load_state(args.state)
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
