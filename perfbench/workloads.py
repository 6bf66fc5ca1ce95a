"""Workload inputs, operations and result checks for the uniparam benchmark.

Importing this module imports numpy and uniparam; ``run.py`` times that
import as part of the set-up.  Every workload is built from a seed, calls
uniparam only through its public functions, and checks each result with
numpy code that shares nothing with the library path under test (partial
transposes, eigenvalues and unitarity are recomputed here).

A workload exposes:

* ``properties()``  - input properties recorded with the results;
* ``ops``           - the input set; one op is one unit of user-visible work;
* ``run_op(op)``    - the timed call(s) into uniparam, returning the result;
* ``check_op(op, result)`` - list of violated checks (empty when correct).

``fig1-scan`` differs: its op is a grid point, and the points are computed
by one ``run_fig1_scan`` call per scan (``run_scan``) and checked together
(``check_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import uniparam as up
import uniparam.cli as up_cli

# Thresholds the repository's own CLI and acceptance tests use.
PPT_TOL = 1e-10                 # partial-transpose eigenvalue below -this: NPT
WITNESS_TOL = 1e-8              # x_sq above this: positive distillability witness
CERTIFY_BOUND = 1e-3            # normalized bound_opt above this: certified (fig1)
BOUND_SLACK = 1e-9
CORNER_TOL = 1e-6
UNITARITY_TOL = 1e-12
ROUNDTRIP_TOL = 1e-10
SUBSPACE_TOL = 1e-9
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def op_seed(seed: int, *index: int) -> int:
    """Optimizer seed for one op, derived from the workload seed and op index."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# independent oracles (numpy only)

def pt_min_eig(rho: np.ndarray, d_a: int, d_b: int) -> float:
    """Smallest eigenvalue of the partial transpose on subsystem B."""
    t = rho.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(rho.shape)
    return float(np.linalg.eigvalsh((t + t.conj().T) / 2)[0])


def is_npt(rho: np.ndarray, dims: tuple[int, ...]) -> bool:
    """NPT across at least one bipartition (one subsystem vs the rest)."""
    n = int(np.prod(dims))
    for i, d in enumerate(dims):
        rest = n // d
        perm = [i] + [j for j in range(len(dims)) if j != i]
        t = rho.reshape(dims + dims).transpose(perm + [len(dims) + j for j in perm])
        if pt_min_eig(t.reshape(n, n), d, rest) < -PPT_TOL:
            return True
    return False


def fig1_density(alpha: float, beta: float) -> np.ndarray:
    """The fig1 mixing-plane state, built here without the library."""
    psi1 = np.zeros(9, dtype=complex)
    psi1[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
    psi2 = np.zeros(9, dtype=complex)
    psi2[[1, 5, 6]] = 1.0 / math.sqrt(3.0)
    return (alpha * np.outer(psi1, psi1) + beta * np.outer(psi2, psi2)
            + (1.0 - alpha - beta) / 9.0 * np.eye(9))


def werner(w: float) -> np.ndarray:
    """w |Phi+><Phi+| + (1 - w) I/4."""
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1.0 / math.sqrt(2.0)
    return w * np.outer(phi, phi) + (1.0 - w) * np.eye(4) / 4.0


def random_density(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Random rank-``rank`` density matrix (normalized Ginibre square)."""
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2


def random_angles(rng: np.random.Generator, d: int) -> np.ndarray:
    """Angle matrix uniform in the canonical ranges."""
    lam = rng.uniform(0.0, 2.0 * math.pi, size=(d, d))
    upper = np.triu_indices(d, k=1)
    lam[upper] = rng.uniform(0.0, math.pi / 2, size=len(upper[0]))
    return lam


def zero_start(objective, dim: int) -> tuple[bool, bool]:
    """(flat, plateau) as seen by the optimizer's first, zero-vector simplex.

    Mirrors the start of ``uniparam.minimize``: the zero vector plus one
    vertex per axis at the default simplex scale.  ``flat`` when the spread
    of the values is below the default ``f_tol``; ``plateau`` when it is
    flat at the value 0, the X = max(..., 0) plateau that hides a state's
    entanglement from that start.
    """
    cfg = up.OptimizerConfig()
    values = [objective(np.zeros(dim))]
    for i in range(dim):
        x = np.zeros(dim)
        x[i] = cfg.simplex_scale
        values.append(objective(x))
    flat = max(values) - min(values) < cfg.f_tol
    return flat, flat and abs(values[0]) < cfg.f_tol


def start_shares(starts: list[tuple[bool, bool]]) -> dict[str, Any]:
    flat = sum(f for f, _ in starts)
    plateau = sum(p for _, p in starts)
    return {"zero_start_flat": flat, "zero_plateau": plateau,
            "zero_plateau_share": plateau / len(starts)}


# ---------------------------------------------------------------------------
# fig1-scan

class Fig1Scan:
    """The ROADMAP headline scan: step 0.25, optimized, 12 restarts."""

    name = "fig1-scan"
    step = 0.25
    restarts = 12

    def __init__(self, seed: int):
        self.seed = seed
        num = int(math.floor((1.0 + 1e-9) / self.step))
        self.grid = [(ia * self.step, ib * self.step)
                     for ia in range(num + 1) for ib in range(num + 1)]
        self.states = [(a, b) for a, b in self.grid if a + b <= 1.0 + 1e-12]
        # The timed run scans at the seed and at one derived from it: the
        # optimizer's work and the pool's balance depend on the seed, and
        # two scans average that out.
        self.timed_seeds = (seed, op_seed(seed, 1))

    def run_scan(self, jobs: int, seed: int | None = None) -> list:
        return up_cli.run_fig1_scan(self.step, optimize=True, restarts=self.restarts,
                                    seed=self.seed if seed is None else seed, jobs=jobs)

    def properties(self) -> dict[str, Any]:
        rhos = [fig1_density(a, b) for a, b in self.states]
        npt = sum(pt_min_eig(rho, 3, 3) < -PPT_TOL for rho in rhos)
        starts = [zero_start(up.make_bopt_objective(rho, 3, 3), 12) for rho in rhos]
        return {
            "d": [3, 3], "k": sorted({int(np.linalg.matrix_rank(rho, tol=1e-9)) for rho in rhos}),
            "grid_points": len(self.grid), "states": len(self.states),
            "npt_states": npt, "npt_share": npt / len(self.states),
            **start_shares(starts),
            "restarts": self.restarts, "optimizer_seed": f"per point from seed {self.seed}",
            "timed_scan_seeds": list(self.timed_seeds),
        }

    def overhead_probes(self, blocks: int = 150, evals: int = 50) -> list:
        """Blocks of bopt-objective evaluations at one NPT grid point.

        Each evaluation records the span pattern that makes up almost all of
        a traced scan (one objective span over two ``build_unitary`` spans),
        and blocks of about 20 ms alternate finely enough between untraced
        and traced runs for drift in machine speed to cancel.
        """
        rho = fig1_density(0.5, 0.25)
        xs = np.random.default_rng([self.seed, 1]).uniform(0.0, 2.0 * math.pi, (evals, 12))

        def block():
            f = up.make_bopt_objective(rho, 3, 3)
            for x in xs:
                f(x)

        return [block] * blocks

    def check_rows(self, rows: list) -> list[list[str]]:
        """Violations per grid point, in grid order; a missing row fails its point."""
        out: list[list[str]] = []
        for i, (alpha, beta) in enumerate(self.grid):
            if i >= len(rows):
                out.append(["row missing"])
                continue
            out.append(self._check_row(rows[i], alpha, beta))
        if len(rows) > len(self.grid):
            out[-1].append(f"{len(rows) - len(self.grid)} extra rows")
        return out

    @staticmethod
    def _check_row(row, alpha: float, beta: float) -> list[str]:
        bad = []
        if abs(row.alpha - alpha) > 1e-12 or abs(row.beta - beta) > 1e-12:
            return [f"row ({row.alpha},{row.beta}) out of grid order, expected ({alpha},{beta})"]
        rho = fig1_density(alpha, beta)
        is_state = bool(np.linalg.eigvalsh(rho)[0] >= -PSD_TOL)
        if row.is_state != is_state:
            bad.append(f"is_state={row.is_state}, oracle says {is_state}")
        if not is_state:
            if row.bound_plain is not None or row.bound_opt is not None:
                bad.append("bounds reported for a non-state grid point")
            return bad
        if row.is_ppt != (pt_min_eig(rho, 3, 3) >= -PPT_TOL):
            bad.append(f"is_ppt={row.is_ppt} disagrees with the partial-transpose oracle")
        plain, opt = row.bound_plain, row.bound_opt
        if plain is None or opt is None:
            return bad + ["bound missing"]
        for label, v in (("bound_plain", plain), ("bound_opt", opt)):
            if not (math.isfinite(v) and 0.0 <= v <= 1.0 + BOUND_SLACK):
                bad.append(f"{label}={v!r} outside [0, 1]")
        if not opt >= plain - BOUND_SLACK:
            bad.append(f"bound_opt {opt!r} < bound_plain {plain!r}")
        if (alpha, beta) in ((1.0, 0.0), (0.0, 1.0)):
            for label, v in (("bound_plain", plain), ("bound_opt", opt)):
                if not abs(v - 1.0) < CORNER_TOL:
                    bad.append(f"pure corner {label}={v!r} is not 1")
        return bad

    def certified(self, rows: list) -> tuple[int, int]:
        """(certified, NPT) counts over the state rows."""
        npt = [r for r in rows if r.is_state and not r.is_ppt]
        return sum(r.bound_opt is not None and r.bound_opt > CERTIFY_BOUND for r in npt), len(npt)


# ---------------------------------------------------------------------------
# per-op workloads

@dataclass
class Op:
    kind: str
    label: str
    args: tuple
    info: dict = field(default_factory=dict)


class DistillWitness:
    """max_distill_x_sq around the fig1 PPT boundary and on two-copy Werner states."""

    name = "distill-witness"
    grid_step = 0.05
    restarts = 12
    # Werner weights: one per stratum.  PPT strata sit below 1/3, NPT strata
    # above it, each at least 0.05 from the boundary, as in acceptance
    # criterion 7.  The NPT ones carry most of the pass's time.
    werner_strata = ((0.02, 0.14), (0.14, 0.28)) + tuple(
        (0.40 + 0.075 * i, 0.475 + 0.075 * i) for i in range(8))

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.ops: list[Op] = []
        for ia, ib in self._band():
            alpha, beta = ia * self.grid_step, ib * self.grid_step
            rho = fig1_density(alpha, beta)
            self.ops.append(Op("fig1", f"fig1({alpha:.2f},{beta:.2f})", (rho,),
                               {"npt": pt_min_eig(rho, 3, 3) < -PPT_TOL}))
        for lo, hi in self.werner_strata:
            w = float(rng.uniform(lo, hi))
            rho = werner(w)
            self.ops.append(Op("werner2", f"werner2(w={w:.4f})", (rho,),
                               {"npt": pt_min_eig(rho, 2, 2) < -PPT_TOL}))
        for i, op in enumerate(self.ops):
            op.info["cfg"] = up.OptimizerConfig(restarts=self.restarts, seed=op_seed(seed, i))

    def _band(self) -> list[tuple[int, int]]:
        """Grid states with a 4-neighbour on the other side of the PPT boundary."""
        n = int(round(1.0 / self.grid_step))
        ppt = {}
        for ia in range(n + 1):
            for ib in range(n + 1 - ia):
                rho = fig1_density(ia * self.grid_step, ib * self.grid_step)
                if np.linalg.eigvalsh(rho)[0] >= -PSD_TOL:
                    ppt[(ia, ib)] = pt_min_eig(rho, 3, 3) >= -PPT_TOL
        return [(ia, ib) for (ia, ib), p in sorted(ppt.items())
                if any(ppt.get(q, p) != p
                       for q in ((ia + 1, ib), (ia - 1, ib), (ia, ib + 1), (ia, ib - 1)))]

    def properties(self) -> dict[str, Any]:
        npt = sum(op.info["npt"] for op in self.ops)
        starts = []
        for op in self.ops:
            rho, d = (op.args[0], 3) if op.kind == "fig1" else (self._two_copy(op.args[0]), 4)
            starts.append(zero_start(up.make_distill_objective(rho, d, d), 2 * (4 * d - 8)))
        kinds = {k: sum(op.kind == k for op in self.ops) for k in ("fig1", "werner2")}
        return {
            "d": "3 (fig1 band, 8 angles), 4 (two-copy Werner, 16 angles)",
            "k": "full rank", "ops": len(self.ops), "by_kind": kinds,
            "npt_share": npt / len(self.ops), "npt_inputs": npt,
            **start_shares(starts), "restarts": self.restarts,
        }

    @staticmethod
    def _two_copy(rho: np.ndarray) -> np.ndarray:
        out = np.kron(rho, rho).reshape([2] * 8)
        return out.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)

    def run_op(self, op: Op):
        rho = op.args[0]
        cfg = op.info["cfg"]
        if op.kind == "fig1":
            pt = up.ppt_min_eigenvalue(rho, (3, 3))
            x_sq, res = up.max_distill_x_sq(rho, 3, 3, cfg)
        else:
            pt = up.ppt_min_eigenvalue(rho, (2, 2))
            x_sq, res = up.max_distill_x_sq(up.n_copy_state(rho, (2, 2), 2), 4, 4, cfg)
        return pt, x_sq, res.iterations

    def check_op(self, op: Op, result) -> list[str]:
        pt, x_sq, _ = result
        bad = []
        if not (math.isfinite(x_sq) and x_sq >= 0.0):
            bad.append(f"x_sq={x_sq!r} is not a finite non-negative number")
        rho = op.args[0]
        dims = (3, 3) if op.kind == "fig1" else (2, 2)
        oracle = pt_min_eig(rho, *dims)
        if not abs(pt - oracle) < 1e-9:
            bad.append(f"ppt_min_eigenvalue {pt!r} differs from oracle {oracle!r}")
        witness = x_sq > WITNESS_TOL
        if not op.info["npt"] and witness:
            bad.append(f"positive witness x_sq={x_sq!r} on a PPT input")
        if op.kind == "werner2" and witness != op.info["npt"]:
            bad.append(f"two-copy witness {witness} disagrees with one-copy NPT {op.info['npt']}")
        return bad

    def certified(self, results: list) -> tuple[int, int]:
        npt = [r for op, r in zip(self.ops, results) if op.info["npt"]]
        return sum(r[1] > WITNESS_TOL for r in npt), len(npt)


class BoundHighDim:
    """Plain bound_b and multipartite_bound_b on random rank-k states."""

    name = "bound-highdim"
    bipartite = ((4, 4), (5, 5), (3, 4))
    multipartite = ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3))
    per_shape = 6

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.ops: list[Op] = []
        for dims in self.bipartite + self.multipartite:
            n = int(np.prod(dims))
            kind = "bipartite" if len(dims) == 2 else "multipartite"
            for j in range(self.per_shape):
                # ranks spread from pure to full over the shape's states
                rank = 1 + (j * (n - 1)) // (self.per_shape - 1)
                rho = random_density(rng, n, rank)
                self.ops.append(Op(kind, f"{kind}{dims}k{rank}", (rho, dims),
                                   {"rank": rank, "npt": is_npt(rho, dims)}))

    def properties(self) -> dict[str, Any]:
        npt = sum(op.info["npt"] for op in self.ops)
        return {
            "d": [list(d) for d in self.bipartite + self.multipartite],
            "k": sorted({op.info["rank"] for op in self.ops}),
            "ops": len(self.ops), "npt_share": npt / len(self.ops),
            "zero_plateau_share": "n/a (no optimizer)",
        }

    def run_op(self, op: Op):
        rho, dims = op.args
        if op.kind == "bipartite":
            rep = up.bound_b(rho, dims[0], dims[1])
            return [(dims[0], dims[1], rep.b)], rep.b
        mb = up.multipartite_bound_b(rho, dims)
        return [(bp.d_alpha, bp.d_beta, rep.b) for bp, rep in mb.parts], mb.b

    def check_op(self, op: Op, result) -> list[str]:
        parts, total = result
        bad = []
        for d_a, d_b, b in parts:
            if not (math.isfinite(b) and b >= 0.0):
                bad.append(f"B={b!r} at {d_a}x{d_b} is not finite and non-negative")
            elif not b * b <= 2.0 * (1.0 - 1.0 / min(d_a, d_b)) + BOUND_SLACK:
                bad.append(f"B^2={b * b!r} at {d_a}x{d_b} exceeds 2(1-1/min d)")
        expected = math.sqrt(sum(b * b for _, _, b in parts))
        if not abs(total - expected) <= 1e-12 * max(1.0, expected):
            bad.append(f"total B {total!r} is not the root sum of squares {expected!r}")
        if op.kind == "multipartite" and len(parts) != 2 ** (len(op.args[1]) - 1) - 1:
            bad.append(f"{len(parts)} bipartitions reported")
        return bad


class ParamRoundtrip:
    """Angles -> object -> angles round trips at d = 3..8."""

    name = "param-roundtrip"
    dims = range(3, 9)
    copies = 12

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 4])
        self.ops: list[Op] = []
        for _ in range(self.copies):
            for d in self.dims:
                self.ops.append(Op("unitary", f"unitary d{d}", (random_angles(rng, d),),
                                   {"d": d, "k": d}))
                for k in range(2, d):
                    self.ops.append(Op("subspace", f"subspace d{d}k{k}",
                                       (random_angles(rng, d), k, d), {"d": d, "k": k}))
                for k in range(1, d + 1):
                    theta = rng.uniform(0.0, 2.0 * math.pi, size=k - 1)
                    self.ops.append(Op("density", f"density d{d}k{k}",
                                       (theta, random_angles(rng, d), k, d), {"d": d, "k": k}))

    def properties(self) -> dict[str, Any]:
        kinds = {k: sum(op.kind == k for op in self.ops) for k in ("unitary", "subspace", "density")}
        return {
            "d": list(self.dims), "k": "subspaces 2..d-1, densities 1..d",
            "ops": len(self.ops), "by_kind": kinds,
            "npt_share": "n/a (no bipartite states)", "zero_plateau_share": "n/a (no optimizer)",
        }

    def run_op(self, op: Op):
        if op.kind == "unitary":
            u = up.build_unitary(op.args[0])
            return u, up.decompose(u)
        if op.kind == "subspace":
            lam, k, d = op.args
            v = up.subspace_basis(lam, k, d)
            return v, up.canonicalize_subspace(v)
        theta, lam, k, d = op.args
        rho = up.build_density(theta, lam, k, d)
        return rho, up.validate_density(rho, rank_bound=k)

    def check_op(self, op: Op, result) -> list[str]:
        bad = []
        if op.kind == "unitary":
            u, lam = result
            defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
            if not defect < UNITARITY_TOL:
                bad.append(f"unitarity defect {defect:.3e}")
            residual = float(np.max(np.abs(up.build_unitary(lam) - u)))
            if not residual < ROUNDTRIP_TOL:
                bad.append(f"unitary round-trip residual {residual:.3e}")
        elif op.kind == "subspace":
            v, (lam, w) = result
            _, k, d = op.args
            residual = float(np.max(np.abs(up.subspace_basis(lam, k, d) @ w - v)))
            if not residual < SUBSPACE_TOL:
                bad.append(f"subspace round-trip residual {residual:.3e}")
        else:
            rho, _ = result
            tr = complex(np.trace(rho))
            if not abs(tr - 1.0) < TRACE_TOL:
                bad.append(f"trace {tr!r}")
            low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
            if not low >= -PSD_TOL:
                bad.append(f"minimum eigenvalue {low:.3e}")
        return bad


WORKLOADS = {cls.name: cls for cls in (Fig1Scan, DistillWitness, BoundHighDim, ParamRoundtrip)}
