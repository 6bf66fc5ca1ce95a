"""Nelder-Mead simplex minimization with seeded random restarts.

Intended for the 2*pi-periodic angle objectives in this package, so
parameters are left unconstrained (no wrapping).  The first restart
always starts from the zero vector; the remaining starts are drawn
uniformly from [0, 2*pi)^dim using the configured seed, which makes every
run bit-reproducible and guarantees that an optimized objective value is
never worse than the value at zero.

``refine`` runs one Nelder-Mead simplex from a given point instead.  The
entanglement module uses it for its partial-transpose-seeded stage: when
every restart of ``minimize`` ends on an objective's flat zero plateau,
it restarts once from the minimizer of a plateau-free surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi

# Standard simplex moves.
REFLECT = 1.0
EXPAND = 2.0
CONTRACT = 0.5
SHRINK = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for ``minimize``.

    max_iterations : simplex steps allowed per restart.
    f_tol          : stop a restart once max(f) - min(f) over the simplex
                     drops below this spread.
    simplex_scale  : edge length (radians) of the initial simplex.
    restarts       : number of starts; the first is the zero vector.
    seed           : seed for the restart draws.
    """

    max_iterations: int = 2000
    f_tol: float = 1e-10
    simplex_scale: float = 0.5
    restarts: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.f_tol > 0:
            raise ValueError("f_tol must be > 0")
        if not self.simplex_scale > 0:
            raise ValueError("simplex_scale must be > 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class OptimizerResult:
    """Best point found, re-evaluated on return so value == objective(x).

    ``iterations`` counts the simplex steps of every run that went into the
    result, including any seeded stage run after the restarts.
    """

    value: float
    x: np.ndarray
    iterations: int
    restarts: int
    converged: bool
    history: tuple[tuple[float, ...], ...] | None = field(default=None, repr=False)


def _nelder_mead(f: Callable[[np.ndarray], float], start: np.ndarray,
                 scale: float, max_iterations: int, f_tol: float,
                 trace: list[float] | None) -> tuple[np.ndarray, float, int, bool]:
    dim = start.size
    pts = np.tile(start, (dim + 1, 1))
    for i in range(dim):
        pts[i + 1, i] += scale
    fs = np.array([f(p) for p in pts])

    iters = 0
    converged = False
    while iters < max_iterations:
        order = np.argsort(fs, kind="stable")
        pts, fs = pts[order], fs[order]
        if trace is not None:
            trace.append(float(fs[0]))
        if fs[-1] - fs[0] < f_tol:
            converged = True
            break
        iters += 1

        centroid = pts[:-1].mean(axis=0)
        xr = centroid + REFLECT * (centroid - pts[-1])
        fr = f(xr)
        if fr < fs[0]:
            xe = centroid + EXPAND * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                pts[-1], fs[-1] = xe, fe
            else:
                pts[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            pts[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = centroid + CONTRACT * (xr - centroid)
            else:
                xc = centroid + CONTRACT * (pts[-1] - centroid)
            fc = f(xc)
            if fc < min(fr, fs[-1]):
                pts[-1], fs[-1] = xc, fc
            else:
                pts[1:] = pts[0] + SHRINK * (pts[1:] - pts[0])
                fs[1:] = [f(p) for p in pts[1:]]

    best = int(np.argmin(fs))
    return pts[best].copy(), float(fs[best]), iters, converged


def minimize(objective: Callable[[np.ndarray], float], dim: int,
             cfg: OptimizerConfig | None = None,
             keep_history: bool = False) -> OptimizerResult:
    """Minimize ``objective`` over R^dim with restarted Nelder-Mead.

    ``dim == 0`` evaluates the constant objective once and returns.  The
    result is the best vertex over all restarts; ``converged`` reports
    whether the restart that produced it met the spread tolerance.
    """
    cfg = cfg or OptimizerConfig()
    if dim < 0:
        raise ValueError("dim must be >= 0")
    if dim == 0:
        x = np.zeros(0)
        return OptimizerResult(float(objective(x)), x, 0, 0, True,
                               history=() if keep_history else None)

    rng = np.random.default_rng(cfg.seed)
    best_x: np.ndarray | None = None
    best_f = np.inf
    best_converged = False
    total_iters = 0
    histories: list[tuple[float, ...]] = []
    for r in range(cfg.restarts):
        start = np.zeros(dim) if r == 0 else rng.uniform(0.0, TWO_PI, dim)
        trace: list[float] | None = [] if keep_history else None
        x, fx, iters, converged = _nelder_mead(
            objective, start, cfg.simplex_scale, cfg.max_iterations, cfg.f_tol, trace)
        total_iters += iters
        if trace is not None:
            histories.append(tuple(trace))
        if fx < best_f:
            best_x, best_f, best_converged = x, fx, converged

    assert best_x is not None
    value = float(objective(best_x))
    return OptimizerResult(value, best_x, total_iters, cfg.restarts, best_converged,
                           history=tuple(histories) if keep_history else None)


def refine(objective: Callable[[np.ndarray], float], start: np.ndarray,
           cfg: OptimizerConfig | None = None) -> OptimizerResult:
    """One Nelder-Mead run from ``start`` with the simplex settings of ``cfg``.

    ``cfg.restarts`` and ``cfg.seed`` are not used; the result reports one
    restart and is re-evaluated like that of ``minimize``.
    """
    cfg = cfg or OptimizerConfig()
    start = np.array(start, dtype=float).ravel()
    x, _, iters, converged = _nelder_mead(
        objective, start, cfg.simplex_scale, cfg.max_iterations, cfg.f_tol, None)
    return OptimizerResult(float(objective(x)), x, iters, 1, converged)
