"""Nelder-Mead simplex minimization with seeded random restarts.

Intended for the 2*pi-periodic angle objectives in this package, so
parameters are left unconstrained (no wrapping).  The first restart
always starts from the zero vector; the remaining starts are drawn
uniformly from [0, 2*pi)^dim using the configured seed, which makes every
run bit-reproducible and guarantees that an optimized objective value is
never worse than the value at zero.

All restarts run in lockstep: one Nelder-Mead core holds every simplex
in an (R, dim + 1, dim) stack and steps the restarts that have not
stopped together, so each simplex move of all of them is one call of a
batched objective.  Callers that have one pass it as ``batch``, the same
objective over an (N, dim) array returning N values; without it the rows
are evaluated one at a time.  Each restart still follows exactly the
trajectory it would follow alone: the same sort, tests, moves and
argmin, so results do not depend on how many restarts run beside it.

``minimize_many`` steps the restarts of several problems in one such run:
problem i draws its starts from its own ``cfgs[i].seed`` and gets its own
result, equal to that of ``minimize`` on it alone, and ``minimize`` is its
one-problem case.  Its batched objective is called as ``batch(xs, owner)``,
where ``owner[j]`` is the index of the problem that row j belongs to; the
entanglement module uses that to optimize the bounds of many states in one
run.  No objective call takes more than ``restarts * (dim + 1)`` rows, the
size of one problem's simplex set-up: larger evaluations are split into
calls of that size, which bounds the memory of the batched evaluators.

``refine`` runs one Nelder-Mead simplex from a given point instead, the
same core with one restart.  The entanglement module uses it for its
partial-transpose-seeded stage: when every restart of ``minimize`` ends
on an objective's flat zero plateau, it restarts once from the minimizer
of a plateau-free surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .composite import TWO_PI

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
    ``evaluations`` counts the objective points evaluated: simplex set-up,
    steps, shrinks and the final re-evaluation, plus those of a seeded
    stage.  ``restart_values`` is the best value of each Nelder-Mead run in
    order, and ``best_restart`` the index of the run that gave ``x``
    (-1 when no run was recorded).
    """

    value: float
    x: np.ndarray
    iterations: int
    restarts: int
    converged: bool
    history: tuple[tuple[float, ...], ...] | None = field(default=None, repr=False)
    evaluations: int = 0
    restart_values: tuple[float, ...] = ()
    best_restart: int = -1


Objective = Callable[[np.ndarray], float]
Batch = Callable[[np.ndarray], np.ndarray]
# batch(xs, owner): row i of xs belongs to the problem with index owner[i]
OwnedBatch = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _rowwise(objectives: Sequence[Objective]) -> OwnedBatch:
    """Batch form of scalar objectives: each row evaluated alone by its problem's objective."""

    def batch(xs: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return np.array([objectives[o](x) for x, o in zip(xs, owner.tolist())], dtype=float)

    return batch


def _nelder_mead(batch: OwnedBatch, starts: np.ndarray, owner: np.ndarray, cap: int,
                 scale: float, max_iterations: int, f_tol: float,
                 traces: list[list[float]] | None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One Nelder-Mead run from each row of ``starts``, all stepped in lockstep.

    The (R, dim + 1, dim) stack holds every simplex, and ``owner`` gives the
    problem of each run, passed on with every row evaluated.  A step sorts
    and tests the live runs, then evaluates the reflections, the expansions
    and contractions together, and the shrinks, each in calls of at most
    ``cap`` rows.  Every run follows exactly the trajectory it would follow
    alone.  Returns each run's best vertex, its value, simplex steps,
    convergence flag and number of points evaluated.
    """
    n_runs, dim = starts.shape

    def evaluate(xs: np.ndarray, own: np.ndarray) -> np.ndarray:
        if len(xs) <= cap:
            return batch(xs, own)
        return np.concatenate([batch(xs[i:i + cap], own[i:i + cap])
                               for i in range(0, len(xs), cap)])

    pts = np.repeat(starts[:, None, :], dim + 1, axis=1)
    axes = np.arange(dim)
    pts[:, axes + 1, axes] += scale
    fs = evaluate(pts.reshape(-1, dim), np.repeat(owner, dim + 1)).reshape(n_runs, dim + 1)
    evaluations = np.full(n_runs, dim + 1)

    iters = np.zeros(n_runs, dtype=int)
    converged = np.zeros(n_runs, dtype=bool)
    live = np.ones(n_runs, dtype=bool)
    while True:
        # a run out of steps stops unsorted, before its spread test
        live &= iters < max_iterations
        run = np.flatnonzero(live)
        if run.size == 0:
            break
        order = np.argsort(fs[run], axis=1, kind="stable")
        p = np.take_along_axis(pts[run], order[:, :, None], axis=1)
        f = np.take_along_axis(fs[run], order, axis=1)
        pts[run], fs[run] = p, f
        if traces is not None:
            for r, best in zip(run, f[:, 0]):
                traces[r].append(float(best))
        done = f[:, -1] - f[:, 0] < f_tol
        converged[run[done]] = True
        live[run[done]] = False
        run, p, f = run[~done], p[~done], f[~done]
        if run.size == 0:
            break
        iters[run] += 1
        own = owner[run]

        centroid = p[:, :-1].mean(axis=1)
        worst, f_worst = p[:, -1], f[:, -1]
        xr = centroid + REFLECT * (centroid - worst)
        fr = evaluate(xr, own)
        expand = fr < f[:, 0]
        contract = ~expand & ~(fr < f[:, -2])
        # expansion points, and contractions toward the reflection when it beats the worst vertex
        x2 = np.where(expand[:, None], centroid + EXPAND * (xr - centroid),
                      np.where((fr < f_worst)[:, None], centroid + CONTRACT * (xr - centroid),
                               centroid + CONTRACT * (worst - centroid)))
        f2 = np.full(run.size, np.nan)
        second = np.flatnonzero(expand | contract)
        if second.size:
            f2[second] = evaluate(x2[second], own[second])
        # min(fr, f_worst): fr unless f_worst is lower (np.minimum would pass on a NaN)
        take2 = (expand & (f2 < fr)) | (contract & (f2 < np.where(f_worst < fr, f_worst, fr)))
        shrink = contract & ~take2
        step = ~shrink
        p[step, -1] = np.where(take2[:, None], x2, xr)[step]
        f[step, -1] = np.where(take2, f2, fr)[step]
        shrunk = np.flatnonzero(shrink)
        if shrunk.size:
            q = p[shrunk]
            q[:, 1:] = q[:, :1] + SHRINK * (q[:, 1:] - q[:, :1])
            p[shrunk] = q
            f[shrunk, 1:] = evaluate(q[:, 1:].reshape(-1, dim),
                                     np.repeat(own[shrunk], dim)).reshape(shrunk.size, dim)
        pts[run], fs[run] = p, f
        evaluations[run] += 1 + (expand | contract) + dim * shrink

    best = np.argmin(fs, axis=1)
    rows = np.arange(n_runs)
    return pts[rows, best], fs[rows, best], iters, converged, evaluations


def _solve(objectives: Sequence[Objective], batch: OwnedBatch | None, starts: np.ndarray,
           cfg: OptimizerConfig, keep_history: bool) -> list[OptimizerResult]:
    """Lockstep Nelder-Mead from the (P, R, dim) ``starts``: R runs for each of P problems.

    Per problem, its first run with the lowest value wins.  No objective
    call takes more than R * (dim + 1) rows, one problem's simplex set-up.
    """
    n_problems, n_runs, dim = starts.shape
    traces: list[list[float]] | None = (
        [[] for _ in range(n_problems * n_runs)] if keep_history else None)
    x, fx, iters, converged, evaluations = (
        a.reshape(n_problems, n_runs, *a.shape[1:]) for a in _nelder_mead(
            batch or _rowwise(objectives), starts.reshape(-1, dim),
            np.repeat(np.arange(n_problems), n_runs), n_runs * (dim + 1),
            cfg.simplex_scale, cfg.max_iterations, cfg.f_tol, traces))
    results = []
    for p, objective in enumerate(objectives):
        best = int(np.argmin(fx[p]))
        runs = slice(p * n_runs, (p + 1) * n_runs)
        history = None if traces is None else tuple(map(tuple, traces[runs]))
        results.append(OptimizerResult(
            float(objective(x[p, best])), x[p, best], int(iters[p].sum()), n_runs,
            bool(converged[p, best]), history=history,
            evaluations=int(evaluations[p].sum()) + 1,
            restart_values=tuple(fx[p].tolist()), best_restart=best))
    return results


def minimize_many(objectives: Sequence[Objective], dim: int,
                  cfgs: Sequence[OptimizerConfig], keep_history: bool = False, *,
                  batch: OwnedBatch | None = None) -> list[OptimizerResult]:
    """``minimize`` for several problems over R^dim at once, one result per problem.

    Problem i minimizes ``objectives[i]`` with the restarts of ``cfgs[i]``,
    which may differ from the others only in ``seed``.  The runs of all
    problems are stepped in lockstep; ``batch``, when given, evaluates them
    as ``batch(xs, owner)``, row j of the (N, dim) array ``xs`` on problem
    ``owner[j]``, returning N values.  Each result equals that of
    ``minimize`` on its problem alone.
    """
    cfgs = list(cfgs)
    if len(cfgs) != len(objectives):
        raise ValueError(f"{len(objectives)} objectives but {len(cfgs)} configs")
    if dim < 0:
        raise ValueError("dim must be >= 0")
    if not cfgs:
        return []
    if any(replace(c, seed=0) != replace(cfgs[0], seed=0) for c in cfgs):
        raise ValueError("configs may differ only in seed")
    if dim == 0:
        x = np.zeros(0)
        return [OptimizerResult(float(objective(x)), x, 0, 0, True,
                                history=() if keep_history else None, evaluations=1)
                for objective in objectives]
    starts = np.zeros((len(cfgs), cfgs[0].restarts, dim))
    for s, cfg in zip(starts, cfgs):
        s[1:] = np.random.default_rng(cfg.seed).uniform(0.0, TWO_PI, (cfg.restarts - 1, dim))
    return _solve(objectives, batch, starts, cfgs[0], keep_history)


def _owned(batch: Batch | None) -> OwnedBatch | None:
    """A one-problem batch in the owner-passing form the core calls."""
    return None if batch is None else lambda xs, owner: batch(xs)


def minimize(objective: Objective, dim: int,
             cfg: OptimizerConfig | None = None, keep_history: bool = False, *,
             batch: Batch | None = None) -> OptimizerResult:
    """Minimize ``objective`` over R^dim with restarted Nelder-Mead.

    ``batch``, when given, is the same objective over an (N, dim) array,
    returning N values; the restarts are then evaluated together through
    it, and ``objective`` only re-evaluates the result.  ``dim == 0``
    evaluates the constant objective once and returns.  The result is the
    best vertex over all restarts; ``converged`` reports whether the
    restart that produced it met the spread tolerance.
    """
    return minimize_many([objective], dim, [cfg or OptimizerConfig()], keep_history,
                         batch=_owned(batch))[0]


def refine(objective: Objective, start: np.ndarray,
           cfg: OptimizerConfig | None = None, *,
           batch: Batch | None = None) -> OptimizerResult:
    """One Nelder-Mead run from ``start`` with the simplex settings of ``cfg``.

    ``cfg.restarts`` and ``cfg.seed`` are not used; the result reports one
    restart and is re-evaluated like that of ``minimize``, which also
    describes ``batch``.
    """
    start = np.array(start, dtype=float).ravel()
    return _solve([objective], _owned(batch), start[None, None], cfg or OptimizerConfig(),
                  False)[0]
