"""Nelder-Mead simplex minimization with seeded random restarts.

Intended for the 2*pi-periodic angle objectives in this package, so
parameters are left unconstrained (no wrapping).  The first restart
always starts from the zero vector; the remaining starts are drawn
uniformly from [0, 2*pi)^dim using the configured seed, which makes every
run bit-reproducible and guarantees that an optimized objective value is
never worse than the value at zero.

All restarts run in staggered lockstep: one Nelder-Mead core holds the
simplex of every restart that has not stopped, and each call of a
batched objective evaluates the next pending point of every one of them
(a reflection, an expansion or contraction, or a shrink's vertices), so
restarts in different phases of their steps share a call.  Callers that
have a batched objective pass it as ``batch``, the same objective over an
(N, dim) array returning N values; without it the rows are evaluated one
at a time.  Each restart still evaluates exactly the points it would
alone and follows the same sort, tests, moves and argmin, so results do
not depend on how many restarts run beside it.  That rests on the
batched objective's rows being independent: a row's value must not
depend on the rows beside it.  ``OptimizerResult.calls`` counts the
batched calls.

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
    (-1 when no run was recorded).  ``calls`` counts the batched objective
    calls of the Nelder-Mead run that produced the result; the problems of
    one ``minimize_many`` run share it, and a seeded stage adds its own.
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
    calls: int = 0


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
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One Nelder-Mead run from each row of ``starts``, all advanced in staggered rounds.

    ``owner`` gives the problem of each run, passed on with every row
    evaluated.  The first round is every run's simplex set-up.  After it a
    round evaluates, for each live run, the points its step waits for: its
    reflection, its expansion or contraction, or its dim shrunk vertices.
    Each run then goes on as far as its next pending point, so a run that
    accepts its reflection reflects again in the round where others take
    their step's second point.  A round's rows are those of the live runs
    in run order, each run's rows together; a round of more than ``cap``
    rows is split into calls of ``cap`` rows.  Every run evaluates the
    points it would evaluate alone and follows that trajectory exactly.
    Returns each run's best vertex, its value, simplex steps, convergence
    flag and number of points evaluated, and the number of objective calls.
    """
    n_runs, dim = starts.shape
    calls = 0

    def evaluate(xs: np.ndarray, own: np.ndarray) -> np.ndarray:
        nonlocal calls
        if len(xs) <= cap:
            calls += 1
            return batch(xs, own)
        chunks = range(0, len(xs), cap)
        calls += len(chunks)
        return np.concatenate([batch(xs[i:i + cap], own[i:i + cap]) for i in chunks])

    # vertex-major simplices: p[j, r] is vertex j of run r, f[r, j] its value
    axes = np.arange(dim)
    p = np.repeat(starts[None], dim + 1, axis=0)
    p[axes + 1, :, axes] += scale
    f = evaluate(p.transpose(1, 0, 2).reshape(-1, dim),
                 np.repeat(owner, dim + 1)).reshape(n_runs, dim + 1)

    best_x, best_f = np.empty((n_runs, dim)), np.empty(n_runs)
    steps, evaluations = np.empty(n_runs, dtype=int), np.empty(n_runs, dtype=int)
    converged = np.zeros(n_runs, dtype=bool)

    # The live runs, compacted when one stops.  A run's pending point x is
    # its reflection when its last step is done, else what that step waits
    # for: its expansion or contraction x2, or (shrink) its shrunk vertices.
    ids, own = np.arange(n_runs), owner
    iters, shrinks = np.zeros(n_runs, dtype=int), np.zeros(n_runs, dtype=int)
    c = xr = x2 = np.zeros((n_runs, dim))
    fr = np.zeros(n_runs)
    done = np.ones(n_runs, dtype=bool)
    expand = contract = shrink = np.zeros(n_runs, dtype=bool)
    lanes = ids
    shrinking = False
    rounds = 0
    while True:
        # Runs whose step is done start the next.  A mid-step run keeps the
        # sorted values of its step's start, so sorting it is the identity,
        # and its centroid and reflection come out as before (a shrinking
        # run's are not used).
        order = f.argsort(axis=1, kind="stable")
        f = f[lanes[:, None], order]
        p = p[order.T, lanes]
        start, spent = done, None
        if rounds >= max_iterations:  # before that no run can be out of steps
            # a run out of steps stops before its spread test
            spent = done & (iters >= max_iterations)
            start = done & ~spent
        if traces is not None:
            for r, best in zip(ids[start].tolist(), f[start, 0].tolist()):
                traces[r].append(best)
        flat = start & (f[:, -1] - f[:, 0] < f_tol)
        stop = flat if spent is None else flat | spent
        iters += done  # a run that stops here does not take the step counted: hence iters - 1
        c = np.add.reduce(p[:-1], axis=0) / dim  # p[:-1].mean(axis=0) without its wrapper
        xr = c + REFLECT * (c - p[-1])
        x = np.where(done[:, None], xr, x2)
        if np.count_nonzero(stop):
            gone = np.flatnonzero(stop)
            rid = ids[gone]
            best = np.argmin(f[gone], axis=1)
            best_x[rid], best_f[rid] = p[best, gone], f[gone, best]
            steps[rid] = iters[gone] - 1
            converged[rid] = flat[gone]
            evaluations[rid] = dim + 1 + rounds + (dim - 1) * shrinks[gone]
            keep = ~stop
            p = p[:, keep]
            ids, own, iters, shrinks, f, c, xr, x, fr, done, expand, contract, shrink = (
                a[keep] for a in (ids, own, iters, shrinks, f, c, xr, x, fr, done,
                                  expand, contract, shrink))
            if not ids.size:
                break
            lanes = np.arange(ids.size)

        if shrinking:
            s = np.flatnonzero(shrink)
            counts = np.ones(ids.size, dtype=int)
            counts[s] = dim
            at = np.cumsum(counts) - counts
            xs = np.empty((at[-1] + counts[-1], dim))
            xs[at] = x
            rows = at[s, None] + axes
            xs[rows] = p[1:, s].transpose(1, 0, 2)
            values = evaluate(xs, np.repeat(own, counts))
            v = values[at]
            f[s, 1:] = values[rows]
            shrinks[s] += 1
        else:
            v = evaluate(x, own)
        rounds += 1

        # what each run's pending point was: a reflection (done), or else
        fr = np.where(done, v, fr)
        expanding, contracting, shrunk = expand, contract, shrink
        expand = done & (v < f[:, 0])
        contract = done & ~expand & ~(v < f[:, -2])
        # a second point replaces the worst vertex if below the reflection
        # (expansion) or below min(fr, f_worst) (contraction); the latter is
        # fr unless f_worst is lower (np.minimum would pass on a NaN)
        f_worst = f[:, -1]
        take = (expanding | contracting) & (
            v < np.where(contracting & (f_worst < fr), f_worst, fr))
        shrink = contracting & ~take
        done = ~(expand | contract | shrink)
        accept = (done & ~shrunk)[:, None]  # steps that end with a new worst vertex
        np.copyto(p[-1], np.where(take[:, None], x, xr), where=accept)
        f[:, -1] = np.where(accept[:, 0], np.where(take, v, fr), f_worst)
        shrinking = np.count_nonzero(shrink) > 0
        if shrinking:
            p[1:, shrink] = p[:1, shrink] + SHRINK * (p[1:, shrink] - p[:1, shrink])
        # expansion points, and contractions toward the reflection when it beats the worst vertex
        toward = np.where((expand | (fr < f_worst))[:, None], xr, p[-1])
        x2 = c + np.where(expand, EXPAND, CONTRACT)[:, None] * (toward - c)

    return best_x, best_f, steps, converged, evaluations, calls


def _solve(objectives: Sequence[Objective], batch: OwnedBatch | None, starts: np.ndarray,
           cfg: OptimizerConfig, keep_history: bool) -> list[OptimizerResult]:
    """Lockstep Nelder-Mead from the (P, R, dim) ``starts``: R runs for each of P problems.

    Per problem, its first run with the lowest value wins.  No objective
    call takes more than R * (dim + 1) rows, one problem's simplex set-up.
    """
    n_problems, n_runs, dim = starts.shape
    traces: list[list[float]] | None = (
        [[] for _ in range(n_problems * n_runs)] if keep_history else None)
    *runs, calls = _nelder_mead(
        batch or _rowwise(objectives), starts.reshape(-1, dim),
        np.repeat(np.arange(n_problems), n_runs), n_runs * (dim + 1),
        cfg.simplex_scale, cfg.max_iterations, cfg.f_tol, traces)
    x, fx, iters, converged, evaluations = (
        a.reshape(n_problems, n_runs, *a.shape[1:]) for a in runs)
    results = []
    for p, objective in enumerate(objectives):
        best = int(np.argmin(fx[p]))
        runs = slice(p * n_runs, (p + 1) * n_runs)
        history = None if traces is None else tuple(map(tuple, traces[runs]))
        results.append(OptimizerResult(
            float(objective(x[p, best])), x[p, best], int(iters[p].sum()), n_runs,
            bool(converged[p, best]), history=history,
            evaluations=int(evaluations[p].sum()) + 1,
            restart_values=tuple(fx[p].tolist()), best_restart=best, calls=calls))
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
