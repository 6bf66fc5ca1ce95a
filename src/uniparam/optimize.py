"""Restarted minimization by lockstep BFGS on exact gradients.

Intended for the 2*pi-periodic angle objectives in this package, so
parameters are left unconstrained (no wrapping).  The first restart
always starts from the zero vector; the remaining starts are drawn
uniformly from [0, 2*pi)^dim using the configured seed, which makes every
run bit-reproducible and guarantees that an optimized objective value is
never worse than the value at zero.

Every entry takes one objective, ``objective(xs, owner) -> (values,
gradient)``: the N values of the rows of the (N, dim) array ``xs``, row j
on the problem with index ``owner[j]``, and a closure that gives their
(N, dim) gradients when called.  A row's value must not depend on the
rows beside it.  An optional ``values(xs, owner) -> values`` gives the
values alone, for the calls whose gradient is never read: the simplex
scoring and the final re-evaluation.  It defaults to the objective's own
values; an objective that pays for its gradient in the value pass (the
entanglement searches factor each block in full there) passes a cheaper
one.  Every value a result reports comes from it.

``minimize_many`` runs the restarts of several problems together:
problem i draws its starts from its own ``cfgs[i].seed`` and gets its
own result, equal to that of the problem alone.  ``minimize`` is its
one-problem case, and ``refine`` runs one BFGS run from each of given
points, one problem per point.  No problems or starts give no results
and no call; over R^0 each constant is evaluated once, with restarts 0.
The entanglement module runs every search through them: the optimized
bound B_opt, the distillability witness, its seeded stage's surrogate
and the runs from given angles.

All runs step in lockstep (``_bfgs``).  The first call(s) score each
start's simplex by ``values`` alone, an objective call at each run's
lowest vertex takes its gradient, and after it each call
evaluates one pending trial point, with its gradient, per live run.  Its
line search is weak Wolfe, so no run ends above the best vertex of its
start's simplex.  A run stops when its direction promises less than
round-off, when a step gains less than ``OptimizerConfig.f_tol`` and the
next promises less than it, after BFGS_MAX_TRIALS (400) trial points,
after BFGS_TRAILING_TRIALS (240) once a stopped run of its problem has a
lower value, or at a kink, where its line search no longer moves it.
An accepted step is one trial point, so no run takes more than 400
steps.  No objective call takes more than ``restarts * (dim + 1)`` rows,
the size of one problem's simplex set-up: larger evaluations are split
into calls of that size, which bounds the memory of the batched
evaluators.  ``OptimizerResult.calls`` counts the calls.

Bad input raises ``UniparamError`` before any run: a config that is not
an ``OptimizerConfig``, configs differing in more than the seed, a ``dim``
that is not an integer >= 0, or ``refine`` starts that are not a (P, dim)
array of numbers, or not finite (``NonFiniteError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .composite import TWO_PI
from .errors import NonFiniteError, UniparamError
from .linalg import _count

# BFGS weak Wolfe line search: sufficient decrease and curvature constants
ARMIJO = 1e-4
CURVATURE = 0.5
# a direction promising less than this times |f| promises only round-off
ROUNDOFF = np.finfo(float).eps
# a step below this times (1 + |x_i|) in every coordinate no longer moves x
ANGLE_RESOLUTION = 4 * np.finfo(float).eps
# trial points a BFGS run may evaluate after its simplex: where the objective is smooth
# BFGS converges within them, and a run still stepping after them crawls along a kink, where
# the gradient does not vanish, at a linear rate.  Left to run, such runs took from 400 to
# 3000 points as the seed changed, and the longest one sets how many calls the lockstep takes
BFGS_MAX_TRIALS = 400
# trial points after which a run stops once a stopped run of its problem has a lower value.
# On the step-0.05 fig1 grid at seeds 0-3 no winning run took more than 142 trials and the
# losing runs went on for 217-400, so a lockstep there takes about 250 calls in place of 400.
# On random states from 2x3 to 4x4 winning runs took up to the 400 cap, and a cap of 240 for
# every run lowered B_opt on 21 of 57 of them; this cut leaves the leading runs to the cap and
# moved 2 of the 57, by at most 1.3e-10 in B_opt^2 (BENCH_19.json)
BFGS_TRAILING_TRIALS = 240


@dataclass(frozen=True)
class OptimizerConfig:
    """Restarts of ``minimize`` and ``minimize_many``.

    restarts       : number of starts; the first is the zero vector.
    seed           : seed for the restart draws, >= 0.

    Restarts below 1, a seed below 0 or either not an integer raises
    ``UniparamError`` (a ``ValueError``) here, not later inside numpy.  Every run, those
    of ``refine`` included, uses the two constants below.

    f_tol          : stop a run once a step gains, and the next promises,
                     less than this.
    simplex_scale  : edge length (radians) of the initial simplex, whose
                     lowest vertex is a run's first point.
    """

    f_tol: ClassVar[float] = 1e-10
    simplex_scale: ClassVar[float] = 0.5
    restarts: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        _count(self.restarts, "restarts", 1, error=UniparamError)
        _count(self.seed, "seed", 0, error=UniparamError)


@dataclass
class OptimizerResult:
    """Best point found, re-evaluated on return so value == values(x).

    ``values`` is the entry's values-only callable, the objective's own
    values by default.  ``iterations`` counts the accepted steps of every
    run that went into the result, including any seeded stage run after
    the restarts.
    ``evaluations`` counts the objective points evaluated: the simplex
    set-up, the trial points (each with its gradient) and the final
    re-evaluation, plus those of a seeded stage.  A run's lowest simplex
    vertex, evaluated again with its gradient, counts once.
    ``restart_values`` is the best value of each run in order, and
    ``best_restart`` the index of its winning entry, the run that gave
    ``x`` (-1 when no run was recorded).  The winner's entry is the
    re-evaluation, ``value``; the others are the values the runs stepped
    on, which may differ from a values-only evaluation of their points in
    the last bits.  ``calls`` counts the calls of the objective and of
    ``values`` in the run that produced the result: the simplex's value
    calls, the gradient call at the lowest vertices and the trial calls.
    The problems of one ``minimize_many`` or ``refine`` run share it, as
    do the states of one seeded stage, which adds its two locksteps' calls.
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


# objective(xs, owner) -> (values, gradient): row j of xs belongs to the problem with index
# owner[j], and gradient() gives the rows' (N, dim) gradients
Objective = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]
# values(xs, owner) -> the rows' values alone, for calls whose gradient is never read
Values = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _values(objective: Objective, values: Values | None) -> Values:
    """``values``, or when None the values of ``objective``, its closure dropped uncalled."""
    return (lambda xs, owner: objective(xs, owner)[0]) if values is None else values


def _bfgs(objective: Objective, starts: np.ndarray, owner: np.ndarray,
          cap: int, traces: list[list[float]] | None, values: Values | None = None
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One BFGS run from each row of ``starts``, all advanced in lockstep.

    ``objective(xs, owner)`` returns the values of the rows and a closure
    that gives their gradients, ``values(xs, owner)`` the values alone
    (see ``_values``).  The first call(s) score each start's simplex (the
    start and one vertex ``simplex_scale`` along each axis) by ``values``,
    and the run begins at its first lowest vertex: a gradient is 0 on a
    flat plateau, and a start there moves off it when a vertex does.  One
    objective call then evaluates every run's vertex again with its
    gradient, counted as one of its simplex points.  After it each call
    evaluates one pending trial point x + t d of every live run,
    d = -H g from the run's inverse-Hessian estimate H, starting at
    t = 1.  The line search
    is weak Wolfe, so monotone: a trial is accepted, as the run's next
    point and one iteration, when it meets Armijo's condition
    f(x + t d) <= f(x) + ARMIJO t g.d and its slope g'.d >= CURVATURE g.d;
    otherwise t is bisected within its bracket, or doubled while no trial
    has failed Armijo.  H is scaled to s.y / y.y at the first accepted step
    and then takes the BFGS update, skipped when s.y <= 0.  A run stops
    converged when its direction promises only round-off
    (-g.d <= ROUNDOFF |f|, a zero gradient included) or when an accepted
    step lowered f by less than ``f_tol`` and the next promises less
    than ``f_tol`` (-g.d < f_tol), both ``OptimizerConfig``'s.  It stops
    unconverged after BFGS_MAX_TRIALS trial points, after
    BFGS_TRAILING_TRIALS once a stopped run of its problem has a lower
    value, so it can no longer win, or at a kink: when its bracket no
    longer moves x, even along -g after H is reset.  Rows of a
    call are the live runs in run order, split into calls of ``cap``
    rows; rows within ``cap`` go to one call as they are.  The arithmetic
    only some runs need (H's first scaling, the bracket test of ``stuck``)
    is skipped in a step where no run needs it.  Returns
    each run's last point, its value, iterations, convergence flag and
    number of points evaluated, and the number of objective calls.
    """
    n_runs, dim = starts.shape
    f_tol = OptimizerConfig.f_tol
    values = _values(objective, values)
    calls = 0

    def evaluate(xs: np.ndarray, own: np.ndarray,
                 gradients: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        nonlocal calls
        if len(xs) > cap:
            # each chunk's closure is called or dropped before the next, so one chunk's
            # arrays are held at a time
            parts = [evaluate(xs[i:i + cap], own[i:i + cap], gradients)
                     for i in range(0, len(xs), cap)]
            return (np.concatenate([f for f, _ in parts]),
                    np.concatenate([g for _, g in parts]) if gradients else None)
        calls += 1
        if not gradients:
            return values(xs, own), None
        f, gradient = objective(xs, own)
        # in C order whatever order the gradient comes in: einsum's sums over a row follow
        # the memory order, and the same gradient must give the same run
        return f, np.ascontiguousarray(gradient().reshape(len(xs), dim))

    out_x, out_f = np.empty((n_runs, dim)), np.empty(n_runs)
    steps, evaluations = np.empty(n_runs, dtype=int), np.empty(n_runs, dtype=int)
    converged = np.zeros(n_runs, dtype=bool)

    # values alone score every run's simplex, and the run begins at its first
    # lowest vertex, where one call evaluates it again with its gradient
    eye = np.eye(dim)
    simplex = starts[:, None] + np.vstack([np.zeros(dim), OptimizerConfig.simplex_scale * eye])
    fs, _ = evaluate(simplex.reshape(-1, dim), np.repeat(owner, dim + 1), gradients=False)
    ids, own = np.arange(n_runs), owner
    x = simplex[ids, np.argmin(fs.reshape(n_runs, dim + 1), axis=1)]
    f, g = evaluate(x, own)
    h = np.repeat(eye[None], n_runs, axis=0)
    scaled = np.zeros(n_runs, dtype=bool)  # H has taken an update since it was last the identity
    d = -g
    slope = -np.einsum("ij,ij->i", g, g)
    t = np.ones(n_runs)
    iters, evals = np.zeros(n_runs, dtype=int), np.full(n_runs, dim + 1)
    if traces is not None:
        for r, value in enumerate(f.tolist()):
            traces[r].append(value)
    lead = np.full(owner.max(initial=-1) + 1, np.inf)  # per problem, its lowest stopped value
    lo, hi = np.zeros(n_runs), np.full(n_runs, np.inf)
    stop = flat = -slope <= ROUNDOFF * np.abs(f)
    while True:
        if np.count_nonzero(stop):
            gone = np.flatnonzero(stop)
            rid = ids[gone]
            out_x[rid], out_f[rid] = x[gone], f[gone]
            steps[rid], evaluations[rid] = iters[gone], evals[gone]
            converged[rid] = flat[gone]
            np.minimum.at(lead, owner[rid], out_f[rid])
            keep = ~stop
            ids, own, x, f, g, h, scaled, d, slope, t, lo, hi, iters, evals = (
                a[keep] for a in (ids, own, x, f, g, h, scaled, d, slope, t, lo, hi, iters,
                                  evals))
            if not ids.size:
                break

        trial = x + t[:, None] * d
        ft, gt = evaluate(trial, own)
        evals += 1
        # weak Wolfe line search: Armijo's sufficient decrease and a flatter slope at the trial
        armijo = ft <= f + ARMIJO * t * slope
        accept = armijo & (np.einsum("ij,ij->i", gt, d) >= CURVATURE * slope)
        hi = np.where(armijo, hi, t)
        lo = np.where(armijo & ~accept, t, lo)

        # accepted trials: the BFGS update of H (s.y > 0 by the curvature condition, up to
        # round-off), then the next direction from the new point
        s, y = trial - x, gt - g
        sy = np.einsum("ij,ij->i", s, y)
        update = accept & (sy > 0.0)
        if np.count_nonzero(update):
            u = np.flatnonzero(update)
            su, yu, syu = s[u], y[u], sy[u]
            first = ~scaled[u]
            hu = h[u]
            # kept: dropping it and the `closed` guard slowed distill-witness 1.5-7.4% (5/5 pairs)
            if np.count_nonzero(first):
                yy = np.einsum("ij,ij->i", yu[first], yu[first])
                hu[first] = eye * (syu[first] / yy)[:, None, None]
            hy = np.einsum("ijk,ik->ij", hu, yu)
            coef = (syu + np.einsum("ij,ij->i", yu, hy)) / (syu * syu)
            hu += (coef[:, None, None] * su[:, :, None] * su[:, None, :]
                   - (hy[:, :, None] * su[:, None, :] + su[:, :, None] * hy[:, None, :])
                   / syu[:, None, None])
            h[u] = hu
            scaled[u] = True
        decrease = np.where(accept, f - ft, np.inf)
        x = np.where(accept[:, None], trial, x)
        f = np.where(accept, ft, f)
        g = np.where(accept[:, None], gt, g)
        iters += accept
        if traces is not None:
            for r, value in zip(ids[accept].tolist(), f[accept].tolist()):
                traces[r].append(value)
        d_new = -np.einsum("ijk,ik->ij", h, g)
        slope_new = np.einsum("ij,ij->i", g, d_new)

        # the others bisect their bracket, or double t while no trial has failed Armijo; a
        # bracket that no longer moves x restarts along -g, or stops the run
        t = np.where(accept, 1.0, np.where(np.isinf(hi), 2.0 * lo, (lo + hi) / 2.0))
        # (only a closed bracket can stop moving x; an open one is still doubling t)
        stuck = closed = np.isfinite(hi)
        # kept: dropping it and the `first` guard slowed distill-witness 1.5-7.4% (seeds 2901-5)
        if np.count_nonzero(closed):
            width = np.where(closed, hi - lo, 0.0)
            stuck = ~accept & closed & np.all(np.abs(width[:, None] * d)
                                              <= ANGLE_RESOLUTION * (1.0 + np.abs(x)), axis=1)
        reset = (accept & ~(slope_new < 0.0)) | (stuck & scaled)
        d = np.where(accept[:, None], d_new, d)
        slope = np.where(accept, slope_new, slope)
        if np.count_nonzero(reset):
            h[reset] = eye
            scaled[reset] = False
            d[reset] = -g[reset]
            slope[reset] = -np.einsum("ij,ij->i", g[reset], g[reset])
            t[reset] = 1.0
        restart = accept | reset
        lo, hi = np.where(restart, 0.0, lo), np.where(restart, np.inf, hi)
        flat = restart & ((-slope <= ROUNDOFF * np.abs(f))
                          | ((decrease < f_tol) & (-slope < f_tol)))
        stop = (flat | (stuck & ~reset) | (evals > dim + BFGS_MAX_TRIALS)
                | ((evals > dim + BFGS_TRAILING_TRIALS) & (lead[own] < f)))

    return out_x, out_f, steps, converged, evaluations, calls


def _solve(objective: Objective, starts: np.ndarray, keep_history: bool,
           values: Values | None) -> list[OptimizerResult]:
    """R runs for each of P problems from the (P, R, dim) ``starts``, in one ``_bfgs`` lockstep.

    Per problem, its first run with the lowest value wins, and one
    ``values`` call evaluates the P winners again, the value the result
    reports and lists for the winner.  No objective call takes more than
    R * (dim + 1) rows, one problem's simplex set-up.  No problems take no
    call, and with dim 0 one ``values`` call gives the constants.
    """
    n_problems, n_runs, dim = starts.shape
    values = _values(objective, values)
    if not n_problems:
        return []
    if dim == 0:
        x = np.zeros(0)
        constants = values(np.zeros((n_problems, 0)), np.arange(n_problems))
        return [OptimizerResult(value, x, 0, 0, True,
                                history=() if keep_history else None, evaluations=1)
                for value in constants.tolist()]
    traces: list[list[float]] | None = (
        [[] for _ in range(n_problems * n_runs)] if keep_history else None)
    owner = np.repeat(np.arange(n_problems), n_runs)
    *runs, calls = _bfgs(objective, starts.reshape(-1, dim), owner, n_runs * (dim + 1), traces,
                         values)
    x, fx, iters, converged, evaluations = (
        a.reshape(n_problems, n_runs, *a.shape[1:]) for a in runs)
    problems = np.arange(n_problems)
    best = np.argmin(fx, axis=1)
    results = []
    for p, (b, value) in enumerate(zip(best.tolist(),
                                       values(x[problems, best], problems).tolist())):
        runs = slice(p * n_runs, (p + 1) * n_runs)
        history = None if traces is None else tuple(map(tuple, traces[runs]))
        restart_values = fx[p].tolist()
        restart_values[b] = value
        results.append(OptimizerResult(
            value, x[p, b], int(iters[p].sum()), n_runs, bool(converged[p, b]),
            history=history, evaluations=int(evaluations[p].sum()) + 1,
            restart_values=tuple(restart_values), best_restart=b, calls=calls))
    return results


def minimize_many(objective: Objective, dim: int, cfgs: Sequence[OptimizerConfig],
                  keep_history: bool = False, *, values: Values | None = None
                  ) -> list[OptimizerResult]:
    """``minimize`` for several problems over R^dim at once, one result per problem.

    Problem i is the rows that ``objective`` gets with owner i, minimized
    with the restarts of ``cfgs[i]``; the configs may differ only in
    ``seed``.  The runs of all problems step in one lockstep, and each
    result equals that of ``minimize`` on its problem alone.
    """
    cfgs = list(cfgs)
    dim = _count(dim, "dim", 0, error=UniparamError)
    if not cfgs:
        return []
    # cfgs[0] is tested first, so its restarts are read only once it is a config
    if not all(isinstance(c, OptimizerConfig) and c.restarts == cfgs[0].restarts for c in cfgs):
        raise UniparamError("configs must be OptimizerConfig instances differing only in seed")
    starts = np.zeros((len(cfgs), cfgs[0].restarts, dim))
    for s, cfg in zip(starts, cfgs):
        s[1:] = np.random.default_rng(cfg.seed).uniform(0.0, TWO_PI, (cfg.restarts - 1, dim))
    return _solve(objective, starts, keep_history, values)


def minimize(objective: Objective, dim: int, cfg: OptimizerConfig | None = None,
             keep_history: bool = False, *, values: Values | None = None) -> OptimizerResult:
    """Minimize ``objective`` over R^dim with restarted BFGS.

    ``objective`` gets every row with owner 0, and so does ``values``, the
    values-only callable of the simplex scoring and the re-evaluation (the
    objective's own values when None).  ``dim == 0`` evaluates the
    constant objective once and returns.  The result is the best point
    over all restarts; ``converged`` reports whether the restart that
    produced it stopped on a gain or promise below round-off or ``f_tol``,
    not on a cap or a kink.  ``keep_history`` records each restart's value
    at its first point and after every accepted step.  ``cfg`` None runs
    the default ``OptimizerConfig()``.
    """
    return minimize_many(objective, dim, [OptimizerConfig() if cfg is None else cfg],
                         keep_history, values=values)[0]


def refine(objective: Objective, starts: np.ndarray, *,
           values: Values | None = None) -> list[OptimizerResult]:
    """One BFGS run from each row of the (P, dim) ``starts``, row p on problem p.

    The runs step in one lockstep.  Each result reports one restart and
    is re-evaluated like that of ``minimize``, by ``values`` as there.
    No starts give no results and no call; zero-width starts give the
    constants, with restarts 0, that ``minimize_many`` gives over R^0.
    """
    try:
        starts = np.asarray(starts, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged lists, strings, objects
        raise UniparamError(f"starts must be a (P, dim) array of numbers ({exc})") from exc
    if starts.ndim != 2:
        raise UniparamError(f"starts must be a (P, dim) array, got shape {starts.shape}")
    if not np.isfinite(starts).all():
        raise NonFiniteError("starts have a NaN or infinite entry")
    return _solve(objective, starts[:, None], False, values)
