import itertools
from dataclasses import replace

import numpy as np
import pytest

from uniparam import OptimizerConfig, OptimizerResult, minimize, minimize_many, refine
from helpers import nelder_mead_reference


def quadratic(x):
    return float(np.sum((x - 1.0) ** 2))


def test_quadratic_minimum():
    result = minimize(quadratic, 4, OptimizerConfig(restarts=2, seed=0))
    assert result.value < 1e-8
    assert np.max(np.abs(result.x - 1.0)) < 1e-3
    assert result.converged


def test_dim_zero_returns_constant():
    result = minimize(lambda x: 7.5, 0)
    assert result.value == 7.5
    assert result.iterations == 0
    assert result.restarts == 0
    assert result.x.size == 0


def test_deterministic_replay():
    cfg = OptimizerConfig(max_iterations=300, restarts=4, seed=123)
    a = minimize(quadratic, 3, cfg)
    b = minimize(quadratic, 3, cfg)
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


def test_first_restart_starts_at_zero():
    seen = []

    def probe(x):
        seen.append(x.copy())
        return quadratic(x)

    minimize(probe, 3, OptimizerConfig(max_iterations=1, restarts=1, seed=0))
    assert np.array_equal(seen[0], np.zeros(3))


def test_history_monotone_within_restart():
    cfg = OptimizerConfig(max_iterations=500, restarts=3, seed=7)
    result = minimize(quadratic, 5, cfg, keep_history=True)
    assert result.history is not None and len(result.history) == 3
    for trace in result.history:
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-15)


def test_best_monotone_in_restart_count():
    def rugged(x):
        return float(np.sum(np.sin(3 * x) ** 2) + 0.01 * np.sum((x - 2.0) ** 2))

    values = []
    for restarts in (1, 3, 6, 10):
        cfg = OptimizerConfig(max_iterations=400, restarts=restarts, seed=5)
        values.append(minimize(rugged, 4, cfg).value)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_result_value_matches_objective():
    result = minimize(quadratic, 3, OptimizerConfig(restarts=2, seed=9))
    assert abs(result.value - quadratic(result.x)) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(f_tol=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(simplex_scale=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        minimize(quadratic, -1)


def test_result_fields():
    result = minimize(quadratic, 2, OptimizerConfig(max_iterations=50, restarts=2, seed=3))
    assert isinstance(result, OptimizerResult)
    assert result.iterations > 0
    assert result.restarts == 2


def test_refine_runs_once_from_start():
    seen = []

    def probe(x):
        seen.append(x.copy())
        return quadratic(x)

    start = np.array([3.0, -2.0, 0.5])
    cfg = OptimizerConfig(restarts=5, seed=11)
    result = refine(probe, start, cfg)
    assert np.array_equal(seen[0], start)
    assert result.restarts == 1
    assert result.value == quadratic(result.x)
    assert result.value < 1e-8
    again = refine(quadratic, start, cfg)
    assert np.array_equal(again.x, result.x)
    assert again.iterations == result.iterations


def rugged(x):
    return float(np.sum(np.sin(3 * x) ** 2) + 0.01 * np.sum((x - 2.0) ** 2))


def test_evaluation_telemetry():
    seen = []

    def probe(x):
        seen.append(x.copy())
        return rugged(x)

    cfg = OptimizerConfig(max_iterations=150, restarts=4, seed=8)
    result = minimize(probe, 3, cfg)
    assert result.evaluations == len(seen)
    assert len(result.restart_values) == cfg.restarts
    assert result.restart_values[result.best_restart] == min(result.restart_values)
    assert result.best_restart == result.restart_values.index(min(result.restart_values))
    assert result.value == probe(result.x)

    seen.clear()
    one = refine(probe, np.ones(3), cfg)
    assert one.evaluations == len(seen)
    assert one.best_restart == 0 and len(one.restart_values) == 1

    constant = minimize(lambda x: 2.0, 0)
    assert constant.evaluations == 1
    assert constant.restart_values == () and constant.best_restart == -1
    # results built by hand keep the old positional fields only
    bare = OptimizerResult(1.0, np.zeros(1), 3, 1, True)
    assert bare.evaluations == 0 and bare.restart_values == () and bare.best_restart == -1


def rowwise(fn):
    return lambda xs: np.array([fn(x) for x in xs])


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize("fn, dim, max_iterations", [
    (quadratic, 1, 2000), (rugged, 3, 40), (rugged, 6, 2000), (quadratic, 5, 25),
])
def test_minimize_matches_reference_loop(fn, dim, max_iterations, batched):
    # lockstep restarts give what separate one-at-a-time runs of the textbook loop give
    cfg = OptimizerConfig(max_iterations=max_iterations, restarts=5, seed=dim)
    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(dim)] + [rng.uniform(0.0, 2 * np.pi, dim) for _ in range(4)]
    runs = [nelder_mead_reference(fn, s, cfg.simplex_scale, max_iterations, cfg.f_tol)
            for s in starts]
    best = min(range(5), key=lambda r: runs[r][1])
    for start, run in zip(starts, runs):
        alone = refine(fn, start, cfg)
        assert np.array_equal(alone.x, run[0])
        assert (alone.value, alone.iterations, alone.converged) == run[1:4]

    calls = []

    def scalar(x):
        calls.append(x.copy())
        return fn(x)

    result = minimize(scalar, dim, cfg, keep_history=True,
                      batch=rowwise(fn) if batched else None)
    if batched:
        assert len(calls) == 1  # only the final re-evaluation
    assert np.array_equal(result.x, runs[best][0])
    assert result.value == runs[best][1]
    assert result.iterations == sum(r[2] for r in runs)
    assert result.converged == runs[best][3]
    assert result.history == tuple(r[4] for r in runs)


def starts_of(cfg, dim):
    rng = np.random.default_rng(cfg.seed)
    return [np.zeros(dim)] + [rng.uniform(0.0, 2 * np.pi, dim) for _ in range(cfg.restarts - 1)]


def jagged(x):
    # rugged enough that Nelder-Mead shrinks
    return float(np.sum(np.sin(20 * x) ** 2) + 0.01 * np.sum((x - 2.0) ** 2))


def reference_rounds(fn, starts, cfg):
    """Each run's points in the rounds of the staggered core, from the textbook loop.

    A round is the simplex set-up, a reflection, an expansion or
    contraction, or the dim shrink vertices of one step: a maximal stretch
    of a run's log with one (step, phase).  Also returns the (step, phase)
    groups of all runs, one call each under a per-phase lockstep schedule.
    """
    runs, groups = [], set()
    for start in starts:
        log = []
        nelder_mead_reference(fn, start, cfg.simplex_scale, cfg.max_iterations, cfg.f_tol, log)
        runs.append([[x for _, _, x in entries]
                     for _, entries in itertools.groupby(log, key=lambda e: e[:2])])
        groups.update((step, phase) for step, phase, _ in log)
    return runs, groups


def expected_calls(runs, owners, cap):
    """Round k of every run that has one, in run order, cut into calls of ``cap`` rows."""
    calls = []
    for k in range(max(map(len, runs))):
        rows = [(x, o) for run, o in zip(runs, owners) if k < len(run) for x in run[k]]
        calls += [rows[i:i + cap] for i in range(0, len(rows), cap)]
    return calls


@pytest.mark.parametrize("fn, dim, max_iterations", [(jagged, 3, 200), (quadratic, 4, 2000)])
def test_one_problem_call_sequence(fn, dim, max_iterations):
    # call k evaluates the k-th round of every run still live, in restart order:
    # first the simplex set-ups, then each run's pending point or shrink vertices
    cfg = OptimizerConfig(max_iterations=max_iterations, restarts=4, seed=2)
    runs, groups = reference_rounds(fn, starts_of(cfg, dim), cfg)
    if fn is jagged:
        assert any(phase == 2 for _, phase in groups)

    calls = []

    def batch(xs):
        calls.append(xs.copy())
        return rowwise(fn)(xs)

    result = minimize(fn, dim, cfg, batch=batch)
    expected = expected_calls(runs, [0] * cfg.restarts, cfg.restarts * (dim + 1))
    assert len(expected) == max(map(len, runs)) < len(groups)
    assert result.calls == len(calls) == len(expected)
    for call, rows in zip(calls, expected):
        assert np.array_equal(call, np.array([x for x, _ in rows]))


def test_many_problem_call_sequence():
    # three problems: the set-up round is three problems' worth of rows and splits
    # into calls of one problem's set-up, the cap; later rounds are cut the same way
    dim = 3
    cfgs = [OptimizerConfig(max_iterations=200, restarts=4, seed=s) for s in (6, 7, 8)]
    shifts = np.array([0.0, 1.5, -1.0])
    objectives = [lambda x, shift=shift: jagged(x - shift) for shift in shifts]
    runs, owners, groups = [], [], set()
    for o, (cfg, fn) in enumerate(zip(cfgs, objectives)):
        r, g = reference_rounds(fn, starts_of(cfg, dim), cfg)
        runs += r
        owners += [o] * cfg.restarts
        groups |= g

    calls = []

    def batch(xs, owner):
        calls.append((xs.copy(), owner.copy()))
        return np.array([jagged(x - shifts[o]) for x, o in zip(xs, owner)])

    results = minimize_many(objectives, dim, cfgs, batch=batch)
    cap = cfgs[0].restarts * (dim + 1)
    expected = expected_calls(runs, owners, cap)
    assert len(calls) == len(expected) < len(groups)
    assert all(r.calls == len(calls) for r in results)
    assert [len(xs) for xs, _ in calls[:3]] == [cap] * 3
    for (xs, owner), rows in zip(calls, expected):
        assert np.array_equal(xs, np.array([x for x, _ in rows]))
        assert owner.tolist() == [o for _, o in rows]


def counting(fn, calls):
    def batch(xs, *owner):
        calls.append(len(xs))
        return np.array([fn(x) for x in xs])

    return batch


def test_calls_count_batched_objective_calls():
    cfg = OptimizerConfig(max_iterations=150, restarts=4, seed=8)
    calls = []
    result = minimize(rugged, 3, cfg, batch=counting(rugged, calls))
    assert result.calls == len(calls) > 0
    assert sum(calls) + 1 == result.evaluations
    # the scalar path runs the same rounds, one call of the row-wise batch each
    assert minimize(rugged, 3, cfg).calls == result.calls

    calls.clear()
    one = refine(rugged, np.ones(3), cfg, batch=counting(rugged, calls))
    assert one.calls == len(calls) > 0
    assert sum(calls) + 1 == one.evaluations

    calls.clear()
    cfgs = [replace(cfg, seed=s) for s in (1, 2, 3)]
    many = minimize_many([rugged] * 3, 3, cfgs, batch=counting(rugged, calls))
    # the problems share one run, so each reports all of its calls
    assert [r.calls for r in many] == [len(calls)] * 3
    assert sum(calls) + 3 == sum(r.evaluations for r in many)
    assert len(calls) < sum(minimize(rugged, 3, c).calls for c in cfgs)

    assert minimize(lambda x: 1.0, 0).calls == 0
    assert OptimizerResult(1.0, np.zeros(1), 3, 1, True).calls == 0


def test_minimize_many_equals_separate_runs_and_caps_rows():
    dim = 3
    cfgs = [OptimizerConfig(max_iterations=200, restarts=4, seed=s) for s in (1, 2, 3, 4, 5)]
    shifts = np.array([0.0, 1.0, -2.0, 0.5, 3.0])

    def problem(shift):
        return lambda x: rugged(x - shift)

    objectives = [problem(s) for s in shifts]
    sizes = []

    def batch(xs, owner):
        sizes.append(len(xs))
        return np.array([rugged(x - shifts[o]) for x, o in zip(xs, owner)])

    many = minimize_many(objectives, dim, cfgs, keep_history=True, batch=batch)
    # the set-up alone is 5 problems x 4 restarts x 4 vertices = 80 rows
    assert max(sizes) <= cfgs[0].restarts * (dim + 1) < 80
    assert sum(sizes) + len(cfgs) == sum(r.evaluations for r in many)
    rowwise_many = minimize_many(objectives, dim, cfgs, keep_history=True)
    for f, cfg, result, plain in zip(objectives, cfgs, many, rowwise_many):
        alone = minimize(f, dim, cfg, keep_history=True)
        for r in (result, plain):
            assert np.array_equal(r.x, alone.x)
            assert ((r.value, r.iterations, r.restarts, r.converged, r.history, r.evaluations,
                     r.restart_values, r.best_restart)
                    == (alone.value, alone.iterations, alone.restarts, alone.converged,
                        alone.history, alone.evaluations, alone.restart_values,
                        alone.best_restart))


def test_minimize_many_config_checks():
    cfg = OptimizerConfig(restarts=2)
    assert minimize_many([], 3, []) == []
    with pytest.raises(ValueError):
        minimize_many([quadratic, quadratic], 3, [cfg, replace(cfg, restarts=3)])
    with pytest.raises(ValueError):
        minimize_many([quadratic], 3, [cfg, cfg])
    constant = minimize_many([lambda x: 1.0, lambda x: 2.0], 0, [cfg, replace(cfg, seed=4)])
    assert [r.value for r in constant] == [1.0, 2.0]
