from dataclasses import fields, replace

import numpy as np
import pytest

from uniparam import OptimizerConfig, OptimizerResult, minimize, minimize_many, refine
from uniparam.errors import NonFiniteError, UniparamError
from uniparam.optimize import BFGS_MAX_TRIALS
from helpers import restart_starts


def quadratic(x):
    return float(np.sum((x - 1.0) ** 2))


def rugged(x):
    return float(np.sum(np.sin(3 * x) ** 2) + 0.01 * np.sum((x - 2.0) ** 2))


def rugged_grad(xs, owner=None):
    return (np.sum(np.sin(3 * xs) ** 2, axis=1) + 0.01 * np.sum((xs - 2.0) ** 2, axis=1),
            3 * np.sin(6 * xs) + 0.02 * (xs - 2.0))


def quadratic_grad(xs, owner=None):
    return np.sum((xs - 1.0) ** 2, axis=1), 2.0 * (xs - 1.0)


def lazy(gradient):
    """The objective form the optimizers take, (values, closure), of a (values, gradients) one."""

    def objective(xs, owner):
        values, gradients = gradient(xs, owner)
        return values, lambda: gradients

    return objective


QUADRATIC = lazy(quadratic_grad)
RUGGED = lazy(rugged_grad)


def constant(value):
    """An objective over R^0 (or any R^dim) that is ``value`` everywhere."""
    return lazy(lambda xs, owner: (np.full(len(xs), value), np.zeros(xs.shape)))


def counting(objective, calls):
    """``objective``, recording the number of rows of each call in ``calls``."""

    def counted(xs, owner):
        calls.append(len(xs))
        return objective(xs, owner)

    return counted


def test_quadratic_minimum():
    result = minimize(QUADRATIC, 4, OptimizerConfig(restarts=2, seed=0))
    assert result.value < 1e-8
    assert np.max(np.abs(result.x - 1.0)) < 1e-3
    assert result.converged


def test_dim_zero_returns_constant():
    result = minimize(constant(7.5), 0)
    assert result.value == 7.5
    assert result.iterations == 0
    assert result.restarts == 0
    assert result.x.size == 0


def test_deterministic_replay():
    cfg = OptimizerConfig(restarts=4, seed=123)
    a = minimize(QUADRATIC, 3, cfg)
    b = minimize(QUADRATIC, 3, cfg)
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


def test_first_restart_starts_at_zero():
    seen = []

    def probe(xs, owner):
        seen.append(xs.copy())
        return QUADRATIC(xs, owner)

    minimize(probe, 3, OptimizerConfig(restarts=1, seed=0))
    assert np.array_equal(seen[0][0], np.zeros(3))


def test_history_monotone_within_restart():
    cfg = OptimizerConfig(restarts=3, seed=7)
    result = minimize(QUADRATIC, 5, cfg, keep_history=True)
    assert result.history is not None and len(result.history) == 3
    for trace in result.history:
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-15)


def test_best_monotone_in_restart_count():
    values = []
    for restarts in (1, 3, 6, 10):
        cfg = OptimizerConfig(restarts=restarts, seed=5)
        values.append(minimize(RUGGED, 4, cfg).value)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_result_value_matches_objective():
    result = minimize(QUADRATIC, 3, OptimizerConfig(restarts=2, seed=9))
    assert abs(result.value - quadratic(result.x)) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        minimize(QUADRATIC, -1)


@pytest.mark.parametrize("field, value", [
    ("restarts", 1.5),
    ("restarts", 2.0),
    ("restarts", True),
    ("seed", 0.5),
    ("seed", -1),
])
def test_config_rejects_values_that_only_fail_later(field, value):
    # restarts=1.5 failed inside np.zeros and seed=-1 inside numpy's generator, both at minimize
    # time
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


@pytest.mark.parametrize("dim", [2.5, 2.0, True])
def test_non_integer_dim_raises_uniparam_error(dim):
    # these ended in numpy's bare TypeError
    with pytest.raises(UniparamError, match="dim"):
        minimize(QUADRATIC, dim)
    with pytest.raises(UniparamError, match="dim"):
        minimize_many(QUADRATIC, dim, [OptimizerConfig()])


def test_bad_settings_raise_uniparam_error():
    for bad in ({"restarts": 0}, {"restarts": 1.5}, {"seed": -1}, {"seed": True}):
        with pytest.raises(UniparamError):
            OptimizerConfig(**bad)
    with pytest.raises(UniparamError):
        minimize(QUADRATIC, -1)


BAD_ENTRY_CALLS = {
    "minimize config 5": (UniparamError, lambda: minimize(QUADRATIC, 2, 5)),
    "minimize_many config None": (UniparamError, lambda: minimize_many(QUADRATIC, 2, [None])),
    "minimize_many config 5 first": (
        UniparamError, lambda: minimize_many(QUADRATIC, 2, [5, OptimizerConfig()])),
    "minimize_many restarts differ": (
        UniparamError, lambda: minimize_many(QUADRATIC, 2, [OptimizerConfig(restarts=2),
                                                            OptimizerConfig(restarts=3)])),
    "refine vector": (UniparamError, lambda: refine(QUADRATIC, np.zeros(2))),
    "refine nan": (NonFiniteError, lambda: refine(QUADRATIC, [[np.nan, 1.0]])),
    "refine inf": (NonFiniteError, lambda: refine(QUADRATIC, [[1.0, -np.inf]])),
}
# these ran the default config, or let numpy's bare ValueError out
FALSY_OR_UNCONVERTIBLE_ENTRY_CALLS = {
    "minimize config 0": lambda: minimize(QUADRATIC, 2, 0),
    "minimize config empty list": lambda: minimize(QUADRATIC, 2, []),
    "refine string": lambda: refine(QUADRATIC, "abc"),
    "refine ragged": lambda: refine(QUADRATIC, [[1, 2], [3]]),
}


@pytest.mark.parametrize("case", sorted(FALSY_OR_UNCONVERTIBLE_ENTRY_CALLS))
def test_falsy_configs_and_unconvertible_starts_raise_uniparam_error(case):
    with pytest.raises(UniparamError) as caught:
        FALSY_OR_UNCONVERTIBLE_ENTRY_CALLS[case]()
    assert caught.type is UniparamError


@pytest.mark.parametrize("case", sorted(BAD_ENTRY_CALLS))
def test_bad_entry_calls_raise_package_errors(case):
    # configs that are not OptimizerConfig ended in dataclasses.replace's bare TypeError, the
    # two checks raised a bare ValueError, and a NaN start gave a NaN result
    error, call = BAD_ENTRY_CALLS[case]
    with pytest.raises(error):
        call()


def test_config_takes_only_restarts_and_seed():
    # the step cap could never bind (a run takes at most BFGS_MAX_TRIALS steps), and the
    # tolerance and simplex scale are constants every run shares, refine's included
    for field in ("max_iterations", "f_tol", "simplex_scale"):
        with pytest.raises(TypeError):
            OptimizerConfig(**{field: 1})
    with pytest.raises(TypeError):
        refine(QUADRATIC, np.zeros((1, 2)), OptimizerConfig())
    assert [f.name for f in fields(OptimizerConfig)] == ["restarts", "seed"]
    assert (OptimizerConfig().f_tol, OptimizerConfig().simplex_scale) == (1e-10, 0.5)


def test_config_accepts_numpy_integers():
    cfg = OptimizerConfig(restarts=np.int32(2), seed=np.uint32(7))
    assert minimize(QUADRATIC, 2, cfg).restarts == 2


def test_result_fields():
    result = minimize(QUADRATIC, 2, OptimizerConfig(restarts=2, seed=3))
    assert isinstance(result, OptimizerResult)
    assert result.iterations > 0
    assert result.restarts == 2


def test_refine_runs_once_from_start():
    seen = []

    def probe(xs, owner):
        seen.append(xs.copy())
        return QUADRATIC(xs, owner)

    start = np.array([[3.0, -2.0, 0.5]])
    (result,) = refine(probe, start)
    assert np.array_equal(seen[0][0], start[0])
    assert result.restarts == 1
    assert result.value == quadratic_grad(result.x[None])[0][0]
    assert result.value < 1e-8
    (again,) = refine(QUADRATIC, start)
    assert np.array_equal(again.x, result.x)
    assert again.iterations == result.iterations
    # several starts are several problems in one lockstep, each run as it runs alone
    starts = np.array(restart_starts(OptimizerConfig(restarts=4, seed=2), 3))
    many = refine(RUGGED, starts)
    assert len(many) == len(starts)
    for row, r in zip(starts, many):
        (alone,) = refine(RUGGED, row[None])
        assert np.array_equal(r.x, alone.x)
        assert ((r.value, r.iterations, r.evaluations, r.restart_values, r.best_restart)
                == (alone.value, alone.iterations, alone.evaluations, alone.restart_values,
                    alone.best_restart))
    with pytest.raises(ValueError):
        refine(QUADRATIC, start[0])


def test_evaluation_telemetry():
    rows = []
    cfg = OptimizerConfig(restarts=4, seed=8)
    result = minimize(counting(RUGGED, rows), 3, cfg)
    # every row counts once, but for each run's lowest vertex, evaluated again with its gradient
    assert result.evaluations == sum(rows) - cfg.restarts
    assert len(result.restart_values) == cfg.restarts
    assert result.restart_values[result.best_restart] == min(result.restart_values)
    assert result.best_restart == result.restart_values.index(min(result.restart_values))
    assert result.value == rugged_grad(result.x[None])[0][0]

    rows.clear()
    (one,) = refine(counting(RUGGED, rows), np.ones((1, 3)))
    assert one.evaluations == sum(rows) - 1
    assert one.best_restart == 0 and len(one.restart_values) == 1

    constant_result = minimize(constant(2.0), 0)
    assert constant_result.evaluations == 1
    assert constant_result.restart_values == () and constant_result.best_restart == -1
    # results built by hand keep the old positional fields only
    bare = OptimizerResult(1.0, np.zeros(1), 3, 1, True)
    assert bare.evaluations == 0 and bare.restart_values == () and bare.best_restart == -1


def rowwise(gradient):
    """``gradient`` evaluated one row at a time, as a scalar objective would be."""

    def one_at_a_time(xs, owner=None):
        rows = [gradient(x[None]) for x in xs]
        return (np.array([values[0] for values, _ in rows]).reshape(len(xs)),
                np.array([grads[0] for _, grads in rows]).reshape(xs.shape))

    return one_at_a_time


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize("fn, dim", [
    (quadratic_grad, 1), (rugged_grad, 3), (rugged_grad, 6), (quadratic_grad, 5),
], ids=["quadratic-1", "rugged-3", "rugged-6", "quadratic-5"])
def test_minimize_matches_reference_loop(fn, dim, batched):
    # lockstep restarts give what separate one-at-a-time runs from the same starts give, and an
    # objective that evaluates its rows one by one gives what the batched one gives
    objective = lazy(fn if batched else rowwise(fn))
    cfg = OptimizerConfig(restarts=5, seed=dim)
    alone = [refine(objective, start[None])[0] for start in restart_starts(cfg, dim)]
    best = min(range(5), key=lambda r: alone[r].value)
    result = minimize(objective, dim, cfg, keep_history=True)
    assert np.array_equal(result.x, alone[best].x)
    assert result.restart_values == tuple(r.value for r in alone)
    assert (result.value, result.best_restart, result.converged) == (
        alone[best].value, best, alone[best].converged)
    assert result.iterations == sum(r.iterations for r in alone)
    assert result.evaluations == sum(r.evaluations - 1 for r in alone) + 1
    other = minimize(lazy(rowwise(fn) if batched else fn), dim, cfg, keep_history=True)
    assert_same_result(result, other)
    assert result.calls == other.calls


def jagged_grad(xs, owner=None):
    # rugged enough that BFGS runs take many trials
    return (np.sum(np.sin(20 * xs) ** 2, axis=1) + 0.01 * np.sum((xs - 2.0) ** 2, axis=1),
            20 * np.sin(40 * xs) + 0.02 * (xs - 2.0))


def rounds_alone(objective, start):
    """The rows a BFGS run from ``start`` evaluates alone, one list per call.

    Its simplex, then its lowest vertex, then one trial point per call;
    the call that re-evaluates the result is left out.
    """
    calls = []

    def recording(xs, owner):
        calls.append(list(xs))
        return objective(xs, owner)

    refine(recording, start[None])
    return calls[:-1]


def expected_calls(runs, owners, cap):
    """Round k of every run that has one, in run order, cut into calls of ``cap`` rows."""
    calls = []
    for k in range(max(map(len, runs))):
        rows = [(x, o) for run, o in zip(runs, owners) if k < len(run) for x in run[k]]
        calls += [rows[i:i + cap] for i in range(0, len(rows), cap)]
    return calls


@pytest.mark.parametrize("fn, dim", [(jagged_grad, 3), (quadratic_grad, 4)],
                         ids=["jagged-3", "quadratic-4"])
def test_one_problem_call_sequence(fn, dim):
    # call k evaluates the k-th round of every run still live, in restart order: first the
    # simplex set-ups, then each run's lowest vertex, then each run's pending trial point
    cfg = OptimizerConfig(restarts=4, seed=2)
    runs = [rounds_alone(lazy(fn), start) for start in restart_starts(cfg, dim)]
    calls = []

    def recording(xs, owner):
        calls.append(xs.copy())
        return lazy(fn)(xs, owner)

    result = minimize(recording, dim, cfg)
    expected = expected_calls(runs, [0] * cfg.restarts, cfg.restarts * (dim + 1))
    assert len(expected) == max(map(len, runs)) > 2
    assert result.calls == len(calls) - 1 == len(expected)
    for call, rows in zip(calls, expected):
        assert np.array_equal(call, np.array([x for x, _ in rows]))
    assert np.array_equal(calls[-1], result.x[None])


def test_many_problem_call_sequence():
    # three problems: the set-up round is three problems' worth of rows and splits into calls
    # of one problem's set-up, the cap; later rounds are cut the same way
    dim = 3
    cfgs = [OptimizerConfig(restarts=4, seed=s) for s in (6, 7, 8)]
    shifts = np.array([0.0, 1.5, -1.0])

    def shifted(xs, owner):
        return jagged_grad(xs - shifts[owner][:, None])

    runs, owners = [], []
    for o, cfg in enumerate(cfgs):
        alone = lazy(lambda xs, owner, o=o: shifted(xs, np.full(len(xs), o)))
        runs += [rounds_alone(alone, start) for start in restart_starts(cfg, dim)]
        owners += [o] * cfg.restarts

    calls = []

    def recording(xs, owner):
        calls.append((xs.copy(), owner.copy()))
        return lazy(shifted)(xs, owner)

    results = minimize_many(recording, dim, cfgs)
    cap = cfgs[0].restarts * (dim + 1)
    expected = expected_calls(runs, owners, cap)
    assert len(calls) - 1 == len(expected)
    assert all(r.calls == len(expected) for r in results)
    assert [len(xs) for xs, _ in calls[:3]] == [cap] * 3
    for (xs, owner), rows in zip(calls, expected):
        assert np.array_equal(xs, np.array([x for x, _ in rows]))
        assert owner.tolist() == [o for _, o in rows]
    assert calls[-1][1].tolist() == [0, 1, 2]


def test_calls_count_batched_objective_calls():
    cfg = OptimizerConfig(restarts=4, seed=8)
    calls = []
    result = minimize(counting(RUGGED, calls), 3, cfg)
    # the last call re-evaluates the result and is not part of the run
    assert result.calls == len(calls) - 1 > 0
    assert sum(calls) - cfg.restarts == result.evaluations

    calls.clear()
    (one,) = refine(counting(RUGGED, calls), np.ones((1, 3)))
    assert one.calls == len(calls) - 1 > 0
    assert sum(calls) - 1 == one.evaluations

    calls.clear()
    cfgs = [replace(cfg, seed=s) for s in (1, 2, 3)]
    many = minimize_many(counting(RUGGED, calls), 3, cfgs)
    # the problems share one run, so each reports all of its calls
    assert [r.calls for r in many] == [len(calls) - 1] * 3
    assert sum(calls) - 3 * cfg.restarts == sum(r.evaluations for r in many)
    assert len(calls) - 1 < sum(minimize(RUGGED, 3, c).calls for c in cfgs)

    assert minimize(constant(1.0), 0).calls == 0
    assert OptimizerResult(1.0, np.zeros(1), 3, 1, True).calls == 0


def assert_same_result(a, b):
    assert np.array_equal(a.x, b.x)
    assert ((a.value, a.iterations, a.restarts, a.converged, a.history, a.evaluations,
             a.restart_values, a.best_restart)
            == (b.value, b.iterations, b.restarts, b.converged, b.history, b.evaluations,
                b.restart_values, b.best_restart))


def test_minimize_many_equals_separate_runs_and_caps_rows():
    dim = 3
    cfgs = [OptimizerConfig(restarts=4, seed=s) for s in (1, 2, 3, 4, 5)]
    shifts = np.array([0.0, 1.0, -2.0, 0.5, 3.0])
    sizes = []

    def objective(xs, owner):
        sizes.append(len(xs))
        return RUGGED(xs - shifts[owner][:, None], owner)

    many = minimize_many(objective, dim, cfgs, keep_history=True)
    # the set-up alone is 5 problems x 4 restarts x 4 vertices = 80 rows
    assert max(sizes) <= cfgs[0].restarts * (dim + 1) < 80
    # every row counts once, but for each run's lowest vertex, evaluated again with its gradient
    assert sum(sizes) - len(cfgs) * cfgs[0].restarts == sum(r.evaluations for r in many)
    for i, (cfg, result) in enumerate(zip(cfgs, many)):
        alone = minimize(lambda xs, owner, i=i: objective(xs, np.full(len(xs), i)), dim, cfg,
                         keep_history=True)
        assert_same_result(result, alone)


def test_minimize_many_config_checks():
    cfg = OptimizerConfig(restarts=2)
    assert minimize_many(QUADRATIC, 3, []) == []
    with pytest.raises(ValueError):
        minimize_many(QUADRATIC, 3, [cfg, replace(cfg, restarts=3)])
    with pytest.raises(ValueError):
        minimize_many(QUADRATIC, -1, [cfg])
    # over R^0 each problem's constant is evaluated once, with its owner
    per_owner = lazy(lambda xs, owner: (owner + 1.0, np.zeros(xs.shape)))
    constants = minimize_many(per_owner, 0, [cfg, replace(cfg, seed=4)])
    assert [r.value for r in constants] == [1.0, 2.0]


def test_refine_no_starts_calls_nothing():
    # a lockstep of no runs never reached its stop branch, so this looped forever
    def never(xs, owner):
        raise AssertionError("objective called")

    assert refine(never, np.zeros((0, 3))) == []
    assert refine(never, np.zeros((0, 3)), values=never) == []


def test_refine_zero_width_starts_give_constants():
    # zero-width starts raised numpy's "cannot reshape array of size 0"
    per_owner = lazy(lambda xs, owner: (owner + 1.0, np.zeros(xs.shape)))
    cfg = OptimizerConfig(restarts=2)
    refined = refine(per_owner, np.zeros((2, 0)))
    expected = minimize_many(per_owner, 0, [cfg, cfg])
    assert len(refined) == len(expected) == 2
    for got, want in zip(refined, expected):
        for f in fields(OptimizerResult):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    assert [(r.value, r.restarts, r.evaluations, r.calls) for r in refined] == [
        (1.0, 0, 1, 0), (2.0, 0, 1, 0)]


# ---------------------------------------------------------------------------
# the lockstep BFGS core

def test_bfgs_gradient_checks_its_own_test_functions():
    # the test functions' gradients are what the BFGS tests below lean on
    x = np.random.default_rng(0).uniform(-3.0, 3.0, (5, 4))
    for fn, grad in ((rugged, rugged_grad), (quadratic, quadratic_grad)):
        values, gradients = grad(x)
        assert np.allclose(values, [fn(row) for row in x])
        for i in range(4):
            step = np.zeros(4)
            step[i] = 1e-6
            central = (grad(x + step)[0] - grad(x - step)[0]) / 2e-6
            assert np.allclose(gradients[:, i], central, atol=1e-6)


def test_bfgs_quadratic_converges():
    cfg = OptimizerConfig(restarts=3, seed=4)
    result = minimize(QUADRATIC, 5, cfg)
    assert result.value < 1e-16
    assert np.max(np.abs(result.x - 1.0)) < 1e-8
    assert result.converged
    assert all(v < 1e-16 for v in result.restart_values)


def test_bfgs_problem_with_others_equals_alone():
    dim = 4
    cfgs = [OptimizerConfig(restarts=5, seed=s) for s in (1, 2, 3)]
    shifts = np.array([0.0, 1.0, -2.0])

    def grad(xs, owner):
        return rugged_grad(xs - shifts[owner][:, None])

    many = minimize_many(lazy(grad), dim, cfgs, keep_history=True)
    for i, (cfg, result) in enumerate(zip(cfgs, many)):
        alone = minimize(lazy(lambda xs, owner, i=i: grad(xs, np.full(len(xs), i))), dim, cfg,
                         keep_history=True)
        assert np.array_equal(result.x, alone.x)
        assert ((result.value, result.iterations, result.restarts, result.converged,
                 result.history, result.evaluations, result.restart_values, result.best_restart)
                == (alone.value, alone.iterations, alone.restarts, alone.converged,
                    alone.history, alone.evaluations, alone.restart_values, alone.best_restart))
        assert result.calls >= alone.calls


def test_bfgs_never_ends_above_start():
    cfg = OptimizerConfig(restarts=8, seed=12)
    result = minimize(RUGGED, 6, cfg, keep_history=True)
    starts = restart_starts(cfg, 6)
    for start, value, trace in zip(starts, result.restart_values, result.history):
        assert value <= rugged(start)
        assert trace[-1] == value
        assert np.all(np.diff(trace) <= 0.0)
    # the zero start keeps the value at zero as a ceiling
    assert min(result.restart_values) <= rugged(np.zeros(6))


def test_bfgs_stops_after_max_trials(monkeypatch):
    # a run ends after BFGS_MAX_TRIALS trial points past its simplex, so no lockstep takes more
    # than that many calls after the set-up call
    import uniparam.optimize

    monkeypatch.setattr(uniparam.optimize, "BFGS_MAX_TRIALS", 5)
    cfg = OptimizerConfig(restarts=4, seed=3)
    rows = []

    def grad(xs, owner):
        rows.append(len(xs))
        return rugged_grad(xs)

    result = minimize(lazy(grad), 5, cfg, keep_history=True)
    # the simplex's values call, the gradient call at the lowest vertices, then 5 trial calls;
    # the last call re-evaluates the result
    assert result.calls == len(rows) - 1 == 1 + 1 + 5
    assert result.evaluations == cfg.restarts * (5 + 1 + 5) + 1
    assert all(len(trace) - 1 <= 5 for trace in result.history)
    assert not result.converged


def test_bfgs_telemetry():
    cfg = OptimizerConfig(restarts=4, seed=8)
    rows = []
    result = minimize(counting(RUGGED, rows), 3, cfg, keep_history=True)
    # the simplex's values call, the gradient call at each run's lowest vertex, then one trial
    # point per live run and call, and one call re-evaluates the result; the vertex evaluated
    # again counts once
    assert rows[:2] == [cfg.restarts * (3 + 1), cfg.restarts]
    assert all(n <= cfg.restarts for n in rows[2:])
    assert result.calls == len(rows) - 1 and rows[-1] == 1
    assert result.evaluations == sum(rows) - cfg.restarts == sum(rows) - rows[1]
    assert result.value == rugged(result.x) == result.restart_values[result.best_restart]
    assert result.best_restart == result.restart_values.index(min(result.restart_values))
    assert result.iterations == sum(len(trace) - 1 for trace in result.history)
    assert len(result.restart_values) == result.restarts == cfg.restarts


def test_bfgs_gradient_memory_order_does_not_change_the_runs():
    # a gradient in C or in F order must give the same runs: row sums follow memory order
    cfg = OptimizerConfig(restarts=4, seed=8)

    def fortran(xs, owner):
        values, grads = rugged_grad(xs)
        return values, np.asfortranarray(grads)

    c, f = (minimize(lazy(grad), 6, cfg) for grad in (rugged_grad, fortran))
    assert np.array_equal(c.x, f.x)
    assert ((c.value, c.restart_values, c.iterations, c.evaluations)
            == (f.value, f.restart_values, f.iterations, f.evaluations))


def test_bfgs_cuts_only_runs_behind_a_stopped_run(monkeypatch):
    # past BFGS_TRAILING_TRIALS trial points a run stops once a stopped run of its problem has a
    # lower value; every other run goes on
    import uniparam.optimize
    from uniparam.optimize import _bfgs

    dim, trailing = 5, 10
    starts = np.random.default_rng(3).uniform(0.0, 2 * np.pi, (12, dim))
    owner = np.repeat([0, 1], 6)

    def run():
        return _bfgs(lazy(rugged_grad), starts, owner, 6 * (dim + 1), None)

    x, f, _, _, evals, calls = run()
    monkeypatch.setattr(uniparam.optimize, "BFGS_TRAILING_TRIALS", trailing)
    x_cut, f_cut, _, _, evals_cut, calls_cut = run()
    cut = evals_cut != evals
    assert cut.any() and calls_cut < calls
    assert np.array_equal(x_cut[~cut], x[~cut]) and np.array_equal(f_cut[~cut], f[~cut])
    for r in np.flatnonzero(cut).tolist():
        assert evals_cut[r] - (dim + 1) >= trailing
        assert any(evals_cut[s] < evals_cut[r] and f_cut[s] < f_cut[r]
                   for s in np.flatnonzero(owner == owner[r]).tolist())
    # here the winners stop first, so no result moves
    for p in (0, 1):
        runs = np.flatnonzero(owner == p)
        assert runs[np.argmin(f_cut[runs])] == runs[np.argmin(f[runs])]
        assert f_cut[runs].min() == f[runs].min()


def test_bfgs_simplex_set_up_calls_no_gradient():
    # the simplex is scored by values alone; every later call takes its one chunk's gradient
    dim = 3
    cfgs = [OptimizerConfig(restarts=4, seed=s) for s in (8, 9)]
    cap = cfgs[0].restarts * (dim + 1)
    calls = []  # per objective call: [rows, gradient closures called]

    def objective(xs, owner):
        values, gradients = rugged_grad(xs)
        call = [len(xs), 0]
        calls.append(call)

        def gradient():
            call[1] += 1
            return gradients

        return values, gradient

    results = minimize_many(objective, dim, cfgs)
    # two problems' simplices fill two calls of cap rows, and neither takes a gradient, nor
    # does the last call, which re-evaluates the two results
    assert calls[:2] == [[cap, 0], [cap, 0]] and calls[-1] == [2, 0]
    assert len(calls) > 4 and all(called == 1 for _, called in calls[2:-1])
    assert results[0].calls == results[1].calls == len(calls) - 1
    # the gradient rows: each run's lowest vertex once, then its trial points
    runs = sum(cfg.restarts for cfg in cfgs)
    trials = sum(r.evaluations - 1 for r in results) - runs * (dim + 1)
    assert sum(rows for rows, _ in calls[2:-1]) == runs + trials


def test_bfgs_stops_at_a_kink():
    # |x - 1| has no gradient at its minimum; the runs must stop there, not at the trial cap,
    # which a lockstep with a run still live reaches only after BFGS_MAX_TRIALS calls
    def kink(xs, owner=None):
        return (np.sum(np.abs(xs - 1.0), axis=1) + 0.1 * np.sum((xs - 2.0) ** 2, axis=1),
                np.sign(xs - 1.0) + 0.2 * (xs - 2.0))

    cfg = OptimizerConfig(restarts=4, seed=1)
    result = minimize(lazy(kink), 4, cfg, keep_history=True)
    assert abs(result.value - 0.4) < 1e-9
    assert result.calls < BFGS_MAX_TRIALS


def test_bfgs_objective_ignoring_a_coordinate():
    # the gradient is exactly 0 along x[3]; a run whose line search still doubles its step (an
    # open bracket) must not form inf * 0 there, which warnings-as-errors would raise on
    def flat_in_last(xs, owner=None):
        g = 0.02 * (xs - 1.0)
        g[:, 3] = 0.0
        return 0.01 * np.sum((xs[:, :3] - 1.0) ** 2, axis=1), g

    cfg = OptimizerConfig(restarts=3, seed=2)
    with np.errstate(all="raise"):
        result = minimize(lazy(flat_in_last), 4, cfg)
    assert result.value < 1e-12
    assert np.allclose(result.x[:3], 1.0, atol=1e-5)


def test_values_callable_scores_the_simplex_and_the_result():
    # the simplex and the re-evaluation read ``values``; the steps read the objective, whose
    # values here sit 1 above, so the reported values show which callable gave them
    dim, cfg = 3, OptimizerConfig(restarts=3, seed=4)
    steps, scored = [], []

    def objective(xs, owner):
        steps.append(len(xs))
        values, gradients = rugged_grad(xs)
        return values + 1.0, lambda: gradients

    def values(xs, owner):
        scored.append(len(xs))
        return rugged_grad(xs)[0]

    result = minimize(objective, dim, cfg, values=values)
    assert scored == [cfg.restarts * (dim + 1), 1]
    assert steps[0] == cfg.restarts
    assert result.calls == len(steps) + len(scored) - 1
    assert result.evaluations == sum(steps) + sum(scored) - cfg.restarts
    assert result.value == rugged(result.x) == result.restart_values[result.best_restart]
    others = [v for r, v in enumerate(result.restart_values) if r != result.best_restart]
    assert all(v >= 1.0 for v in others)
    # the same runs as on the objective alone, but for the offset the steps saw
    alone = minimize(RUGGED, dim, cfg)
    assert np.array_equal(result.x, alone.x)
    assert (result.iterations, result.evaluations, result.calls, result.best_restart) == (
        alone.iterations, alone.evaluations, alone.calls, alone.best_restart)

    scored.clear()
    (one,) = refine(objective, np.ones((1, dim)), values=values)
    assert scored == [dim + 1, 1] and one.value == rugged(one.x) == one.restart_values[0]
    scored.clear()
    (flat,) = minimize_many(objective, 0, [cfg], values=values)
    assert scored == [1] and flat.value == 0.0  # the objective would give 1
