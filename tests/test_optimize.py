import numpy as np
import pytest

from uniparam import OptimizerConfig, OptimizerResult, minimize, refine
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
