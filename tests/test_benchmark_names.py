"""The names the benchmark reads must resolve in the package.

``perfbench/tracer.py`` looks up each traced function and objective
factory by module and attribute name, and ``perfbench/workloads.py``
reads the optimizer's settings and calls the one-vector objectives, so a
rename in the package would break ``perfbench/run.py`` without failing
any other test.  The workloads' own result checks run here too, on the
first op of each kind and on one step-0.25 scan, so an output the
benchmark would reject fails these tests first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    # read only: no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a module's dataclasses look their module up while it runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_and_install(monkeypatch):
    tracer = load_perfbench(monkeypatch, "tracer")
    names = [(mod, attr) for mod, attr, _ in tracer.TRACED.values()]
    names += list(tracer.OBJECTIVES.values())
    originals = [getattr(mod, attr) for mod, attr in names]
    assert all(map(callable, originals))
    with tracer.Tracer().installed():
        # every traced name is rebound to its wrapper while installed
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(names, originals))
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(names, originals))


def test_workload_properties_read_the_optimizer_settings(monkeypatch):
    # zero_start reads OptimizerConfig().f_tol and .simplex_scale and calls the one-vector
    # make_*_objective closures; the counts are the input properties the benchmark records
    workloads = load_perfbench(monkeypatch, "workloads")
    fig1 = workloads.Fig1Scan(0).properties()
    assert (fig1["states"], fig1["npt_states"], fig1["zero_plateau"]) == (15, 12, 4)
    distill = workloads.DistillWitness(0).properties()
    assert (distill["ops"], distill["npt_inputs"], distill["zero_plateau"]) == (29, 18, 19)


def _same(a, b):
    """Exact equality of a result: arrays entry for entry, tuples and lists item for item."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


PER_OP_WORKLOADS = ["bound-highdim", "distill-witness", "param-roundtrip"]


@pytest.mark.parametrize("name", PER_OP_WORKLOADS)
def test_per_op_workloads_pass_their_own_checks(monkeypatch, name):
    # an output the benchmark would reject fails here first: the first op of each kind, at
    # seed 0, passes the workload's check_op and repeats exactly when run again
    workloads = load_perfbench(monkeypatch, "workloads")
    assert sorted(set(workloads.WORKLOADS) - {"fig1-scan"}) == PER_OP_WORKLOADS
    workload = workloads.WORKLOADS[name](0)
    firsts = {}
    for op in workload.ops:
        firsts.setdefault(op.kind, op)
    for op in firsts.values():
        result = workload.run_op(op)
        assert _same(result, workload.run_op(op)), op.label
        assert workload.check_op(op, result) == [], op.label


def test_fig1_scan_passes_its_own_checks(monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")
    scan = workloads.Fig1Scan(0)
    assert scan.check_rows(scan.run_scan(1)) == [[] for _ in scan.grid]
