"""The names the benchmark reads must resolve in the package.

``perfbench/tracer.py`` looks up each traced function and objective
factory by module and attribute name, and ``perfbench/workloads.py``
reads the optimizer's settings and calls the one-vector objectives, so a
rename in the package would break ``perfbench/run.py`` without failing
any other test.
"""

import importlib.util
import sys
from pathlib import Path

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
