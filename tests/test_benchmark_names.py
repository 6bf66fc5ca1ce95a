"""The names the benchmark's tracer rebinds must resolve in the package.

``perfbench/tracer.py`` looks up each traced function and objective
factory by module and attribute name, so a rename in the package would
break ``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    # read only: no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_and_install(monkeypatch):
    tracer = load_tracer(monkeypatch)
    names = [(mod, attr) for mod, attr, _ in tracer.TRACED.values()]
    names += list(tracer.OBJECTIVES.values())
    originals = [getattr(mod, attr) for mod, attr in names]
    assert all(map(callable, originals))
    with tracer.Tracer().installed():
        # every traced name is rebound to its wrapper while installed
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(names, originals))
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(names, originals))
