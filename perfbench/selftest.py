#!/usr/bin/env python3
"""Self-test of the benchmark's result checks and metric declarations.

For every workload, one genuine result must pass its checker and each
deliberately corrupted copy must be counted as failed.  The metric names
and units the benchmark prints must match ``BENCHMARK.json``.  The speed
reference must sample inside running code and inside forked pool workers.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wls  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from uniparam.cli import ScanRow  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def failed_count(violations: list[list[str]]) -> int:
    return sum(bool(v) for v in violations)


def check_fig1() -> None:
    wl = wls.Fig1Scan(0)
    rows = []
    for alpha, beta in wl.grid:
        rho = wls.fig1_density(alpha, beta)
        if np.linalg.eigvalsh(rho)[0] < -wls.PSD_TOL:
            rows.append(ScanRow(alpha, beta, False, False, None, None))
            continue
        ppt = wls.pt_min_eig(rho, 3, 3) >= -wls.PPT_TOL
        if (alpha, beta) in ((1.0, 0.0), (0.0, 1.0)):
            rows.append(ScanRow(alpha, beta, True, ppt, 1.0, 1.0))
        else:
            rows.append(ScanRow(alpha, beta, True, ppt, 0.0 if ppt else 0.4, 0.0 if ppt else 0.5))
    expect(failed_count(wl.check_rows(rows)) == 0, "fig1: genuine rows flagged")

    def corrupted(edit) -> int:
        bad = copy.deepcopy(rows)
        edit(bad)
        return failed_count(wl.check_rows(bad))

    mid = next(i for i, r in enumerate(rows) if r.is_state and not r.is_ppt
               and r.bound_plain < 1.0)
    corner = next(i for i, r in enumerate(rows) if (r.alpha, r.beta) == (1.0, 0.0))
    expect(corrupted(lambda b: setattr(b[mid], "bound_opt", b[mid].bound_plain - 1e-6)) == 1,
           "fig1: bound_opt below bound_plain not counted")
    expect(corrupted(lambda b: setattr(b[mid], "bound_plain", 1.5)) == 1,
           "fig1: bound above 1 not counted")
    expect(corrupted(lambda b: setattr(b[corner], "bound_plain", 0.999)) == 1,
           "fig1: pure corner off 1 not counted")
    expect(corrupted(lambda b: b.__setitem__(slice(0, 2), b[1::-1])) == 2,
           "fig1: rows out of grid order not counted")
    expect(corrupted(lambda b: b.pop()) == 1, "fig1: missing row not counted")


def check_distill() -> None:
    wl = wls.DistillWitness(0)
    ppt_op = next(op for op in wl.ops if op.kind == "fig1" and not op.info["npt"])
    good = wl.run_op(ppt_op)
    expect(not wl.check_op(ppt_op, good), "distill: genuine PPT result flagged")
    expect(wl.check_op(ppt_op, (good[0], 1e-3, good[2])) != [],
           "distill: positive witness on a PPT control not counted")
    npt_werner = next(op for op in wl.ops if op.kind == "werner2" and op.info["npt"])
    pt = wls.pt_min_eig(npt_werner.args[0], 2, 2)
    expect(not wl.check_op(npt_werner, (pt, 1e-3, 0)), "distill: agreeing witness flagged")
    expect(wl.check_op(npt_werner, (pt, 0.0, 0)) != [],
           "distill: two-copy witness disagreeing with one-copy PPT not counted")
    expect(wl.check_op(npt_werner, (pt + 1e-3, 1e-3, 0)) != [],
           "distill: wrong partial-transpose eigenvalue not counted")


def check_bounds() -> None:
    wl = wls.BoundHighDim(0)
    for kind in ("bipartite", "multipartite"):
        op = next(o for o in wl.ops if o.kind == kind)
        parts, total = wl.run_op(op)
        expect(not wl.check_op(op, (parts, total)), f"bound: genuine {kind} result flagged")
        d_a, d_b, b = parts[0]
        expect(wl.check_op(op, ([(d_a, d_b, math.nan)] + parts[1:], total)) != [],
               f"bound: non-finite {kind} B not counted")
        big = math.sqrt(2.0 * (1.0 - 1.0 / min(d_a, d_b))) * 1.01
        expect(wl.check_op(op, ([(d_a, d_b, big)] + parts[1:], total)) != [],
               f"bound: {kind} B above 2(1-1/min d) not counted")
        expect(wl.check_op(op, (parts, total * 1.01 + 1e-6)) != [],
               f"bound: inconsistent {kind} total not counted")


def check_roundtrip() -> None:
    wl = wls.ParamRoundtrip(0)
    for kind in ("unitary", "subspace", "density"):
        op = next(o for o in wl.ops if o.kind == kind and o.info["d"] == 5)
        first, second = wl.run_op(op)
        expect(not wl.check_op(op, (first, second)), f"roundtrip: genuine {kind} result flagged")
        if kind == "unitary":
            lam = second.copy()
            lam[0, 1] += 1e-6
            bad = [(first, lam), (first * 1.001, second)]
        elif kind == "subspace":
            lam, w = second
            bad = [(first, (lam, w * np.exp(1e-6j)))]
        else:
            # unit trace kept, but the pure state's zero eigenvalues go negative
            bad = [(first * 1.001, second), (2 * first - np.eye(5) / 5, second)]
        for i, result in enumerate(bad):
            expect(wl.check_op(op, result) != [], f"roundtrip: corrupted {kind} #{i} not counted")


def check_declarations() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    expect(declared == list(run.END_TO_END), "end_to_end metrics differ from run.END_TO_END")
    extra = {"cli.pool.efficiency": (0.0, "ratio"), "trace.overhead_frac": (0.0, "ratio")}
    printed = [(k, unit) for k, (_, unit) in layer_metrics(Tracer(), extra).items()]
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == printed,
           "per_layer metrics differ from tracer.layer_metrics")
    expect([w["name"] for w in spec["workloads"]] == list(wls.WORKLOADS),
           "workloads differ from workloads.WORKLOADS")


def check_tail() -> None:
    p, v, n = run.tail([float(i) for i in range(1, 1001)])
    expect((p, v, n) == (99.0, 990.0, 1000), f"tail of 1..1000 gave {(p, v, n)}")
    p, v, n = run.tail([1.0] * 15)
    expect(p == 50.0 and n == 15, f"tail of 15 samples gave {(p, v, n)}")


def busy(seconds: float) -> float:
    t0 = time.process_time()
    while time.process_time() - t0 < seconds:
        pass
    return seconds


def check_speed() -> None:
    with speed.ScaledClock(interval_s=0.02) as clock:
        raw0, scaled0 = clock.now()
        t0 = time.perf_counter()
        busy(0.3)
        raw1, scaled1 = clock.now()
        wall = time.perf_counter() - t0
    raw, scaled = raw1 - raw0, scaled1 - scaled0
    expect(len(clock.samples) >= 5, f"ScaledClock took {len(clock.samples)} samples in 0.3 s")
    expect(0.0 < raw < wall, f"ScaledClock raw {raw} is not below the wall time {wall} "
                             "that includes its handler")
    lo = speed.REF_NOMINAL_S / max(clock.samples)
    hi = speed.REF_NOMINAL_S / min(clock.samples)
    expect(lo * 0.999 <= scaled / raw <= hi * 1.001,
           f"ScaledClock scale {scaled / raw} outside the samples' range [{lo}, {hi}]")

    with speed.CpuSampler(run.OUT_DIR / "selftest", interval_s=0.02) as sampler:
        with ProcessPoolExecutor(max_workers=1) as pool:
            pool.submit(busy, 0.3).result()
    expect(len(sampler.samples) >= 5,
           f"CpuSampler got {len(sampler.samples)} samples from a forked worker")
    expect(not list((run.OUT_DIR / "selftest").iterdir()), "CpuSampler left sample files")


def main() -> int:
    for test in (check_fig1, check_distill, check_bounds, check_roundtrip, check_declarations,
                 check_tail, check_speed):
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
