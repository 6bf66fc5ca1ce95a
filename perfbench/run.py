#!/usr/bin/env python3
"""Benchmark of uniparam: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig1-scan --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``): fig1-scan, distill-witness, bound-highdim,
param-roundtrip; ``--workload all`` runs each in its own process and exits
non-zero if any check failed.  The load is closed-loop from this one
client process: one op at a time, each checked as soon as it returns.
fig1-scan is the exception: it is one ``run_fig1_scan`` call whose pool
gets one worker per CPU this process may use.

``--trace 0`` measures for ``--seconds`` seconds, in whole passes over the
workload's input set (at least one, as many as fit), and prints the
end-to-end metrics.  Their times are speed-scaled (see ``speed.py``): each
time is multiplied by ``REF_NOMINAL_S`` over the CPU time of a fixed
reference block timed next to it, which takes out the host's drift in
speed.  The raw wall times are in the report line.
``--trace 1`` runs the input set once untraced and once traced (fig1-scan:
untraced with the pool, traced with ``jobs=1``), prints the per-layer
metrics and writes the spans under ``.perfbench/``.  The tracing overhead
is the traced CPU time over the untraced CPU time of the same work, run
back to back: each op, or for fig1-scan blocks of bopt-objective
evaluations at one grid point.

Output: human-readable lines, one ``report`` JSON line (environment, input
properties, all metrics, deterministic counts), and as the last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every check passed, 1 when any failed, 2 on a usage error
or when the uniparam sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy is first imported, so the
# pool workers do not oversubscribe the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 10
SETUP_REF_SAMPLES = 5

# (name, unit, better) of the end-to-end metrics the result line carries.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("scaled_wall_s", "s", "lower"),
    ("scaled_ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Reference figures from ROADMAP.md's baseline table: (label, metric, value, unit).
# They were taken on a shared 2-core machine under other load.
ROADMAP_BASELINE = (
    ("build_unitary d=3", "composite.build_unitary.us_d3", 51.0, "us"),
    ("build_unitary d=6", "composite.build_unitary.us_d6", 156.0, "us"),
    ("decompose d=3", "composite.decompose.us_d3", 65.0, "us"),
    ("decompose d=6", "composite.decompose.us_d6", 371.0, "us"),
    ("bound_b 3x3", "entanglement.bound_b.ms_3x3", 0.332, "ms"),
    ("bopt objective per eval, d=3", "entanglement.bopt_objective.us_d3", 352.0, "us"),
    ("distill objective per eval, d=3", "entanglement.distill_objective.us_d3", 177.0, "us"),
    ("optimized_bound_b (12 restarts)", "entanglement.optimized_bound_b.ms", 4900.0, "ms"),
    ("one fig1 point, mean of the grid", "cli.fig1_point.mean_ms", 4100.0, "ms"),
    ("serial fig1 scan, step 0.25", "cli.run_fig1_scan.ms", 41800.0, "ms"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time import and input generation, print it raw and "
                        "speed-scaled, exit")
    return p.parse_args(argv)


def cpus() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Largest RSS of this process or any child it waited for (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "affinity": cpus(), "numpy": np.__version__, "blas": blas,
        "python": platform.python_version(), "git_sha": git_sha(),
        "loadavg_1m": os.getloadavg()[0], "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_all(args) -> int:
    """Every workload in a fresh process, so set-up and RSS stay per workload."""
    import workloads

    codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for name in workloads.WORKLOADS]
    return max(codes)


def scaled_setup(setup: float) -> tuple[float, float]:
    """(raw, speed-scaled) set-up time; the reference runs right after set-up."""
    import speed

    ref = statistics.median(speed.sample() for _ in range(SETUP_REF_SAMPLES))
    return setup, setup * speed.REF_NOMINAL_S / ref


def setup_samples(args, own: tuple[float, float]) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times of this process and of fresh probe processes."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw, scaled = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(scaled)))
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    best = (50.0, xs[(n - 1) // 2])
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        rank = math.ceil(p / 100.0 * n)  # samples at or below the percentile value
        if n - rank < 10:
            break
        best = (p, xs[rank - 1])
    return best[0], best[1], n


# ---------------------------------------------------------------------------
# runs

class Tally:
    """Attempted / failed ops, with the first few violations kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def add(self, label: str, violations: list[str]) -> None:
        self.attempted += 1
        if violations:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(f"{label}: {'; '.join(violations)}")


def perf_clock() -> tuple[float, float]:
    """(wall, CPU) seconds of this process."""
    return time.perf_counter(), time.process_time()


def run_op_checked(wl, i, op, tally, first_results, quiet, clock=perf_clock):
    """Time one op, then check it outside the timed region.

    Returns the two differences of ``clock()`` over the op: (wall, CPU)
    seconds by default, (raw, speed-scaled) seconds with a ScaledClock.
    """
    a0, b0 = clock()
    try:
        result = wl.run_op(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        tally.add(op.label, [f"raised {type(exc).__name__}: {exc}"])
        a1, b1 = clock()
        return a1 - a0, b1 - b0, None
    a1, b1 = clock()
    dt, cpu = a1 - a0, b1 - b0
    with quiet():
        violations = wl.check_op(op, result)
    if i in first_results:
        if repr(result_signature(result)) != repr(first_results[i]):
            violations.append("result differs from the first pass over the same input")
    else:
        first_results[i] = result_signature(result)
    tally.add(op.label, violations)
    return dt, cpu, result


def result_signature(result):
    """Scalars of a result, compared exactly across passes (runs are deterministic)."""
    import numpy as np

    if isinstance(result, (tuple, list)):
        return [result_signature(r) for r in result]
    if isinstance(result, np.ndarray):
        return result.tobytes().hex()
    return result


def scan_checked(wl, jobs, tally, reference=None, seed=None):
    """One scan, each grid point checked; ``reference`` rows must be reproduced exactly."""
    t0 = time.perf_counter()
    try:
        rows = wl.run_scan(jobs, seed)
    except Exception as exc:
        rows, err = [], f"scan raised {type(exc).__name__}: {exc}"
    else:
        err = None
    wall = time.perf_counter() - t0
    for i, ((alpha, beta), violations) in enumerate(zip(wl.grid, wl.check_rows(rows))):
        if reference is not None and i < len(rows) and vars(rows[i]) != vars(reference[i]):
            violations.append("row differs from the pool scan's row")
        tally.add(f"fig1({alpha:.2f},{beta:.2f})", [err] if err else violations)
    return wall, rows


def room_for_another(start: float, passes: int, seconds: float) -> bool:
    """True when one more pass of average length still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def timed_run(wl, seconds: float) -> dict:
    """End-to-end run: whole passes, at least one, as many as fit in ``seconds``.

    A pass is the input set once; for fig1-scan it is one pool scan at
    each of ``wl.timed_seeds``.

    Every time is kept raw and speed-scaled.  Per-op workloads run under a
    ScaledClock, which times the reference every 0.1 s, inside ops too; the
    fig1 scan is scaled by the mean speed of reference samples that the
    pool workers take after every 0.1 s of their CPU time.
    """
    import speed

    tally = Tally()
    start = time.perf_counter()
    walls: list[float] = []
    scaled_walls: list[float] = []
    latencies: list[float] = []
    scaled_latencies: list[float] = []
    info: dict = {}
    if wl.name == "fig1-scan":
        jobs = cpus()
        ref_samples: list[float] = []
        while True:
            wall = scaled_wall = 0.0
            for seed in wl.timed_seeds:
                kids0 = children_cpu_s()
                with speed.CpuSampler(OUT_DIR) as sampler:
                    dt, rows = scan_checked(wl, jobs, tally, seed=seed)
                info.setdefault("worker_cpu_s", []).append(children_cpu_s() - kids0)
                info.setdefault("speed_factor", []).append(sampler.factor())
                wall += dt
                scaled_wall += dt * sampler.factor()
                ref_samples += sampler.samples
                if "certified" not in info:  # the scan at --seed, as in the traced run
                    info["certified"] = wl.certified(rows)
            walls.append(wall)
            scaled_walls.append(scaled_wall)
            if not room_for_another(start, len(walls), seconds):
                break
        ops = len(wl.grid) * len(wl.timed_seeds) * len(walls)
        info["jobs"] = jobs
    else:
        first: dict = {}
        results: list = []
        with speed.ScaledClock() as clock:
            while True:
                pass_time = scaled_pass_time = 0.0
                for i, op in enumerate(wl.ops):
                    dt, scaled, result = run_op_checked(wl, i, op, tally, first, nullcontext,
                                                        clock.now)
                    pass_time += dt
                    scaled_pass_time += scaled
                    latencies.append(dt)
                    scaled_latencies.append(scaled)
                    if len(walls) == 0:
                        results.append(result)
                walls.append(pass_time)
                scaled_walls.append(scaled_pass_time)
                if len(walls) == 1 and hasattr(wl, "certified"):
                    info["certified"] = wl.certified(results)
                if not room_for_another(start, len(walls), seconds):
                    break
        ref_samples = clock.samples
        ops = len(latencies)
        p, v, n = tail(latencies)
        info["op_p50_ms"] = statistics.median(latencies) * 1e3
        info["op_tail_ms"] = v * 1e3
        info["op_tail_percentile"] = p
        info["op_samples"] = n
        info["scaled_op_p50_ms"] = statistics.median(scaled_latencies) * 1e3
    info["passes"] = len(walls)
    info["pass_walls_s"] = walls
    info["wall_s"] = statistics.median(walls)
    info["ops_per_s"] = ops / sum(walls)
    info["ref_samples"] = len(ref_samples)
    info["ref_median_ms"] = statistics.median(ref_samples) * 1e3
    metrics = {"scaled_wall_s": statistics.median(scaled_walls),
               "scaled_ops_per_s": ops / sum(scaled_walls), "peak_rss_mb": peak_rss_mb()}
    return {"tally": tally, "metrics": metrics, "info": info}


def paired_order(i: int) -> tuple[bool, bool]:
    """Untraced and traced runs of one unit of work, the first alternating with i."""
    return (False, True) if i % 2 == 0 else (True, False)


def traced_run(wl) -> dict:
    """Each unit of work untraced and traced, back to back; per-layer metrics.

    Per-op workloads run every op twice, in alternating order, so that the
    tracing overhead compares the same work at the same moment; the spans
    hold exactly one traced pass.  fig1-scan runs an untraced pool scan, the
    overhead probe blocks in pairs, then a traced scan with ``jobs=1``.
    """
    from tracer import Tracer, layer_metrics

    tally, tracer, info = Tally(), Tracer(), {}
    cpu = {False: 0.0, True: 0.0}
    if wl.name == "fig1-scan":
        jobs = cpus()
        kids0 = children_cpu_s()
        pool_wall, pool_rows = scan_checked(wl, jobs, tally)
        worker_cpu = children_cpu_s() - kids0
        # An untraced serial scan would not fit in the run's time limit, and
        # forked pool workers spend less CPU on the same points than this
        # process does, so the overhead comes from probes with the scan's
        # span pattern.
        probe_tracer = Tracer()
        for i, probe in enumerate(wl.overhead_probes()):
            for traced in paired_order(i):
                with probe_tracer.installed() if traced else nullcontext():
                    c0 = time.process_time()
                    probe()
                    cpu[traced] += time.process_time() - c0
        with tracer.installed():
            traced_wall, rows = scan_checked(wl, 1, tally, reference=pool_rows)
        info.update(jobs=jobs, pool_wall_s=pool_wall, worker_cpu_s=worker_cpu,
                    traced_serial_wall_s=traced_wall, certified=wl.certified(rows))
        efficiency = worker_cpu / (jobs * pool_wall)
    else:
        first: dict = {}
        results = []
        for i, op in enumerate(wl.ops):
            tracer.op = i
            for traced in paired_order(i):
                with tracer.installed() if traced else nullcontext():
                    _, op_cpu, result = run_op_checked(
                        wl, i, op, tally, first, tracer.paused if traced else nullcontext)
                cpu[traced] += op_cpu
                if traced:
                    results.append(result)
        if hasattr(wl, "certified"):
            info["certified"] = wl.certified(results)
        efficiency = 0.0
    extra = {"cli.pool.efficiency": (efficiency, "ratio"),
             "trace.overhead_frac": (cpu[True] / cpu[False] - 1.0, "ratio")}
    info.update(untraced_cpu_s=cpu[False], traced_cpu_s=cpu[True], spans=tracer.span_count())
    metrics = layer_metrics(tracer, extra)
    stem = OUT_DIR / f"trace-{wl.name}-seed{wl.seed}"
    tracer.write(stem, {k: v for k, (v, unit) in metrics.items() if unit == "count"})
    info["spans_file"] = str(stem.relative_to(ROOT)) + ".spans"
    return {"tally": tally, "metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# reporting

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uniparam" / "__init__.py").is_file():
        print(f"error: uniparam sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup = scaled_setup(time.perf_counter() - t0)
    if args.setup_probe:
        print(*map(repr, setup))
        return 0

    env = environment(args.seed)
    props = wl.properties()
    if args.trace:
        run = traced_run(wl)
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in run["metrics"].items()}
    else:
        samples = setup_samples(args, setup)
        run = timed_run(wl, args.seconds)
        run["info"]["setup_samples_s"] = samples
        run["info"]["raw_setup_s"] = statistics.median(raw for raw, _ in samples)
        values = dict(run["metrics"], setup_s=statistics.median(s for _, s in samples))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    tally, info = run["tally"], run["info"]

    certified = info.pop("certified", None)
    if certified is not None:
        info["certified_frac"] = certified[0] / certified[1] if certified[1] else 0.0
        info["certified"] = f"{certified[0]}/{certified[1]}"
    info["fail_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for key, unit in (("raw_setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
                      ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("ref_median_ms", "ms"),
                      ("fail_frac", "ratio"), ("certified_frac", "ratio")):
        if key in info:
            extra = (f" (p{info['op_tail_percentile']:g} of {info['op_samples']} ops)"
                     if key == "op_tail_ms" else "")
            print(f"  {key:<44} {info[key]:>14.6g} {unit}{extra}")
    baseline = [(label, run["metrics"][key][0], ref, unit)
                for label, key, ref, unit in ROADMAP_BASELINE
                if args.trace and run["metrics"][key][0]]
    if baseline:
        print("  baseline layers, next to ROADMAP.md's figures (taken on a loaded shared machine):")
        for label, value, ref, unit in baseline:
            print(f"    {label:<34} {value:>12.4g} {unit}   ROADMAP {ref:g} {unit}")
    for line in tally.examples:
        print(f"  FAILED {line}")
    print(json.dumps({"report": {"workload": wl.name, "env": env, "inputs": props,
                                 "info": info}}, default=str))
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
