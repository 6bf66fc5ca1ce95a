"""Machine-speed reference for the benchmark's speed-scaled times.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds, which swamps any change in uniparam itself.  So each timed
run also times a fixed reference block, next to the work it measures, and
scales the work's time by ``REF_NOMINAL_S / reference time``: the result
is the time the work would have taken had the machine run the reference
at its nominal speed.  The reference shares no code with uniparam and
mixes the same kinds of work (small complex numpy matrices, eigensolves,
reshapes and interpreted Python), so both slow down together when the
host is busy.  Raw wall times stay in the report next to the scaled ones.

The reference is timed in CPU seconds of the calling thread, so waiting
for a core does not count.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

# CPU seconds of one reference block at nominal speed: about its median on
# the shared 2-vCPU VM the benchmark was tuned on, where run medians ranged
# from 3.4 to 4.3 ms.  Only a scale: it sets the unit of the scaled times
# and never changes between runs.
REF_NOMINAL_S = 0.004

_rng = np.random.default_rng(20100425)
_MATS = [(_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))) / n
         for n in (3, 4, 6, 9, 16)]
_HERM = [m + m.conj().T for m in _MATS]
_ANGLES = _rng.uniform(0.0, 1.5, 24)


def reference_block() -> float:
    """Fixed work independent of uniparam; returns a checksum so none is skipped."""
    acc = 0.0
    for a, h in zip(_MATS, _HERM):
        for _ in range(20):
            w = np.linalg.eigvalsh(h)
            acc += float(w[0])
            p = a @ h @ a.conj().T
            acc += float(np.abs(np.trace(p)))
    t = np.kron(_MATS[0], _MATS[0]).reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    acc += float(np.linalg.eigvalsh(t + t.conj().T)[0])
    for x in np.tile(_ANGLES, 5):
        c, s = np.cos(x), np.sin(x)
        g = np.array([[c, -s], [s, c]])
        acc += float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    return acc


def sample() -> float:
    """CPU seconds of one reference block in this thread."""
    t0 = time.thread_time()
    reference_block()
    return time.thread_time() - t0


class ScaledClock:
    """Raw and speed-scaled clocks for work in the main thread.

    While entered, a SIGALRM every ``interval_s`` runs the reference block
    from inside whatever Python code is running, uniparam calls included.
    The work between two samples is scaled by ``REF_NOMINAL_S`` over the
    mean of those two samples, so a speed change inside a long op is
    caught.  Time spent in the handler counts on neither clock.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._gen = 0
        self._raw = self._scaled = 0.0
        self._ref = self._seg_start = 0.0
        self._old = None

    def __enter__(self) -> "ScaledClock":
        self._ref = sample()
        self.samples.append(self._ref)
        self._seg_start = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        ref = sample()
        work = t0 - self._seg_start
        self._raw += work
        self._scaled += work * REF_NOMINAL_S * 2.0 / (self._ref + ref)
        self._ref = ref
        self.samples.append(ref)
        self._seg_start = time.perf_counter()
        self._gen += 1

    def now(self) -> tuple[float, float]:
        """(raw, scaled) seconds of work so far."""
        while True:
            gen = self._gen
            work = time.perf_counter() - self._seg_start
            raw, scaled = self._raw + work, self._scaled + work * REF_NOMINAL_S / self._ref
            if gen == self._gen:  # no tick in between
                return raw, scaled


class CpuSampler:
    """Reference samples per slice of CPU time, in this process and its forks.

    For the fig1 scan, whose work runs in pool processes forked from this
    one.  While entered, this process and every process forked from it
    run an ITIMER_PROF timer: after each ``interval_s`` of the process's
    own CPU time it times the reference block and appends the time, one
    line each, to a file of its own under ``out_dir``.  Every sample
    stands for the same CPU time of work, so the mean speed of that work
    is the plain mean of 1 / reference time over all samples.
    """

    def __init__(self, out_dir: Path, interval_s: float = 0.1) -> None:
        self.out_dir = out_dir
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._old = None

    def _files(self) -> list[Path]:
        return sorted(self.out_dir.glob("ref-*.txt"))

    def arm(self) -> None:
        """Start sampling in the calling process (the main thread of it)."""
        out = open(self.out_dir / f"ref-{os.getpid()}.txt", "a", buffering=1)

        def tick(signum, frame):
            out.write(f"{sample()!r}\n")

        self._old = signal.signal(signal.SIGPROF, tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def __enter__(self) -> "CpuSampler":
        global _ACTIVE
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for f in self._files():
            f.unlink()
        _ACTIVE = self
        self.arm()
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._old)
        for f in self._files():
            self.samples += [float(x) for x in f.read_text().split()]
            f.unlink()

    def factor(self) -> float:
        return REF_NOMINAL_S * statistics.fmean(1.0 / r for r in self.samples)


_ACTIVE: CpuSampler | None = None


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.arm()


os.register_at_fork(after_in_child=_after_fork_in_child)
