"""The host's speed, sampled while a pass runs.

On a shared host the CPU speed a process gets can change by a third within
seconds, so the wall time of a pass depends on when it ran.  While a pass
runs, :class:`SpeedSampler` interrupts it every ``INTERVAL_S`` seconds of
wall time (``SIGALRM``, handled in the main thread between bytecodes) and
times :func:`probe`, a fixed piece of pure-Python work that uses nothing
from ``qmb``.  The pass's time at reference speed is

    ref_s = (wall time - probe time) * mean(REF_PROBE_S / probe time)

The probes are spread evenly over the pass, so the mean is the pass's mean
speed relative to the reference.  ``REF_PROBE_S`` is a constant: a ``qmb``
change moves ``ref_s`` as it moves wall time, while the host's speed swings
cancel.  A probe slowed by an outside stall lowers the mean by little, as
its speed is near 0.  Garbage collection is held off during a probe, so a
collection the pass has earned does not land on it.

A workload whose calls are child processes is probed instead, before each
call, with :func:`time_start` against ``REF_START_S``: most of such a call
is interpreter start, which the host's speed phases move less than they
move pure-Python work.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time

INTERVAL_S = 0.2
# About the median times of the probes on the host where the benchmark was
# written (a shared 2-core x86_64 virtual machine, CPython 3.11).
REF_PROBE_S = 0.003
REF_START_S = 0.05


def probe() -> int:
    """Multiply two sparse polynomials with tuple-keyed int coefficients:
    dictionary, tuple and integer work of the kind ``qmb`` does."""
    a = {(i, j, (i * j) % 7): i - 3 * j + 1 for i in range(10) for j in range(10)}
    b = {(j, i % 4, i): 2 * i + j - 5 for i in range(9) for j in range(9)}
    acc: dict[tuple, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            s = acc.get(key, 0) + ca * cb
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return len(acc)


def time_probe() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_now() -> float:
    """The host's speed over the reference now: the median of three probes."""
    return REF_PROBE_S / statistics.median(time_probe() for _ in range(3))


def time_start(env: dict) -> float:
    """Time a bare interpreter start, ``python -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times a probe at :meth:`start`, every ``interval_s`` seconds until
    :meth:`stop` (never if it is 0), at each :meth:`sample`, and at
    :meth:`stop`.  The probe is :func:`time_probe` unless another is given
    with its reference time."""

    def __init__(self, interval_s: float = INTERVAL_S, probe=time_probe, ref_s: float = REF_PROBE_S):
        self.interval_s = interval_s
        self.probe = probe
        self.ref_s = ref_s
        self.probes: list[float] = []
        self.probe_s = 0.0  # time spent in probes between start and stop
        self._previous = None

    def sample(self) -> None:
        """Time one probe now; it counts toward :attr:`probe_s`."""
        p = self.probe()
        self.probes.append(p)
        self.probe_s += p

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> float:
        self.probes.append(self.probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return time.perf_counter()

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t_end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(self.probe())
        return t_end

    def speed(self) -> float:
        """The pass's mean speed relative to the reference."""
        return statistics.fmean(self.ref_s / p for p in self.probes)
