"""Timing, calibration and child processes shared by the four workloads.

Times are CPU seconds of the process that does the work: time.thread_time
for this process (its one thread does all the work; the process-wide clock
turns coarse while an ITIMER_PROF timer is armed), os.wait4's rusage for a
child.  This machine's CPU time for fixed work drifts by up to 1.7x between
processes and over seconds, so timed operations are interleaved with a
short fixed calibration kernel and reported in reference seconds:

    t_ref = t_cpu * CAL_REF_S / (median kernel time around the operation)

CAL_REF_S is the kernel's typical time on a quiet 2-core Xeon at 2.0 GHz
under Python 3.11.7, so reference seconds read close to CPU seconds there.
The raw CPU totals are printed on the line before the result.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import threading
import time
from typing import Callable, NamedTuple

CAL_REF_S = 1.2e-3
cpu = time.thread_time


class Op(NamedTuple):
    """One timed call: run() in this process, or a child given by argv."""

    kind: str
    run: Callable[[], object] | None
    check: Callable[[object], None]
    argv: list[str] | None = None


class Call(NamedTuple):
    start: float  # timed CPU seconds before the call
    end: float
    raw: float  # CPU seconds of the call
    kind: str
    ok: bool  # returned (in this process) or exited 0 (a child)
    child: bool


def _step(a: int, b: int):
    return (a + b) % 13, a * b % 13


def _kernel() -> int:
    # Dict, tuple and call traffic like orecalc's own inner loops; a plain
    # integer loop tracked this machine's slow periods less well.
    d: dict = {}
    acc = 0
    for i in range(3000):
        a, b = _step(i, acc)
        d[(a, b)] = i
        acc = (acc + len(d)) % 1000
    return acc


def calibrate() -> float:
    t0 = cpu()
    _kernel()
    return cpu() - t0


class Timer:
    """Times calls in CPU seconds and converts them to reference seconds.

    Calibration samples are taken after every call and, for calls in this
    process, during it: an ITIMER_PROF signal every SAMPLE_EVERY_S of CPU
    time runs the kernel, and the kernel's time is taken out of the call's.
    A call's factor is the median of the samples within WINDOW_S of timed
    CPU time on either side of it, so a slow period of the machine scales
    the calls made during it.  A child's factor is the median of all the
    samples: over six cli_cold runs that gave a quartile spread of 0.074 on
    latency and 0.036 on ops/s, against 0.099 and 0.068 for the window.  A call's time is recorded whether it returns or raises.
    """

    WINDOW_S = 0.25
    SAMPLE_EVERY_S = 0.1

    def __init__(self):
        self.pos = 0.0  # timed CPU seconds so far
        self.samples: list[tuple[float, float]] = []  # (pos, kernel seconds)
        self.calls: list[Call] = []

    def _record(self, raw: float, inner: list[float], kind: str, ok: bool, child: bool = False) -> None:
        start = self.pos
        self.pos += raw
        self.calls.append(Call(start, self.pos, raw, kind, ok, child))
        step = raw / (len(inner) + 1)
        self.samples += [(start + step * (i + 1), s) for i, s in enumerate(inner)]
        self.samples.append((self.pos, calibrate()))

    def measure(self, fn: Callable[[], object], kind: str = ""):
        """Run fn in this process and record its CPU time; returns its result."""
        if not self.samples:
            self.samples.append((self.pos, calibrate()))
        inner: list[float] = []
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: inner.append(calibrate()))
        signal.setitimer(signal.ITIMER_PROF, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        ok = False
        t0 = cpu()
        try:
            out = fn()
            ok = True
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            raw = cpu() - t0
            signal.signal(signal.SIGPROF, previous)
            self._record(raw - sum(inner), inner, kind, ok)
        return out

    def child(self, argv: list[str], env: dict | None = None, kind: str = ""):
        """Run a child process and record its CPU time; returns (rc, stdout, stderr, maxrss KB)."""
        if not self.samples:
            self.samples.append((self.pos, calibrate()))
        rc, out, err, raw, rss = run_child(argv, env)
        self._record(raw, [], kind, rc == 0, child=True)
        return rc, out, err, rss

    @property
    def raw(self) -> list[float]:
        return [c.raw for c in self.calls]

    @property
    def ref(self) -> list[float]:
        pos = [p for p, _ in self.samples]
        out = []
        for c in self.calls:
            if c.child:
                factor = self.cal_median()
            else:
                lo = bisect.bisect_left(pos, c.start - self.WINDOW_S)
                hi = bisect.bisect_right(pos, c.end + self.WINDOW_S)
                factor = statistics.median(s for _, s in self.samples[lo:hi])
            out.append(c.raw * CAL_REF_S / factor)
        return out

    def cal_median(self) -> float:
        return statistics.median(s for _, s in self.samples)


def run_child(argv: list[str], env: dict | None = None):
    """Run a child to its end; returns (rc, stdout, stderr, CPU s, maxrss KB) from wait4."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], ru.ru_utime + ru.ru_stime, ru.ru_maxrss


class OutOfInputs(RuntimeError):
    """A workload has no distinct input left to draw."""


def draw_fresh(seen: set, key, make):
    """make() until it gives a value not drawn before under key (no call may repeat an input)."""
    for _ in range(1000):
        val = make()
        if (key, tuple(val)) not in seen:
            seen.add((key, tuple(val)))
            return val
    raise OutOfInputs(f"{key} ran out of distinct inputs")
