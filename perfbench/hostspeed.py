"""Host speed sampling, so that timed passes can be rescaled to a fixed speed.

On a shared host the benchmark's own CPU runs at changing speed: spells of
5-60 s in which every kind of work (Python loops, numpy, scipy's graph
searches) takes 1.2-1.7x as long.  The spells are longer than a pass, so
repeats and minima within one run do not remove them.  ``SpeedSampler``
therefore times a fixed pure-Python kernel every ``INTERVAL_S`` seconds from
a SIGALRM handler, in the same thread as the timed work, and
``reference_seconds`` divides each stretch of a timed interval by the slow-down
the samples around it show:

    reference seconds = sum over stretches of  wall / (kernel time / REF_KERNEL_S)

``REF_KERNEL_S`` is the kernel's time at the host's full speed, so a pass's
reference seconds are its wall time on the host when it is not slowed.  The
kernel does not touch anything the library computes, so results stay
bit-identical with or without the sampler.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
KERNEL_LOOPS = 12_000
# the kernel's fastest time on a 2-core shared x86-64 host (Python 3.11);
# a constant, so that a run spent wholly in a slow spell is still rescaled
REF_KERNEL_S = 0.85e-3
SMOOTH = 7                # samples in the running median of the slow-down


def _kernel() -> int:
    s = 0
    for i in range(KERNEL_LOOPS):
        s += i * i % 7
    return s


def _median(values) -> float:
    v = sorted(values)
    h = len(v) // 2
    return v[h] if len(v) % 2 else 0.5 * (v[h - 1] + v[h])


def kernel_slowdown(repeats: int = 7) -> float:
    """The host's slow-down now: median kernel time over ``repeats`` / REF_KERNEL_S.

    Imports nothing, so a fresh interpreter can call it before and after the
    imports it times.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return _median(times) / REF_KERNEL_S


class SpeedSampler:
    """Times ``_kernel`` every INTERVAL_S seconds of wall time while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.busy = 0.0           # seconds spent in samples so far

    def _sample(self, *_):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.busy += t1 - t0

    def clock(self) -> float:
        """``time.perf_counter`` with the samples' own time taken out."""
        return time.perf_counter() - self.busy

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdowns(self) -> list[float]:
        """Each sample's slow-down: running median of kernel time / REF_KERNEL_S."""
        raw = [(e - s) / REF_KERNEL_S for s, e in zip(self.starts, self.ends)]
        h = SMOOTH // 2
        return [_median(raw[max(0, i - h):i + h + 1]) for i in range(len(raw))]

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] rescaled to full host speed; call after ``stop``.

        The interval is cut at the samples, and each stretch between two
        samples is divided by the mean slow-down of the two; the samples'
        own time is left out.
        """
        n = len(self.starts)
        if n < 2:
            raise RuntimeError("the speed sampler took fewer than 2 samples")
        slow = self.slowdowns()
        inf = float("inf")
        total = 0.0
        for i in range(-1, n):
            if i < 0:
                lo, f = -inf, slow[0]
            else:
                lo = self.ends[i]
                f = 0.5 * (slow[i] + slow[i + 1]) if i + 1 < n else slow[i]
            hi = self.starts[i + 1] if i + 1 < n else inf
            total += max(0.0, min(hi, t1) - max(lo, t0)) / f
        return total
