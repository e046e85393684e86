"""Host speed probe: scales wall times to a host running at a reference speed.

The benchmark shares a few cores of a host with other tenants, and their load
slows this process by up to half for minutes at a time. Wall time then
measures the neighbours as much as detlab. To take that out, a `Probe` runs a
small fixed piece of work (`probe_work`) every PROBE_INTERVAL_S while detlab
runs, from a timer signal in the same thread, and keeps how long each run of
it took. The probe's median time is the host's slowness during that interval,
and

    scaled seconds = (wall seconds - time spent in the probe) * PROBE_REF_S / probe median

is the interval's length on a host where the probe takes PROBE_REF_S. The
probe's data fits in the first-level cache, so detlab's own memory traffic
barely moves it; the probe is benchmark code, so no change to detlab does.
Over 20 repetitions of one desk operation on the reference host, the probe
median and the wall time correlated at 0.94.
Python runs a signal handler between bytecodes, so a sample waits for a long
numpy call to return, and system calls that the signal interrupts are retried.

Run this file to print the probe's median time on this host.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
# The probe's median time while a desk run runs on the reference host, a
# 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6; there scaled
# seconds read close to wall seconds.
PROBE_REF_S = 1.3e-4
_SMALL = np.random.default_rng(0).random((64, 4))


def probe_work() -> float:
    """A fixed mix of interpreter work and tiny-array numpy calls, ~0.15 ms."""
    acc = 0.0
    for i in range(300):
        acc += (i * 7) % 13
    table = {i: i * 0.5 for i in range(64)}
    acc += sum(table.values())
    for _ in range(5):
        acc += float(np.maximum(_SMALL[:, None, 0], _SMALL[None, :, 2]).sum())
    return acc


class Probe:
    """Samples the probe every PROBE_INTERVAL_S while active.

    Use as a context manager around the work to scale. Only one probe may be
    active in a process, and only in the main thread.
    """

    def __init__(self):
        probe_work()  # first-call costs stay out of the samples
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        """Seconds spent in the probe, to subtract from the wall time."""
        return sum(self.samples)

    @property
    def median_s(self) -> float:
        if not self.samples:  # shorter than one interval: take one sample now
            self._sample(None, None)
        return statistics.median(self.samples)

    def scale(self, wall_s: float) -> float:
        """`wall_s`, measured around the probed interval, at reference speed."""
        return scaled(wall_s, self.probe_s, self.median_s)


def scaled(wall_s: float, probe_s: float, median_s: float) -> float:
    return (wall_s - probe_s) * PROBE_REF_S / median_s


if __name__ == "__main__":
    probe = Probe()
    with probe:
        end = time.perf_counter() + 2.0
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
    print(f"probe median {probe.median_s * 1e3:.4f} ms over {len(probe.samples)} samples")
