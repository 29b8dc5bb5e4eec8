"""Samples how fast the CPU runs a fixed piece of Python while a command runs.

On a shared host the speed of one virtual CPU can swing by a factor of two
within seconds, and CPU time swings with it, so raw seconds of the same
work differ from run to run far more than a program change would.  The
probe measures that speed from inside the measured process: a timer signal
every ``PERIOD_S`` seconds runs ``kernel`` (a fixed integer loop) and
records how long it took.  A command's speed-normalised seconds are its
seconds minus the probe's own time, times ``NOMINAL_S`` over the median
probe duration seen while it ran: the time the command would take on a CPU
that runs the kernel in ``NOMINAL_S``.

The probe lives only in the benchmark's processes.  It adds a SIGALRM
handler and nothing else; the program's code and interpreter settings are
untouched.

Run as a script, it imports ``equirank.cli`` under the probe and prints one
JSON line; ``run.py`` times that process for ``setup_s``.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.005
KERNEL_LOOPS = 2000
# Kernel seconds that define the nominal CPU speed: a round figure inside
# the kernel's 0.15-0.20 ms in the measured processes on a 2-vCPU Intel
# Xeon under Python 3.11.
NOMINAL_S = 1.6e-4
EDGE_SAMPLES = 3

_clock = time.perf_counter


def kernel() -> int:
    s = 0
    for i in range(KERNEL_LOOPS):
        s += i * i
    return s


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._busy = False

    def _sample(self) -> None:
        self._busy = True
        start = _clock()
        kernel()
        end = _clock()
        self.samples.append(end - start)
        self.busy_s += end - start
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def edge(self) -> None:
        """A few samples outside the timed window, so short commands get some."""
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.busy_s

    def median_since(self, mark: tuple[int, float]) -> float:
        return statistics.median(self.samples[mark[0]:])


def normalised(seconds: float, probe_s: float, probe_median_s: float) -> float:
    """Seconds without the probe's own time, at the nominal CPU speed."""
    return (seconds - probe_s) * NOMINAL_S / probe_median_s


def _import_under_probe() -> None:
    import json
    probe = SpeedProbe()
    first = probe.mark()
    probe.start()
    import equirank.cli  # noqa: F401
    probe.stop()
    probe_s = probe.busy_s
    probe.edge()
    print(json.dumps({"probe_s": probe_s, "probe_median_s": probe.median_since(first)}))


if __name__ == "__main__":
    _import_under_probe()
