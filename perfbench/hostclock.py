"""Host-speed probe: job seconds rescaled to a nominal host speed.

The shared hosts this benchmark runs on change speed by up to 2x over
seconds to minutes. Process CPU time tracks wall time, so the slowdown
is per cycle (a busy sibling hyperthread or memory contention), and no
hardware counters are exposed. A run-level average of wall seconds
therefore moves with the neighbours as much as with the program.

:class:`HostClock` samples the host's speed *during* each timed job. A
wall-clock interval timer fires every ``INTERVAL_S`` seconds, and its
handler times a fixed probe, a short mix of interpreter work and small
NumPy products like the simulator's own. The probe touches nothing the
job uses, so the job simulates the same thing. A job's reference
seconds are its wall seconds (probes excluded) times the nominal probe
time over the median probe time seen during the job. Plain wall
seconds are kept next to them.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

#: probe duration, in seconds, that defines one reference second: about
#: the probe's time on an uncontended 2-core Intel Xeon VM running
#: CPython 3.11 with NumPy 2.4 and single-threaded OpenBLAS
PROBE_NOMINAL_S = 0.00015
#: wall seconds between probes while a call is timed (about 1% overhead)
INTERVAL_S = 0.02
#: probes kept per timed call: 10 minutes of probing
MAX_PROBES = 30000

_A = np.random.default_rng(0).standard_normal((16, 16))


def probe() -> float:
    """Run the fixed probe work once; returns its wall seconds."""
    t0 = perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(600):
        acc += i * i % 7
        table[i & 63] = acc
    b = _A
    for _ in range(20):
        b = _A @ b
        b *= 0.1
    return perf_counter() - t0


class HostClock:
    """Times jobs in wall seconds and in reference seconds."""

    def __init__(self) -> None:
        self._probes = np.empty(MAX_PROBES)
        self._n = 0
        self.scale = 1.0

    def _on_timer(self, signum, frame) -> None:
        if self._n < MAX_PROBES:
            self._probes[self._n] = probe()
            self._n += 1

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; returns ``(result, wall_s, ref_s)``.

        ``wall_s`` excludes the probes' own time. Short calls that no
        probe lands in are scaled by a probe taken right after them.
        ``self.scale`` is left at ref seconds per elapsed wall second
        (probes included), to rescale host seconds measured inside the
        call.
        """
        self._n = 0
        old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        elapsed = wall
        probes = self._probes[:self._n]
        wall -= float(probes.sum())
        typical = float(np.median(probes)) if self._n else probe()
        ref = wall * PROBE_NOMINAL_S / typical
        self.scale = ref / elapsed if elapsed > 0 else 1.0
        return out, wall, ref
