"""Machine-speed probe: rescales wall times to a reference interpreter speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
within a second and over minutes.  A fixed piece of pure-Python work,
independent of abslog, is timed at the ends of short segments of the
measured work; each segment is rescaled by how much slower than
``REFERENCE_MS`` the probe ran at its two ends.  A reported time is
therefore the time the work would take on a machine where the probe takes
``REFERENCE_MS``: it tracks changes to the program, not the machine's load.
On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11) the probe
takes about 2.5 ms when the machine is quiet.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_MS = 2.5
SEGMENT_S = 0.1  # a segment closes at the first call boundary after this


def probe_ms() -> float:
    """Milliseconds for the fixed work: a small set loop (hot cache) and a
    dict of frozenset keys (a working set like the program's)."""
    start = perf_counter()
    seen, acc = set(), 0
    for i in range(4000):
        key = (i * 7919) & 2047
        if key in seen:
            acc ^= key << (i & 7)
        else:
            seen.add(key)
        acc = (acc * 31 + len(seen)) & 0xFFFFF
    table: dict = {}
    for i in range(3000):
        key = (i * 2654435761) & 0xFFFFF
        table[key] = table.get(key, 0) + 1
        table[frozenset((key & 7, key & 15, key & 31))] = key
    return (perf_counter() - start) * 1000.0


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that maps a wall time between two probes to the reference speed."""
    return 2.0 * REFERENCE_MS / (before_ms + after_ms)


class SpeedClock:
    """Wall time with the probes taken out, and that time rescaled.

    ``checkpoint`` is called only between calls into the program.  Once the
    open segment is ``SEGMENT_S`` long (or when forced) it probes, adds the
    segment rescaled by the probes at its two ends to ``scaled_s``, and
    opens the next segment.
    """

    def __init__(self):
        self.scaled_s = 0.0
        self.probe_s = 0.0
        self._before = self._probe()
        self._mark = perf_counter()

    def _probe(self) -> float:
        start = perf_counter()
        ms = probe_ms()
        self.probe_s += perf_counter() - start
        return ms

    def wall(self) -> float:
        """Seconds of wall time, probes excluded (an arbitrary origin)."""
        return perf_counter() - self.probe_s

    def checkpoint(self, force: bool = False) -> None:
        segment = perf_counter() - self._mark
        if segment < SEGMENT_S and not force:
            return
        after = self._probe()
        self.scaled_s += segment * scale(self._before, after)
        self._before = after
        self._mark = perf_counter()
