"""How fast the machine runs right now, sampled while a workload runs.

On a shared host the same code runs up to ~50% slower from one minute to
the next: neighbours contend for the core and its caches.  A timing taken
in one run then says as much about the neighbours as about the program.

A :class:`Sampler` measures that drift in the measured process itself.
Every :data:`PERIOD_S` of wall time a timer signal runs :func:`probe` — a
fixed, cache-resident mix of interpreter work and small NumPy gathers that
touches nothing of the program — and records how long it took.  The mean
of the samples taken during a phase is the machine's *slowdown* over that
phase, relative to :data:`REF_PROBE_S`.  Dividing a phase's wall time by
its slowdown gives its time at reference speed, which is what the gated
timing metrics report.

The probe runs its body once untimed and times the second pass, so its
reading does not depend on what the program left in the caches.  Both
passes together cost about 0.6 ms, 1.2% of the sampled time, on parent and
change alike.

The probe is mostly interpreter work because the workloads are: over ten
runs of each workload, a probe of NumPy gathers over a 2 MiB array tracked
the drift worse on every workload, ``simulate_grid`` included (README,
"Machine speed").
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Wall time between two probes.
PERIOD_S = 0.05

#: The probe's typical duration on the machine the recorded baselines come
#: from (a 2-vCPU Xeon KVM guest, Python 3.11, NumPy 2.4).  It only scales
#: the reported values; it does not change their spread.
REF_PROBE_S = 3.0e-4

_rng = np.random.default_rng(20130223)
_VALUES = _rng.integers(0, 1 << 30, size=2048, dtype=np.int64)  # 16 KiB
_GATHER = _rng.integers(0, _VALUES.size, size=2048)
_TABLE = {i: i * 7 for i in range(512)}


def _body() -> int:
    acc = 0
    table = _TABLE
    for i in range(1000):
        acc = (acc * 31 + table[i & 511]) & 0xFFFFF
    values = _VALUES
    for _ in range(16):
        values = values[_GATHER] ^ (values >> 3)
    return acc + int(values[0])


def probe() -> float:
    """Seconds the probe body takes, caches warmed by a first pass."""
    _body()
    started = time.perf_counter()
    _body()
    return time.perf_counter() - started


class Sampler:
    """Probe durations taken every :data:`PERIOD_S` while started.

    The probes run in a ``SIGALRM`` handler, so between two bytecodes of the
    main thread; one inside a long NumPy call waits until it returns.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """A position to take :meth:`since`."""
        return len(self.samples)

    def since(self, mark: int) -> list[float]:
        return self.samples[mark:]


def slowdown(samples: list[float]) -> float:
    """Mean probe time over the reference; 1.0 when nothing was sampled.

    The mean, not the median: the program ran through the slow moments too,
    so they weigh in by how long they lasted.
    """
    return statistics.fmean(samples) / REF_PROBE_S if samples else 1.0
