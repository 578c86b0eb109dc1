"""Machine-speed probe: a clock that runs at a reference machine speed.

On a shared host, other tenants slow the physical core for seconds to
minutes at a time.  The process is not descheduled (steal time stays flat
and CPU time tracks wall time); the core simply runs slower.  On the 2-vCPU
VM this benchmark was sized on, whole runs of the same code moved 20-40%
with it, and one trial's sections 10-30%.  A fixed kernel timed *during*
the work slows with it: over ~30 trials per workload, the kernel's median
inside a section correlated with the section's time at r = 0.90-0.97.
Timed only before and after each multi-second trial it did not help,
because the slowdown changes within a second.

So :class:`SpeedProbe` times the kernel from a ``SIGALRM`` interval timer
every :attr:`SpeedProbe.INTERVAL_S` of wall time, inside the workload, and
keeps a speed factor: :data:`KERNEL_REF_S` over the median of the last
:attr:`SpeedProbe.WINDOW` kernel times.  :meth:`SpeedProbe.clock` adds up
wall time times that factor and leaves out the probe's own ticks, so every
duration read from it is in *reference seconds*: the time the work would
take where the kernel takes ``KERNEL_REF_S``.  The kernel touches no
``repro`` code, so a change to the program cannot change it.
"""

from __future__ import annotations

import collections
import gc
import json
import math
import signal
import statistics
import time
from typing import Any, Deque, List, Tuple

import numpy as np

__all__ = ["KERNEL_REF_S", "SpeedProbe"]

#: Kernel time at the reference speed, about its median on the VM the
#: benchmark was sized on when the host was quiet (see README).
KERNEL_REF_S = 0.4e-3

_RNG = np.random.default_rng(0)
_ROWS = _RNG.standard_normal((64, 6, 6))
_SPD = _ROWS @ _ROWS.transpose(0, 2, 1) + 6.0 * np.eye(6)
_RHS = _RNG.standard_normal((64, 6, 3))
_BLOCK = np.ones(1 << 19)  # 4 MiB: larger than the L2, like the banks and WAL buffers


def _interpreter() -> None:
    table = {}
    for i in range(100):
        text = json.dumps({"i": i, "x": i * 0.5})
        table[text] = json.loads(text)["x"]
    for value in sorted(table.values()):
        math.sqrt(value + 1.0)


def _batched_linalg() -> None:
    for _ in range(3):
        np.linalg.solve(np.linalg.cholesky(_SPD), _RHS)


def _memory() -> None:
    _BLOCK.sum()


#: Contention slows interpreter, small-matrix and memory-bound code by
#: different amounts, and each workload mixes them differently.  Over the
#: four workloads, the geometric mean of the three parts tracked every
#: section better than any one part or their sum.
_PARTS = (_interpreter, _batched_linalg, _memory)


def _kernel_s() -> float:
    """Run the kernel once; the geometric mean of its parts' times."""
    log_s = 0.0
    for part in _PARTS:
        start = time.perf_counter()
        part()
        log_s += math.log(time.perf_counter() - start)
    return math.exp(log_s / len(_PARTS))


class SpeedProbe:
    """While entered, :meth:`clock` reads reference seconds."""

    INTERVAL_S = 0.05
    #: Kernel times in the trailing median that sets the speed factor.
    WINDOW = 7

    def __init__(self) -> None:
        #: ``(perf_counter at the tick, kernel seconds)`` per tick.
        self.samples: List[Tuple[float, float]] = []
        #: Wall time spent inside the probe, handler overhead included.
        self.paused_s = 0.0
        self._recent: Deque[float] = collections.deque(maxlen=self.WINDOW)
        #: ``(reference seconds at perf_counter ``since``, since, factor)``,
        #: replaced as one object so a reader never sees half an update.
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous: Any = None

    def __enter__(self) -> "SpeedProbe":
        self._recent.extend(_kernel_s() for _ in range(self.WINDOW))
        self._state = (0.0, time.perf_counter(), self.factor())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference seconds per wall second at the current speed."""
        return KERNEL_REF_S / statistics.median(self._recent)

    def _tick(self, signum: int, frame: Any) -> None:
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's heap, not the core
        kernel_s = _kernel_s()
        if collecting:
            gc.enable()
        self._advance(entered, kernel_s, time.perf_counter())

    def _advance(self, entered: float, kernel_s: float, left: float) -> None:
        """Book a tick that ran from ``entered`` to ``left`` (``perf_counter``)."""
        reference_s, since, factor = self._state
        reference_s += (entered - since) * factor
        self.samples.append((entered, kernel_s))
        self._recent.append(kernel_s)
        self.paused_s += left - entered
        self._state = (reference_s, left, self.factor())

    def clock(self) -> float:
        """Reference seconds since the probe was entered, without its ticks."""
        return self._at(time.perf_counter())

    def _at(self, now: float) -> float:
        reference_s, since, factor = self._state
        # A tick between reading ``now`` and the state leaves since > now.
        return reference_s + max(now - since, 0.0) * factor

    def run_factor(self) -> float:
        """Reference seconds per wall second over the whole run so far."""
        kernel = [seconds for _, seconds in self.samples]
        return KERNEL_REF_S / statistics.median(kernel) if kernel else self.factor()
