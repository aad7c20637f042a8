"""Reference kernel that tracks how fast this interpreter runs right now.

Shared machines change speed by tens of percent within seconds, and CPU time
moves with wall time, so neither can be compared across runs.  The
benchmark times this fixed pure-Python kernel (exact rational arithmetic and
dictionary updates, like the library's own inner loops) before and after each
operation and, through :class:`Sampler`, every INTERVAL_S seconds during it.
It reports ``wall * REFERENCE_S / mean kernel time``: seconds at the speed at
which the kernel takes REFERENCE_S.  The raw wall times are printed
alongside.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

#: Kernel time, in seconds, that defines the reference speed.
REFERENCE_S = 0.0025

#: Seconds between kernel samples during an operation.
INTERVAL_S = 0.1


def kernel() -> float:
    """Run the kernel and return its wall time in seconds.

    The kernel runs as three equal parts and the median part counts three
    times, so one interruption does not read as a slow machine.  The cyclic
    garbage collector is off meanwhile (the kernel makes no cycles), so the
    program's live heap and its gc settings do not change the kernel's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        parts = []
        for _ in range(3):
            start = time.perf_counter()
            total = Fraction(0)
            table: dict[int, Fraction] = {}
            for i in range(1, 300):
                total += Fraction(i % 13, i % 97 + 1)
                table[i % 101] = total
            parts.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return 3 * sorted(parts)[1]


class Sampler:
    """Samples the kernel on SIGALRM while an operation runs.

    Use as a context manager around the whole loop (it owns the SIGALRM
    handler), and call :meth:`start` and :meth:`stop` around each operation.
    The handler runs between the operation's bytecodes; the time it takes is
    returned by :meth:`stop` so the caller can subtract it.
    """

    def __init__(self):
        self.kernels: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernels.append(kernel())
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        self.kernels, self.stolen = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[list[float], float]:
        """Stop sampling; return the kernel times and the seconds they took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.kernels, self.stolen
