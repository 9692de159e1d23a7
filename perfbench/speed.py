"""Speed-normalised clocks for a CPU whose speed changes while it runs.

On a shared host one CPU can run the same Python code 1.5x faster or
slower from one few-second stretch to the next, because of what other
tenants run beside it.  Wall and CPU time both move with it, so a pass
timed in a slow stretch reads slow for reasons outside the program.

`SpeedProbe` samples the current speed: a fixed reference kernel (a mix
of big-int XORs, dict and set work and tuple hashing, like the program's
own inner loops) is timed every `period` seconds from a SIGALRM handler,
and at every `mark()`.  Each stretch of time between two samples is
scaled by REF_KERNEL_S / (the kernel's time at the end of the stretch),
so the clocks read seconds at the speed where the kernel takes
REF_KERNEL_S.  The kernel's time is the median of the last three samples,
so one sample slowed by an interrupt does not skew a stretch.  The
kernel's own time is left out of both clocks.
"""

from __future__ import annotations

import signal
import time
from statistics import median

# The kernel's time on a fast stretch of a 2-vCPU x86-64 cloud VM.  It only
# sets the scale of the normalised clocks; any fixed value would do.
REF_KERNEL_S = 0.0025


def kernel() -> int:
    """Fixed work of about two milliseconds that allocates nothing lasting."""
    acc = 0
    for _ in range(6):
        acc += _kernel_round()
    return acc


def _kernel_round() -> int:
    acc = 0
    rows = [((0x9E3779B97F4A7C15 * (i + 1)) << (i * 31 % 1500)) | 1 for i in range(48)]
    for _ in range(4):
        for i in range(1, len(rows)):
            r = rows[i] ^ rows[i - 1]
            acc ^= (r & -r).bit_length()
            rows[i] = r
    seen: dict[tuple[int, int], int] = {}
    for i in range(600):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + i
    acc += len(seen) + len({frozenset((i, i % 7, i % 11)) for i in range(300)})
    return acc


class SpeedProbe:
    def __init__(self, period: float = 0.1):
        self.period = period
        self.wall = 0.0  # normalised clocks, closed up to the last sample
        self.cpu = 0.0
        self.kernel_s: list[float] = []  # every sample, for the record
        self._busy = False
        self._last_wall = self._last_cpu = 0.0

    def start(self) -> None:
        self._last_wall, self._last_cpu = time.perf_counter(), time.process_time()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """Sample now; return the normalised (wall, cpu) clocks."""
        self._sample()
        return self.wall, self.cpu

    def _sample(self) -> None:
        if self._busy:  # the timer fired inside a mark's sample
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        w1, c1 = time.perf_counter(), time.process_time()
        self.kernel_s.append(w1 - w0)
        scale = REF_KERNEL_S / median(self.kernel_s[-3:])
        self.wall += (w0 - self._last_wall) * scale
        self.cpu += (c0 - self._last_cpu) * scale
        self._last_wall, self._last_cpu = w1, c1
        self._busy = False
