"""Machine-speed calibration for wall-time measurements on a shared host.

On the 2-vCPU virtual machine this benchmark was built on, the speed of the
same single-threaded Python code swings by up to 2x within seconds (one
20 ms window of star-read ops ran at a 75 us median, a neighbouring one at
145 us) while the process keeps its CPU the whole time.  Raw median op
latencies of 10-second runs spread by 13-43% (interquartile range over
median, five runs) from run to run, more than a regression bound can absorb.

Every timed window is bracketed by `calibration_ns()`, a fixed interpreter
kernel that does not touch the package: string formatting, dict lookups and
small-object allocation, the kind of work the engines spend their time on.
A window's speed factor is its mean bracketing kernel time over NOMINAL_NS,
and scaled times are wall times divided by that factor: wall time at the
speed at which the kernel takes NOMINAL_NS.  Scaled median latencies spread
by 2-7% over ten runs on the same host; tails (p99) by 7-12%.
"""

from __future__ import annotations

from time import perf_counter_ns

NOMINAL_NS = 100_000  # about the kernel's time when the host is quiet

_KEYS = {f"n{i}": i for i in range(250)}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _kernel() -> int:
    acc = 0
    for i in range(250):
        pair = _Pair(i, _KEYS[f"n{i}"])
        acc += pair.a + pair.b
    return acc


def calibration_ns() -> int:
    """Median of three kernel runs, so one interrupt does not count."""
    runs = []
    for _ in range(3):
        t0 = perf_counter_ns()
        _kernel()
        runs.append(perf_counter_ns() - t0)
    return sorted(runs)[1]


def factor(before_ns: int, after_ns: int) -> float:
    """Speed factor of a window bracketed by two calibrations (1 = nominal,
    2 = everything takes twice as long)."""
    return (before_ns + after_ns) / (2 * NOMINAL_NS)
