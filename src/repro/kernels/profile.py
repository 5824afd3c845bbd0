"""Per-kernel call / nanosecond / byte counters behind an injected clock.

The profiler is how the S06 benchmark (and anyone chasing a regression)
attributes wall time to individual kernels instead of whole queries.  It is
strictly opt-in: with no profiler installed the kernels in
:mod:`repro.kernels.ops` pay one ``None`` check per call and nothing else.

The clock is injected (default ``time.perf_counter_ns`` — a monotonic
duration measurement, not simulation state) so tests assert exact counter
arithmetic with a manual tick source instead of sleeping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

__all__ = ["KernelStats", "KernelProfiler", "active_profiler", "profiled"]


@dataclass
class KernelStats:
    """Accumulated counters for one kernel."""

    calls: int = 0
    ns: int = 0
    nbytes: int = 0

    def add(self, ns: int, nbytes: int) -> None:
        self.calls += 1
        self.ns += int(ns)
        self.nbytes += int(nbytes)


class KernelProfiler:
    """Accumulates per-kernel counters; install with :func:`profiled`."""

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        #: Nanosecond tick source; injectable so tests control elapsed time.
        self.clock: Callable[[], int] = (
            time.perf_counter_ns if clock is None else clock
        )
        self.stats: Dict[str, KernelStats] = {}

    def record(self, kernel: str, ns: int, nbytes: int) -> None:
        stats = self.stats.get(kernel)
        if stats is None:
            stats = self.stats[kernel] = KernelStats()
        stats.add(ns, nbytes)

    def reset(self) -> None:
        self.stats.clear()

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Plain-dict view of the counters (canonical-JSON friendly)."""
        return {
            name: {"calls": s.calls, "ns": s.ns, "nbytes": s.nbytes}
            for name, s in sorted(self.stats.items())
        }


_ACTIVE: Optional[KernelProfiler] = None


def active_profiler() -> Optional[KernelProfiler]:
    """The currently installed profiler, or ``None`` (the fast path)."""
    return _ACTIVE


@contextmanager
def profiled(profiler: Optional[KernelProfiler] = None) -> Iterator[KernelProfiler]:
    """Install ``profiler`` (a fresh one if omitted) for the duration.

    Nests: the previous profiler is restored on exit, so a benchmark can
    scope counters per arm.
    """
    global _ACTIVE
    prof = KernelProfiler() if profiler is None else profiler
    previous = _ACTIVE
    _ACTIVE = prof
    try:
        yield prof
    finally:
        _ACTIVE = previous
