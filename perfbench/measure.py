"""Closed-loop operation runner, host-speed calibration and the tail-aware
percentile helper.

One producer issues one operation at a time and waits for it to return
before issuing the next. Only the library call is timed; input slicing and
output checks run outside the timer.
"""

from __future__ import annotations

import math
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# a percentile is reported only when at least this many samples lie beyond it
MIN_TAIL = 10
# latency windows: a 30 s run gives windows of about a second; a p95 of
# MIN_WINDOW samples has MIN_TAIL beyond it
WINDOWS = 30
MIN_WINDOW = 200


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than ``MIN_TAIL`` samples lie beyond the
    percentile, because such a tail is too thin to estimate it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(math.ceil(q / 100.0 * n), 1)
    beyond = n - rank
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need at least {MIN_TAIL}"
        )
    return ordered[rank - 1]


def latency_percentile(starts_ns, durations_ms, failed_starts_ns, q: float) -> float:
    """Median over consecutive windows of operations of each window's
    ``q``-th percentile. A failed operation counts as infinitely slow, so a
    percentile landing on failures is ``inf``.

    The operations, ordered by start time, are split into at most
    ``WINDOWS`` windows of at least ``MIN_WINDOW`` each. A burst of load on
    a shared host fills the tail of the windows it falls in; the median
    over windows keeps a short burst from setting the run's tail.
    """
    by_start = sorted([*zip(starts_ns, durations_ms), *((t, math.inf) for t in failed_starts_ns)])
    values = [d for _, d in by_start]
    windows = max(1, min(WINDOWS, len(values) // MIN_WINDOW))
    return float(np.median([percentile(w, q) for w in np.array_split(values, windows)]))


class Calibration:
    """Host speed along a run, from a fixed LAPACK kernel timed at intervals.

    On a shared host the same code runs tens of percent faster or slower
    for seconds to minutes at a time. The kernel (a 64x64 solve plus a
    symmetric eigendecomposition) speeds up and slows down with the host,
    and no library change can touch it, so scaling a measured time by
    ``REFERENCE_NS`` over the kernel's time around that moment removes most
    of the drift.
    """

    EVERY_NS = 100_000_000
    # about the kernel's time on a 2-vCPU x86-64 host with single-threaded
    # OpenBLAS, so that scaled figures stay close to raw ones there
    REFERENCE_NS = 800_000
    WINDOW = 5  # samples in the running median around each moment

    def __init__(self):
        a = np.random.default_rng(0).uniform(size=(64, 64))
        self._a = a @ a.T + 64.0 * np.eye(64)
        self._b = np.ones(64)
        self.at_ns: list[int] = []
        self.took_ns: list[int] = []
        for _ in range(3):  # warm up caches and LAPACK workspaces
            self._kernel()

    def _kernel(self) -> None:
        np.linalg.solve(self._a, self._b)
        np.linalg.eigh(self._a)

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        self._kernel()
        self.at_ns.append(t0)
        self.took_ns.append(time.perf_counter_ns() - t0)

    def maybe_sample(self) -> None:
        if not self.at_ns or time.perf_counter_ns() - self.at_ns[-1] >= self.EVERY_NS:
            self.sample()

    def factors(self, times_ns) -> np.ndarray:
        """Scale factor for events that started at ``times_ns``:
        ``REFERENCE_NS`` over the median of the samples around each."""
        took = np.asarray(self.took_ns, dtype=np.float64)
        half = self.WINDOW // 2
        smoothed = np.array([np.median(took[max(0, j - half) : j + half + 1]) for j in range(len(took))])
        nearest = np.clip(np.searchsorted(self.at_ns, times_ns), 0, len(took) - 1)
        return self.REFERENCE_NS / smoothed[nearest]


@dataclass
class LoopStats:
    """Outcome of one closed-loop pass."""

    durations_ns: list[int] = field(default_factory=list)  # successful operations only
    starts_ns: list[int] = field(default_factory=list)  # start of each of those
    failed_starts_ns: list[int] = field(default_factory=list)  # start of each failed operation
    failures: Counter = field(default_factory=Counter)  # exception type or check name -> count
    first_traceback: dict[str, str] = field(default_factory=dict)
    points: int = 0  # input points consumed by successful operations
    busy_ns: int = 0  # time inside calls, failed ones included
    wall_ns: int = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def attempted(self) -> int:
        return len(self.durations_ns) + self.failed


def _attempt(workload, x, stats: LoopStats):
    """One timed call plus its check; the checked output, or ``None`` when
    the call raised or a check failed (counted in ``stats``)."""
    t0 = time.perf_counter_ns()
    try:
        out = workload.call(x)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, the loop keeps running
        stats.busy_ns += time.perf_counter_ns() - t0
        key = type(exc).__name__
        stats.failures[key] += 1
        stats.failed_starts_ns.append(t0)
        stats.first_traceback.setdefault(key, traceback.format_exc())
        return None
    elapsed = time.perf_counter_ns() - t0
    stats.busy_ns += elapsed
    failed_check = workload.check(x, out)
    if failed_check is not None:
        stats.failures[f"check:{failed_check}"] += 1
        stats.failed_starts_ns.append(t0)
        return None
    stats.durations_ns.append(elapsed)
    stats.starts_ns.append(t0)
    stats.points += len(x)
    return out


def run_closed_loop(workload, seconds: float, min_ops: int, calibration: Calibration) -> LoopStats:
    """Issue operations until ``seconds`` have passed and at least ``min_ops``
    were attempted; sample ``calibration`` between operations when it is due.

    ``workload`` provides ``next_input(i)`` (called once per operation, in
    order), ``call(x)`` (the timed library call), ``check(x, out)`` (``None``
    or the name of the failed check) and ``commit(out)`` (accept a checked
    output). An exception from ``call`` or a failed check counts the
    operation as failed; the loop goes on with the next input.
    """
    stats = LoopStats()
    start = time.perf_counter_ns()
    i = 0
    while i < min_ops or time.perf_counter_ns() - start < seconds * 1e9:
        calibration.maybe_sample()
        out = _attempt(workload, workload.next_input(i), stats)
        if out is not None:
            workload.commit(out)
        i += 1
    stats.wall_ns = time.perf_counter_ns() - start
    calibration.sample()
    return stats


def run_paired(workload, traced, n_ops: int) -> tuple[LoopStats, LoopStats]:
    """Run each of ``n_ops`` operations twice on the same input and state:
    once plain and once inside the ``traced()`` context, alternating which
    goes first so that neither side always finds the caches warm. Pairing
    adjacent calls keeps drift in machine speed out of the comparison. The
    plain call's output is committed."""
    plain_stats, traced_stats = LoopStats(), LoopStats()
    for i in range(n_ops):
        x = workload.next_input(i)
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                with traced():
                    _attempt(workload, x, traced_stats)
            else:
                out = _attempt(workload, x, plain_stats)
        if out is not None:
            workload.commit(out)
    return plain_stats, traced_stats
