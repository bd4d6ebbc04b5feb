"""Helpers shared by the workloads: statistics, machine-speed calibration,
CPU placement, scratch space, process memory and the environment block.
Nothing here calls ``repro``."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: percentiles a tail can be reported at, highest first
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond the reported tail percentile
TAIL_MIN_BEYOND = 10

#: calibration-kernel time that defines the reference machine speed: a time
#: measured while the kernel took ``calib_ms`` is reported as
#: ``raw * REFERENCE_CALIB_MS / calib_ms``
REFERENCE_CALIB_MS = 1.35

#: how strongly serving times follow the calibration kernel: a serving time
#: measured while the kernel took ``calib_ms`` is scaled by
#: ``(REFERENCE_CALIB_MS / calib_ms) ** SERVING_SPEED_EXPONENT`` (and by
#: the share of the server's runnable time that was not stolen, see
#: ``serve.Outcome.speed_factor``).  A request's time is only partly the
#: server's CPU work (the batching window, socket hops and the client are
#: not), so the exponent is below 1; 0.5 gave the tightest spreads over
#: trial runs (evidence in NOTES.md)
SERVING_SPEED_EXPONENT = 0.5

#: set-ups per run; ``setup_s`` is their median (plus the one-off imports)
SETUP_REPEATS = 3

#: share by which an open-loop step's answered rate may fall short of its
#: offered rate before the step counts as building a backlog
BACKLOG_TOLERANCE = 0.05

#: load at which a ladder step enters the saturation fit: a step far over
#: its limits says no more about where the knee lies than one just over
LOAD_CAP = 2.0

ROOT = Path(__file__).resolve().parents[1]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly after the nearest-rank ``q`` percentile of ``count``."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ``TAIL_MIN_BEYOND`` samples beyond it."""
    for q in TAIL_LADDER:
        if samples_beyond(count, q) >= TAIL_MIN_BEYOND:
            return q
    return TAIL_LADDER[-1]


def tail(values) -> "tuple[float, float]":
    """``(value, percentile)`` of the tail of ``values``."""
    q = tail_percentile(len(values))
    return percentile(values, q), q


def backlog_growth(offsets_s, latency_ms) -> float:
    """How fast the queueing delay grew during one open-loop step, in s/s.

    ``offsets_s`` are the scheduled sends (seconds from the step's start, in
    order) and ``latency_ms`` each request's time from its scheduled send to
    its answer.  The growth is the rise of the median latency from the first
    third of the requests to the last, over the time between the two
    thirds' median sends.  Offered ``r`` requests per second against a
    capacity ``c < r``, the delay grows at ``1 - c/r``: the share of the
    offered rate that went unanswered.  Medians keep one stall from
    counting as a backlog.
    """
    third = len(offsets_s) // 3
    if third < 1:
        raise ValueError("backlog growth of fewer than three requests")
    span = median(offsets_s[-third:]) - median(offsets_s[:third])
    rise_ms = median(latency_ms[-third:]) - median(latency_ms[:third])
    return rise_ms / 1000.0 / span if span > 0 else 0.0


def delivery_ratio(offsets_s, latency_ms, failed: int = 0) -> float:
    """Answered over offered rate of one open-loop step (at most 1).

    The unanswered share is the backlog's growth (``backlog_growth``) plus
    the share of requests that failed.
    """
    growth = max(0.0, backlog_growth(offsets_s, latency_ms))
    return (1.0 - failed / len(offsets_s)) * max(0.0, 1.0 - growth)


def step_load(tail_ms: float, limit_ms: float, delivery: float) -> float:
    """How close a ladder step came to its limits: 1.0 at the nearer one.

    A step passes at a load of at most 1: its tail meets ``limit_ms`` and
    its answered rate is within ``BACKLOG_TOLERANCE`` of its offered rate.
    """
    return max(tail_ms / limit_ms, (1.0 - delivery) / BACKLOG_TOLERANCE)


def monotone_fit(values) -> "list[float]":
    """Least-squares non-decreasing fit of ``values`` (pool adjacent violators)."""
    blocks: "list[list[float]]" = []            # [mean, size]
    for value in values:
        blocks.append([float(value), 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean, size = blocks.pop()
            blocks[-1] = [(blocks[-1][0] * blocks[-1][1] + mean * size) / (blocks[-1][1] + size),
                          blocks[-1][1] + size]
    return [mean for mean, size in blocks for _ in range(int(size))]


def saturation(steps) -> "tuple[float, str]":
    """Interpolated highest rate a ladder passes.

    ``steps`` is the ladder in rising order as ``(offered_rps, load)``, with
    ``load`` from ``step_load``.  Near the knee one step can pass or fail
    by chance, so the loads, capped at ``LOAD_CAP``, are first replaced by
    their non-decreasing least-squares fit: a lone failure between passes
    is outvoted instead of ending the ladder.  The result lies on the
    straight line between the last step whose fitted load passes (at most
    1) and the first that fails, where that line crosses 1.  Returns the
    rate and how it was found: ``interpolated``, ``below_ladder`` (the
    first step already failed; scaled down by its load) or ``above_ladder``
    (no step failed; the top rate is a lower bound).
    """
    if not steps:
        raise ValueError("saturation of an empty ladder")
    rates = [rate for rate, _ in steps]
    loads = monotone_fit([min(load, LOAD_CAP) for _, load in steps])
    for k, (rate, load) in enumerate(zip(rates, loads)):
        if load > 1.0:
            if k == 0:
                return rate / load, "below_ladder"
            fraction = (1.0 - loads[k - 1]) / (load - loads[k - 1])
            return rates[k - 1] + (rate - rates[k - 1]) * fraction, "interpolated"
    return rates[-1], "above_ladder"


def speed_factor(calib_ms: float, exponent: float) -> float:
    """Factor that takes a time measured at ``calib_ms`` to the reference speed."""
    return (REFERENCE_CALIB_MS / calib_ms) ** exponent


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------- #
# Machine-speed calibration
# ---------------------------------------------------------------------- #
_WORDS = np.arange(64, dtype=np.uint64)


def calibration_kernel() -> float:
    """Milliseconds taken by a fixed mix of interpreter work and small numpy ops.

    The mix resembles the compiler's hot loop (short numpy calls on one-word
    rows, dict and list churn), so a box that runs it slower runs the
    compiler slower by about the same factor.  The garbage collector is
    paused so that a collection of the caller's heap is not billed to the
    box.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(150):
            row = _WORDS ^ np.uint64(i)
            acc += int(row[i & 63]) + int(row.sum() & 0xFF)
            key = (i * 2654435761) & 0xFFFF
            table[key] = [key >> s & 1 for s in range(16)]
            acc += sum(table[key])
        elapsed = (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()
    if acc < 0:  # keeps the work observable
        raise AssertionError
    return elapsed


def calibrate(rounds: int = 5) -> float:
    """Median of ``rounds`` kernel timings, in ms."""
    return median([calibration_kernel() for _ in range(rounds)])


class SpeedSampler:
    """Samples the calibration kernel every ``interval`` seconds while active.

    The samples are taken by a ``SIGALRM`` handler, so they run on the main
    thread, in the middle of whatever it is doing (a long compile, say), and
    therefore on the same vCPU at the same moment.  ``paused_ms`` is the
    time the handler took; the caller subtracts it from what it timed.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: "list[float]" = []
        self.paused_ms = 0.0

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_kernel())
        self.paused_ms += (time.perf_counter() - start) * 1000.0

    def __enter__(self) -> "SpeedSampler":
        self.samples = [calibration_kernel()]
        self.paused_ms = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibration_kernel())

    def speed_ms(self) -> float:
        """Median kernel time over the sampled interval."""
        return median(self.samples)


def cpu_times(cpu: "int | None") -> "tuple[int, int, int]":
    """``(total, busy, steal)`` jiffies of one CPU (or all, for ``None``) from ``/proc/stat``.

    Busy is user, nice, system, irq and softirq time.  Steal is time the
    hypervisor ran someone else while this vCPU had work: the share of a
    phase it takes is the share of the server's time lost to other
    tenants, which the calibration kernel, being short, mostly misses.
    """
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] == label:
                    values = [int(v) for v in fields[1:9]] + [0] * 8
                    busy = values[0] + values[1] + values[2] + values[5] + values[6]
                    return sum(values[:8]), busy, values[7]
    except OSError:
        pass
    return 0, 0, 0


class Placement:
    """Which vCPU the server and the load generator run on.

    With two or more CPUs available the server gets one and this process
    another, so the generator never steals the server's core, and the
    server's speed can be sampled on its own core while it is idle.  With
    one CPU nothing is pinned.
    """

    def __init__(self):
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            cpus = []
        self.pinned = len(cpus) >= 2
        self.server_cpu = cpus[0] if self.pinned else None
        self.generator_cpu = cpus[1] if self.pinned else None
        self.all_cpus = set(cpus)

    def pin_server(self, pid: int) -> None:
        if self.pinned:
            os.sched_setaffinity(pid, {self.server_cpu})

    def pin_generator(self) -> None:
        if self.pinned:
            os.sched_setaffinity(0, {self.generator_cpu})

    def release(self) -> None:
        if self.pinned:
            os.sched_setaffinity(0, self.all_cpus)

    def server_speed_ms(self) -> float:
        """Calibration kernel on the server's core (call while the server is idle)."""
        if not self.pinned:
            return calibrate(3)
        os.sched_setaffinity(0, {self.server_cpu})
        try:
            return calibrate(3)
        finally:
            os.sched_setaffinity(0, {self.generator_cpu})


# ---------------------------------------------------------------------- #
# Process and environment
# ---------------------------------------------------------------------- #
@contextlib.contextmanager
def serving_context(prefix: str):
    """A scratch directory inside the checkout and a pinned generator.

    Yields ``(work_dir, placement)``; the directory (and ``.qbench_work``
    when it is left empty) is removed and the pinning undone on exit.
    """
    work_root = ROOT / ".qbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{prefix}-", dir=work_root)
    placement = Placement()
    placement.pin_generator()
    try:
        yield work_dir, placement
    finally:
        placement.release()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` of a process in MiB (0.0 where ``/proc`` is unavailable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def src_line_count() -> int:
    total = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_lines": src_line_count(),
    }
