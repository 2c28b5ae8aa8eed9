"""Shared pieces of the benchmark: sizes, seeds, timing, metadata, results."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave artifacts, server logs and trace files.
OUT_DIR = ROOT / ".perfbench_out"


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def seeds(seed: int, n: int) -> List[int]:
    """``n`` independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Host-speed calibration
# ---------------------------------------------------------------------- #
#: Calibration time after each timed block, as a share of the block's time.
CALIBRATION_SHARE = 0.03
_CALIBRATION_INPUT = np.linspace(-1.0, 1.0, 64)
_CALIBRATION_WEIGHTS = np.linspace(0.0, 1.0, 32)


def calibration_kernel() -> float:
    """A fixed piece of interpreter-bound work that the program never runs.

    The host's speed flips between two levels every second or so, and
    differs from one process to the next by up to a quarter.  Timing this
    kernel right after each block of program work measures the speed the
    host had then; no change to the program can change it.
    """
    total = 0.0
    for i in range(3000):
        total += (i * 7) % 13
    for _ in range(50):
        total += float(np.tanh(_CALIBRATION_INPUT)[0])
    return total


def numpy_call_kernel() -> float:
    """A fixed run of 200 numpy calls on tiny arrays, for the same purpose.

    The 49x32 BGF loop is such calls end to end.  As the host's speed
    changes, its time follows this kernel's closely, and the interpreter
    steps :func:`calibration_kernel` is mostly made of change less.
    """
    total = 0.0
    for _ in range(100):
        total += float(np.tanh(_CALIBRATION_INPUT)[0])
        total += float((_CALIBRATION_INPUT[:32] * _CALIBRATION_WEIGHTS).sum())
    return total


#: Median time of one call of each kernel on the host the bounds were set
#: on (2 vCPUs, Python 3.11, numpy 2.4), in ms.
REFERENCE_MS = {calibration_kernel: 0.36, numpy_call_kernel: 0.44}


def calibrate(reps: int, kernel: Callable[[], float] = calibration_kernel) -> float:
    """Seconds ``reps`` calls of ``kernel`` take."""
    start = time.perf_counter()
    for _ in range(reps):
        kernel()
    return time.perf_counter() - start


class BlockTimer:
    """Times repeated calls of ``step(i)``, i = 0, 1, ..., across windows.

    A workload alternates several timers in windows of a few seconds, so
    every timed quantity samples the whole run rather than one stretch of
    it.  After each call, outside the timed region, come a calibration
    with ``kernel`` for ``CALIBRATION_SHARE`` of the call's time and
    ``after_block(i)``.
    """

    def __init__(
        self,
        step: Callable[[int], None],
        after_block: Optional[Callable[[int], None]] = None,
        kernel: Callable[[], float] = calibration_kernel,
    ):
        self.step = step
        self.after_block = after_block
        self.kernel = kernel
        self.reference_ms = REFERENCE_MS[kernel]
        self.durations: List[float] = []
        self.calibration_s: List[float] = []
        self.calibration_reps: List[int] = []
        self.windows: List[tuple] = []  # (first block, end block) per run()

    def run(self, seconds: float, min_blocks: int = 0) -> None:
        """Time calls until ``seconds`` pass and ``min_blocks`` are done in all.

        The calls of one ``run`` form one window.
        """
        first = len(self.durations)
        deadline = time.perf_counter() + seconds
        while len(self.durations) < min_blocks or time.perf_counter() < deadline:
            i = len(self.durations)
            start = time.perf_counter()
            self.step(i)
            duration = time.perf_counter() - start
            self.durations.append(duration)
            reps = max(1, round(CALIBRATION_SHARE * duration * 1e3 / self.reference_ms))
            self.calibration_s.append(calibrate(reps, self.kernel))
            self.calibration_reps.append(reps)
            if self.after_block is not None:
                self.after_block(i)
        if len(self.durations) > first:
            self.windows.append((first, len(self.durations)))

    def raw_ms_per_op(self, ops_per_block: float) -> float:
        """Median over windows of the window's mean time per operation, in ms.

        The host's speed flips between two levels every second or so; a
        window's mean averages over those flips, where a median over single
        blocks would jump between the levels from run to run.
        """
        return 1e3 * median(
            sum(self.durations[a:b]) / ((b - a) * ops_per_block) for a, b in self.windows
        )

    def ms_per_op(self, ops_per_block: float, calibration_ms: Optional[float] = None) -> float:
        """:meth:`raw_ms_per_op` at the reference host speed.

        Each window's mean time per operation is scaled by the kernel's
        reference time (``REFERENCE_MS``) over its mean time in the same
        window, and the median over windows is taken.
        This removes the speed the host had in each window, which moves
        the raw time by up to a quarter between runs.  Blocks of seconds
        each leave too few calibrations in a window; for them pass the
        run's mean, ``calibration_ms`` (see :func:`run_calibration_ms`).
        """
        if calibration_ms is not None:
            return self.raw_ms_per_op(ops_per_block) * self.reference_ms / calibration_ms
        return median(
            sum(self.durations[a:b]) / ((b - a) * ops_per_block)
            * self.reference_ms
            * sum(self.calibration_reps[a:b])
            / sum(self.calibration_s[a:b])
            for a, b in self.windows
        )

    def calibration_ms(self) -> float:
        """Mean time of one calibration kernel call over the run, in ms."""
        return run_calibration_ms([self])


def run_calibration_ms(timers) -> float:
    """Mean time of one calibration kernel call over all ``timers``, in ms.

    The timers must share one kernel.

    Each calibration takes a fixed share of the block before it, so this
    mean weighs every stretch of the run by its length.
    """
    seconds = sum(sum(timer.calibration_s) for timer in timers)
    return 1e3 * seconds / sum(sum(timer.calibration_reps) for timer in timers)


def interleave(timers, seconds: float, rounds: int, shares=None) -> None:
    """Give each timer ``rounds`` windows, round-robin, in ``seconds`` total.

    ``shares`` (one per timer, summing to 1) splits the time; by default
    the timers share it equally.
    """
    shares = shares or [1.0 / len(timers)] * len(timers)
    for _ in range(rounds):
        for timer, share in zip(timers, shares):
            timer.run(seconds * share / rounds)


def repeat_setup(build: Callable[[], object], times: int, discard: Optional[Callable] = None):
    """Run ``build`` ``times`` times; return (last result, median seconds).

    Set-up is repeated so ``setup_s`` is a median, not one noisy sample;
    the last build is the one the workload goes on to measure.  Each
    earlier result is passed to ``discard`` (when given) before the next
    build starts.
    """
    durations, result = [], None
    for attempt in range(times):
        if attempt and discard is not None:
            discard(result)
        result = None  # let the previous build go before the next one
        start = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - start)
    return result, median(durations)


# ---------------------------------------------------------------------- #
# Checks: every output check is one attempted operation
# ---------------------------------------------------------------------- #
@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{failed}/{attempted} {what}")


# ---------------------------------------------------------------------- #
# Host metadata
# ---------------------------------------------------------------------- #
def _openblas() -> Dict[str, object]:
    """The BLAS library numpy loaded and its current thread count.

    Reads numpy's bundled OpenBLAS through ``ctypes`` and only *reads*
    the thread count: the benchmark runs with the default users get.
    """
    path = None
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                if "openblas" in line.lower():
                    path = line.split()[-1]
                    break
    except OSError:
        pass
    info: Dict[str, object] = {"library": path, "threads": None, "config": None}
    if path is None:
        return info
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            info["threads"] = int(getter())
            if config is not None:
                config.argtypes = []
                config.restype = ctypes.c_char_p
                info["config"] = config().decode(errors="replace").strip()
            return info
    return info


def host_meta(workload: str, why: str, compute) -> Dict[str, object]:
    """What a reader needs to compare runs: host, libraries, knobs."""
    resolved = compute.resolve()
    return {
        "workload": workload,
        "why": why,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas(),
        "dtype": resolved.dtype,
        "workers": resolved.workers,
        "executor": resolved.executor,
    }


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """The metric names and units ``BENCHMARK.json`` declares, per section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def emit(meta: Dict[str, object], checks: Checks, metrics: Dict[str, tuple]) -> None:
    """Print the meta line, then the result object as the last line."""
    for name, (value, _) in metrics.items():
        if not np.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    meta = dict(meta, failures=checks.failures)
    print(json.dumps({"meta": meta}, default=float), flush=True)
    result = {
        "correct": checks.failed == 0,
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
