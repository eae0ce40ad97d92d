"""Measurement helpers shared by every workload of the benchmark.

Nothing here imports the program under test: these are the pieces the
benchmark's own tests pin (``perfbench/test_harness.py``) -- the tail
percentile rule, open-loop lateness accounting, calibrated times,
metric-name validation and the result record.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import pathlib
import platform
import re
import resource
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Metric names: letters, digits, ``_``, ``.`` and ``-``; at most 64,
#: starting with a letter or digit.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """True when ``name`` is a legal metric name (full match)."""
    return METRIC_NAME.fullmatch(name) is not None


def tail_percentile(
    samples: Sequence[float], cap: float = 0.99
) -> Tuple[float, float, int]:
    """The highest percentile (at most ``cap``) with >= 10 samples beyond it.

    Returns ``(value, q, n)``: the nearest-rank value, the quantile it
    stands for, and the sample count.  With ``n`` samples, the value at
    sorted index ``i`` has ``n - 1 - i`` samples beyond it, so the
    highest supported index is ``n - 1 - TAIL_MIN_BEYOND``; ``cap`` caps
    it at the percentile the metric is named after.  When even the
    median lacks ten samples beyond it (``n < 21``) the rule supports no
    tail at all, and the median is reported with ``q = 0.5``: a small
    sample never reads as a tail below its own median, and its maximum
    -- one sample -- is too noisy to gate on.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    highest = n - 1 - TAIL_MIN_BEYOND
    if highest < (n - 1) / 2:
        return float(statistics.median(ordered)), 0.5, n
    capped = int(math.floor(cap * (n - 1)))
    i = min(highest, capped)
    return ordered[i], i / (n - 1), n


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return float(statistics.median(samples))


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return float(statistics.fmean(samples))


@dataclass
class OpenLoop:
    """An open-loop schedule: operation ``k`` is due at ``t0 + k / rate``.

    Each operation is timed from when it was *due*, so a stall that
    delays later operations counts against all of them.  ``started``
    records when each one actually began; ``lateness`` is how far the
    generator ran behind its schedule.
    """

    rate_hz: float
    t0: float
    started: List[float] = field(default_factory=list)

    def due(self, k: int) -> float:
        return self.t0 + k / self.rate_hz

    def start(self, k: int, now: float) -> None:
        """Record that operation ``k`` began at ``now`` (in order)."""
        if k != len(self.started):
            raise ValueError(f"operation {k} started out of order")
        self.started.append(now)

    def lateness(self) -> List[float]:
        """Seconds each started operation began after it was due."""
        return [max(0.0, s - self.due(k)) for k, s in enumerate(self.started)]

    def latency(self, k: int, done: float) -> float:
        """Seconds from operation ``k`` being due to ``done``."""
        return done - self.due(k)

    def backlog_growing(self, tolerance_s: float) -> bool:
        """True when the generator fell further behind as the run went on.

        Compares the mean lateness of the last third of the operations
        with the first third; a schedule the system keeps up with shows
        no trend beyond ``tolerance_s``.
        """
        late = self.lateness()
        if len(late) < 3:
            return False
        third = len(late) // 3
        head = sum(late[:third]) / third
        tail = sum(late[-third:]) / third
        return tail - head > tolerance_s


#: Calibrated times are reported in seconds of a core on which one
#: ``HostSpeed`` sample takes this long (of the order of a sample on the
#: 2-vCPU Xeon VM the benchmark was built on): ``raw * REF / sample``.
CALIBRATION_REF_S = 0.0300


class HostSpeed:
    """How fast this core runs right now, from a fixed calibration kernel.

    The benchmark shares its cores with other machines' work: the same
    program slice runs at half its usual speed or less for stretches of
    seconds to tens of minutes, and the other vCPU's speed need not
    follow this one's.  A sample times a fixed kernel of interpreter and
    numpy work right where the measured work runs; a timing taken
    between two samples is scaled by their mean.  The kernel is the
    benchmark's own code, so a change to the program moves the
    calibrated times and leaves the samples alone.

    ``cpus`` names the cores to sample, one kernel run on each with the
    calling thread pinned there (its affinity is restored after);
    ``None`` samples the core the process is on.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._x = rng.random(40_000)
        self._idx = rng.integers(0, 40_000, 40_000)
        self._keys = [int(k) for k in rng.integers(0, 4096, 20_000)]
        self.cpus = list(cpus) if cpus is not None else None
        self.samples: List[float] = []

    def kernel(self) -> float:
        import numpy as np

        counts: Dict[int, int] = {}
        for k in self._keys:
            counts[k] = counts.get(k, 0) + 1
        pairs = sorted((k * 0.5, k % 7) for k in self._keys[:8000])
        acc = float(len(counts) + len(pairs))
        for i in range(40):
            mask = self._x > i / 40.0
            sel = self._idx[mask[self._idx]]
            order = np.argsort(self._x[sel[:5000]], kind="stable")
            acc += float(np.cumsum(self._x[sel])[-1]) + float(order[0])
        return acc

    def _timed_kernel(self) -> float:
        # The collector is off while timing: a collection of the caller's
        # heap (a serving run holds ~10^5 live messages) is not core speed.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.kernel()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> float:
        """Time the kernel (once on each of ``cpus``); record and return
        the mean."""
        if self.cpus is None:
            dt = self._timed_kernel()
        else:
            home = os.sched_getaffinity(0)
            times = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    times.append(self._timed_kernel())
            finally:
                os.sched_setaffinity(0, home)
            dt = sum(times) / len(times)
        self.samples.append(dt)
        return dt

    def calibrate(self, raw_s: float, before: Optional[int] = None) -> float:
        """``raw_s`` in reference seconds.

        The time was taken between samples ``before`` and ``before + 1``
        (by default the last two) and is scaled by their mean.
        """
        i = len(self.samples) - 2 if before is None else before
        if not 0 <= i < len(self.samples) - 1:
            raise ValueError("a calibrated time needs a sample before and after it")
        return raw_s * CALIBRATION_REF_S * 2.0 / (self.samples[i] + self.samples[i + 1])

    def run_scale(self) -> float:
        """Factor to calibrate a whole run's times by its median sample."""
        return CALIBRATION_REF_S / median(self.samples)

    @staticmethod
    def usable_cpus() -> List[int]:
        return sorted(os.sched_getaffinity(0))


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MB (self, plus the largest reaped child)."""
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / scale


def source_digest(root: pathlib.Path) -> str:
    """sha256 over the program's sources (the checkout is no git repo)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: pathlib.Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: pathlib.Path, seed: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import numpy

    return {
        "seed": seed,
        "commit": git_commit(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class Outcome:
    """Attempted/failed bookkeeping plus the metrics one run reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: Dict[str, object] = {}

    def attempt(self, ok: bool, what: str) -> bool:
        """Count one operation or check; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        if not valid_metric_name(name):
            raise ValueError(f"illegal metric name {name!r}")
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        self.metrics[name] = (float(value), unit)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def result(self) -> Dict[str, object]:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
