"""Benchmark of incremental sink reconstruction -> ``BENCH_continuous.json``.

Times :class:`repro.core.reconstruction.ReconstructionCache` (the
incremental, locality-certified splice) against rebuilding every epoch
from scratch with ``build_level_region``, over multi-epoch continuous
monitoring workloads:

- ``steady_drift``  the isoline creeps: each epoch a contiguous arc of
                    the fixed sensor pool retracts behind the line and
                    activates ahead of it (~2% churn) -- the steady-state
                    tide shape, and the headline speedup;
- ``local_storm``   calm churn epochs around one epoch that replaces a
                    third of the ring at once -- the storm epoch trips
                    the dirty-fraction fallback, so the incremental path
                    degrades to ~full cost instead of winning.

Both paths are asserted bit-identical on every epoch (an untimed
verification pass replays the sequence and compares every vertex,
label, neighbor list, loop and statistic) before anything is timed.

Usage::

    python benchmarks/bench_continuous.py             # full + quick, writes BENCH_continuous.json
    python benchmarks/bench_continuous.py --quick     # CI smoke sizes only, no write
    python benchmarks/bench_continuous.py --quick --check BENCH_continuous.json
                                                      # fail if a workload regressed >2x

``--check`` compares each measured speedup against the committed report
(the ``quick`` section when ``--quick`` is given) and exits 1 if any
workload runs at less than half its committed speedup
(:func:`record.check_speedups`).
"""

from __future__ import annotations

import math
import pathlib
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

_HERE = pathlib.Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import record

from repro.core.reconstruction import ReconstructionCache, build_level_region
from repro.core.reports import IsolineReport
from repro.geometry import BoundingBox

BENCH_JSON = _HERE.parent / "BENCH_continuous.json"

BOX = BoundingBox(0.0, 0.0, 100.0, 100.0)
LEVEL = 8.0

#: Headline size: reports per level at the paper's n=2500 density-1
#: operating point is the node count; the sink stress case puts that
#: many reports on one isoline.
FULL_N = 2500
QUICK_N = 500


# ----------------------------------------------------------------------
# Workload generators (deterministic)
# ----------------------------------------------------------------------


def _make_pool(n_pool: int, seed: int) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """Fixed sensor positions along a noisy 5-lobed ring; epoch churn
    activates and retracts pool members, it never teleports them."""
    rng = random.Random(seed)
    pool = []
    for k in range(n_pool):
        th = 2.0 * math.pi * k / n_pool
        r = 30.0 + 5.0 * math.sin(5.0 * th) + rng.uniform(-2.5, 2.5)
        pos = (50.0 + r * math.cos(th), 50.0 + r * math.sin(th))
        pool.append((pos, (math.cos(th), math.sin(th))))
    return pool


def _reports_from(pool, active) -> List[IsolineReport]:
    return [
        IsolineReport(LEVEL, pool[k][0], pool[k][1], source=k)
        for k in sorted(active)
    ]


def steady_drift_epochs(n: int, epochs: int, seed: int = 42) -> List[List[IsolineReport]]:
    """Epoch 0 plus ``epochs`` drift steps: a contiguous arc of the pool
    flips parity each epoch (retract the even member, activate the odd
    one) until ~2% of the active set has churned."""
    n_pool = 2 * n
    pool = _make_pool(n_pool, seed)
    active = set(range(0, n_pool, 2))
    churn = max(1, int(0.02 * n))
    out = [_reports_from(pool, active)]
    arc = 0
    for _ in range(epochs):
        changed = 0
        while changed < churn:
            k = arc % n_pool
            if k in active:
                active.discard(k)
                active.add((k + 1) % n_pool)
                changed += 1
            arc += 1
        out.append(_reports_from(pool, active))
    return out


def local_storm_epochs(n: int, epochs: int, seed: int = 7) -> List[List[IsolineReport]]:
    """Calm ~1% churn epochs around one storm epoch (at ``epochs // 2``)
    that re-seats a third of the ring at once."""
    n_pool = 2 * n
    pool = _make_pool(n_pool, seed)
    rng = random.Random(seed + 1)
    active = set(range(0, n_pool, 2))
    out = [_reports_from(pool, active)]
    for ep in range(epochs):
        if ep == epochs // 2:
            start = rng.randrange(n_pool)
            cluster = {(start + j) % n_pool for j in range(n_pool // 3)}
            flipped = {
                (k + 1) % n_pool if k % 2 == 0 else k - 1 for k in cluster & active
            }
            active = (active - cluster) | flipped
        else:
            for k in rng.sample(range(n_pool), max(1, int(0.01 * n))):
                if k in active:
                    active.discard(k)
                else:
                    active.add(k)
        out.append(_reports_from(pool, active))
    return out


# ----------------------------------------------------------------------
# Bit-identity verification (untimed)
# ----------------------------------------------------------------------


def _assert_regions_equal(fast, ref) -> None:
    assert fast.reports == ref.reports
    assert len(fast.cells) == len(ref.cells)
    for cf, cr in zip(fast.cells, ref.cells):
        assert cf.site_index == cr.site_index
        assert cf.site == cr.site
        assert cf.polygon.vertices == cr.polygon.vertices
        assert cf.polygon.labels == cr.polygon.labels
        assert cf.neighbors == cr.neighbors
    assert [p.vertices for p in fast.inner_polys] == [
        p.vertices for p in ref.inner_polys
    ]
    assert fast.loops == ref.loops
    assert fast.regulated_loops == ref.regulated_loops
    assert fast.regulation_stats == ref.regulation_stats


def verify_sequence(sequence: List[List[IsolineReport]]) -> None:
    """Replay a workload, asserting the splice is bit-identical to a
    from-scratch rebuild at every epoch."""
    cache = ReconstructionCache(LEVEL, BOX)
    for reports in sequence:
        _assert_regions_equal(
            cache.update(reports), build_level_region(LEVEL, reports, BOX)
        )


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------


def time_sequence(
    sequence: List[List[IsolineReport]], repeats: int = 2
) -> Tuple[float, float]:
    """Best-of-``repeats`` (incremental_ms, full_ms) over the post-warm-up
    epochs.

    Epoch 0 (the cold start) is excluded from both sides: it is a full
    build either way.  Each repeat replays the whole sequence on a fresh
    cache; the min damps scheduler noise the same way
    :func:`record.best_of` does.
    """
    inc_ms = full_ms = math.inf
    for _ in range(repeats):
        cache = ReconstructionCache(LEVEL, BOX)
        cache.update(sequence[0])
        t0 = time.perf_counter()
        for reports in sequence[1:]:
            cache.update(reports)
        inc_ms = min(inc_ms, (time.perf_counter() - t0) * 1000.0)

        build_level_region(LEVEL, sequence[0], BOX)  # symmetric warm-up
        t0 = time.perf_counter()
        for reports in sequence[1:]:
            build_level_region(LEVEL, reports, BOX)
        full_ms = min(full_ms, (time.perf_counter() - t0) * 1000.0)
    return inc_ms, full_ms


def measure(quick: bool) -> Dict[str, Dict]:
    """Measure both workloads at one size and return its report section
    (verifying bit-identity along the way)."""
    n = QUICK_N if quick else FULL_N
    print(f"\nmeasuring {'quick' if quick else 'full'} sizes (n={n}) ...")
    epochs = 4 if quick else 5
    kernels: Dict[str, Dict] = {}

    drift = steady_drift_epochs(n, epochs)
    verify_sequence(drift)
    inc_ms, full_ms = time_sequence(drift)
    kernels["steady_drift"] = record.kernel_entry(
        "build_level_region per epoch (from scratch)",
        "ReconstructionCache.update (locality-certified splice)",
        full_ms,
        inc_ms,
    )

    storm = local_storm_epochs(n, epochs)
    verify_sequence(storm)
    inc_ms, full_ms = time_sequence(storm)
    kernels["local_storm"] = record.kernel_entry(
        "build_level_region per epoch (from scratch)",
        "ReconstructionCache.update (fallback on the storm epoch)",
        full_ms,
        inc_ms,
    )
    print(record.format_kernels(kernels))
    return {"n": n, "kernels": kernels}


def main(argv: Optional[List[str]] = None) -> int:
    return record.run_gate(
        argv, __doc__, "if any workload runs at < half its committed speedup",
        BENCH_JSON, measure,
        lambda full, quick: record.report(full["n"], full["kernels"], quick=quick),
        record.check_speedups,
    )


if __name__ == "__main__":
    sys.exit(main())
