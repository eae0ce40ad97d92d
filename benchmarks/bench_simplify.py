"""Benchmark of the SIMPLIFIED serving stream -> ``BENCH_simplify.json``.

Two sections:

- ``kernels``: the simplifier pair (scalar reference vs vectorized
  Douglas-Peucker, open polyline and closed ring) -- asserted
  **bit-identical** before anything is timed, the PR-1/PR-3 pairing
  convention;
- ``serving``: the steady harbor session run end to end with the
  SIMPLIFIED stream enabled -- cumulative delta bytes a plain vs a
  simplified subscriber receives, final snapshot sizes, the record
  selection wall-clock, and the **measured** Hausdorff deviation (max
  record distance to the retained span of its chain, in field units and
  50-raster grid cells).

The committed full section is the PR's acceptance record: on the steady
scenario at tolerance 1.0 the byte ratio clears **5x** with the
deviation inside **one grid cell**.

Usage::

    python benchmarks/bench_simplify.py               # full + quick, writes BENCH_simplify.json
    python benchmarks/bench_simplify.py --quick       # CI smoke sizes only, no write
    python benchmarks/bench_simplify.py --quick --check BENCH_simplify.json
                                                      # regression gate (CI)

``--check`` fails (exit 1) when a kernel runs at less than half its
committed speedup, when the byte ratio falls below 90% of the committed
ratio, when the measured deviation exceeds the tolerance (the hard
guarantee), or when the committed *full* section no longer meets the
acceptance bar (ratio >= 5x at <= 1 grid cell).
"""

from __future__ import annotations

import math
import pathlib
import random
import sys
from typing import Any, Dict, List, Optional

_HERE = pathlib.Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import record

from repro.geometry.simplify import (
    simplify_polyline,
    simplify_polyline_reference,
    simplify_ring,
    simplify_ring_reference,
)
from repro.serving.session import SessionCompute, SessionConfig
from repro.serving.wire import (
    encode_snapshot,
    select_simplified_records,
    simplified_selection_stats,
)

BENCH_JSON = _HERE.parent / "BENCH_simplify.json"

#: Serving density of the committed acceptance numbers (record reduction
#: grows with node density; 5000 nodes on the 50x50 harbor clears 5x).
FULL_NODES = 5000
QUICK_NODES = 2500  # the paper's density-1 deployment; CI-sized epochs

TOLERANCE = 1.0  # field units; one 50-raster grid cell on the harbor
RASTER = 50


# ----------------------------------------------------------------------
# Kernel workloads (deterministic)
# ----------------------------------------------------------------------


def _wiggly_polyline(n: int, seed: int = 5) -> List:
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        x = 100.0 * k / n
        pts.append((x, 10.0 * math.sin(0.3 * x) + rng.uniform(-0.4, 0.4)))
    return pts


def _noisy_ring(n: int, seed: int = 7) -> List:
    """A 4-lobed ring with sub-tolerance noise: realistic dense isoline
    sampling where DP actually drops vertices (spans long enough for the
    vectorized distance pass to pay off)."""
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        th = 2.0 * math.pi * k / n
        r = 30.0 + 6.0 * math.sin(4.0 * th) + rng.uniform(-0.2, 0.2)
        pts.append((50.0 + r * math.cos(th), 50.0 + r * math.sin(th)))
    return pts


def measure_kernels(quick: bool) -> Dict[str, Dict]:
    line_n = 2000 if quick else 20000
    ring_n = 4000 if quick else 10000
    reps = 3 if quick else 5

    kernels: Dict[str, Dict] = {}

    line = _wiggly_polyline(line_n)
    assert simplify_polyline(line, 0.5) == simplify_polyline_reference(line, 0.5)
    kernels["simplify_polyline"] = record.kernel_entry(
        "simplify_polyline_reference (scalar per-vertex distance loop)",
        "simplify_polyline (per-span NumPy distance pass)",
        record.best_of(lambda: simplify_polyline_reference(line, 0.5), reps),
        record.best_of(lambda: simplify_polyline(line, 0.5), reps + 2),
    )

    ring = _noisy_ring(ring_n)
    assert simplify_ring(ring, 0.5) == simplify_ring_reference(ring, 0.5)
    kernels["simplify_ring"] = record.kernel_entry(
        "simplify_ring_reference (scalar arcs at the ring anchors)",
        "simplify_ring (vectorized arcs, same split)",
        record.best_of(lambda: simplify_ring_reference(ring, 0.5), reps),
        record.best_of(lambda: simplify_ring(ring, 0.5), reps + 2),
    )
    return kernels


# ----------------------------------------------------------------------
# Serving section
# ----------------------------------------------------------------------


def measure_serving(n_nodes: int, epochs: int, quick: bool) -> Dict[str, Any]:
    """Run the steady harbor session with both streams and measure."""
    config = SessionConfig(
        query_id="bench-simplify",
        n_nodes=n_nodes,
        seed=1,
        field="harbor",
        scenario="steady",
        value_lo=6.0,
        value_hi=12.0,
        granularity=2.0,
        epsilon_fraction=0.05,
        radio_range=1.5,
        simplify_tolerance=TOLERANCE,
    )
    compute = SessionCompute(config)
    bytes_plain = bytes_simplified = 0
    out: Dict[str, Any] = {}
    for epoch in range(1, epochs + 1):
        out = compute.epoch(epoch)
        bytes_plain += len(out["delta"])
        bytes_simplified += len(out["s_delta"])
    state = out["records"]
    dequantize = compute.codec.dequantize_position
    stats = simplified_selection_stats(state, dequantize, TOLERANCE)
    kept = select_simplified_records(state, dequantize, TOLERANCE)
    assert stats["max_deviation"] <= TOLERANCE, (
        "tolerance guarantee violated: "
        f"{stats['max_deviation']} > {TOLERANCE}"
    )
    select_ms = record.best_of(
        lambda: select_simplified_records(state, dequantize, TOLERANCE),
        3 if quick else 5,
    )
    cell = 50.0 / RASTER  # harbor field is 50x50
    return {
        "scenario": "steady",
        "n_nodes": n_nodes,
        "epochs": epochs,
        "tolerance": TOLERANCE,
        "records_full": stats["records_full"],
        "records_kept": len(kept),
        "delta_bytes_plain": bytes_plain,
        "delta_bytes_simplified": bytes_simplified,
        "bytes_ratio": round(bytes_plain / bytes_simplified, 2),
        "snapshot_bytes_plain": len(
            encode_snapshot(epochs, out["records"], out["sink"])
        ),
        "snapshot_bytes_simplified": len(
            encode_snapshot(epochs, out["s_records"], out["sink"])
        ),
        "hausdorff_dev": round(stats["max_deviation"], 4),
        "hausdorff_cells": round(stats["max_deviation"] / cell, 4),
        "select_ms": round(select_ms, 3),
    }


def format_serving(s: Dict[str, Any]) -> str:
    return (
        f"serving (steady harbor, n={s['n_nodes']}, {s['epochs']} epochs, "
        f"tol={s['tolerance']}):\n"
        f"  records            : {s['records_full']} -> {s['records_kept']}\n"
        f"  delta bytes/sub    : {s['delta_bytes_plain']} -> "
        f"{s['delta_bytes_simplified']}  ({s['bytes_ratio']}x)\n"
        f"  snapshot bytes     : {s['snapshot_bytes_plain']} -> "
        f"{s['snapshot_bytes_simplified']}\n"
        f"  hausdorff deviation: {s['hausdorff_dev']} units "
        f"({s['hausdorff_cells']} grid cells, guarantee <= {s['tolerance']})\n"
        f"  selection wall     : {s['select_ms']} ms"
    )


def measure(quick: bool) -> Dict[str, Any]:
    """Both sections at one size."""
    n = QUICK_NODES if quick else FULL_NODES
    print(f"\nmeasuring {'quick' if quick else 'full'} sizes (n={n}) ...")
    kernels = measure_kernels(quick)
    serving = measure_serving(n, epochs=3 if quick else 6, quick=quick)
    print(record.format_kernels(kernels))
    print(format_serving(serving))
    return {"n": n, "kernels": kernels, "serving": serving}


# ----------------------------------------------------------------------
# Check mode
# ----------------------------------------------------------------------


def check(
    section: Dict[str, Any], measured: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """Regression messages (empty = pass)."""
    problems = record.check_speedups(section, measured)

    serving = measured["serving"]
    baseline_s = section.get("serving")
    if baseline_s is None:
        problems.append("serving: missing from committed report")
    else:
        floor = 0.9 * baseline_s["bytes_ratio"]
        if serving["bytes_ratio"] < floor:
            problems.append(
                f"serving: byte ratio {serving['bytes_ratio']}x < floor "
                f"{floor:.2f}x (committed {baseline_s['bytes_ratio']}x)"
            )
    if serving["hausdorff_dev"] > serving["tolerance"]:
        problems.append(
            f"serving: measured deviation {serving['hausdorff_dev']} exceeds "
            f"tolerance {serving['tolerance']} (guarantee violated)"
        )

    # The acceptance record lives in the committed FULL section; keep it
    # honest even when only quick sizes were measured.
    full_s = committed.get("serving")
    if full_s is None:
        problems.append("committed report has no full serving section")
    elif full_s["bytes_ratio"] < 5.0 or full_s["hausdorff_cells"] > 1.0:
        problems.append(
            "committed full section fails the acceptance bar: "
            f"{full_s['bytes_ratio']}x at {full_s['hausdorff_cells']} cells "
            "(needs >= 5x at <= 1 cell)"
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    return record.run_gate(
        argv, __doc__,
        "on kernel/byte-ratio regression or a tolerance violation",
        BENCH_JSON, measure,
        lambda full, quick: record.report(
            full["n"], full["kernels"], serving=full["serving"], quick=quick
        ),
        check,
    )


if __name__ == "__main__":
    sys.exit(main())
