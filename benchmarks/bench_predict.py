"""Benchmark of model-predictive suppression -> ``BENCH_predict.json``.

Three sections:

- ``kernels``: the predictor kernel pairs (scalar reference vs
  vectorized batch twin -- dead-reckoning advance, own-track innovation
  gate, all-pairs join-coverage gate) asserted **bit-identical** before
  anything is timed, the repo's kernel-pairing convention;
- ``suppression``: the committed acceptance point run end to end --
  the ``front`` steady-drift timeline (rigid translation at 2.5% of
  span per epoch) at n=600 with and without prediction from the same
  deployment seed, reporting the delivered-report reduction, the
  Hausdorff penalty vs the true isolines (field units and
  sqrt(n)-raster grid cells), observed staleness, and per-epoch
  predictor wall-clock;
- ``verify``: untimed -- re-asserts the dead-reckoning contract
  (``prediction=off`` byte-identical to the committed golden epoch
  streams) and the kernel-pair agreement on the measured workload.

The committed full section is the PR's acceptance record: reduction
**>= 2x** delivered reports per warm epoch at a mean penalty **<= 1
grid cell**.

Usage::

    python benchmarks/bench_predict.py               # full + quick, writes BENCH_predict.json
    python benchmarks/bench_predict.py --quick       # CI smoke sizes only, no write
    python benchmarks/bench_predict.py --quick --check BENCH_predict.json
                                                     # regression gate (CI)

``--check`` fails (exit 1) when a kernel runs at less than half its
committed speedup, when the measured reduction falls below 90% of the
committed one, when staleness exceeds the heartbeat (the hard bound),
when the byte-identity verify fails, or when the committed *full*
section no longer meets the acceptance bar (>= 2x at <= 1 cell).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import pathlib
import random
import sys
import time
from typing import Any, Dict, List, Optional

_HERE = pathlib.Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import numpy as np
import record

from repro.core.prediction import (
    advance_tracks_batch,
    advance_tracks_reference,
    join_accept_batch,
    join_accept_reference,
    track_accept_batch,
    track_accept_reference,
)
from repro.metrics.hausdorff import mean_isoline_hausdorff
from repro.serving.session import SessionCompute, SessionConfig, field_for_epoch

BENCH_JSON = _HERE.parent / "BENCH_predict.json"
GOLDEN = _HERE.parent / "tests" / "core" / "golden" / "continuous_streams.json"

#: The committed acceptance point: n=600 on the front timeline, seed 7,
#: tolerance 1.1 field units, heartbeat 8, warm window epochs 6..16.
FULL_NODES = 600
FULL_EPOCHS = 16
FULL_WARM = 6

#: CI smoke point: same scenario, smaller/shorter (checked against a
#: looser floor -- the acceptance bar is enforced on the committed full
#: section).
QUICK_NODES = 400
QUICK_EPOCHS = 8
QUICK_WARM = 4

TOLERANCE = 1.1
HEARTBEAT = 8
SEED = 7


# ----------------------------------------------------------------------
# Kernel workloads (deterministic)
# ----------------------------------------------------------------------


def _track_arrays(n: int, seed: int = 11) -> Dict[str, np.ndarray]:
    rng = random.Random(seed)
    out = {
        "x": [rng.uniform(0.0, 20.0) for _ in range(n)],
        "y": [rng.uniform(0.0, 20.0) for _ in range(n)],
        "vx": [rng.uniform(-0.5, 0.5) for _ in range(n)],
        "vy": [rng.uniform(-0.5, 0.5) for _ in range(n)],
        "theta": [rng.uniform(-math.pi, math.pi) for _ in range(n)],
        "omega": [rng.uniform(-0.2, 0.2) for _ in range(n)],
        "level": [rng.choice((14.0, 16.0)) for _ in range(n)],
        "age": [rng.randrange(0, 10) for _ in range(n)],
    }
    return {k: np.asarray(v) for k, v in out.items()}


def measure_kernels(quick: bool) -> Dict[str, Dict]:
    n = 2000 if quick else 20000
    n_join = 300 if quick else 1200
    reps = 3 if quick else 5

    kernels: Dict[str, Dict] = {}
    t = _track_arrays(n)
    obs = _track_arrays(n, seed=13)

    ref = advance_tracks_reference(
        t["x"], t["y"], t["vx"], t["vy"], t["theta"], t["omega"]
    )
    fast = advance_tracks_batch(
        t["x"], t["y"], t["vx"], t["vy"], t["theta"], t["omega"]
    )
    assert all(list(r) == list(f) for r, f in zip(ref, fast))
    kernels["advance_tracks"] = record.kernel_entry(
        "advance_tracks_reference (scalar dead-reckoning loop)",
        "advance_tracks_batch (NumPy p+v, wrapped theta+omega)",
        record.best_of(
            lambda: advance_tracks_reference(
                t["x"], t["y"], t["vx"], t["vy"], t["theta"], t["omega"]
            ),
            reps,
        ),
        record.best_of(
            lambda: advance_tracks_batch(
                t["x"], t["y"], t["vx"], t["vy"], t["theta"], t["omega"]
            ),
            reps + 2,
        ),
    )

    gate_args = (
        obs["x"], obs["y"], obs["theta"], obs["level"],
        t["x"], t["y"], t["theta"], t["level"], t["age"],
        TOLERANCE * TOLERANCE, math.radians(35.0), HEARTBEAT,
    )
    ra, rw = track_accept_reference(*gate_args)
    fa, fw = track_accept_batch(*gate_args)
    assert list(ra) == list(fa) and list(rw) == list(fw)
    kernels["track_accept"] = record.kernel_entry(
        "track_accept_reference (scalar innovation gate)",
        "track_accept_batch (vectorized distance/angle/level gate)",
        record.best_of(lambda: track_accept_reference(*gate_args), reps),
        record.best_of(lambda: track_accept_batch(*gate_args), reps + 2),
    )

    j = _track_arrays(n_join, seed=17)
    tr = _track_arrays(n_join, seed=19)
    join_args = (
        j["x"], j["y"], j["theta"], j["level"],
        tr["x"], tr["y"], tr["theta"], tr["level"], tr["age"],
        TOLERANCE * TOLERANCE, math.radians(35.0), HEARTBEAT,
    )
    ra, rc = join_accept_reference(*join_args)
    fa, fc = join_accept_batch(*join_args)
    assert list(ra) == list(fa) and list(rc) == list(fc)
    kernels["join_accept"] = record.kernel_entry(
        "join_accept_reference (scalar all-pairs coverage scan)",
        "join_accept_batch (broadcast joins x tracks, any-reductions)",
        record.best_of(lambda: join_accept_reference(*join_args), reps),
        record.best_of(lambda: join_accept_batch(*join_args), reps + 2),
    )
    return kernels


# ----------------------------------------------------------------------
# Suppression section (the acceptance point)
# ----------------------------------------------------------------------


def measure_suppression(
    n_nodes: int, epochs: int, warm: int
) -> Dict[str, Any]:
    """Run the front timeline with and without prediction; measure the
    reduction, the Hausdorff penalty and the predictor wall-clock."""
    kw = dict(n_nodes=n_nodes, seed=SEED, scenario="front")
    base = SessionCompute(SessionConfig(query_id="bench-base", **kw))
    pred = SessionCompute(
        SessionConfig(
            query_id="bench-pred",
            prediction_tolerance=TOLERANCE,
            prediction_heartbeat=HEARTBEAT,
            **kw,
        )
    )
    levels = base.query.isolevels
    cell = 20.0 / math.ceil(math.sqrt(n_nodes))  # span / sqrt(n) raster

    reports_base = reports_pred = 0
    predicted = 0
    staleness_max = 0
    penalties: List[float] = []
    pred_seconds = 0.0
    for epoch in range(1, epochs + 1):
        field_now = field_for_epoch(base.config, epoch)
        base.network.resense(field_now)
        rb = base.monitor.epoch(base.network)
        pred.network.resense(field_now)
        t0 = time.perf_counter()
        rp = pred.monitor.epoch(pred.network)
        pred_seconds += time.perf_counter() - t0
        staleness_max = max(staleness_max, rp.staleness)
        assert rp.staleness <= HEARTBEAT, "staleness bound violated"
        if epoch < warm:
            continue
        reports_base += len(rb.delivered_reports)
        reports_pred += len(rp.delivered_reports)
        predicted += rp.predicted
        hb = mean_isoline_hausdorff(field_now, rb.contour_map, levels)
        hp = mean_isoline_hausdorff(field_now, rp.contour_map, levels)
        if hb is not None and hp is not None:
            penalties.append(hp - hb)

    warm_epochs = epochs - warm + 1
    penalty = sum(penalties) / len(penalties)
    return {
        "scenario": "front",
        "n_nodes": n_nodes,
        "epochs": epochs,
        "warm_from": warm,
        "tolerance": TOLERANCE,
        "heartbeat": HEARTBEAT,
        "reports_base_per_epoch": round(reports_base / warm_epochs, 2),
        "reports_pred_per_epoch": round(reports_pred / warm_epochs, 2),
        "reduction": round(reports_base / reports_pred, 2),
        "predicted_per_epoch": round(predicted / warm_epochs, 2),
        "staleness_max": staleness_max,
        "penalty_mean": round(penalty, 4),
        "penalty_max": round(max(penalties), 4),
        "cell": round(cell, 4),
        "penalty_cells_mean": round(penalty / cell, 4),
        "epoch_ms": round(1e3 * pred_seconds / epochs, 3),
    }


def format_suppression(s: Dict[str, Any]) -> str:
    return (
        f"suppression (front, n={s['n_nodes']}, epochs "
        f"{s['warm_from']}..{s['epochs']}, tol={s['tolerance']}, "
        f"heartbeat={s['heartbeat']}):\n"
        f"  delivered/epoch : {s['reports_base_per_epoch']} -> "
        f"{s['reports_pred_per_epoch']}  ({s['reduction']}x reduction)\n"
        f"  predicted/epoch : {s['predicted_per_epoch']}  "
        f"(staleness max {s['staleness_max']} <= {s['heartbeat']})\n"
        f"  hausdorff penalty: mean {s['penalty_mean']} max "
        f"{s['penalty_max']} units = {s['penalty_cells_mean']} cells "
        f"(cell {s['cell']})\n"
        f"  monitor epoch    : {s['epoch_ms']} ms"
    )


# ----------------------------------------------------------------------
# Verify section (untimed)
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def verify_off_identity() -> Dict[str, Any]:
    """The dead-reckoning contract: prediction=off serving streams
    byte-identical to the committed goldens (same fixture the
    ``test_prediction_off_golden`` suite pins; the bench re-checks the
    serving scenarios so a gate run never times a divergent build).
    Runs once per process."""
    print("verifying prediction=off byte identity ...")
    golden = json.loads(GOLDEN.read_text())
    checked = 0
    for scenario, epochs in sorted(golden["serving"].items()):
        compute = SessionCompute(
            SessionConfig(query_id=f"golden-{scenario}", scenario=scenario)
        )
        for want in epochs:
            out = compute.epoch(want["epoch"])
            digest = hashlib.sha256(out["delta"]).hexdigest()
            if digest != want["delta_sha256"] or out["crc"] != want["crc"]:
                print(f"  FAILED at {scenario} epoch {want['epoch']}")
                return {
                    "ok": False,
                    "stream": scenario,
                    "epoch": want["epoch"],
                }
            checked += 1
    print(f"  ok: {len(golden['serving'])} golden streams, "
          f"{checked} epochs byte-identical")
    return {
        "ok": True,
        "streams": len(golden["serving"]),
        "epochs": checked,
    }


def measure(quick: bool) -> Dict[str, Any]:
    """The kernel and suppression sections at one size, plus the
    verify result (which only the full report stores)."""
    verify = verify_off_identity()
    n, epochs, warm = (
        (QUICK_NODES, QUICK_EPOCHS, QUICK_WARM) if quick
        else (FULL_NODES, FULL_EPOCHS, FULL_WARM)
    )
    print(f"\nmeasuring {'quick' if quick else 'full'} sizes (n={n}) ...")
    kernels = measure_kernels(quick)
    suppression = measure_suppression(n, epochs, warm)
    print(record.format_kernels(kernels))
    print(format_suppression(suppression))
    return {"n": n, "kernels": kernels, "suppression": suppression, "verify": verify}


# ----------------------------------------------------------------------
# Check mode
# ----------------------------------------------------------------------


def check(
    section: Dict[str, Any], measured: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """Regression messages (empty = pass)."""
    problems = record.check_speedups(section, measured)

    suppression, verify = measured["suppression"], measured["verify"]
    baseline_s = section.get("suppression")
    if baseline_s is None:
        problems.append("suppression: missing from committed report")
    else:
        floor = 0.9 * baseline_s["reduction"]
        if suppression["reduction"] < floor:
            problems.append(
                f"suppression: reduction {suppression['reduction']}x < floor "
                f"{floor:.2f}x (committed {baseline_s['reduction']}x)"
            )
    if suppression["staleness_max"] > suppression["heartbeat"]:
        problems.append(
            f"suppression: staleness {suppression['staleness_max']} exceeds "
            f"heartbeat {suppression['heartbeat']} (bound violated)"
        )
    if not verify["ok"]:
        problems.append(
            "verify: prediction=off diverged from the golden stream "
            f"{verify.get('stream')} at epoch {verify.get('epoch')}"
        )

    # The acceptance record lives in the committed FULL section; keep it
    # honest even when only quick sizes were measured.
    full_s = committed.get("suppression")
    if full_s is None:
        problems.append("committed report has no full suppression section")
    elif full_s["reduction"] < 2.0 or full_s["penalty_cells_mean"] > 1.0:
        problems.append(
            "committed full section fails the acceptance bar: "
            f"{full_s['reduction']}x at {full_s['penalty_cells_mean']} cells "
            "(needs >= 2x at <= 1 cell)"
        )
    return problems


def assemble(full: Dict[str, Any], quick: Dict[str, Any]) -> Dict[str, Any]:
    return record.report(
        full["n"],
        full["kernels"],
        suppression=full["suppression"],
        verify=full["verify"],
        quick={k: quick[k] for k in ("n", "kernels", "suppression")},
    )


def main(argv: Optional[List[str]] = None) -> int:
    return record.run_gate(
        argv, __doc__,
        "on kernel/reduction regression, a staleness-bound or "
        "byte-identity violation",
        BENCH_JSON, measure, assemble, check,
    )


if __name__ == "__main__":
    sys.exit(main())
