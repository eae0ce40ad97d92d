"""``oneshot-40k``: one faulted, tiled Iso-Map epoch over 40 000 nodes.

The scaling configuration: a harbor field of side sqrt(n) with a random
deployment, the paper's query and filter, and a fresh
``FaultPlan.at_intensity(0.5)`` seed every epoch.  Detection does most
of the work here, setup and the faulted transport show, and the sink
does almost nothing.  Epochs are closed loop: the caller is the map's
only consumer, so an epoch is due when the previous one returns.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from harness import HostSpeed, Outcome, mean, median, peak_rss_mb, tail_percentile
from layers import conserved_everywhere, core_layers, install_core
from maps import fidelity
from spans import Tracer

from repro.core import IsoMapProtocol
from repro.experiments.common import PAPER_FILTER, PAPER_QUERY
from repro.experiments.fig14_traffic import auto_tile_size
from repro.field import make_harbor_field
from repro.network import SensorNetwork
from repro.network.faults import FaultPlan

N = 40_000
SIDE = 200
RADIO_RANGE = 1.5
FAULT_INTENSITY = 0.5
#: Set-ups of the traced run.  The untraced run sets up afresh before
#: every epoch, so set-up and epoch times sample the same stretch of the
#: machine's load, and ``setup_s`` is the median of those set-ups.
SETUPS = 3
#: Epochs 0..FIXED_EPOCHS-1 always run; the exact metrics average them.
FIXED_EPOCHS = 3


def fault_seed(seed: int, epoch: int) -> int:
    return seed * 1000 + epoch


def setup(seed: int) -> SensorNetwork:
    """Deploy, sense, build the CSR adjacency and the routing tree."""
    field = make_harbor_field(side=SIDE)
    return SensorNetwork.random_deploy(field, N, radio_range=RADIO_RANGE, seed=seed)


def epoch(net: SensorNetwork, seed: int, e: int) -> Any:
    protocol = IsoMapProtocol(
        PAPER_QUERY,
        PAPER_FILTER,
        fault_plan=FaultPlan.at_intensity(FAULT_INTENSITY, seed=fault_seed(seed, e)),
        tile_size=auto_tile_size(SIDE),
        tile_jobs=1,
    )
    return protocol.run(net)


def evidence(result: Any) -> Dict[str, Any]:
    """What must repeat exactly for the same seed."""
    costs = result.costs
    return {
        "traffic_bytes": costs.total_traffic_bytes(),
        "generated": costs.reports_generated,
        "delivered": costs.reports_delivered,
        "degradation": asdict(result.degradation),
    }


def _epoch(
    net: SensorNetwork,
    seed: int,
    e: int,
    out: Outcome,
    tracer: Optional[Tracer] = None,
) -> Optional[Dict[str, Any]]:
    """Run and check epoch ``e``; None when it raised."""
    if tracer is not None:
        tracer.epoch = f"e{e}"
    gc.collect()  # start every epoch from the same heap, untimed
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("epoch"):
                result = epoch(net, seed, e)
        else:
            result = epoch(net, seed, e)
    except Exception as exc:  # a raised epoch is a failed operation
        out.attempt(False, f"epoch {e} raised {exc!r}")
        return None
    dt = time.perf_counter() - t0
    out.attempt(True, f"epoch {e}")
    out.attempt(result.degradation.is_conserved, f"epoch {e}: traffic not conserved")
    return {
        "e": e,
        "seconds": dt,
        "evidence": evidence(result),
        "traffic_kb": result.costs.total_traffic_kb(),
        "map": result.contour_map if e < FIXED_EPOCHS else None,
    }


def _epochs(
    net: SensorNetwork, seed: int, count: int, out: Outcome, tracer: Optional[Tracer] = None
) -> List[Dict[str, Any]]:
    records = [_epoch(net, seed, e, out, tracer) for e in range(count)]
    return [r for r in records if r is not None]


def run(seed: int, seconds: float, trace: bool, out: Outcome) -> Dict[str, float]:
    if trace:
        return _run_traced(seed, out)
    # Every set-up and epoch is timed between two samples of the core's
    # speed and reported calibrated (``harness.HostSpeed``).
    speed = HostSpeed()
    setups: List[float] = []
    raw_setups: List[float] = []
    records: List[Dict[str, Any]] = []
    t_start = time.perf_counter()
    speed.sample()
    e = 0
    while e < FIXED_EPOCHS or time.perf_counter() - t_start < seconds:
        net = None  # drop the previous network before building the next
        gc.collect()
        t0 = time.perf_counter()
        net = setup(seed)
        raw_setups.append(time.perf_counter() - t0)
        speed.sample()
        setups.append(speed.calibrate(raw_setups[-1]))
        record = _epoch(net, seed, e, out)
        speed.sample()
        if record is not None:
            record["calibrated"] = speed.calibrate(record["seconds"])
            records.append(record)
        e += 1
    times = [r["calibrated"] for r in records]
    fixed = [r for r in records if r["e"] < FIXED_EPOCHS]
    metrics: Dict[str, float] = {
        "setup_s": median(setups),
        "epoch_s": median(times),
        "traffic_kb": mean([r["traffic_kb"] for r in fixed]),
        "peak_rss_mb": peak_rss_mb(),
        "delta_p50_ms": median(times) * 1e3,
        "delta_p99_ms": tail_percentile(times)[0] * 1e3,
    }
    out.notes["epoch_seconds"] = [round(r["seconds"], 4) for r in records]
    out.notes["raw_epoch_s"] = median([r["seconds"] for r in records])
    out.notes["raw_setup_s"] = median(raw_setups)
    out.notes["speed_sample_s"] = median(speed.samples)
    out.notes["epochs"] = len(records)
    out.notes["delta_tail"] = tail_percentile(times)[1:]
    # Same seed, same epoch: the counts and the traffic must repeat.
    again = epoch(net, seed, 0)
    out.attempt(
        evidence(again) == records[0]["evidence"],
        "epoch 0 did not repeat exactly under the same seed",
    )
    return metrics


def _run_traced(seed: int, out: Outcome) -> Dict[str, float]:
    tracer = Tracer()
    with tracer.installed(install_core):
        for i in range(SETUPS):
            tracer.epoch = f"setup{i}"
            net = setup(seed)
    # The fixed epochs, untraced and then traced: about half the run each.
    plain = _epochs(net, seed, FIXED_EPOCHS, out)
    with tracer.installed(install_core):
        traced = _epochs(net, seed, FIXED_EPOCHS, out, tracer)
    for a, b in zip(plain, traced):
        out.attempt(
            a["evidence"] == b["evidence"],
            f"epoch {a['e']}: traced run changed traffic or report counts",
        )
    epochs = [f"e{r['e']}" for r in traced]
    setups = [f"setup{i}" for i in range(SETUPS)]
    layers = core_layers(tracer, epochs, setups)
    conserved = conserved_everywhere(tracer, epochs)
    out.attempt(conserved is True, "traced collection did not conserve reports")
    layers["network.edges"] = float(len(net.csr.indices) // 2)
    maps = [r["map"] for r in traced if r["e"] < FIXED_EPOCHS]
    layers.update(fidelity([(net.field, m) for m in maps], PAPER_QUERY.isolevels))
    layers["trace.coverage"] = min(tracer.coverage("epoch").values())
    layers["trace.overhead"] = median([r["seconds"] for r in traced]) / median(
        [r["seconds"] for r in plain]
    )
    out.notes["tracer"] = tracer
    return layers

