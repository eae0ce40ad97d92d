"""``monitor-tide``: continuous monitoring of a tidal harbor, no faults.

``ContinuousIsoMap.epoch`` over 10 000 nodes on the 50 x 50 harbor
field, re-sensed before every epoch from the serving layer's ``tide``
scenario.  Collection goes through the delta ``_forward`` path (the
transport and the fault engine are bypassed) and the incremental
``SinkReconstructor`` does real work.  Epoch 1 floods the standing
query and reports every isoline node, so it is run before timing
starts; epochs 2..9 are one full tide period and carry the exact
metrics.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Optional

from harness import HostSpeed, Outcome, mean, median, peak_rss_mb, tail_percentile
from layers import core_layers, install_core
from maps import fidelity, maps_equal
from spans import Tracer

from repro.core.contour_map import build_contour_map
from repro.core.continuous import ContinuousIsoMap
from repro.experiments.common import PAPER_QUERY
from repro.field import make_harbor_field
from repro.network import SensorNetwork
from repro.serving import SessionConfig, field_for_epoch

N = 10_000
RADIO_RANGE = 1.5
#: Set-ups of the traced run.  The untraced run times a set-up before
#: its first epoch and again every ``SETUP_EVERY`` epochs, so set-up and
#: epoch times sample the same stretch of the machine's load.
SETUPS = 3
SETUP_EVERY = 3
#: One tide period (8 epochs) after the cold first epoch.
FIXED = range(2, 10)
#: The tail of ``delta_p99_ms`` is taken over exactly these 20 timed
#: epochs, so it stands for the same percentile (their median, by the
#: tail rule) in every run; every run times at least these.
TAIL = range(2, 22)
#: Epochs whose incremental map is checked against a from-scratch build.
CHECKED = (3, 7)

SCENARIO = SessionConfig(query_id="monitor-tide", field="harbor", scenario="tide")


def setup(seed: int) -> SensorNetwork:
    """Deploy, sense, build the CSR adjacency and the routing tree."""
    return SensorNetwork.random_deploy(
        make_harbor_field(), N, radio_range=RADIO_RANGE, seed=seed
    )


def step(net: SensorNetwork, monitor: ContinuousIsoMap, e: int) -> Any:
    net.resense(field_for_epoch(SCENARIO, e))
    return monitor.epoch(net)


def _epochs(
    net: SensorNetwork,
    seconds: float,
    out: Outcome,
    tracer: Optional[Tracer] = None,
    last: Optional[int] = None,
    between: Optional[Callable[[], None]] = None,
    speed: Optional[HostSpeed] = None,
) -> List[Dict[str, Any]]:
    """Epoch 1 untimed, then timed epochs until ``seconds`` pass (at
    least through ``TAIL``), or through epoch ``last``.
    ``between`` runs before every ``SETUP_EVERY``-th epoch.  With
    ``speed``, a sample follows every epoch and each record carries its
    calibrated time (the caller takes the first sample)."""
    monitor = ContinuousIsoMap(PAPER_QUERY)
    records: List[Dict[str, Any]] = []
    t_start = None
    e = 1
    while True:
        if last is not None:
            if e > last:
                break
        elif e > TAIL[-1] and time.perf_counter() - t_start >= seconds:
            break
        if tracer is not None:
            tracer.epoch = f"e{e}"
        if between is not None and e % SETUP_EVERY == 0:
            between()
        gc.collect()  # start every epoch from the same heap, untimed
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("epoch"):
                    result = step(net, monitor, e)
            else:
                result = step(net, monitor, e)
        except Exception as exc:  # a raised epoch is a failed operation
            out.attempt(False, f"epoch {e} raised {exc!r}")
            break  # the monitor's state is unknown after a raise
        dt = time.perf_counter() - t0
        out.attempt(True, f"epoch {e}")
        if speed is not None:
            speed.sample()
        if t_start is None:
            t_start = time.perf_counter()
        if tracer is not None:
            tracer.count("delta.suppressed", result.suppressed)
        record = {
            "e": e,
            "seconds": dt,
            "calibrated": speed.calibrate(dt) if speed is not None else dt,
            "evidence": evidence(result),
            "traffic_kb": result.costs.total_traffic_kb(),
            "map": result.contour_map if e in FIXED else None,
        }
        if e in CHECKED and tracer is None:
            full = build_contour_map(
                monitor.sink_reports,
                PAPER_QUERY.isolevels,
                net.bounds,
                sink_value=result.sink_value,
                regulate=monitor.regulate,
            )
            out.attempt(
                maps_equal(result.contour_map, full),
                f"epoch {e}: incremental map differs from a full rebuild",
            )
        records.append(record)
        del result
        e += 1
    return records


def evidence(r: Any) -> Any:
    """What the traced run must reproduce exactly."""
    return (
        r.costs.total_traffic_bytes(),
        len(r.new_reports),
        len(r.retractions),
        r.suppressed,
        r.cached_reports,
    )


def run(seed: int, seconds: float, trace: bool, out: Outcome) -> Dict[str, float]:
    if trace:
        return _run_traced(seed, out)
    # Every set-up and epoch is timed between two samples of the core's
    # speed and reported calibrated (``harness.HostSpeed``).
    speed = HostSpeed()
    setups: List[float] = []
    raw_setups: List[float] = []

    def timed_setup() -> SensorNetwork:
        t0 = time.perf_counter()
        net = setup(seed)
        raw_setups.append(time.perf_counter() - t0)
        speed.sample()
        setups.append(speed.calibrate(raw_setups[-1]))
        return net

    speed.sample()
    records = _epochs(timed_setup(), seconds, out, between=timed_setup, speed=speed)
    timed = [r["calibrated"] for r in records if r["e"] >= 2]
    fixed = [r for r in records if r["e"] in FIXED]
    out.notes["epoch_seconds"] = [round(r["seconds"], 4) for r in records]
    out.notes["raw_epoch_s"] = median([r["seconds"] for r in records if r["e"] >= 2])
    out.notes["raw_setup_s"] = median(raw_setups)
    out.notes["speed_sample_s"] = median(speed.samples)
    out.notes["epochs"] = len(timed)
    tail, q, n = tail_percentile([r["calibrated"] for r in records if r["e"] in TAIL])
    out.notes["delta_tail"] = (q, n)
    return {
        "setup_s": median(setups),
        "epoch_s": median(timed),
        "traffic_kb": mean([r["traffic_kb"] for r in fixed]),
        "peak_rss_mb": peak_rss_mb(),
        "delta_p50_ms": median(timed) * 1e3,
        "delta_p99_ms": tail * 1e3,
    }


def _run_traced(seed: int, out: Outcome) -> Dict[str, float]:
    tracer = Tracer()
    nets = []
    with tracer.installed(install_core):
        for i in range(SETUPS):
            tracer.epoch = f"setup{i}"
            nets.append(setup(seed))
    # One tide period, untraced and then traced.
    plain = _epochs(nets[0], 0, out, last=FIXED[-1])
    with tracer.installed(install_core):
        traced = _epochs(nets[1], 0, out, tracer, last=FIXED[-1])
    for a, b in zip(plain, traced):
        out.attempt(
            a["evidence"] == b["evidence"],
            f"epoch {a['e']}: traced run changed traffic or report counts",
        )
    epochs = [f"e{r['e']}" for r in traced if r["e"] >= 2]
    layers = core_layers(tracer, epochs, [f"setup{i}" for i in range(SETUPS)])
    layers["network.edges"] = float(len(nets[0].csr.indices) // 2)
    pairs = [(field_for_epoch(SCENARIO, r["e"]), r["map"]) for r in traced if r["e"] in FIXED]
    layers.update(fidelity(pairs, PAPER_QUERY.isolevels))
    coverage = tracer.coverage("epoch")
    layers["trace.coverage"] = min(coverage[e] for e in epochs)
    layers["trace.overhead"] = median(
        [r["seconds"] for r in traced if r["e"] >= 2]
    ) / median([r["seconds"] for r in plain if r["e"] >= 2])
    out.notes["tracer"] = tracer
    return layers

