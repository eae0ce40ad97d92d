"""Where the traced run cuts the program into layers, and what it reads.

Each entry wraps one attribute at a module boundary the contour-map
path calls through.  The names match the per-layer metrics in
``BENCHMARK.json`` (``<span>_s`` is the per-epoch time of span
``<span>``); ``perfbench/README.md`` maps each to the end-to-end metric
it should move.  ``BENCHMARK.json`` is the list of metrics and units.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from harness import median
from spans import Tracer


def _count_detection(t: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    t.count("detection.candidates", len(result.candidates))
    t.count("detection.isoline_nodes", len(result.isoline_nodes))


def _count_reports(t: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    t.count("gradient.reports", len(result))


def _count_degradation(t: Tracer, report: Any, args: tuple, kwargs: dict) -> None:
    t.count("transport.retries", report.retransmissions)
    t.count("transport.attempts", report.retransmissions)
    t.count("filter.dropped", report.dropped_by_filter)
    t.count("transport.generated", report.generated)
    t.count("transport.delivered", report.delivered)
    t.count("transport.conserved", int(report.is_conserved))


def _count_forward(t: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    _network, reports, retractions = args[1], args[2], args[3]
    t.count("delta.sent", len(reports))
    t.count("delta.retractions", len(retractions))


def _count_sink_reports(t: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    t.count("sink.reports", len(args[0]))


def _count_reconstruct(t: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    reconstructor = args[0]
    t.count("sink.reports", len(args[1]))
    t.count("sink.dirty_frac", reconstructor.last_dirty_fraction())
    t.count("sink.full_rebuilds", reconstructor.last_full_rebuilds)


def install_core(t: Tracer) -> None:
    """Wrap network, field and core boundaries (both pipelines)."""
    import repro.core.continuous as continuous
    import repro.core.protocol as protocol
    import repro.network.network as network
    from repro.core.contour_map import SinkReconstructor
    from repro.core.prediction import PredictorBank
    from repro.network.transport import EpochTransport

    t.wrap(network, "build_csr_adjacency", "network.topology")
    t.wrap(network, "build_routing_tree", "network.topology")
    t.wrap(network.SensorNetwork, "__init__", "network.setup")
    t.wrap(network.SensorNetwork, "resense", "field.resense")
    t.wrap(protocol.IsoMapProtocol, "_disseminate_query", "dissemination")
    t.wrap(protocol, "detect_isoline_nodes", "detection", _count_detection)
    t.wrap(continuous, "detect_isoline_nodes", "detection", _count_detection)
    t.wrap(protocol.IsoMapProtocol, "_generate_reports", "gradient", _count_reports)
    # Transport construction is no metric of its own, but it runs at the
    # top level of an epoch, so it needs a span for the coverage check.
    t.wrap(protocol.TilePartition, "build", "transport.setup")
    t.wrap(EpochTransport, "__init__", "transport.setup")
    t.wrap(protocol.IsoMapProtocol, "_collect", "collection")
    t.wrap(EpochTransport, "finalize", "transport.finalize", _count_degradation)
    _wrap_run_collection(t, EpochTransport)
    t.wrap(continuous.ContinuousIsoMap, "_forward", "delta.forward", _count_forward)
    for method in ("advance", "decide", "apply", "extrapolated"):
        t.wrap(PredictorBank, method, "prediction")
    t.wrap(protocol, "build_contour_map", "sink", _count_sink_reports)
    t.wrap(SinkReconstructor, "reconstruct", "sink", _count_reconstruct)


def _wrap_run_collection(t: Tracer, transport_cls: Any) -> None:
    """Span ``run_collection`` and count the frames offered to it.

    A frame's first transmission is one attempt; the retries the
    degradation report counts are the others.
    """
    t.wrap(transport_cls, "run_collection", "transport.run")
    traced = transport_cls.run_collection

    def run_collection(self: Any, frames_for: Any, on_arrival: Any) -> Any:
        def counted(u: int) -> List[Any]:
            frames = frames_for(u)
            t.count("transport.attempts", len(frames))
            return frames

        return traced(self, counted, on_arrival)

    transport_cls.run_collection = run_collection


def install_serve(t: Tracer) -> None:
    """Wrap the serving boundaries that run in the service process."""
    from repro.serving.session import MapSession
    from repro.serving.store import MapStore
    from repro.serving.supervisor import SupervisedShardPool

    t.wrap(MapSession, "advance", "serve.advance")
    t.wrap(SupervisedShardPool, "compute", "serve.compute")
    t.wrap(MapStore, "put_epoch", "serve.put_epoch")
    t.wrap(MapSession, "snapshot", "serve.snapshot")


def install_serve_compute(t: Tracer) -> None:
    """Wrap the compute side of a session, replayed in this process."""
    from repro.serving.wire import SimplifiedStream

    install_core(t)
    t.wrap(SimplifiedStream, "fold_epoch", "serve.simplify")


#: Counters reported as their mean per epoch.
COUNTS = (
    "detection.candidates",
    "detection.isoline_nodes",
    "gradient.reports",
    "transport.attempts",
    "transport.retries",
    "filter.dropped",
    "delta.sent",
    "delta.retractions",
    "sink.reports",
    "sink.full_rebuilds",
    "sink.dirty_frac",
    "prediction.predicted",
    "prediction.heartbeats",
)

#: Span names whose per-epoch time is reported as ``<name>_s``.
TIMED_SPANS = {
    "field.resense_s": "field.resense",
    "dissemination_s": "dissemination",
    "detection_s": "detection",
    "gradient_s": "gradient",
    "collection_s": "collection",
    "transport.run_s": "transport.run",
    "transport.finalize_s": "transport.finalize",
    "delta.forward_s": "delta.forward",
    "prediction_s": "prediction",
    "sink_s": "sink",
    "serve.simplify_s": "serve.simplify",
}


def _median_over(epochs: List[str], per_epoch: Dict[str, float]) -> float:
    return median([per_epoch.get(e, 0.0) for e in epochs]) if epochs else 0.0


def core_layers(
    t: Tracer, epochs: List[str], setups: List[str]
) -> Dict[str, float]:
    """Per-layer values of the network, field and core layers.

    Times are medians over ``epochs`` (``setups`` for the network
    layer) of the seconds each span took in one epoch; counts are means
    per epoch.  A layer the workload never calls reads 0.
    """
    out: Dict[str, float] = {}
    topo = t.per_epoch("network.topology")
    out["network.topology_s"] = _median_over(setups, topo)
    out["network.setup_self_s"] = _median_over(
        setups, t.per_epoch("network.setup", use_self_time=True)
    )
    for metric, span in TIMED_SPANS.items():
        out[metric] = _median_over(epochs, t.per_epoch(span))

    def values(name: str) -> List[float]:
        per_epoch = t.counters.get(name, {})
        return [per_epoch.get(e, 0.0) for e in epochs]

    def ratio(part: str, *whole: str) -> float:
        base = sum(sum(values(w)) for w in whole)
        return sum(values(part)) / base if base else 0.0

    for name in COUNTS:
        out[name] = sum(values(name)) / len(epochs) if epochs else 0.0
    out["detection.yield"] = ratio("detection.isoline_nodes", "detection.candidates")
    out["transport.delivery_rate"] = ratio("transport.delivered", "transport.generated")
    out["delta.suppress_frac"] = ratio("delta.suppressed", "delta.sent", "delta.suppressed")
    out["prediction.staleness_max"] = max(values("prediction.staleness"), default=0.0)
    return out


def conserved_everywhere(t: Tracer, epochs: List[str]) -> Optional[bool]:
    """Did every traced collection conserve its report instances?"""
    flags = t.counters.get("transport.conserved")
    if not flags:
        return None
    return all(flags.get(e, 1.0) == 1.0 for e in epochs)
