"""The benchmark's traced run must still find every attribute it wraps.

``perfbench/layers.py`` cuts the program into layers by replacing
module and class attributes (``protocol.TilePartition.build``,
``EpochTransport.run_collection``, ``IsoMapProtocol._collect``, ...)
with span-recording wrappers.  A refactor that renames or removes one
of them breaks the traced benchmark; this test makes it break here
first.  It only reads ``perfbench/``.
"""

import dataclasses
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans

        yield layers, spans
    finally:
        sys.path.remove(str(PERFBENCH))


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize(
    "install", ["install_core", "install_serve", "install_serve_compute"]
)
def test_install_then_restore_puts_every_attribute_back(perfbench, install):
    layers, spans = perfbench
    tracer = spans.Tracer()
    getattr(layers, install)(tracer)
    installed = list(tracer._installed)
    try:
        assert installed
        for owner, attr, raw in installed:
            assert _current(owner, attr) is not raw, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, raw in installed:
        assert _current(owner, attr) is raw, (owner, attr)


def _faulted_tiled_epoch():
    from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
    from repro.field import RadialField
    from repro.geometry import BoundingBox
    from repro.network import SensorNetwork
    from repro.network.faults import FaultPlan

    box = BoundingBox(0, 0, 20, 20)
    field = RadialField(box, center=(10, 10), peak=20, slope=1)
    net = SensorNetwork.random_deploy(field, 400, radio_range=2.0, seed=3)
    protocol = IsoMapProtocol(
        ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2),
        FilterConfig(30, 4),
        fault_plan=FaultPlan.at_intensity(0.5, seed=11),
        tile_size=5.0,
        tile_jobs=1,
    )
    return protocol.run(net)


def test_traced_faulted_tiled_epoch_matches_untraced(perfbench):
    layers, spans = perfbench
    plain = _faulted_tiled_epoch()
    tracer = spans.Tracer()
    tracer.epoch = "e0"
    with tracer.installed(layers.install_core):
        traced = _faulted_tiled_epoch()
    assert traced.costs.total_traffic_bytes() == plain.costs.total_traffic_bytes()
    assert dataclasses.asdict(traced.degradation) == dataclasses.asdict(
        plain.degradation
    )
    names = {s.name for s in tracer.spans}
    for layer in (
        "dissemination",
        "detection",
        "gradient",
        "transport.setup",
        "collection",
        "transport.run",
        "transport.finalize",
        "sink",
    ):
        assert layer in names, layer
    assert tracer.counters["transport.conserved"]["e0"] == 1.0
    assert tracer.counters["transport.attempts"]["e0"] > 0
