"""Differential tests: slot-batched transport vs the retained scalar walk.

The batched driver (``EpochTransport._run_batched``, which every faulted
epoch takes) must be *bit-identical* to the per-frame scalar reference
(``_run_scalar``, which loops ``walk_reference`` + ``send``) under the
same seed: byte-identical per-node tx/rx/ops accounting and an identical
:class:`DegradationReport`, for every protocol, every defense-toggle
combination and several fault intensities.  The reference run patches
the per-frame paths in with ``monkeypatch`` (:func:`_run_reference`):
the scalar walk for the level resolver and, for the baselines'
zero-fault forwarding, the per-frame loop for the closed form.  These
tests pin that contract; they are what licenses every other test in the
suite to run on the fast path.
"""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from repro.baselines import (
    DataSuppressionProtocol,
    EScanProtocol,
    INLRProtocol,
    TinyDBProtocol,
)
from repro.baselines import base
from repro.baselines.base import forward_reports_to_sink
from repro.baselines.isoline_agg import IsolineAggregationProtocol
from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
from repro.core.wire import VALUE_REPORT_BYTES
from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import (
    BernoulliLink,
    FaultPlan,
    GilbertElliottLink,
)
from repro.network.transport import EpochTransport, TransportConfig

BOX = BoundingBox(0, 0, 20, 20)
LEVELS = [14.0, 16.0]
QUERY = ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2)


def radial_net(n=400, seed=0):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.random_deploy(field, n, radio_range=2.0, seed=seed)


def radial_grid_net(n=400, seed=0):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.grid_deploy(field, n, radio_range=2.0, seed=seed)


#: Every defense-toggle combination the differential sweep covers: both
#: presets plus each defense switched off alone.
CONFIGS = {
    "hardened": TransportConfig.hardened(),
    "vanilla": TransportConfig.vanilla(),
    "no-arq": dataclasses.replace(
        TransportConfig.hardened(), arq=False, max_retries=0
    ),
    "no-crc": dataclasses.replace(TransportConfig.hardened(), crc=False),
    "no-dedup": dataclasses.replace(TransportConfig.hardened(), dedup=False),
    "no-reparent": dataclasses.replace(TransportConfig.hardened(), reparent=False),
}

PROTOCOLS = (
    "iso-map",
    "isoline-agg",
    "tinydb",
    "inlr",
    "escan",
    "suppression",
)


def _evidence(run):
    """The bit-identity evidence: cost-array digests + the full report."""
    costs = run.costs
    deg = run.degradation
    return (
        hashlib.sha256(costs.tx_bytes.tobytes()).hexdigest(),
        hashlib.sha256(costs.rx_bytes.tobytes()).hexdigest(),
        hashlib.sha256(costs.ops.tobytes()).hexdigest(),
        dataclasses.asdict(deg) if deg is not None else None,
    )


def _run_protocol(name, plan, config, seed=1):
    if name == "iso-map":
        return IsoMapProtocol(
            QUERY, FilterConfig(30, 4), fault_plan=plan, transport_config=config
        ).run(radial_net(seed=seed))
    net = radial_grid_net(seed=seed) if name in ("tinydb", "inlr", "suppression") \
        else radial_net(seed=seed)
    proto = {
        "isoline-agg": lambda: IsolineAggregationProtocol(
            QUERY, fault_plan=plan, transport_config=config
        ),
        "tinydb": lambda: TinyDBProtocol(
            LEVELS, fault_plan=plan, transport_config=config
        ),
        "inlr": lambda: INLRProtocol(
            LEVELS, fault_plan=plan, transport_config=config
        ),
        "escan": lambda: EScanProtocol(
            LEVELS, fault_plan=plan, transport_config=config
        ),
        "suppression": lambda: DataSuppressionProtocol(
            LEVELS, fault_plan=plan, transport_config=config
        ),
    }[name]()
    return proto.run(net)


def _run_reference(monkeypatch, name, plan, config):
    """:func:`_run_protocol` with every fast path swapped for its
    per-frame reference."""
    with monkeypatch.context() as m:
        m.setattr(EpochTransport, "_run_batched", EpochTransport._run_scalar)
        m.setattr(base, "_forward_zero_fault_analytic", base._forward_per_frame)
        return _run_protocol(name, plan, config)


def _differential(monkeypatch, name, plan, config):
    fast = _run_protocol(name, plan, config)
    ref = _run_reference(monkeypatch, name, plan, config)
    assert _evidence(fast) == _evidence(ref), f"{name} diverged from the scalar walk"
    if fast.degradation is not None:
        assert fast.degradation.is_conserved


class TestBatchedMatchesScalar:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_every_protocol_moderate_faults(self, monkeypatch, name):
        _differential(monkeypatch, name, FaultPlan.moderate(seed=5), TransportConfig.hardened())

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_every_protocol_heavy_faults_vanilla(self, monkeypatch, name):
        _differential(monkeypatch, name, FaultPlan.at_intensity(0.8, seed=9), TransportConfig.vanilla())

    @pytest.mark.parametrize("cfg", sorted(CONFIGS))
    def test_every_config_toggle(self, monkeypatch, cfg):
        _differential(monkeypatch, "tinydb", FaultPlan.moderate(seed=7), CONFIGS[cfg])
        _differential(
            monkeypatch, "iso-map", FaultPlan.at_intensity(0.5, seed=11), CONFIGS[cfg]
        )

    @pytest.mark.parametrize(
        "link", [BernoulliLink(0.7), GilbertElliottLink(0.3, 0.25, 1.0, 0.3)]
    )
    def test_link_models_alone(self, monkeypatch, link):
        plan = FaultPlan(seed=13, link=link)
        _differential(monkeypatch, "tinydb", plan, TransportConfig.hardened())

    def test_zero_fault_batched_identical(self, monkeypatch):
        # No engine at all: the fast paths must not change a single byte
        # (this is what keeps the golden snapshots valid on the fast path).
        _differential(monkeypatch, "iso-map", None, TransportConfig.hardened())
        _differential(monkeypatch, "tinydb", None, TransportConfig.hardened())


class TestZeroFaultAnalytic:
    def test_analytic_forwarding_matches_per_frame_walk(self, monkeypatch):
        # forward_reports_to_sink collapses the zero-fault epoch to
        # closed-form subtree counts; the per-frame loop, patched in
        # for the reference run, must charge the identical integers.
        def run():
            net = radial_grid_net(seed=2)
            costs = CostAccountant(net.n_nodes)
            transport = EpochTransport(net, costs)
            sources = [
                node.node_id
                for node in net.nodes
                if node.can_sense and node.level is not None
            ]
            delivered = forward_reports_to_sink(
                net, sources, VALUE_REPORT_BYTES, costs,
                ops_per_forward=3, transport=transport,
            )
            deg = transport.finalize()
            return (
                delivered,
                costs.tx_bytes.tobytes(),
                costs.rx_bytes.tobytes(),
                costs.ops.tobytes(),
                dataclasses.asdict(deg),
            )

        fast = run()
        with monkeypatch.context() as m:
            m.setattr(
                base, "_forward_zero_fault_analytic", base._forward_per_frame
            )
            ref = run()
        assert fast == ref


class TestRepairTraffic:
    def test_reparenting_charges_identically_and_is_exercised(self, monkeypatch):
        # Crash-heavy plan with recovery: orphans must be adopted, the
        # probe/reply/join traffic charged, and the batched adoption
        # (including same-level adopters) byte-identical to the scalar's.
        plan = FaultPlan(seed=17, crash_ratio=0.25, recover_ratio=0.3)
        config = TransportConfig.hardened()
        fast = _run_protocol("tinydb", plan, config)
        ref = _run_reference(monkeypatch, "tinydb", plan, config)
        assert _evidence(fast) == _evidence(ref)
        assert fast.degradation.repaired_orphans > 0
        # Repair traffic is real charged traffic: the crash-only epoch
        # must cost strictly more than its reparent-disabled twin on the
        # surviving topology (probes, replies and joins are not free).
        off = _run_protocol(
            "tinydb", plan,
            dataclasses.replace(config, reparent=False),
        )
        assert fast.costs.tx_bytes.sum() > off.costs.tx_bytes.sum()


class TestDisconnectedCount:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_vectorized_matches_reference(self, seed):
        net = radial_net(seed=seed)
        rng = random.Random(seed)
        for node in net.nodes:
            if node.node_id != net.sink_index and rng.random() < 0.3:
                node.alive = False
        transport = EpochTransport(net, CostAccountant(net.n_nodes))
        assert transport._count_disconnected() == transport._count_disconnected_reference()

    def test_no_failures_means_zero(self):
        net = radial_net(seed=1)
        transport = EpochTransport(net, CostAccountant(net.n_nodes))
        assert transport._count_disconnected() == 0
        assert transport._count_disconnected_reference() == 0


class TestConservationProperty:
    @pytest.mark.parametrize("case_seed", range(8))
    def test_is_conserved_under_randomized_combined_faults(self, case_seed):
        # Property: whatever combination of crash/recover, burst loss,
        # corruption and duplication an epoch throws at any protocol, the
        # instance conservation law holds exactly on the batched path.
        rng = random.Random(1000 + case_seed)
        link = rng.choice(
            [
                None,
                BernoulliLink(rng.uniform(0.5, 1.0)),
                GilbertElliottLink(
                    p_enter_bad=rng.uniform(0.05, 0.5),
                    p_exit_bad=rng.uniform(0.2, 0.9),
                    deliver_good=1.0,
                    deliver_bad=rng.uniform(0.1, 0.9),
                ),
            ]
        )
        plan = FaultPlan(
            seed=rng.randrange(2**16),
            crash_ratio=rng.uniform(0.0, 0.4),
            recover_ratio=rng.uniform(0.0, 1.0),
            link=link,
            corruption=rng.uniform(0.0, 0.2),
            duplication=rng.uniform(0.0, 0.2),
        )
        name = PROTOCOLS[case_seed % len(PROTOCOLS)]
        run = _run_protocol(name, plan, TransportConfig.hardened())
        deg = run.degradation
        assert deg is not None and deg.generated > 0
        assert deg.is_conserved, f"{name} seed={case_seed}: {deg.summary()}"
        total_charged = int(run.costs.tx_bytes.sum())
        assert total_charged >= 0
        assert np.all(run.costs.tx_bytes >= 0)
