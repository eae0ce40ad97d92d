"""Unit tests for lossy links: a :class:`BernoulliLink` fault plan under
the transport's ARQ budget (the per-hop cost of the paper's
perfect-link-layer assumption)."""

import pytest

from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import BernoulliLink, FaultPlan
from repro.network.transport import EpochTransport, TransportConfig

NBYTES = 10


def lossy_transport(p, retries, seed=0, n_nodes=4):
    box = BoundingBox(0, 0, 4, 4)
    field = RadialField(box, center=(2, 2), peak=5, slope=1)
    net = SensorNetwork.random_deploy(field, n_nodes, radio_range=6.0, seed=1)
    costs = CostAccountant(net.n_nodes)
    transport = EpochTransport(
        net,
        costs,
        config=TransportConfig(arq=retries > 0, max_retries=retries),
        plan=FaultPlan(seed=seed, link=BernoulliLink(p)),
    )
    return transport, costs


def chain_delivery(p, retries, hops, trials, seed=0):
    """Fraction of ``trials`` frames that cross ``hops`` lossy hops."""
    transport, _ = lossy_transport(p, retries, seed, n_nodes=hops + 1)
    survived = 0
    for _ in range(trials):
        survived += all(
            transport.send(h, h + 1, NBYTES).delivered for h in range(hops)
        )
    return survived / trials


class TestLossyLinkModel:
    def test_perfect_link_one_attempt(self):
        transport, costs = lossy_transport(1.0, 3)
        for _ in range(50):
            assert transport.send(0, 1, NBYTES).delivered
        assert costs.tx_bytes[0] == 50 * NBYTES
        assert transport.finalize().retransmissions == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BernoulliLink(delivery_probability=-0.1)
        with pytest.raises(ValueError):
            BernoulliLink(delivery_probability=1.5)
        with pytest.raises(ValueError):
            TransportConfig(max_retries=-1)

    def test_attempts_bounded_by_budget(self):
        transport, costs = lossy_transport(0.01, 2, seed=1)
        for _ in range(200):
            before = int(costs.tx_bytes[0])
            transport.send(0, 1, NBYTES)
            assert 1 <= (int(costs.tx_bytes[0]) - before) // NBYTES <= 3

    def test_expected_attempts_matches_simulation(self):
        p, retries, trials = 0.7, 3, 20000
        transport, costs = lossy_transport(p, retries, seed=2)
        for _ in range(trials):
            transport.send(0, 1, NBYTES)
        q = 1.0 - p
        n = retries + 1
        expected = sum(k * p * q ** (k - 1) for k in range(1, n + 1)) + n * q**n
        mean = costs.tx_bytes[0] / NBYTES / trials
        assert mean == pytest.approx(expected, rel=0.03)

    def test_end_to_end_delivery_decreases_with_hops(self):
        one = chain_delivery(0.8, 1, hops=1, trials=2000)
        ten = chain_delivery(0.8, 1, hops=10, trials=2000)
        assert one > ten

    def test_retries_raise_delivery(self):
        lo = chain_delivery(0.7, 0, hops=20, trials=500)
        hi = chain_delivery(0.7, 4, hops=20, trials=500)
        assert hi > lo


class TestChargeLossyHop:
    def test_success_charges_attempts(self):
        transport, costs = lossy_transport(1.0, 3)
        assert transport.send(0, 1, NBYTES).delivered
        assert costs.tx_bytes[0] == NBYTES
        assert costs.rx_bytes[1] == NBYTES

    def test_failure_charges_full_budget(self):
        transport, costs = lossy_transport(0.0, 2)
        rid = transport.register()
        assert not transport.send(0, 1, NBYTES, rids=(rid,)).delivered
        assert costs.tx_bytes[0] == 3 * NBYTES  # 3 attempts x 10 bytes
        assert costs.rx_bytes[1] == 3 * NBYTES
        assert transport.finalize().lost == 1

    def test_protocol_with_lossy_links(self):
        from repro.core import ContourQuery, FilterConfig, IsoMapProtocol

        box = BoundingBox(0, 0, 20, 20)
        field = RadialField(box, center=(10, 10), peak=20, slope=1)
        net = SensorNetwork.random_deploy(field, 600, radio_range=2.2, seed=2)
        q = ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2)
        lossy_plan = FaultPlan(seed=0, link=BernoulliLink(0.8))

        def run(plan, retries):
            return IsoMapProtocol(
                q,
                FilterConfig.disabled(),
                fault_plan=plan,
                transport_config=TransportConfig(
                    arq=retries > 0, max_retries=retries
                ),
            ).run(net)

        perfect = run(None, 0)
        lossy = run(lossy_plan, 0)
        # Without retries at 20% loss, multi-hop reports die in transit.
        assert len(lossy.delivered_reports) < len(perfect.delivered_reports)
        reliable = run(lossy_plan, 5)
        # Retries restore delivery but cost extra transmissions.
        assert len(reliable.delivered_reports) > len(lossy.delivered_reports)
        assert (
            reliable.costs.total_traffic_bytes()
            > perfect.costs.total_traffic_bytes()
        )
