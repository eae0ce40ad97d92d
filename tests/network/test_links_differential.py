"""Differential test: lossy-link closed forms vs the fault engine.

A lossy link is a :class:`BernoulliLink` inside a :class:`FaultPlan`;
the retry budget belongs to the transport.  Per hop, ARQ with ``r``
retries delivers with probability ``1 - (1 - p)^(r + 1)`` and puts a
truncated-geometric number of attempts on air.  This test pins those
closed forms to the transport's *sampled* process: a seeded Monte-Carlo
through :meth:`EpochTransport.send` must reproduce them within
law-of-large-numbers tolerance, so neither side can drift without the
other noticing.
"""

import math

import pytest

from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import BernoulliLink, FaultPlan
from repro.network.transport import EpochTransport, TransportConfig

N_TRIALS = 20_000
NBYTES = 6


def hop_delivery(p, retries):
    return 1.0 - (1.0 - p) ** (retries + 1)


def expected_attempts(p, retries):
    """Mean on-air attempts per hop (a failed hop spends its budget)."""
    q = 1.0 - p
    n = retries + 1
    return sum(k * p * q ** (k - 1) for k in range(1, n + 1)) + n * q**n


def lossy_transport(p, retries, seed, n_nodes=8):
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


def simulate(p, retries, seed, trials=N_TRIALS, hops=1):
    """Monte-Carlo ``trials`` frames over the chain 0 -> 1 -> ... -> hops.

    Returns the surviving fraction and the attempts the first hop put
    on air.
    """
    transport, costs = lossy_transport(p, retries, seed, n_nodes=hops + 1)
    survived = 0
    for _ in range(trials):
        ok = True
        for h in range(hops):
            if not transport.send(h, h + 1, NBYTES).delivered:
                ok = False
                break
        survived += ok
    return survived / trials, costs.tx_bytes[0] / NBYTES


@pytest.mark.parametrize(
    "p,retries",
    [(0.9, 3), (0.7, 3), (0.5, 1), (0.95, 0), (0.6, 5)],
)
def test_single_hop_closed_forms(p, retries):
    delivery, attempts = simulate(p, retries, seed=hash((p, retries)) % 2**31)

    want_delivery = hop_delivery(p, retries)
    # 4-sigma binomial tolerance on the delivery estimate.
    tol = 4.0 * math.sqrt(want_delivery * (1 - want_delivery) / N_TRIALS) + 1e-9
    assert delivery == pytest.approx(want_delivery, abs=tol)

    # Attempts per hop are bounded by retries+1, so 4-sigma is at most
    # 4 * (retries+1) / sqrt(N) -- a loose but sufficient envelope.
    assert attempts / N_TRIALS == pytest.approx(
        expected_attempts(p, retries), abs=4.0 * (retries + 1) / math.sqrt(N_TRIALS)
    )


def test_multi_hop_end_to_end():
    for hops in (2, 5):
        delivery, _ = simulate(0.8, 2, seed=hops, hops=hops)
        want = hop_delivery(0.8, 2) ** hops
        tol = 4.0 * math.sqrt(want * (1 - want) / N_TRIALS)
        assert delivery == pytest.approx(want, abs=tol)


def test_charges_follow_attempts_exactly():
    # Accounting identity, not statistics: tx at the sender and rx at the
    # receiver must both equal NBYTES * attempts-on-air, and the
    # retransmission counter must hold every attempt after the first.
    transport, costs = lossy_transport(0.5, 2, seed=7)
    for _ in range(500):
        transport.send(0, 1, NBYTES)
    assert costs.tx_bytes[0] == costs.rx_bytes[1]
    assert costs.tx_bytes[0] % NBYTES == 0
    attempts = costs.tx_bytes[0] // NBYTES
    assert 500 <= attempts <= 500 * 3
    assert transport.finalize().retransmissions == attempts - 500
