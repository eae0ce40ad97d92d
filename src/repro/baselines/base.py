"""Shared baseline infrastructure.

A baseline run produces a :class:`ProtocolRun`: a name, a band map the
metrics can rasterise, the cost accountant, and bookkeeping counts.  The
band map used by the value-reporting baselines is
:class:`NearestReportBandMap`: the sink knows a set of (position, value)
readings and classifies any point by the band of the nearest reading --
the "sink interpolation" the paper attributes to TinyDB and the
data-suppression protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.field.contours import band_of, extract_isolines
from repro.field.grid_field import SampledGridField
from repro.geometry import BoundingBox, Vec
from repro.network import CostAccountant, SensorNetwork
from repro.network.transport import DegradationReport, EpochTransport, OutFrame


@dataclass
class ProtocolRun:
    """Uniform result record for any contour protocol run.

    Attributes:
        name: protocol name (for experiment tables).
        band_map: an object with ``classify_raster(nx, ny)``, ``band_at(p)``
            and ``isolines(level)``.
        costs: the per-node cost counters.
        reports_delivered: application reports that reached the sink.
        degradation: the collection transport's account of this epoch
            (None only for code paths that predate the transport).
    """

    name: str
    band_map: "NearestReportBandMap"
    costs: CostAccountant
    reports_delivered: int
    degradation: Optional[DegradationReport] = None


class NearestReportBandMap:
    """Sink-side map built from raw (position, value) readings.

    Classification assigns each point the band of its nearest reading --
    nearest-neighbour sink interpolation.  Isolines for the Hausdorff
    metric are extracted by running marching squares over the interpolated
    surface (the sink has unconstrained resources, so this mirrors what a
    real TinyDB front-end would render).
    """

    def __init__(
        self,
        bounds: BoundingBox,
        positions: Sequence[Vec],
        values: Sequence[float],
        levels: Sequence[float],
    ):
        if len(positions) != len(values):
            raise ValueError("positions and values must parallel")
        self.bounds = bounds
        self.positions = list(positions)
        self.values = list(values)
        self.levels = sorted(levels)
        self._pos_arr = (
            np.array(self.positions, dtype=float)
            if self.positions
            else np.zeros((0, 2))
        )
        self._val_arr = np.array(self.values, dtype=float)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def band_at(self, p: Vec) -> int:
        if not self.positions:
            return 0
        best = min(
            range(len(self.positions)),
            key=lambda i: (p[0] - self.positions[i][0]) ** 2
            + (p[1] - self.positions[i][1]) ** 2,
        )
        return band_of(self.values[best], self.levels)

    def value_at(self, p: Vec) -> Optional[float]:
        """Nearest-reading value (None when no readings arrived)."""
        if not self.positions:
            return None
        d2 = (self._pos_arr[:, 0] - p[0]) ** 2 + (self._pos_arr[:, 1] - p[1]) ** 2
        return float(self._val_arr[d2.argmin()])

    def classify_points(self, points: Sequence[Vec]) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if not self.positions:
            return np.zeros(len(pts), dtype=int)
        # Chunk the distance matrix so 10k-report x 10k-point queries stay
        # within a few tens of MB.
        chunk = max(1, int(4e6 // max(1, len(self.positions))))
        nearest_vals = np.empty(len(pts))
        for start in range(0, len(pts), chunk):
            block = pts[start : start + chunk]
            d2 = (
                (block[:, None, 0] - self._pos_arr[None, :, 0]) ** 2
                + (block[:, None, 1] - self._pos_arr[None, :, 1]) ** 2
            )
            nearest_vals[start : start + chunk] = self._val_arr[d2.argmin(axis=1)]
        bands = np.zeros(len(pts), dtype=int)
        for v in self.levels:
            bands += (nearest_vals >= v).astype(int)
        return bands

    def classify_raster(self, nx: int, ny: int) -> np.ndarray:
        pts = self.bounds.sample_grid(nx, ny)
        return self.classify_points(pts).reshape(ny, nx)

    # ------------------------------------------------------------------
    # Isolines (for the Hausdorff metric)
    # ------------------------------------------------------------------

    def isolines(self, level: float, grid: int = 100) -> List[List[Vec]]:
        """Isolines of the interpolated surface via marching squares.

        The interpolated surface is memoised per resolution (the readings
        are fixed once the map is built), so the Hausdorff metric's
        per-level calls interpolate once instead of once per level.
        """
        if not self.positions:
            return []
        cache = self.__dict__.setdefault("_surface_cache", {})
        surface = cache.get(grid)
        if surface is None:
            surface = self._interpolated_field(grid)
            cache[grid] = surface
        return extract_isolines(surface, level, nx=grid, ny=grid)

    def _interpolated_field(self, grid: int) -> SampledGridField:
        pts = self.bounds.sample_grid(grid, grid)
        vals = np.empty(len(pts))
        chunk = max(1, int(4e6 // max(1, len(self.positions))))
        for start in range(0, len(pts), chunk):
            block = np.asarray(pts[start : start + chunk], dtype=float)
            d2 = (
                (block[:, None, 0] - self._pos_arr[None, :, 0]) ** 2
                + (block[:, None, 1] - self._pos_arr[None, :, 1]) ** 2
            )
            vals[start : start + chunk] = self._val_arr[d2.argmin(axis=1)]
        return SampledGridField(self.bounds, vals.reshape(grid, grid))


def forward_reports_to_sink(
    network: SensorNetwork,
    sources: Sequence[int],
    report_bytes: int,
    costs: CostAccountant,
    ops_per_forward: int = 1,
    transport: Optional[EpochTransport] = None,
) -> List[int]:
    """Store-and-forward of one report per source node over the transport.

    Charges tx/rx on every hop and ``ops_per_forward`` at every relay (the
    minimal store-and-forward bookkeeping that makes TinyDB the paper's
    per-node computation lower bound).  The walk is the TAG bottom-up
    schedule, which charges exactly what the per-source path walk charged
    under a perfect link layer; under a fault plan the transport's
    ARQ/CRC/dedup/re-parenting defenses apply.  Returns the sources whose
    report reached the sink, in ``sources`` order.
    """
    tree = network.tree
    if transport is None:
        transport = EpochTransport(network, costs)
    delivered: set = set()
    pending: List[tuple] = []  # (source, rid) for routed non-sink sources
    for s in sources:
        if tree.level[s] is None:
            continue
        rid = transport.register()
        if s == tree.sink:
            # The sink's own reading needs no transmission.
            if transport.deliver_at_sink(rid):
                delivered.add(s)
            continue
        pending.append((s, rid))

    # Perfect links and no faults: every report travels its full path,
    # so the per-hop charges collapse to subtree counts -- no per-frame
    # Python at all (what makes n=40k feasible).  A faulted epoch goes
    # frame by frame through the transport.
    forward = (
        _forward_zero_fault_analytic
        if transport.engine is None
        else _forward_per_frame
    )
    forward(
        network, pending, report_bytes, costs, ops_per_forward, transport,
        delivered,
    )
    return [s for s in sources if s in delivered]


def _forward_per_frame(
    network: SensorNetwork,
    pending: Sequence[tuple],
    report_bytes: int,
    costs: CostAccountant,
    ops_per_forward: int,
    transport: EpochTransport,
    delivered: set,
) -> None:
    """Forward each pending report frame by frame over the transport.

    The faulted path, and the reference the closed-form
    :func:`_forward_zero_fault_analytic` is pinned against.
    """
    tree = network.tree
    outbox: dict = {}
    for s, rid in pending:
        outbox.setdefault(s, []).append((s, rid))

    def frames_for(u: int) -> List[OutFrame]:
        return [
            OutFrame(nbytes=report_bytes, rids=(rid,), payload=src)
            for src, rid in outbox.pop(u, ())
        ]

    def on_arrival(_sender, receiver, frame, arrived, _is_dup):
        rid = frame.rids[0]
        if receiver == tree.sink:
            if transport.deliver_at_sink(rid):
                delivered.add(frame.payload)
        else:
            outbox.setdefault(receiver, []).append((arrived, rid))

    transport.run_collection(
        frames_for, on_arrival, ops_per_frame=ops_per_forward
    )


def _forward_zero_fault_analytic(
    network: SensorNetwork,
    pending: Sequence[tuple],
    report_bytes: int,
    costs: CostAccountant,
    ops_per_forward: int,
    transport: EpochTransport,
    delivered: set,
) -> None:
    """Charge the fault-free forwarding epoch in closed form.

    On perfect links every pending report crosses each edge of its path
    to the sink exactly once, so the number of frames node ``u`` sends is
    the count of pending sources in its subtree -- computed bottom-up
    with one scatter-add per level.  Charges are the identical integer
    sums the per-frame walk accumulates (pinned by a differential test).
    """
    tree = network.tree
    n = network.n_nodes
    counts = np.zeros(n, dtype=np.int64)
    for s, _rid in pending:
        counts[s] += 1
    parent_arr = np.array(
        [-1 if p is None else p for p in tree.parent], dtype=np.int64
    )
    levels = np.array(
        [-1 if l is None else l for l in tree.level], dtype=np.int64
    )
    for lvl in range(tree.depth, 0, -1):
        members = np.flatnonzero(levels == lvl)
        if members.size == 0:
            continue
        senders = members[counts[members] > 0]
        if senders.size == 0:
            continue
        c = counts[senders]
        parents = parent_arr[senders]
        costs.charge_tx_batch(senders, c * report_bytes)
        costs.charge_rx_batch(parents, c * report_bytes)
        if ops_per_forward:
            costs.charge_ops_batch(senders, c * ops_per_forward)
        np.add.at(counts, parents, c)
    for s, rid in pending:
        if transport.deliver_at_sink(rid):
            delivered.add(s)


def disseminate_query(network: SensorNetwork, query_bytes: int, costs: CostAccountant) -> None:
    """Flood a query down the routing tree (one broadcast per internal node)."""
    for node in network.nodes:
        if node.level is None or not node.alive:
            continue
        kids = [c for c in node.children if network.nodes[c].level is not None]
        if kids:
            costs.charge_local_broadcast(node.node_id, kids, query_bytes)
