"""``serve-front``: one served session under open-loop load.

A ``MapService`` with one supervised shard worker serves one session
(1 200 nodes, the ``front`` scenario, simplification at 0.2 and
prediction at 0.3) to 1 000 PLAIN and 200 SIMPLIFIED subscribers.  The
epoch clock runs open loop at 2 Hz and snapshot reads arrive open loop
at 500/s; both are timed from when they were due, so a stall counts
against everything scheduled behind it.  This exercises worker compute
with prediction, wire encoding, the SIMPLIFIED fold, queue fan-out and
snapshot reads beside epoch writes.  The untraced run serves
``SEGMENTS`` deployments of the seed in turn, a fresh service each.
"""

from __future__ import annotations

import asyncio
import bisect
import time
from array import array
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Tuple

from harness import (
    TAIL_MIN_BEYOND,
    HostSpeed,
    OpenLoop,
    Outcome,
    median,
    peak_rss_mb,
    tail_percentile,
)
from layers import core_layers, install_serve, install_serve_compute
from maps import fidelity
from spans import Tracer

from repro.core.codec import ReportCodec
from repro.serving import (
    ENCODING_PLAIN,
    ENCODING_SIMPLIFIED,
    SNAPSHOT,
    DeltaReplayer,
    EpochComputeFailed,
    MapService,
    ServingError,
    SessionCompute,
    SessionConfig,
    ShardUnavailableError,
    SlowConsumerEvicted,
    field_for_epoch,
)
from repro.serving.session import base_field

QUERY_ID = "serve-front"
N_NODES = 1200
RATE_HZ = 2.0
SNAPSHOT_HZ = 500.0
PLAIN_SUBSCRIBERS = 1000
SIMPLIFIED_SUBSCRIBERS = 200
#: The untraced run serves ``SEGMENTS`` deployments one after another,
#: each for an equal share of the run: one 1 200-node deployment's
#: isolines cost up to 1.3x another's, so a run pools several.
SEGMENTS = 4
#: Set-ups per segment, the last of which serves the load; ``setup_s``
#: is the median over the run.
SETUPS = 3
#: Epoch 1 is published during set-up; the front moves through epochs
#: 2..17, which carry the exact metrics and the fidelity.
FIXED = range(2, 18)
#: Epoch rates tried for ``serve.sustained_epoch_hz``, ~1.45x apart.
LADDER = (3.0, 4.5, 6.5, 9.5, 14.0)
LADDER_EPOCHS = 12
LATENCY_LIMIT_S = 0.5
#: Advance attempts per epoch before the run gives up on the shard.
MAX_ADVANCE_ATTEMPTS = 3


def config(seed: int, segment: int = 0) -> SessionConfig:
    """The session of ``segment`` (its deployment) in the run of ``seed``."""
    return SessionConfig(
        query_id=QUERY_ID,
        n_nodes=N_NODES,
        seed=seed * SEGMENTS + segment,
        scenario="front",
        simplify_tolerance=0.2,
        prediction_tolerance=0.3,
    )


class Subscriber:
    """One client: every message it received, with its arrival time.

    Arrival times go to an ``array`` rather than into per-message tuples,
    so 100 000 deliveries add no objects for the garbage collector to
    walk -- the bookkeeping must not stall the loop it measures.
    """

    def __init__(self, service: MapService, encoding: str):
        self.encoding = encoding
        self.subscription = service.subscribe(QUERY_ID, 0, encodings=(encoding,))
        self.messages: List[Any] = []
        self.arrivals = array("d")
        self.evicted = False

    async def consume(self) -> None:
        try:
            async for message in self.subscription:
                self.arrivals.append(time.perf_counter())
                self.messages.append(message)
        except SlowConsumerEvicted:
            self.evicted = True

    def received(self) -> Iterator[Tuple[Any, float]]:
        return zip(self.messages, self.arrivals)


async def _advance(session: Any, out: Outcome) -> Dict[str, Any]:
    for _ in range(MAX_ADVANCE_ATTEMPTS):
        try:
            return await session.advance()
        except (EpochComputeFailed, ShardUnavailableError) as exc:
            out.attempt(False, f"epoch {session.latest_epoch + 1}: {exc!r}")
    raise RuntimeError(f"shard never recovered at epoch {session.latest_epoch + 1}")


class Load:
    """One service under the open-loop epoch clock and snapshot reads."""

    def __init__(self, service: MapService, out: Outcome, tracer: Optional[Tracer]):
        self.service = service
        self.session = service.session(QUERY_ID)
        self.out = out
        self.tracer = tracer
        self.subscribers = [
            Subscriber(service, ENCODING_PLAIN) for _ in range(PLAIN_SUBSCRIBERS)
        ] + [
            Subscriber(service, ENCODING_SIMPLIFIED)
            for _ in range(SIMPLIFIED_SUBSCRIBERS)
        ]
        self.tasks = [asyncio.ensure_future(s.consume()) for s in self.subscribers]
        #: epoch -> (due, published, result)
        self.epochs: Dict[int, Tuple[float, float, Dict[str, Any]]] = {}
        self.read_latency: List[float] = []
        self.read_lateness: List[float] = []
        #: Did the epoch clock fall further behind during the last drive?
        self.backlog_growing = False

    async def drive(self, rate_hz: float, count: int, reads: bool) -> List[int]:
        """Publish ``count`` epochs on an open-loop clock at ``rate_hz``."""
        t0 = time.perf_counter() + 0.05
        clock = OpenLoop(rate_hz, t0)
        stop = asyncio.Event()
        reader = asyncio.ensure_future(self._read(t0, stop)) if reads else None
        first = self.session.latest_epoch + 1
        for k in range(count):
            wait = clock.due(k) - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            clock.start(k, time.perf_counter())
            if self.tracer is not None:
                self.tracer.epoch = f"s{first + k}"
            result = await _advance(self.session, self.out)
            self.epochs[result["epoch"]] = (clock.due(k), time.perf_counter(), result)
        await self._delivered(first + count - 1)
        stop.set()
        if reader is not None:
            await reader
        self.backlog_growing = clock.backlog_growing(1.0 / rate_hz)
        return list(range(first, first + count))

    async def _read(self, t0: float, stop: asyncio.Event) -> None:
        clock = OpenLoop(SNAPSHOT_HZ, t0)
        k = 0
        while not stop.is_set():
            wait = clock.due(k) - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            else:
                await asyncio.sleep(0)
            clock.start(k, time.perf_counter())
            try:
                self.service.snapshot(QUERY_ID)
                failure = None
            except ServingError as exc:
                failure = exc
            self.read_latency.append(clock.latency(k, time.perf_counter()))
            self.out.attempt(failure is None, f"snapshot read {k}: {failure!r}")
            k += 1
        self.read_lateness.extend(clock.lateness())

    async def _delivered(self, epoch: int, timeout: float = 10.0) -> None:
        """Wait until every live subscriber holds ``epoch``."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if all(
                s.evicted or (s.messages and s.messages[-1].epoch >= epoch)
                for s in self.subscribers
            ):
                return
            await asyncio.sleep(0.005)

    async def stop(self) -> None:
        await self.service.stop(drain=True)
        await asyncio.gather(*self.tasks)

    # -- reading the run back ------------------------------------------

    def deliveries(self, epochs: List[int]) -> List[Tuple[int, float, int]]:
        """``(epoch, due-to-delivery seconds, payload bytes)`` per delivery."""
        wanted = set(epochs)
        out = []
        for s in self.subscribers:
            for message, t in s.received():
                if message.epoch in wanted and message.kind != SNAPSHOT:
                    due = self.epochs[message.epoch][0]
                    out.append((message.epoch, t - due, len(message.payload)))
        return out

    def queue_max(self, epochs: List[int]) -> int:
        """Most epochs published but not yet taken by any one subscriber."""
        order = sorted(self.epochs)
        published = [self.epochs[e][1] for e in order]
        wanted = set(epochs)
        worst = 0
        for s in self.subscribers:
            for message, t in s.received():
                if message.epoch in wanted:
                    latest = order[bisect.bisect_right(published, t) - 1]
                    worst = max(worst, latest - message.epoch)
        return worst

    def check_replay(self) -> None:
        """Each subscriber's replayed state renders the served snapshot."""
        by_stream: Dict[Any, List[Subscriber]] = defaultdict(list)
        for s in self.subscribers:
            if not self.out.attempt(not s.evicted, "subscriber evicted"):
                continue
            key = (s.encoding, tuple((m.kind, m.epoch, m.payload) for m in s.messages))
            by_stream[key].append(s)
        for (encoding, _), subs in by_stream.items():
            replayer = DeltaReplayer()
            for message in subs[0].messages:
                replayer.apply(message)
            served = self.session.snapshot(replayer.epoch, encoding=encoding).payload
            same = replayer.render() == served
            for _ in subs:
                self.out.attempt(same, f"{encoding} replay differs from the snapshot")


async def _start(cfg: SessionConfig, out: Outcome) -> Tuple[MapService, float]:
    """Construct the service and publish the first epoch."""
    t0 = time.perf_counter()
    service = MapService([cfg], n_shards=1)
    await _advance(service.session(QUERY_ID), out)
    return service, time.perf_counter() - t0


def _fidelity(cfg: SessionConfig, load: Load) -> Dict[str, float]:
    """Fidelity of a PLAIN subscriber's replayed map over the fixed epochs."""
    bounds = base_field(cfg).bounds
    codec = ReportCodec.for_query(cfg.query(), bounds)
    levels = cfg.query().isolevels
    replayer = DeltaReplayer()
    pairs = []
    for message in load.subscribers[0].messages:
        replayer.apply(message)
        if replayer.epoch in FIXED:
            cmap = replayer.contour_map(codec, levels, bounds)
            pairs.append((field_for_epoch(cfg, replayer.epoch), cmap))
        if replayer.epoch >= FIXED[-1]:
            break
    return fidelity(pairs, levels)


def _epoch_count(seconds: float) -> int:
    return max(len(FIXED), int(round(seconds * RATE_HZ)))


def run(seed: int, seconds: float, trace: bool, out: Outcome) -> Dict[str, float]:
    if trace:
        return asyncio.run(_run_traced(config(seed), seconds, out))
    return asyncio.run(_run(seed, seconds, out))


async def _run(seed: int, seconds: float, out: Outcome) -> Dict[str, float]:
    # The speed of both cores (the loop and the shard worker may sit on
    # either) is sampled after every set-up and load; every time is
    # reported calibrated by the run's median sample
    # (``HostSpeed.run_scale``).  Samples during the load would stall the
    # loop, and one bracketing pair per load was noisier than the median.
    speed = HostSpeed(HostSpeed.usable_cpus())
    setups: List[float] = []

    async def timed_start(cfg: SessionConfig) -> MapService:
        service, dt = await _start(cfg, out)
        setups.append(dt)
        speed.sample()
        return service

    speed.sample()
    published: List[float] = []
    latency: List[float] = []
    traffic: List[float] = []
    for segment in range(SEGMENTS):
        cfg = config(seed, segment)
        for _ in range(SETUPS - 1):
            await (await timed_start(cfg)).stop()
        load = Load(await timed_start(cfg), out, None)
        epochs = await load.drive(RATE_HZ, _epoch_count(seconds / SEGMENTS), reads=True)
        await load.stop()
        speed.sample()
        load.check_replay()
        published += [load.epochs[e][1] - load.epochs[e][0] for e in epochs]
        latency += [d for _, d, _ in load.deliveries(epochs)]
        fixed = [load.epochs[e][2] for e in FIXED]
        traffic.append(sum(r["traffic_bytes"] for r in fixed) / len(fixed) / 1024.0)
    # An epoch's 1 200 deliveries share one publish and stall together,
    # so the tail must leave ten *epochs* beyond it, not ten deliveries.
    cap = min(0.99, 1 - TAIL_MIN_BEYOND / len(published))
    tail, q, n = tail_percentile(latency, cap=cap)
    scale = speed.run_scale()
    out.notes.update(
        epochs=len(published),
        delta_tail=(q, n),
        raw_epoch_s=median(published),
        raw_setup_s=median(setups),
        raw_delta_p50_ms=median(latency) * 1e3,
        raw_delta_p99_ms=tail * 1e3,
        speed_samples=len(speed.samples),
        speed_sample_s=median(speed.samples),
    )
    return {
        "setup_s": median(setups) * scale,
        "epoch_s": median(published) * scale,
        "traffic_kb": sum(traffic) / len(traffic),
        "peak_rss_mb": peak_rss_mb(include_children=True),
        "delta_p50_ms": median(latency) * scale * 1e3,
        "delta_p99_ms": tail * scale * 1e3,
    }


async def _ladder(load: Load) -> float:
    """Highest rate on the ladder with delivery p99 within the limit and
    no growing backlog; every rung is tried until the first one fails."""
    sustained = 0.0
    for rate in LADDER:
        epochs = await load.drive(rate, LADDER_EPOCHS, reads=False)
        tail = tail_percentile([d for _, d, _ in load.deliveries(epochs)])[0]
        if tail > LATENCY_LIMIT_S or load.backlog_growing:
            break
        sustained = rate
    return sustained


async def _run_traced(cfg: SessionConfig, seconds: float, out: Outcome) -> Dict[str, float]:
    count = _epoch_count(seconds / 2)
    service, _ = await _start(cfg, out)
    plain = Load(service, out, None)
    epochs = await plain.drive(RATE_HZ, count, reads=True)
    sustained = await _ladder(plain)
    await plain.stop()

    tracer = Tracer()
    service, _ = await _start(cfg, out)
    traced = Load(service, out, tracer)
    with tracer.installed(install_serve):
        await traced.drive(RATE_HZ, count, reads=True)
    await traced.stop()
    traced.check_replay()
    for e in epochs:
        a, b = plain.epochs[e][2], traced.epochs[e][2]
        out.attempt(
            (a["delta"], a.get("s_delta"), a["traffic_bytes"])
            == (b["delta"], b.get("s_delta"), b["traffic_bytes"]),
            f"epoch {e}: traced run changed the served bytes",
        )

    layers = _replay_compute(cfg, tracer, plain, out)
    served = [f"s{e}" for e in epochs]
    compute = tracer.per_epoch("serve.compute")
    advance = tracer.per_epoch("serve.advance")
    publish = {e: t - compute.get(e, 0.0) for e, t in advance.items()}
    snapshot = tracer.per_epoch("serve.snapshot")
    deliveries = traced.deliveries(epochs)
    layers.update(
        {
            "serve.compute_s": median([compute.get(e, 0.0) for e in served]),
            "serve.publish_s": median([publish.get(e, 0.0) for e in served]),
            "serve.snapshot_s": median([snapshot.get(e, 0.0) for e in served]),
            "serve.gen_late_ms": tail_percentile(traced.read_lateness)[0] * 1e3,
            "serve.queue_max": float(traced.queue_max(epochs)),
            "serve.evicted": float(service.session(QUERY_ID).stats.subscribers_evicted),
            "serve.snapshot_p99_ms": tail_percentile(traced.read_latency)[0] * 1e3,
            "serve.served_kb": sum(b for _, _, b in deliveries) / len(epochs) / 1024.0,
            "serve.sustained_epoch_hz": sustained,
        }
    )
    layers.update(_fidelity(cfg, traced))
    overhead = [traced.epochs[e][1] - traced.epochs[e][0] for e in epochs]
    base = [plain.epochs[e][1] - plain.epochs[e][0] for e in epochs]
    layers["trace.overhead"] = median(overhead) / median(base)
    out.notes["tracer"] = tracer
    return layers


def _replay_compute(
    cfg: SessionConfig, tracer: Tracer, load: Load, out: Outcome
) -> Dict[str, float]:
    """Run the session's compute in this process, traced, and check it
    produces the bytes the worker served."""
    with tracer.installed(install_serve_compute):
        tracer.epoch = "setup0"
        compute = SessionCompute(cfg)
        for e in range(1, FIXED[-1] + 1):
            tracer.epoch = f"r{e}"
            with tracer.span("epoch"):
                result = compute.epoch(e)
            tracer.count("delta.suppressed", result["suppressed"])
            tracer.count("prediction.predicted", result["predicted"])
            tracer.count("prediction.heartbeats", result["heartbeats"])
            tracer.gauge("prediction.staleness", result["staleness"])
            if e in load.epochs:
                out.attempt(
                    load.epochs[e][2]["delta"] == result["delta"],
                    f"epoch {e}: in-process compute differs from the worker's",
                )
    replayed = [f"r{e}" for e in FIXED]
    layers = core_layers(tracer, replayed, ["setup0"])
    layers["network.edges"] = float(len(compute.network.csr.indices) // 2)
    coverage = tracer.coverage("epoch")
    layers["trace.coverage"] = min(coverage[e] for e in replayed)
    return layers
