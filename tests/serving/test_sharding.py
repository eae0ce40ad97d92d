"""Multi-worker sharding determinism.

The same configs must produce byte-identical payload streams whether
epochs run inline, in one worker process, or spread over several --
the shard layout is an operational knob, never a semantic one.
"""

import asyncio
import threading

import pytest

from repro.serving import worker
from repro.serving.errors import ShardComputeStale, UnknownQueryError
from repro.serving.router import MapService
from repro.serving.session import SessionCompute, SessionConfig
from repro.serving.supervisor import SupervisedShardPool

CONFIGS = [
    SessionConfig(query_id="alpha", n_nodes=300, seed=1, scenario="storm"),
    SessionConfig(query_id="beta", n_nodes=300, seed=2, scenario="tide"),
]
EPOCHS = 3


def stream(n_shards: int):
    """(query_id, epoch) -> (delta, records, sink) under a shard layout."""

    async def main():
        out = {}
        async with MapService(CONFIGS, n_shards=n_shards) as service:
            for _ in range(EPOCHS):
                results = await service.advance_all()
                for qid, r in results.items():
                    out[(qid, r["epoch"])] = (r["delta"], r["records"], r["sink"])
        return out

    return asyncio.run(main())


@pytest.mark.parametrize("n_shards", [1, 2])
def test_sharded_streams_match_inline(n_shards):
    assert stream(n_shards) == stream(0)


def test_shard_pinning_is_stable():
    pool = SupervisedShardPool(n_shards=3)
    try:
        for qid in ("alpha", "beta", "gamma", "delta"):
            assert pool.shard_of(qid) == pool.shard_of(qid)
            assert 0 <= pool.shard_of(qid) < 3
    finally:
        pool.close()


def test_worker_rebuild_fast_forwards_deterministically():
    """A cold worker asked for epoch k rebuilds the session and fast
    forwards 1..k-1, landing on the same payload as an uninterrupted
    run (what makes worker restarts invisible to clients)."""
    worker.reset()
    config = CONFIGS[0]
    continuous = SessionCompute(config)
    expected = [continuous.epoch(e) for e in range(1, 4)]

    worker.reset()
    warm = [worker.compute_epoch(config.to_dict(), e) for e in range(1, 3)]
    worker.reset()  # simulate a worker restart before epoch 3
    cold = worker.compute_epoch(config.to_dict(), 3)
    for got, want in zip(warm + [cold], expected):
        assert got["delta"] == want["delta"]
        assert got["records"] == want["records"]
        assert got["sink"] == want["sink"]
    worker.reset()


def test_worker_detects_config_change():
    worker.reset()
    a = worker.compute_epoch(SessionConfig(query_id="q", n_nodes=200).to_dict(), 1)
    b = worker.compute_epoch(
        SessionConfig(query_id="q", n_nodes=200, seed=9).to_dict(), 1
    )
    # Same query id, new config: the worker rebuilt rather than reusing
    # the stale session (different seed ==> different deployment).
    assert a["delta"] != b["delta"]
    worker.reset()


def test_compute_started_before_reset_keeps_its_session_to_itself(monkeypatch):
    """An inline compute that blew its deadline keeps running in its
    thread.  Here it is held inside session construction while the
    shard resets and a retry computes the same epoch; once released,
    it must not put its session where the next call finds it, or two
    threads end up stepping one ``SessionCompute``."""
    built = []
    entered = threading.Event()
    release = threading.Event()

    class GatedSessionCompute(SessionCompute):
        def __init__(self, config):
            if not built:
                built.append(None)  # reserve slot 0 for the stale compute
                entered.set()
                assert release.wait(30)
                super().__init__(config)
                built[0] = self
            else:
                super().__init__(config)
                built.append(self)

    monkeypatch.setattr(worker, "SessionCompute", GatedSessionCompute)
    config = SessionConfig(query_id="race", n_nodes=200)
    worker.reset()
    stale = threading.Thread(
        target=worker.compute_epoch, args=(config.to_dict(), 1)
    )
    stale.start()
    try:
        assert entered.wait(30)
        worker.reset()  # the supervisor's recovery after the deadline
        retry = worker.compute_epoch(config.to_dict(), 1)
    finally:
        release.set()
        stale.join(60)
    assert not stale.is_alive()
    fresh = built[1]
    assert worker._SESSIONS["race"] is fresh
    # The next epoch continues the retry's session, not the stale one.
    nxt = worker.compute_epoch(config.to_dict(), 2)
    assert worker._SESSIONS["race"] is fresh
    assert fresh.next_epoch == 3 and built[0].next_epoch == 2
    expected = SessionCompute(config)
    assert retry["delta"] == expected.epoch(1)["delta"]
    assert nxt["delta"] == expected.epoch(2)["delta"]
    worker.reset()


def test_stale_fast_forward_stops_at_the_next_epoch_boundary(monkeypatch):
    """A compute held inside epoch k of a fast-forward while the shard
    resets must, once released, run no epoch past k: a stale catch-up
    that kept going would compete with the retry's own rebuild."""
    k, target = 2, 5
    started = []
    entered = threading.Event()
    release = threading.Event()

    class GatedSessionCompute(SessionCompute):
        def epoch(self, epoch):
            started.append(epoch)
            if epoch == k:
                entered.set()
                assert release.wait(30)
            return super().epoch(epoch)

    monkeypatch.setattr(worker, "SessionCompute", GatedSessionCompute)
    config = SessionConfig(query_id="stale", n_nodes=200)
    errors = []

    def stale_compute():
        try:
            worker.compute_epoch(config.to_dict(), target)
        except ShardComputeStale as exc:
            errors.append(exc)

    worker.reset()
    stale = threading.Thread(target=stale_compute)
    stale.start()
    try:
        assert entered.wait(30)
        worker.reset()  # the supervisor's recovery after the deadline
    finally:
        release.set()
        stale.join(60)
    assert not stale.is_alive()
    assert started == [1, 2]
    assert len(errors) == 1
    assert "stale" not in worker._SESSIONS
    worker.reset()


def test_reset_for_one_session_does_not_fail_another(monkeypatch):
    """Inline, every session shares one table, so one session's hang
    recovery resets it under another session's healthy fast-forward.
    That compute stops at its next epoch boundary; the supervisor must
    retry it, and the epoch must publish the same bytes as ever."""
    entered = threading.Event()
    release = threading.Event()
    armed = []

    class GatedSessionCompute(SessionCompute):
        def epoch(self, epoch):
            if armed and self.config.query_id == "beta" and epoch == 1:
                armed.clear()  # hold only the first catch-up, not the retry
                entered.set()
                assert release.wait(30)
            return super().epoch(epoch)

    monkeypatch.setattr(worker, "SessionCompute", GatedSessionCompute)
    beta = CONFIGS[1]

    async def main():
        async with MapService(CONFIGS, n_shards=0) as service:
            for _ in range(2):
                await service.advance_all()
            worker.reset()  # both sessions now rebuild and fast-forward
            armed.append(True)
            task = asyncio.create_task(service.session("beta").advance())
            try:
                assert await asyncio.to_thread(entered.wait, 30)
                service.pool.supervisors[0].on_hang()  # alpha's recovery
            finally:
                release.set()
            result = await task
            return service, result

    worker.reset()
    try:
        service, result = asyncio.run(main())
    finally:
        worker.reset()
    session = service.session("beta")
    assert session.failure is None and not session.degraded
    assert result["epoch"] == 3 and session.latest_epoch == 3
    assert service.pool.supervisors[0].health.retries == 1
    assert service.pool.supervisors[0].breaker.consecutive_failures == 0
    expected = SessionCompute(beta)
    for e in (1, 2):
        expected.epoch(e)
    assert result["delta"] == expected.epoch(3)["delta"]


def test_unknown_query_is_rejected():
    async def main():
        async with MapService(CONFIGS[:1]) as service:
            with pytest.raises(UnknownQueryError):
                service.snapshot("nope")
            with pytest.raises(ValueError):
                MapService([CONFIGS[0], CONFIGS[0]])

    asyncio.run(main())
