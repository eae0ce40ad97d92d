"""Exceptions raised by the contour-map serving layer."""

from __future__ import annotations


class ServingError(Exception):
    """Base class for all serving-layer errors."""


class WireFormatError(ServingError, ValueError):
    """A serving payload failed to decode (bad size, bad framing)."""


class ReplayGapError(ServingError):
    """A delta stream skipped an epoch the replayer has not seen.

    Raised by :class:`repro.serving.wire.DeltaReplayer` when a delta's
    epoch is not exactly one past the replayer's current epoch -- the
    stream contract (replay-then-live, snapshot resync on retention
    gaps) guarantees contiguity, so a gap means a protocol bug upstream.
    """


class EpochEvicted(ServingError, KeyError):
    """The requested ``(query_id, epoch)`` fell out of store retention.

    The store never serves stale bytes: once an epoch's records are
    evicted, any cached rendering is purged with them and requests for
    that epoch fail loudly instead of returning the wrong map.
    """


class SlowConsumerEvicted(ServingError):
    """This subscriber's bounded queue overflowed and it was evicted.

    The session drops the subscriber's backlog and terminates its stream
    with this error; the client should re-subscribe (getting a snapshot
    resync if it fell past retention) rather than silently losing deltas.
    """


class UnknownQueryError(ServingError, KeyError):
    """No session is registered for the requested query id."""


class EncodingUnavailable(ServingError, ValueError):
    """Version negotiation failed: none of the stream encodings the
    subscriber offered is servable by this session.

    The SIMPLIFIED encoding is only available on sessions configured
    with a ``simplify_tolerance``; a subscriber offering *only*
    SIMPLIFIED against a plain session gets this instead of a silently
    downgraded stream.
    """


class ShardComputeError(ServingError):
    """One shard compute attempt failed for an *infrastructure* reason.

    Base class of the supervisor's retryable failures (crash, hang,
    dropped result, corrupted result).  Application exceptions raised by
    the compute itself are never wrapped in this hierarchy -- they are
    deterministic, so retrying them is pointless and they propagate
    unchanged (see :class:`SessionFailedError`).
    """

    def __init__(self, message: str, shard: int = -1):
        super().__init__(message)
        self.shard = shard


class ShardCrashError(ShardComputeError):
    """The shard's worker process died mid-request (broken pool)."""


class ShardHangError(ShardComputeError):
    """The shard failed to answer within the per-request deadline.

    The supervisor cannot tell a wedged worker from a merely slow one,
    so it treats both the same way: kill the worker, respawn the shard,
    and let the deterministic rebuild+fast-forward recompute the epoch.
    """


class ShardResultDropped(ShardComputeError):
    """The compute ran but its result was lost on the way back."""


class ShardResultCorrupted(ShardComputeError):
    """The returned payload failed its integrity check (CRC mismatch)."""


class ShardComputeStale(ShardComputeError):
    """The shard was reset under a running fast-forward, which stopped
    at its next epoch boundary.

    Inline (``n_shards = 0``) every session shares one session table, so
    one request's hang or crash recovery resets it under the others'
    computes.  The reset was already counted as that request's failure;
    a retry rebuilds in the fresh table and lands on the same bytes.
    """


class ShardUnavailableError(ServingError):
    """The shard's circuit breaker is open: fail fast, do not compute.

    Raised before any attempt is made while the breaker cools down after
    repeated consecutive failures; callers should degrade gracefully
    (serve a staleness-tagged snapshot) and retry later.
    """

    def __init__(self, message: str, shard: int = -1):
        super().__init__(message)
        self.shard = shard


class EpochComputeFailed(ServingError):
    """Every supervised attempt at one epoch compute failed.

    The session stays recoverable: the epoch was never published, so a
    later ``advance`` retries the *same* epoch and -- compute being a
    pure function of ``(config, epoch)`` -- publishes the byte-identical
    payload the fault-free run would have.
    """

    def __init__(self, message: str, query_id: str = "", epoch: int = 0,
                 attempts: int = 0):
        super().__init__(message)
        self.query_id = query_id
        self.epoch = epoch
        self.attempts = attempts


class SessionFailedError(ServingError):
    """The session hit a non-recoverable application error.

    An exception inside a session's epoch loop (bad config surfacing at
    compute time, a bug in the pipeline) is terminal for that session:
    every subscriber's stream raises this error instead of stalling
    silently, and the originating exception rides along as
    ``__cause__``.  Other sessions of the same service are unaffected.
    """
