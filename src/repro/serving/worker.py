"""Shard-worker entry point: per-process session compute with catch-up.

The router pins every session to one shard (a single-worker process
pool), so a session's epochs always execute sequentially in the same
process and :func:`compute_epoch` can keep the stateful
:class:`~repro.serving.session.SessionCompute` in a module-level table,
exactly like the sweep runner keeps its topology skeletons per worker.

Determinism is the contract: the compute is a pure function of
``(config, epoch)`` given the sequential epoch history, so if the table
entry is missing or ahead (a fresh worker, a config change, a test
re-using a query id), the worker rebuilds the session and fast-forwards
through epochs ``1 .. epoch - 1`` -- byte-identical to having computed
them here all along.  That is also why the same function serves the
inline (``n_shards = 0``) path: where the state lives cannot change
what it produces.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from repro.serving.errors import ShardComputeStale
from repro.serving.session import SessionCompute, SessionConfig

#: Per-process session table, keyed by query id.
_SESSIONS: Dict[str, SessionCompute] = {}


def compute_epoch(config_dict: Dict[str, Any], epoch: int) -> Dict[str, Any]:
    """Compute one session epoch, rebuilding/fast-forwarding as needed.

    Args:
        config_dict: a :meth:`SessionConfig.to_dict` payload (picklable).
        epoch: the 1-based epoch to produce.

    Returns:
        The :meth:`SessionCompute.epoch` payload dict.
    """
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    # Bind the table once: a compute still running after ``reset()`` (an
    # inline call that blew its deadline keeps going in its thread) then
    # stores its session in the discarded table, never in the fresh one
    # a retry reads -- and stops fast-forwarding at the next epoch
    # boundary instead of competing with the retry's rebuild.  The
    # supervisor retries a ShardComputeStale like any shard failure.
    table = _SESSIONS
    config = SessionConfig.from_dict(config_dict)
    session = table.get(config.query_id)
    if session is None or session.config != config or epoch < session.next_epoch:
        session = SessionCompute(config)
        table[config.query_id] = session
    while session.next_epoch < epoch:
        if table is not _SESSIONS:
            raise ShardComputeStale(
                f"worker reset while fast-forwarding {config.query_id!r} "
                f"to epoch {epoch} (stopped before epoch {session.next_epoch})"
            )
        session.epoch(session.next_epoch)
    return session.epoch(epoch)


def reset() -> None:
    """Drop all per-process session state.

    Swaps in a fresh table rather than clearing the old one, so a
    compute that started before the reset cannot hand its session to a
    later call (see :func:`compute_epoch`).
    """
    global _SESSIONS
    _SESSIONS = {}


def ping() -> int:
    """Health-probe entry point: answers with the worker's pid.

    A healthy shard answers within the supervisor's probe deadline; a
    wedged worker (its single process stuck in a long compute) cannot,
    which is how the supervisor tells *hung* apart from *idle*.
    """
    return os.getpid()


def wedge(seconds: float) -> None:
    """Occupy the worker for ``seconds`` (supervision test hook).

    Submitted to a single-worker shard this simulates a genuinely wedged
    process: every queued request (including :func:`ping`) waits behind
    it until the supervisor's deadline fires and the shard is respawned.
    """
    time.sleep(seconds)
