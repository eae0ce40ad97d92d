"""Serving-layer load benchmark -> ``BENCH_serving.json``.

Drives :func:`repro.serving.clients.run_load` against a
:class:`~repro.serving.router.MapService`: one tide-scenario session
advancing epochs while simulated clients hammer both paths --

- snapshot clients measuring ``snapshot()`` request throughput/latency,
- delta subscribers measuring publish-to-delivery latency.

The full run serves >= 1200 concurrent subscribers (the ISSUE
acceptance load) over a 2-shard pool; the quick run is an inline
CI-sized smoke.  Before anything is timed, a correctness pass asserts
the byte-identity contract (a replayed delta stream renders the served
snapshot exactly) on the benchmark configuration itself.

Usage::

    python benchmarks/bench_serving.py            # full + quick, writes BENCH_serving.json
    python benchmarks/bench_serving.py --quick    # CI smoke sizes only, no write
    python benchmarks/bench_serving.py --quick --check BENCH_serving.json
                                                  # fail on a >4x throughput regression

``--check`` compares measured snapshot req/s and delta deliveries/s
against the committed report (the ``quick`` section when ``--quick`` is
given) and exits 1 if either falls below a quarter of its committed
value.  Latency percentiles are reported but never gated -- they are
too machine-dependent for CI.
"""

from __future__ import annotations

import asyncio
import functools
import pathlib
import sys
from typing import Any, Dict, List, Optional

_HERE = pathlib.Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import record

from repro.serving.clients import run_load
from repro.serving.router import MapService
from repro.serving.session import SessionConfig
from repro.serving.wire import DeltaReplayer

BENCH_JSON = _HERE.parent / "BENCH_serving.json"

#: Full-size load: the ISSUE acceptance bar is >= 1000 subscribers.
FULL = dict(n_nodes=600, subscribers=1200, snapshot_clients=64, epochs=6, shards=2)
QUICK = dict(n_nodes=300, subscribers=200, snapshot_clients=16, epochs=4, shards=0)


def _config(n_nodes: int) -> SessionConfig:
    return SessionConfig(query_id="bench", n_nodes=n_nodes, scenario="tide")


@functools.lru_cache(maxsize=None)
def verify(n_nodes: int, epochs: int) -> None:
    """Untimed correctness pass (once per process): replayed deltas
    render served bytes."""
    print("verifying replay/snapshot byte-identity ...")

    async def main():
        async with MapService([_config(n_nodes)]) as service:
            session = service.session("bench")
            replayer = DeltaReplayer()
            sub = service.subscribe("bench", since_epoch=0)
            for _ in range(epochs):
                await session.advance()
                replayer.apply(await sub.__anext__())
                assert replayer.render() == service.snapshot("bench").payload
            sub.close()

    asyncio.run(main())


def measure(quick: bool) -> Dict[str, Any]:
    """One timed load run -> the report section at that size."""
    verify(QUICK["n_nodes"], QUICK["epochs"])
    sizes = QUICK if quick else FULL
    print(
        f"\nmeasuring {'quick' if quick else 'full'} load "
        f"({sizes['subscribers']} subscribers, {sizes['shards']} shards) ..."
    )

    async def main():
        service = MapService(
            [_config(sizes["n_nodes"])],
            n_shards=sizes["shards"],
            queue_depth=max(16, sizes["epochs"] + 2),
        )
        return await run_load(
            service,
            "bench",
            epochs=sizes["epochs"],
            n_snapshot_clients=sizes["snapshot_clients"],
            n_subscribers=sizes["subscribers"],
        )

    report = asyncio.run(main())
    print(report.to_table())
    return {"n": sizes["subscribers"], "serving": report.to_dict()}


def check(
    section: Dict[str, Any], measured: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """Regression messages (empty = pass): throughput < committed/4."""
    baseline = section.get("serving")
    if not baseline:
        return ["committed report has no serving section"]
    problems = []
    for label, path in (
        ("snapshot req/s", ("snapshot", "rps")),
        ("delta deliveries/s", ("delta_stream", "deliveries_per_s")),
    ):
        want = baseline[path[0]][path[1]] / 4.0
        got = measured["serving"][path[0]][path[1]]
        if got < want:
            problems.append(
                f"{label}: measured {got:.0f}/s < floor {want:.0f}/s "
                f"(committed {baseline[path[0]][path[1]]:.0f}/s)"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    return record.run_gate(
        argv, __doc__,
        "if throughput fell below a quarter of its committed value",
        BENCH_JSON, measure,
        lambda full, quick: record.report(
            full["n"],
            timing="one load run, wall clock (latencies ms, throughput /s)",
            serving=full["serving"],
            quick=quick,
        ),
        check,
    )


if __name__ == "__main__":
    sys.exit(main())
