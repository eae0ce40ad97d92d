"""Shared helpers for the before/after benchmark reports and their gates.

The kernel benches (``bench_kernel.py``, ``bench_sink.py``, ...) publish
the same JSON shape::

    {
      "n": 2500,
      "python": "3.11.7",
      "numpy": "2.4.6",
      "timing": "min over repeats, wall clock (ms)",
      "kernels": {
        "<stage>": {
          "reference": "<what the scalar reference is>",
          "vectorized": "<what replaced it>",
          "reference_ms": 9.064,
          "vectorized_ms": 2.371,
          "speedup": 3.82
        },
        ...
      },
      "quick": {"n": 500, "kernels": {...}}
    }

plus optional extra sections.  The top level is the *full* section and
``quick`` holds the same sections at the CI smoke sizes.

Every ``BENCH_<x>.json`` script runs through :func:`run_gate`: plain
runs measure both sizes and rewrite the report, ``--quick`` measures
the smoke sizes only, and ``--check PATH`` compares the measured
section against the matching committed one and exits 1 on any problem.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import platform
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    high-water marks, so a meaningful per-measurement number needs a
    fresh process (see :func:`run_isolated`).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def run_isolated(target: Callable[..., None], *args: Any) -> Dict[str, Any]:
    """Run ``target(conn, *args)`` in a fresh spawned process.

    ``target`` must be a module-level function (spawn pickles it) that
    sends exactly one dict through ``conn``.  Spawn -- not fork -- is
    essential for memory benchmarks: a forked child inherits the
    parent's ``ru_maxrss`` high-water mark, so its peak-RSS reading
    would be the *parent's* peak, not the measurement's.
    """
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(child_conn, *args))
    proc.start()
    child_conn.close()
    try:
        out = parent_conn.recv()
    except EOFError:
        out = {"error": "isolated worker died before reporting"}
    finally:
        proc.join()
        parent_conn.close()
    if proc.exitcode not in (0, None) and "error" not in out:
        out = {"error": f"isolated worker exited {proc.exitcode}"}
    return out


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Min-of-repeats wall time in ms (robust against machine noise)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def paired_best(
    reference: Callable[[], Any], fast: Callable[[], Any], rounds: int
) -> Tuple[float, float]:
    """Min wall times in ms of ``reference`` and ``fast``, timed in
    alternating rounds (one call of each per round, ``rounds`` rounds).

    Alternation exposes both sides to the same stretch of machine load:
    a burst of contention slows one call of each side instead of every
    repeat of one, so the ratio of the two minima -- the speedup a gate
    reads -- stays steady where two separate ``best_of`` runs drift.
    The order within a round flips every round (reference first, then
    fast first), so each side also gets calls that follow its own and
    run on caches it warmed.
    """
    ref: List[float] = []
    fst: List[float] = []
    for r in range(rounds):
        pair = ((reference, ref), (fast, fst))
        for fn, times in pair if r % 2 == 0 else pair[::-1]:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return min(ref) * 1e3, min(fst) * 1e3


def kernel_entry(
    reference: str, vectorized: str, reference_ms: float, vectorized_ms: float
) -> Dict[str, Any]:
    """One ``kernels`` record: descriptions, timings and the speedup."""
    return {
        "reference": reference,
        "vectorized": vectorized,
        "reference_ms": round(reference_ms, 3),
        "vectorized_ms": round(vectorized_ms, 3),
        "speedup": round(reference_ms / vectorized_ms, 2),
    }


def report(
    n: int, kernels: Optional[Dict[str, Dict[str, Any]]] = None, **extra: Any
) -> Dict[str, Any]:
    """Assemble a full report dict in the shared schema (no ``kernels``
    section when ``kernels`` is None)."""
    rep: Dict[str, Any] = {
        "n": n,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": "min over repeats, wall clock (ms)",
    }
    if kernels is not None:
        rep["kernels"] = kernels
    rep.update(extra)
    return rep


def write_report(path: pathlib.Path, rep: Dict[str, Any]) -> None:
    path.write_text(json.dumps(rep, indent=2) + "\n")


def load_report(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def format_kernels(kernels: Dict[str, Dict[str, Any]]) -> str:
    """Aligned text table of a ``kernels`` section."""
    name_w = max([len("stage")] + [len(k) for k in kernels])
    header = (
        f"{'stage':<{name_w}} {'reference ms':>13} {'vectorized ms':>14} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    for name, e in kernels.items():
        lines.append(
            f"{name:<{name_w}} {e['reference_ms']:>13.3f} "
            f"{e['vectorized_ms']:>14.3f} {e['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------

#: ``check(section, measured, committed) -> problem lines``: ``section``
#: is the committed section matching the run's size, ``measured`` the
#: run's own section of the same shape, ``committed`` the whole report.
Check = Callable[[Dict[str, Any], Dict[str, Any], Dict[str, Any]], List[str]]


def committed_section(committed: Dict[str, Any], quick: bool) -> Dict[str, Any]:
    """The committed section a run at this size is checked against."""
    return committed.get("quick", {}) if quick else committed


def check_speedups(
    section: Dict[str, Any],
    measured: Dict[str, Any],
    committed: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Every measured kernel must keep half its committed speedup."""
    baseline = section.get("kernels", {})
    problems = []
    for name, entry in measured["kernels"].items():
        if name not in baseline:
            problems.append(f"{name}: missing from committed report")
            continue
        floor = baseline[name]["speedup"] / 2.0
        if entry["speedup"] < floor:
            problems.append(
                f"{name}: measured {entry['speedup']:.2f}x < floor {floor:.2f}x "
                f"(committed {baseline[name]['speedup']:.2f}x)"
            )
    return problems


def gate_problems(
    committed: Optional[Dict[str, Any]],
    measured: Dict[str, Any],
    quick: bool,
    check: Check,
) -> List[str]:
    """Problem lines of one gate run (empty = pass)."""
    if committed is None:
        return ["no committed report to check against"]
    return check(committed_section(committed, quick), measured, committed)


def run_gate(
    argv: Optional[List[str]],
    doc: str,
    check_help: str,
    bench_json: pathlib.Path,
    measure: Callable[[bool], Dict[str, Any]],
    assemble: Callable[[Dict[str, Any], Dict[str, Any]], Dict[str, Any]],
    check: Check,
) -> int:
    """The ``--quick`` / ``--check`` / write driver of a BENCH script.

    ``measure(quick)`` returns the report section at one size (the
    shape of the committed ``quick`` section); ``assemble(full, quick)``
    builds the full report from the two.  A full run always measures
    both sizes; without ``--check`` it rewrites ``bench_json``.
    """
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke sizes only; does not write the report")
    ap.add_argument("--check", metavar="PATH", default=None,
                    help="compare against a committed report; exit 1 " + check_help)
    args = ap.parse_args(argv)

    measured = measure(args.quick)
    rep = None if args.quick else assemble(measured, measure(True))

    if args.check:
        problems = gate_problems(
            load_report(pathlib.Path(args.check)), measured, args.quick, check
        )
        if problems:
            print("\nregression vs committed report:")
            for p in problems:
                print(f"  {p}")
            return 1
        print(f"\nno regression vs {args.check}")
    elif rep is not None:
        if not rep.get("verify", {"ok": True})["ok"]:
            print("\nrefusing to write a report with a failed verify")
            return 1
        write_report(bench_json, rep)
        print(f"\nwrote {bench_json}")
    return 0
