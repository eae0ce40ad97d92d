"""The repository's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oneshot-40k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  Every run checks the program's outputs; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is non-zero
when any check failed.  The spans and the full record (seed, commit,
python, numpy, nproc, host) go to ``.perfbench_out/``.

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("oneshot-40k", "monitor-tide", "serve-front")


def _units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()

    from harness import Outcome, environment

    if args.workload == "oneshot-40k":
        import oneshot as workload
    elif args.workload == "monitor-tide":
        import monitor as workload
    else:
        import serve as workload

    out = Outcome()
    t0 = time.perf_counter()
    values = workload.run(args.seed, args.seconds, bool(args.trace), out)
    wall = time.perf_counter() - t0
    units = _units(bool(args.trace))
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"perfbench: {unknown} are not in BENCHMARK.json")
    if args.trace:
        # A layer this workload never calls reads 0.
        values = {name: values.get(name, 0.0) for name in units}
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"perfbench: {args.workload} did not measure {missing}")
    for name, unit in units.items():
        out.metric(name, values[name], unit)

    tracer = out.notes.pop("tracer", None)
    env = environment(ROOT, args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": wall,
        "environment": env,
        "fail_frac": out.fail_frac,
        "failures": out.failures,
        "notes": out.notes,
        "result": out.result(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}.spans.json", {"workload": args.workload, **env})

    print(f"# {args.workload} seed={args.seed} trace={args.trace} wall={wall:.1f}s")
    print("# env " + json.dumps(env))
    print(f"# notes {json.dumps(out.notes, default=str)}")
    print(f"# fail_frac {out.fail_frac:.6f} ({out.failed}/{out.attempted})")
    for failure in out.failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in out.metrics.items():
        print(f"# {name:28s} {value:14.6f} {unit}")
    print(json.dumps(out.result()))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
