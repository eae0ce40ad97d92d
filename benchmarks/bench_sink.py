"""Before/after benchmark of the sink-side pipeline -> ``BENCH_sink.json``.

Times every vectorized sink-side stage against the retained scalar
reference it replaced (and, except for the resample kernel, is
bit-compatible with -- each timed pair is also checked for agreement
inline):

- ``voronoi``              bounded Voronoi of a ring site set
- ``dedupe``               coincident-report deduplication
- ``reconstruction``       full single-level region build (ring reports)
- ``marching_squares``     ground-truth isoline extraction
- ``resample``             polyline arclength resampling
- ``hausdorff``            directed point-set Hausdorff distance
- ``fig12_hausdorff_eval`` the Fig. 12 evaluation loop: per-level truth
                           extraction + resampling + symmetric Hausdorff
                           for three n=2500 contour maps (the reference
                           re-derives truth per map/level, as the
                           pre-vectorization code did -- memoisation is
                           part of what the fast path buys)

The ring workloads put every site/report on a wiggly closed curve --
the realistic Iso-Map input shape and the adversarial one for the
Voronoi prefilter (cells are slivers reaching the medial axis).

Usage::

    python benchmarks/bench_sink.py               # full + quick, writes BENCH_sink.json
    python benchmarks/bench_sink.py --quick       # CI smoke sizes only, no write
    python benchmarks/bench_sink.py --quick --check BENCH_sink.json
                                                  # fail if any stage regressed >2x

Each stage's reference and fast calls are timed in alternating rounds,
the same number on each side (:func:`record.paired_best`), and the
speedup is the ratio of the two minimum times.  ``--check`` compares
each measured speedup against the committed report (the ``quick``
section when ``--quick`` is given) and exits 1 if any stage runs at
less than half its committed speedup (:func:`record.check_speedups`)
-- tolerant enough for loaded CI machines, tight enough to catch a
devectorized stage.
"""

from __future__ import annotations

import math
import pathlib
import random
import sys
from typing import Dict, List, Optional

_HERE = pathlib.Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import numpy as np

import record

from repro.core.reconstruction import (
    _dedupe_reports,
    _dedupe_reports_reference,
    build_level_region,
    build_level_region_reference,
)
from repro.core.reports import IsolineReport
from repro.experiments.common import default_levels, harbor_network, run_isomap
from repro.field import make_harbor_field
from repro.field.contours import extract_isolines, extract_isolines_reference
from repro.geometry import BoundingBox
from repro.geometry.polyline import resample_polyline, resample_polyline_fast
from repro.geometry.voronoi import (
    bounded_voronoi_batched,
    bounded_voronoi_reference,
)
from repro.metrics.hausdorff import (
    _sample_all_reference,
    directed_hausdorff,
    directed_hausdorff_reference,
    mean_isoline_hausdorff,
)

BENCH_JSON = _HERE.parent / "BENCH_sink.json"

#: Headline size: reports/sites per level at the paper's n=2500 density-1
#: operating point is the *node* count; the sink stress case puts that
#: many reports on one isoline.
FULL_N = 2500
QUICK_N = 500


# ----------------------------------------------------------------------
# Workload generators (deterministic)
# ----------------------------------------------------------------------


def _ring_reports(n: int, seed: int = 0) -> List[IsolineReport]:
    """``n`` reports on a 5-lobed closed curve around (50, 50)."""
    rng = random.Random(seed)
    out: List[IsolineReport] = []
    for k in range(n):
        ang = 2.0 * math.pi * k / n + rng.uniform(-0.3, 0.3) * math.pi / n
        r = 30.0 + 8.0 * math.sin(5.0 * ang) + rng.uniform(-0.5, 0.5)
        pos = (50.0 + r * math.cos(ang), 50.0 + r * math.sin(ang))
        out.append(IsolineReport(8.0, pos, (math.cos(ang), math.sin(ang)), k))
    return out


def _dedupe_workload(n: int, seed: int = 3) -> List[IsolineReport]:
    """Reports with a realistic mix of exact/near/non duplicates."""
    rng = random.Random(seed)
    base = _ring_reports(max(1, (2 * n) // 3), seed=seed)
    out = list(base)
    while len(out) < n:
        src = rng.choice(base)
        # Half the clones land inside the dedupe tolerance, half just out.
        eps = rng.uniform(0.1e-6, 0.9e-6) if rng.random() < 0.5 else rng.uniform(2e-6, 5e-6)
        ang = rng.uniform(0, 2 * math.pi)
        pos = (src.position[0] + eps * math.cos(ang), src.position[1] + eps * math.sin(ang))
        out.append(IsolineReport(src.isolevel, pos, src.direction, len(out)))
    rng.shuffle(out)
    return out


def _wiggly_polyline(n: int, seed: int = 5) -> List:
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        x = 100.0 * k / n
        pts.append((x, 10.0 * math.sin(0.3 * x) + rng.uniform(-0.4, 0.4)))
    return pts


def _point_cloud(n: int, seed: int) -> List:
    rng = random.Random(seed)
    return [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]


# ----------------------------------------------------------------------
# Agreement checks (fast path vs reference)
# ----------------------------------------------------------------------


def _assert_cells_equal(fast, ref) -> None:
    assert len(fast) == len(ref)
    for cf, cr in zip(fast, ref):
        assert cf.site_index == cr.site_index
        assert cf.polygon.vertices == cr.polygon.vertices
        assert cf.polygon.labels == cr.polygon.labels
        assert cf.neighbors == cr.neighbors


def _assert_regions_equal(fast, ref) -> None:
    assert fast.reports == ref.reports
    _assert_cells_equal(fast.cells, ref.cells)
    assert [p.vertices for p in fast.inner_polys] == [p.vertices for p in ref.inner_polys]
    assert fast.loops == ref.loops
    assert fast.regulated_loops == ref.regulated_loops
    assert fast.regulation_stats == ref.regulation_stats


def _assert_close(a: Optional[float], b: Optional[float], rel: float) -> None:
    assert (a is None) == (b is None), (a, b)
    if a is not None:
        assert abs(a - b) <= rel * max(abs(a), abs(b), 1e-12), (a, b)


# ----------------------------------------------------------------------
# The fig12 evaluation pair
# ----------------------------------------------------------------------


def _fig12_maps(n: int) -> List:
    """Contour maps to evaluate: the three protocol runs of one Fig. 12
    sweep point (random/grid deployments, two seeds)."""
    specs = [("random", 1), ("grid", 1), ("random", 2)]
    maps = []
    for deploy, seed in specs:
        net = harbor_network(n, deploy, seed=seed)
        maps.append(run_isomap(net).contour_map)
    return maps


def _fig12_eval_fast(maps, levels, grid: int) -> List[Optional[float]]:
    """What one sweep point pays now: a shared field whose ground truth is
    extracted (vectorized) once per level and memoised across maps."""
    field = make_harbor_field()
    return [mean_isoline_hausdorff(field, m, levels, grid=grid) for m in maps]


def _fig12_eval_reference(maps, levels, grid: int) -> List[Optional[float]]:
    """What the pre-vectorization pipeline paid: scalar sampling, scalar
    marching squares, scalar resampling and scalar Hausdorff, re-derived
    for every (map, level) pair (no caches existed)."""
    out: List[Optional[float]] = []
    for band_map in maps:
        values: List[float] = []
        for level in levels:
            field = make_harbor_field()  # fresh instance: cold caches
            true_pts = _sample_all_reference(
                extract_isolines_reference(field, level, nx=grid, ny=grid), 0.5
            )
            est_pts = _sample_all_reference(band_map.isolines(level), 0.5)
            if not true_pts or not est_pts:
                continue
            values.append(
                max(
                    directed_hausdorff_reference(true_pts, est_pts),
                    directed_hausdorff_reference(est_pts, true_pts),
                )
            )
        out.append(sum(values) / len(values) if values else None)
    return out


# ----------------------------------------------------------------------
# Stage measurements
# ----------------------------------------------------------------------


def measure(quick: bool) -> Dict[str, Dict]:
    """Measure every stage pair at one size and return its report
    section (asserting fast/reference agreement along the way)."""
    n = QUICK_N if quick else FULL_N
    print(f"\nmeasuring {'quick' if quick else 'full'} sizes (n={n}) ...")
    # Rounds per stage; each round times one reference and one fast
    # call back to back (record.paired_best).
    heavy = 4 if quick else 2
    light = 30

    kernels: Dict[str, Dict] = {}
    box = BoundingBox(0, 0, 100, 100)

    # --- voronoi ------------------------------------------------------
    sites = [r.position for r in _ring_reports(n, seed=1)]
    _assert_cells_equal(
        bounded_voronoi_batched(sites, box), bounded_voronoi_reference(sites, box)
    )
    kernels["voronoi"] = record.kernel_entry(
        "bounded_voronoi_reference (per-site sort + scalar clips)",
        "bounded_voronoi_batched (blocked prefilter + no-op pruning)",
        *record.paired_best(
            lambda: bounded_voronoi_reference(sites, box),
            lambda: bounded_voronoi_batched(sites, box),
            heavy,
        ),
    )

    # --- dedupe -------------------------------------------------------
    dreports = _dedupe_workload(n)
    assert _dedupe_reports(dreports) == _dedupe_reports_reference(dreports)
    kernels["dedupe"] = record.kernel_entry(
        "_dedupe_reports_reference (all-pairs scan)",
        "_dedupe_reports (spatial hash)",
        *record.paired_best(
            lambda: _dedupe_reports_reference(dreports),
            lambda: _dedupe_reports(dreports),
            light,
        ),
    )

    # --- reconstruction ----------------------------------------------
    rreports = _ring_reports(n, seed=2)
    _assert_regions_equal(
        build_level_region(8.0, rreports, box),
        build_level_region_reference(8.0, rreports, box),
    )
    kernels["reconstruction"] = record.kernel_entry(
        "build_level_region_reference (scalar kernels end to end)",
        "build_level_region (vectorized dedupe/voronoi/boundary)",
        *record.paired_best(
            lambda: build_level_region_reference(8.0, rreports, box),
            lambda: build_level_region(8.0, rreports, box),
            heavy,
        ),
    )

    # --- marching squares --------------------------------------------
    ms_grid = 100 if quick else 200
    field = make_harbor_field()
    field.sample_grid(ms_grid, ms_grid)  # pre-warm: time extraction, not sampling
    fast_lines = extract_isolines(field, 8.0, ms_grid, ms_grid)
    assert fast_lines == extract_isolines_reference(field, 8.0, ms_grid, ms_grid)

    def _ms_fast():
        field.__dict__["_isolines_cache"] = {}
        return extract_isolines(field, 8.0, ms_grid, ms_grid)

    kernels["marching_squares"] = record.kernel_entry(
        "extract_isolines_reference (per-square scalar loop)",
        "extract_isolines (one-array-op case classification)",
        *record.paired_best(
            lambda: extract_isolines_reference(field, 8.0, ms_grid, ms_grid),
            _ms_fast,
            light,
        ),
    )

    # --- resample -----------------------------------------------------
    line = _wiggly_polyline(200 if quick else 2000)
    ref_pts = resample_polyline(line, 0.05)
    fast_pts = resample_polyline_fast(line, 0.05)
    assert abs(len(ref_pts) - len(fast_pts)) <= 1
    m = min(len(ref_pts), len(fast_pts))
    assert np.allclose(np.asarray(ref_pts[:m]), np.asarray(fast_pts[:m]), atol=1e-6)
    kernels["resample"] = record.kernel_entry(
        "resample_polyline (scalar arclength walk)",
        "resample_polyline_fast (cumulative-length searchsorted)",
        *record.paired_best(
            lambda: resample_polyline(line, 0.05),
            lambda: resample_polyline_fast(line, 0.05),
            light,
        ),
    )

    # --- hausdorff ----------------------------------------------------
    hn = 1500 if quick else 4000
    pa, pb = _point_cloud(hn, seed=11), _point_cloud(hn, seed=12)
    assert directed_hausdorff(pa, pb) == directed_hausdorff_reference(pa, pb)
    kernels["hausdorff"] = record.kernel_entry(
        "directed_hausdorff_reference (nested scalar min/max)",
        "directed_hausdorff (blocked broadcast)",
        *record.paired_best(
            lambda: directed_hausdorff_reference(pa, pb),
            lambda: directed_hausdorff(pa, pb),
            heavy,
        ),
    )

    # --- fig12 evaluation loop ---------------------------------------
    fig_n = 600 if quick else FULL_N
    fig_grid = 80 if quick else 120
    levels = default_levels()
    maps = _fig12_maps(fig_n)
    fast_vals = _fig12_eval_fast(maps, levels, fig_grid)
    ref_vals = _fig12_eval_reference(maps, levels, fig_grid)
    # The resample fast path is tolerance- (not bit-) compatible, so the
    # aggregate distances agree to ~sample spacing, not exactly.
    for fv, rv in zip(fast_vals, ref_vals):
        _assert_close(fv, rv, rel=0.02)
    kernels["fig12_hausdorff_eval"] = record.kernel_entry(
        "per-(map,level) scalar truth extraction + resample + Hausdorff",
        "memoised vectorized mean_isoline_hausdorff",
        *record.paired_best(
            lambda: _fig12_eval_reference(maps, levels, fig_grid),
            lambda: _fig12_eval_fast(maps, levels, fig_grid),
            heavy,
        ),
    )
    print(record.format_kernels(kernels))
    return {"n": n, "kernels": kernels}


def main(argv: Optional[List[str]] = None) -> int:
    return record.run_gate(
        argv, __doc__, "if any stage runs at < half its committed speedup",
        BENCH_JSON, measure,
        lambda full, quick: record.report(full["n"], full["kernels"], quick=quick),
        record.check_speedups,
    )


if __name__ == "__main__":
    sys.exit(main())
