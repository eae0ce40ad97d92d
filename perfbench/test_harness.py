"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/test_harness.py``; none of these
import the program under test.
"""

from __future__ import annotations

import asyncio
import gc
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    CALIBRATION_REF_S,
    HostSpeed,
    OpenLoop,
    Outcome,
    tail_percentile,
    valid_metric_name,
)
from spans import Span, Tracer, covered, self_time  # noqa: E402

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- the tail percentile rule ----------------------------------------------


def test_tail_is_p99_when_a_thousand_samples_back_it():
    samples = list(range(2001))  # index == value
    value, q, n = tail_percentile(samples)
    assert n == 2001
    assert q == pytest.approx(0.99)
    assert value == 1980
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_drops_below_p99_to_keep_ten_samples_beyond():
    samples = list(range(200))
    value, q, n = tail_percentile(samples)
    assert value == 189  # 10 samples (190..199) lie beyond it
    assert sum(1 for s in samples if s > value) == 10
    assert q == pytest.approx(189 / 199)
    assert n == 200


def test_tail_falls_back_to_the_median_when_no_tail_is_supported():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert tail_percentile(samples) == (3.0, 0.5, 5)
    twenty = list(range(20))
    assert tail_percentile(twenty) == (9.5, 0.5, 20)


def test_tail_at_the_smallest_sample_that_supports_one():
    samples = list(range(21))
    value, q, n = tail_percentile(samples)
    assert value == 10 and q == pytest.approx(0.5) and n == 21


def test_tail_ignores_input_order_and_rejects_empty():
    assert tail_percentile([3, 1, 2] * 100) == tail_percentile(sorted([3, 1, 2] * 100))
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self-time and coverage --------------------------------------------------


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, None)


def test_self_time_subtracts_nested_children():
    parent = _span(0, 0.0, 10.0)
    kids = [_span(1, 1.0, 3.0, 0), _span(2, 5.0, 6.0, 0)]
    assert self_time(parent, kids) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    parent = _span(0, 0.0, 10.0)
    kids = [_span(1, 1.0, 5.0, 0), _span(2, 4.0, 7.0, 0), _span(3, 4.5, 6.0, 0)]
    assert self_time(parent, kids) == pytest.approx(4.0)


def test_self_time_clips_children_sticking_out_of_the_parent():
    parent = _span(0, 2.0, 6.0)
    kids = [_span(1, 0.0, 3.0, 0), _span(2, 5.0, 9.0, 0), _span(3, 7.0, 8.0, 0)]
    assert self_time(parent, kids) == pytest.approx(2.0)


def test_covered_with_no_parts_and_touching_parts():
    assert covered((0.0, 1.0), []) == 0.0
    assert covered((0.0, 4.0), [(0.0, 1.0), (1.0, 2.0)]) == pytest.approx(2.0)


def test_tracer_nests_spans_and_restores_wrapped_attributes():
    class Layer:
        def work(self, x):
            return x + 1

        @staticmethod
        def helper():
            return 7

    original = Layer.__dict__["work"]
    t = Tracer()
    counted = []

    def install(tr):
        tr.wrap(Layer, "work", "layer.work", lambda tr_, r, a, k: counted.append(r))
        tr.wrap(Layer, "helper", "layer.helper")

    with t.installed(install):
        t.epoch = "e0"
        with t.span("epoch"):
            assert Layer().work(1) == 2
            assert Layer.helper() == 7
    assert Layer.__dict__["work"] is original
    assert isinstance(Layer.__dict__["helper"], staticmethod)
    assert counted == [2]
    epoch, work, helper = t.spans
    assert work.parent == epoch.id and helper.parent == epoch.id
    assert work.epoch == "e0"
    assert 0.0 < t.coverage("epoch")["e0"] <= 1.0


def test_concurrent_tasks_get_their_own_parent_span():
    t = Tracer()

    async def child(name):
        with t.span(name):
            await asyncio.sleep(0.01)

    async def main():
        async def under(outer):
            with t.span(outer):
                await child(outer + ".child")

        await asyncio.gather(under("a"), under("b"))

    asyncio.run(main())
    by_name = {s.name: s for s in t.spans}
    assert by_name["a.child"].parent == by_name["a"].id
    assert by_name["b.child"].parent == by_name["b"].id


# -- metric names -------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["epoch_s", "detection.yield", "serve.gen_late_ms", "a-b.c_d", "9lives"]
)
def test_legal_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize(
    "name", ["", ".hidden", "_x", "has space", "slash/name", "x" * 65, "ünits"]
)
def test_illegal_metric_names(name):
    assert not valid_metric_name(name)


def test_outcome_refuses_bad_and_duplicate_metrics():
    out = Outcome()
    out.metric("epoch_s", 1.0, "s")
    with pytest.raises(ValueError):
        out.metric("epoch_s", 2.0, "s")
    with pytest.raises(ValueError):
        out.metric("bad name", 1.0, "s")
    with pytest.raises(ValueError):
        out.metric("nan_s", float("nan"), "s")


def test_benchmark_json_names_are_legal_and_unique():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)


# -- open-loop lateness --------------------------------------------------------


def test_open_loop_times_from_due_not_from_start():
    clock = OpenLoop(rate_hz=10.0, t0=100.0)
    clock.start(0, 100.0)
    clock.start(1, 100.35)  # a stall: due at 100.1, began 0.25 s late
    clock.start(2, 100.36)
    assert clock.lateness() == pytest.approx([0.0, 0.25, 0.16])
    # Finishing at 100.40 means 0.2 s for operation 2, not the 0.04 s it ran.
    assert clock.latency(2, 100.40) == pytest.approx(0.2)


def test_open_loop_early_start_is_not_negative_lateness():
    clock = OpenLoop(rate_hz=2.0, t0=0.0)
    clock.start(0, -0.1)
    assert clock.lateness() == [0.0]


def test_open_loop_rejects_out_of_order_starts():
    clock = OpenLoop(rate_hz=1.0, t0=0.0)
    with pytest.raises(ValueError):
        clock.start(1, 0.0)


def test_backlog_growth_detects_a_generator_falling_behind():
    kept_up = OpenLoop(rate_hz=4.0, t0=0.0)
    behind = OpenLoop(rate_hz=4.0, t0=0.0)
    for k in range(12):
        kept_up.start(k, k / 4.0 + 0.01)
        behind.start(k, k * 0.4)  # 0.4 s per operation against 0.25 s due
    assert not kept_up.backlog_growing(0.25)
    assert behind.backlog_growing(0.25)


# -- calibrated times ----------------------------------------------------------


def test_calibrate_scales_by_the_mean_of_the_bracketing_samples():
    speed = HostSpeed()
    speed.samples = [CALIBRATION_REF_S, 3 * CALIBRATION_REF_S, CALIBRATION_REF_S]
    # The last two samples average 2x the reference: the core ran at half speed.
    assert speed.calibrate(1.0) == pytest.approx(0.5)
    assert speed.calibrate(1.0, before=0) == pytest.approx(0.5)
    speed.samples.append(CALIBRATION_REF_S)
    assert speed.calibrate(1.0) == pytest.approx(1.0)


def test_run_scale_is_the_reference_over_the_median_sample():
    speed = HostSpeed()
    speed.samples = [CALIBRATION_REF_S, 2 * CALIBRATION_REF_S, 9 * CALIBRATION_REF_S]
    assert speed.run_scale() == pytest.approx(0.5)


def test_calibrate_needs_a_sample_on_each_side():
    speed = HostSpeed()
    with pytest.raises(ValueError):
        speed.calibrate(1.0)
    speed.samples = [0.03, 0.03]
    with pytest.raises(ValueError):
        speed.calibrate(1.0, before=1)


def test_sampling_pinned_cores_restores_the_affinity():
    home = HostSpeed.usable_cpus()
    speed = HostSpeed(home)
    dt = speed.sample()
    assert dt > 0 and speed.samples == [dt]
    assert HostSpeed.usable_cpus() == home
    assert gc.isenabled()
