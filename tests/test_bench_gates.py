"""The bounds of the eight ``BENCH_<x>.json`` regression gates.

Each ``python benchmarks/bench_<x>.py --quick --check BENCH_<x>.json``
run hands its measured section to ``record.gate_problems`` with the
script's own check.  These tests feed that same path doctored copies of
the committed quick sections -- nothing is timed -- so a bound that gets
loosened, tightened or dropped fails here:

- the committed quick section itself passes, and so does a measurement
  sitting exactly on every bound;
- a measurement just past any one bound gives exactly one problem line;
- a missing report or a missing section fails.

The scaling gate's full section records its own RSS ceiling, so its
full-mode check gets the same on/past-the-bound cases.
"""

import copy
import importlib
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

import record  # noqa: E402

GATES = (
    "continuous", "transport", "sink", "simplify",
    "predict", "scaling", "serving", "serving_faults",
)
SPEEDUP_GATES = ("continuous", "transport", "sink", "simplify", "predict")


def committed_report(gate):
    return json.loads((ROOT / f"BENCH_{gate}.json").read_text())


def gate_check(gate):
    # The kernel-only gates check nothing but the speedup floors.
    return getattr(
        importlib.import_module(f"bench_{gate}"), "check", record.check_speedups
    )


def quick_measurement(gate, committed):
    """What a ``--quick`` run that reproduced the committed numbers
    measures (predict's measurement also carries its verify result)."""
    measured = copy.deepcopy(committed["quick"])
    if gate == "predict":
        measured["verify"] = copy.deepcopy(committed["verify"])
    return measured


def problems(gate, measured, committed):
    return record.gate_problems(committed, measured, True, gate_check(gate))


# ----------------------------------------------------------------------
# Doctored measurements: (gate, name, edit) -> edit(measured, committed, past)
# puts one value on its bound (past=False) or just beyond it (past=True).
# ----------------------------------------------------------------------


def _speedup(kernel):
    def edit(m, c, past):
        floor = c["quick"]["kernels"][kernel]["speedup"] / 2.0
        m["kernels"][kernel]["speedup"] = floor - 0.01 if past else floor
    return edit


def _serving_rate(path):
    def edit(m, c, past):
        floor = c["quick"]["serving"][path[0]][path[1]] / 4.0
        m["serving"][path[0]][path[1]] = floor - 1.0 if past else floor
    return edit


def _faults_injected(m, c, past):
    if past:
        m["serving_faults"]["injected"]["hangs"] += 1


def _faults_epochs(m, c, past):
    if past:
        m["serving_faults"]["epochs"] += 1


def _faults_availability(m, c, past):
    floor = c["quick"]["serving_faults"]["recovery"]["availability"] / 2.0
    m["serving_faults"]["recovery"]["availability"] = (
        floor - 0.0001 if past else floor
    )


def _scaling_exact(index, key):
    def edit(m, c, past):
        if past:
            m["points"][index][key] += 1
    return edit


def _scaling_rss(index):
    def edit(m, c, past):
        ceiling = c["quick"]["rss_ceiling_mb"]
        m["points"][index]["peak_rss_mb"] = ceiling + 0.1 if past else ceiling
    return edit


def _ratio_floor(section, key):
    def edit(m, c, past):
        floor = 0.9 * c["quick"][section][key]
        m[section][key] = floor - 0.01 if past else floor
    return edit


def _simplify_deviation(m, c, past):
    tolerance = m["serving"]["tolerance"]
    m["serving"]["hausdorff_dev"] = tolerance + 0.0001 if past else tolerance


def _predict_staleness(m, c, past):
    heartbeat = m["suppression"]["heartbeat"]
    m["suppression"]["staleness_max"] = heartbeat + 1 if past else heartbeat


def _predict_verify(m, c, past):
    if past:
        m["verify"] = {"ok": False, "stream": "tide", "epoch": 3}


def _full_bar(section, key, bar, step):
    """The acceptance bar on the committed FULL section (checked on
    every run, whatever size was measured)."""
    def edit(m, c, past):
        c[section][key] = bar + step if past else bar
    return edit


def _cases():
    cases = []
    for gate in SPEEDUP_GATES:
        for kernel in committed_report(gate)["quick"]["kernels"]:
            cases.append((gate, f"speedup-{kernel}", _speedup(kernel)))
    cases += [
        ("serving", "snapshot-rps", _serving_rate(("snapshot", "rps"))),
        ("serving", "delta-rate",
         _serving_rate(("delta_stream", "deliveries_per_s"))),
        ("serving_faults", "injected", _faults_injected),
        ("serving_faults", "epochs", _faults_epochs),
        ("serving_faults", "availability", _faults_availability),
        ("simplify", "byte-ratio", _ratio_floor("serving", "bytes_ratio")),
        ("simplify", "deviation", _simplify_deviation),
        ("simplify", "full-ratio-bar", _full_bar("serving", "bytes_ratio", 5.0, -0.01)),
        ("simplify", "full-cells-bar",
         _full_bar("serving", "hausdorff_cells", 1.0, 0.01)),
        ("predict", "reduction", _ratio_floor("suppression", "reduction")),
        ("predict", "staleness", _predict_staleness),
        ("predict", "verify", _predict_verify),
        ("predict", "full-reduction-bar",
         _full_bar("suppression", "reduction", 2.0, -0.01)),
        ("predict", "full-cells-bar",
         _full_bar("suppression", "penalty_cells_mean", 1.0, 0.01)),
    ]
    for i, point in enumerate(committed_report("scaling")["quick"]["points"]):
        n = point["n"]
        cases += [
            ("scaling", f"reports-n{n}", _scaling_exact(i, "isomap_reports")),
            ("scaling", f"diameter-n{n}", _scaling_exact(i, "diameter_hops")),
            ("scaling", f"rss-n{n}", _scaling_rss(i)),
        ]
    return [pytest.param(g, e, id=f"{g}-{name}") for g, name, e in cases]


CASES = _cases()


@pytest.mark.parametrize("gate", GATES)
def test_committed_quick_section_passes(gate):
    committed = committed_report(gate)
    assert problems(gate, quick_measurement(gate, committed), committed) == []


@pytest.mark.parametrize("gate,edit", CASES)
def test_measurement_on_the_bound_passes(gate, edit):
    committed = committed_report(gate)
    measured = quick_measurement(gate, committed)
    edit(measured, committed, False)
    assert problems(gate, measured, committed) == []


@pytest.mark.parametrize("gate,edit", CASES)
def test_measurement_past_the_bound_fails_once(gate, edit):
    committed = committed_report(gate)
    measured = quick_measurement(gate, committed)
    edit(measured, committed, True)
    assert len(problems(gate, measured, committed)) == 1


def test_every_gate_has_past_the_bound_cases():
    assert {p.values[0] for p in CASES} == set(GATES)


@pytest.mark.parametrize("gate", GATES)
def test_missing_report_fails(gate):
    measured = quick_measurement(gate, committed_report(gate))
    assert problems(gate, measured, None) == [
        "no committed report to check against"
    ]


@pytest.mark.parametrize("gate", GATES)
def test_missing_quick_section_fails(gate):
    committed = committed_report(gate)
    measured = quick_measurement(gate, committed)
    del committed["quick"]
    assert problems(gate, measured, committed)


@pytest.mark.parametrize("gate,section", [
    ("simplify", "serving"), ("predict", "suppression"),
])
def test_missing_full_acceptance_section_fails(gate, section):
    committed = committed_report(gate)
    measured = quick_measurement(gate, committed)
    del committed[section]
    assert problems(gate, measured, committed) == [
        f"committed report has no full {section} section"
    ]


# ----------------------------------------------------------------------
# The scaling gate's full section: it records its own RSS ceiling
# ----------------------------------------------------------------------


FULL_SCALING_POINTS = [p["n"] for p in committed_report("scaling")["points"]]


def full_scaling_measurement(committed):
    """What a full run that reproduced the committed points measures."""
    return {
        key: copy.deepcopy(committed[key])
        for key in ("rss_ceiling_mb", "fitted_report_exponent", "points")
    }


def full_scaling_problems(measured, committed):
    return record.gate_problems(committed, measured, False, gate_check("scaling"))


def test_committed_full_scaling_section_passes():
    committed = committed_report("scaling")
    measured = full_scaling_measurement(committed)
    assert full_scaling_problems(measured, committed) == []


@pytest.mark.parametrize("index", range(len(FULL_SCALING_POINTS)),
                         ids=[f"n{n}" for n in FULL_SCALING_POINTS])
def test_full_scaling_rss_on_the_ceiling_passes(index):
    committed = committed_report("scaling")
    measured = full_scaling_measurement(committed)
    measured["points"][index]["peak_rss_mb"] = committed["rss_ceiling_mb"]
    assert full_scaling_problems(measured, committed) == []


@pytest.mark.parametrize("index", range(len(FULL_SCALING_POINTS)),
                         ids=[f"n{n}" for n in FULL_SCALING_POINTS])
def test_full_scaling_rss_past_the_ceiling_fails_once(index):
    committed = committed_report("scaling")
    measured = full_scaling_measurement(committed)
    measured["points"][index]["peak_rss_mb"] = committed["rss_ceiling_mb"] + 0.1
    assert len(full_scaling_problems(measured, committed)) == 1


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_scaling_section_without_a_ceiling_fails(quick):
    committed = committed_report("scaling")
    if quick:
        measured = quick_measurement("scaling", committed)
        del committed["quick"]["rss_ceiling_mb"]
    else:
        measured = full_scaling_measurement(committed)
        del committed["rss_ceiling_mb"]
    assert record.gate_problems(
        committed, measured, quick, gate_check("scaling")
    ) == ["committed section has no rss_ceiling_mb"]


# ----------------------------------------------------------------------
# The shared driver: exit codes and the write path
# ----------------------------------------------------------------------


def _run(tmp_path, argv, section, check=record.check_speedups):
    out = tmp_path / "BENCH_x.json"
    code = record.run_gate(
        argv, "A test bench.", "if anything regressed", out,
        lambda quick: copy.deepcopy(section),
        lambda full, quick: dict(full, quick=quick),
        check,
    )
    return code, out


SECTION = {"n": 10, "kernels": {"k": {"speedup": 4.0}}}


def test_run_gate_check_exit_codes(tmp_path):
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps({"quick": SECTION}))
    assert _run(tmp_path, ["--quick", "--check", str(committed)], SECTION)[0] == 0
    slow = {"n": 10, "kernels": {"k": {"speedup": 1.99}}}
    assert _run(tmp_path, ["--quick", "--check", str(committed)], slow)[0] == 1
    missing = str(tmp_path / "absent.json")
    assert _run(tmp_path, ["--quick", "--check", missing], SECTION)[0] == 1


def test_run_gate_writes_only_full_unchecked_runs(tmp_path):
    code, out = _run(tmp_path, ["--quick"], SECTION)
    assert code == 0 and not out.exists()
    code, out = _run(tmp_path, [], SECTION)
    assert code == 0
    assert json.loads(out.read_text()) == dict(SECTION, quick=SECTION)


def test_run_gate_refuses_to_write_a_failed_verify(tmp_path):
    failed = dict(SECTION, verify={"ok": False})
    code, out = _run(tmp_path, [], failed)
    assert code == 1 and not out.exists()
