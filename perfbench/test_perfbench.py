"""Tests of the benchmark's own logic (no trained system needed).

Run:  PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_layers  # noqa: E402
from bench_checks import fingerprint, mismatches  # noqa: E402
from bench_layers import SpanRecorder, instrument, self_times, summarize  # noqa: E402
import bench_workloads  # noqa: E402
from bench_workloads import FLEET_DRIVES, PassResult, make  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, None, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("runner", 0.0, 10.0, -1),
        _span("stems", 1.0, 4.0, 0),
        _span("branches", 5.0, 9.0, 0),
        _span("wbf", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    table, covered = summarize([spans])
    assert covered == pytest.approx(10.0)
    total = sum(table[layer]["self_s"] for layer in bench_layers.LAYERS)
    assert total == pytest.approx(10.0)


def test_nested_call_of_the_same_layer_is_one_call():
    spans = [
        _span("gate", 0.0, 4.0, -1),
        _span("gate", 1.0, 3.0, 0),   # e.g. a wrapper calling its base gate
        _span("gate", 5.0, 6.0, -1),
    ]
    spans[0][bench_layers.ROWS] = 2
    spans[1][bench_layers.ROWS] = 2
    spans[2][bench_layers.ROWS] = 1
    entry = summarize([spans])[0]["gate"]
    assert entry["calls"] == 2
    assert entry["rows"] == 3
    assert entry["self_s"] == pytest.approx(5.0)


def test_recorder_nests_spans_and_inherits_the_drive_id():
    recorder = SpanRecorder()

    def inner():
        return recorder.call("wbf", lambda: 7, (), {})

    assert recorder.call("runner", inner, (), {}, drive="night_rain/p") == 7
    (spans,) = recorder.threads
    assert [s[bench_layers.NAME] for s in spans] == ["runner", "wbf"]
    assert spans[1][bench_layers.PARENT] == 0
    assert spans[1][bench_layers.DRIVE] == "night_rain/p"
    assert all(s[bench_layers.END] >= s[bench_layers.START] for s in spans)


@pytest.mark.parametrize("workload", ["sweep", "vehicle", "fleet"])
def test_same_seed_gives_the_same_inputs(workload):
    a, b, other = make(workload, 11), make(workload, 11), make(workload, 12)
    assert a.drives == b.drives
    assert a.drives != other.drives
    if workload == "fleet":
        assert len(a.drives) == FLEET_DRIVES
        assert len({d.seed for d in a.drives}) == FLEET_DRIVES


@pytest.mark.parametrize("seconds, pass_s, expected", [
    (15, 4.0, 3),    # 3 x 4 s fit, a 4th would end at 16 s
    (15, 5.0, 3),    # exactly 15 s
    (15, 7.0, 2),
    (15, 8.0, 1),    # a 2nd would end at 16 s
    (1, 30.0, 1),    # always at least one pass
])
def test_passes_fill_the_seconds_each_with_fresh_resources(
        monkeypatch, seconds, pass_s, expected):
    opened, closed = [], []

    def open_resources(system, workload):
        opened.append(object())
        return None, opened[-1]

    def run_pass(system, inputs, runner, service):
        assert service is opened[-1] and service not in closed
        return PassResult(pass_s, 10, [1.0], "frame step")

    monkeypatch.setattr(bench_workloads, "open_resources", open_resources)
    monkeypatch.setattr(bench_workloads, "close_resources", closed.append)
    monkeypatch.setattr(bench_workloads, "run_pass", run_pass)
    passes = bench_workloads.run_passes(None, make("vehicle", 1), seconds)
    assert len(passes) == expected
    assert closed == opened and len(opened) == expected


def _records(n=4):
    return [
        {"config": "LF_ALL", "switched": False, "faults": [],
         "latency_ms": float(20.0 + i).hex(), "soc": float(0.8 - i * 1e-4).hex(),
         "loss": float(0.25).hex(), "detections": 3}
        for i in range(n)
    ]


def test_output_check_catches_one_ulp_in_one_record():
    reference = {"d": fingerprint(_records(), 41.5, 0.79)}
    assert mismatches({"d": fingerprint(_records(), 41.5, 0.79)}, reference) == []
    changed = _records()
    soc = float.fromhex(changed[2]["soc"])
    changed[2]["soc"] = math.nextafter(soc, 1.0).hex()
    assert mismatches({"d": fingerprint(changed, 41.5, 0.79)}, reference) == ["d"]
    assert mismatches({"d": fingerprint(_records(), 41.5,
                                        math.nextafter(0.79, 0.0))},
                      reference) == ["d"]
    assert mismatches({}, reference) == ["d"]


def _attributes():
    owners = {id(owner): owner for owner, *_ in bench_layers.targets()}
    from repro import BranchOutputCache

    owners[id(BranchOutputCache)] = BranchOutputCache
    return {key: dict(vars(owner)) for key, owner in owners.items()}


def test_wrappers_are_fully_removed_after_the_traced_run():
    from repro.core.ecofusion import EcoFusionModel

    before = _attributes()
    original = EcoFusionModel.fuse_single
    with pytest.raises(RuntimeError):
        with instrument(SpanRecorder()):
            assert EcoFusionModel.fuse_single is not original
            raise RuntimeError("a failing traced pass")
    after = _attributes()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys()
        for name, value in attrs.items():
            assert after[key][name] is value, name
