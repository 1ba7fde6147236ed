"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import gzip
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import compare  # noqa: E402
from bench.layers import ENTRY_POINTS, LAYERS, LayerTrace, Patches, label_layer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class Clock:
    """A clock that only moves when a test spends time."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def spend(self, dt: float) -> None:
        self.t += dt


def _self_s(trace: LayerTrace) -> dict[str, float]:
    return dict(zip(LAYERS, trace.self_s))


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_child_spans_of_other_layers() -> None:
    clock = Clock()
    trace = LayerTrace(clock)
    scan = trace.timed(lambda: clock.spend(2.0), "Lidar.scan", "world")
    estimate = trace.timed(lambda: clock.spend(0.25), "GMapping.map_estimate", "perception")

    def process_body() -> None:
        clock.spend(1.0)
        scan()
        estimate()  # same layer: its time stays in perception, once
        clock.spend(3.0)

    process = trace.timed(process_body, "GMapping.process", "perception")

    def run_body() -> None:
        process()
        clock.spend(0.5)

    trace.timed(run_body, "Simulator.run", "sim")()
    self_s = _self_s(trace)
    assert self_s["world"] == 2.0
    assert self_s["perception"] == 4.25
    assert self_s["sim"] == 0.5
    m = trace.layer_metrics()
    assert m["trace.wall_s"] == trace.run_wall == 6.75
    assert m["perception.share"] == pytest.approx(4.25 / 6.75)
    assert m["perception.calls"] == 2 and m["world.calls"] == 1
    assert trace.attribution_error() == 0.0


def test_callback_time_goes_to_the_label_owner() -> None:
    clock = Clock()
    trace = LayerTrace(clock)
    scan = trace.timed(lambda: clock.spend(2.0), "Lidar.scan", "world")

    def run_body() -> None:
        clock.spend(0.1)  # kernel drain
        start = clock()
        clock.spend(0.5)  # the callback's own work
        scan()
        trace.event("net:scan", clock() - start)
        start = clock()
        clock.spend(0.3)
        trace.event("tenant:robot00", clock() - start)
        clock.spend(0.1)

    trace.timed(run_body, "Simulator.run", "sim")()
    self_s = _self_s(trace)
    assert self_s["middleware"] == pytest.approx(0.5)
    assert self_s["world"] == pytest.approx(2.0)
    assert self_s["cloud"] == pytest.approx(0.3)
    assert self_s["sim"] == pytest.approx(0.2)
    assert sum(trace.self_s) == pytest.approx(trace.run_wall)
    # the scan span is re-parented under the callback it ran in
    names = [trace.names[n] for n in trace.span_name]
    ids = dict(zip(names, trace.span_id))
    parent_of = dict(zip(names, trace.span_parent))
    assert parent_of["Lidar.scan"] == ids["event:net:scan"]
    assert parent_of["event:net:scan"] == ids["Simulator.run"]
    assert parent_of["Simulator.run"] == -1


def test_spans_outside_a_run_count_calls_but_no_self_time() -> None:
    clock = Clock()
    trace = LayerTrace(clock)
    admit = trace.timed(lambda: clock.spend(1.0), "AdmissionController.request_admission", "cloud")
    admit()
    trace.timed(lambda: clock.spend(0.5), "Simulator.run", "sim")()
    assert trace.layer_metrics()["cloud.calls"] == 1 and _self_s(trace)["cloud"] == 0.0
    assert trace.run_wall == 0.5


def test_label_owners() -> None:
    assert label_layer("net:scan") == "middleware"
    assert label_layer("slam:finish") == "middleware"
    assert label_layer("sensor_driver:scan_timer") == "middleware"
    assert label_layer("physics") == "vehicle"
    assert label_layer("tenant:robot03") == "cloud"
    assert label_layer("uplink:veh01") == "network"
    assert label_layer("framework:adjust") == "core"
    assert label_layer("something-new") == "sim"


# ----------------------------------------------------------------------
# Timers are removed without a trace
# ----------------------------------------------------------------------
def test_wrapped_class_attributes_are_restored() -> None:
    from repro.obs.profiler import KernelProfiler

    originals = {}
    for module, cls_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for m in methods:
            originals[(cls, m)] = cls.__dict__[m]
    originals[(KernelProfiler, "record")] = KernelProfiler.__dict__["record"]
    patches = Patches()
    LayerTrace().install(patches)
    assert len(patches) == len(originals)
    for (cls, m), original in originals.items():
        assert cls.__dict__[m] is not original
    undone = patches.undo()
    assert len(undone) == len(originals)
    for (cls, m), original in originals.items():
        assert cls.__dict__[m] is original


def test_patching_one_attribute_twice_restores_the_first_original() -> None:
    class Thing:
        def f(self) -> int:
            return 1

    original = Thing.__dict__["f"]
    patches = Patches()
    patches.wrap(Thing, "f", lambda fn: lambda self: fn(self) + 1)
    patches.wrap(Thing, "f", lambda fn: lambda self: fn(self) * 10)
    assert Thing().f() == 20
    assert patches.undo() == [(Thing, "f", original)]
    assert Thing.__dict__["f"] is original


# ----------------------------------------------------------------------
# The declared metrics and the emitted ones
# ----------------------------------------------------------------------
def test_benchmark_json_declares_valid_metrics() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 <= m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric(tmp_path: Path, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--seconds", "1",
         "--trace", str(trace), "--out", str(tmp_path / "runs.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    expected = {f"{w}.{name}" for w in WORKLOADS for name in units}
    assert set(result["metrics"]) == expected
    for key, metric in result["metrics"].items():
        assert NAME.fullmatch(key.split(".", 1)[1])
        assert metric["unit"] == units[key.split(".", 1)[1]]
        # a host time that can read 0 would read the same on every run
        if metric["unit"] in ("s", "ms", "us"):
            assert metric["value"] > 0, key
    if trace:
        m = result["metrics"]
        assert m["serve.perception.calls"]["value"] == 0
        assert m["serve.world.calls"]["value"] == 0
        assert m["serve_traced.obs.segments"]["value"] > 0
        for w in WORKLOADS:
            assert m[f"{w}.trace.attribution_error"]["value"] < 0.02
            # every event label fired in the run has an owning layer
            with gzip.open(ROOT / ".bench_runs" / f"spans-{w}-seed0.json.gz", "rt") as f:
                spans = json.load(f)
            for name, layer in zip(spans["names"], spans["layers"]):
                if name.startswith("event:"):
                    assert layer != "sim", f"{w}: no owner for label {name[6:]!r}"


# ----------------------------------------------------------------------
# The pairing rule
# ----------------------------------------------------------------------
def test_compare_needs_ten_pairs_and_nine_wins() -> None:
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [b * 0.8 for b in base]
    assert compare.verdict(base, faster, "lower", 0.1).startswith("better")
    assert compare.verdict(base[:9], faster[:9], "lower", 0.1).startswith("unresolved")
    slower = [b * 1.2 for b in base]
    assert compare.verdict(base, slower, "lower", 0.1).startswith("worse")
    assert compare.verdict(base, slower, "higher", 0.1).startswith("better")
    same = list(reversed(base))
    assert compare.verdict(base, same, "lower", 0.1).startswith("no regression")
