"""Tests for the telemetry subsystem: tracer, metrics, events, wiring."""

import json
import math

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry import (
    EventBus,
    LabelCardinalityError,
    Registry,
    Telemetry,
    Tracer,
    instrument_workload,
    render_report,
    validate_chrome_trace,
)


class TestTracer:
    def test_begin_end_records_duration(self):
        t = {"now": 1.0}
        tr = Tracer(clock=lambda: t["now"])
        span = tr.begin("work")
        t["now"] = 3.5
        tr.end(span)
        assert len(tr.spans) == 1
        s = tr.spans[0]
        assert s.name == "work"
        assert s.t_start == 1.0 and s.t_end == 3.5
        assert s.duration == 2.5

    def test_nesting_under_des_kernel(self):
        """Spans opened inside kernel event spans nest per track."""
        sim = Simulator()
        tel = Telemetry(clock=sim.now)
        order = []

        def outer():
            out = tel.tracer.begin("outer", track="k")
            inner = tel.tracer.begin("inner", track="k")
            order.append(sim.now())
            tel.tracer.end(inner)
            tel.tracer.end(out)

        sim.schedule_at(2.0, outer)
        sim.run()
        # inner closed first (LIFO), both at t=2.0
        assert [s.name for s in tel.tracer.spans] == ["inner", "outer"]
        assert all(s.t_start == 2.0 for s in tel.tracer.spans)

    def test_out_of_order_end_raises(self):
        tr = Tracer(clock=lambda: 0.0)
        a = tr.begin("a", track="x")
        tr.begin("b", track="x")
        with pytest.raises(ValueError):
            tr.end(a)

    def test_tracks_are_independent_stacks(self):
        tr = Tracer(clock=lambda: 0.0)
        a = tr.begin("a", track="x")
        b = tr.begin("b", track="y")
        tr.end(a)  # fine: different track
        tr.end(b)
        assert [s.name for s in tr.spans] == ["a", "b"]
        with pytest.raises(ValueError):
            tr.end(b)  # both stacks are empty again

    def test_max_spans_drops_not_grows(self):
        tr = Tracer(clock=lambda: 0.0, max_spans=2)
        for i in range(5):
            tr.complete(f"s{i}", ts=float(i), dur=0.1)
        assert len(tr.spans) == 2
        assert tr.dropped == 3

    def test_name_field_collision_safe(self):
        # 'name' as a span arg must not clash with the positional name
        tr = Tracer(clock=lambda: 0.0)
        tr.complete("ev", ts=0.0, dur=0.0, name="payload")
        assert tr.spans[0].args["name"] == "payload"

    def test_chrome_trace_schema_roundtrip(self):
        tr = Tracer(clock=lambda: 0.0)
        tr.complete("work", ts=1.0, dur=0.5, track="host:lgv", cat="node")
        tr.instant("mark", track="events")
        obj = json.loads(json.dumps(tr.to_chrome()))
        assert validate_chrome_trace(obj) == []
        events = obj["traceEvents"]
        # metadata rows name the process and each track
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} >= {"repro-sim", "host:lgv", "events"}
        x = next(e for e in events if e["ph"] == "X")
        assert x["ts"] == 1.0e6 and x["dur"] == 0.5e6  # microseconds
        i = next(e for e in events if e["ph"] == "i")
        assert i["s"] == "t"

    def test_validate_rejects_bad_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []

    def test_validate_accepts_empty_trace(self):
        # an uninstrumented run writes {"traceEvents": []}; that must
        # validate (Perfetto loads it) so `repro trace` exits cleanly
        assert validate_chrome_trace({"traceEvents": []}) == []
        tr = Tracer(clock=lambda: 0.0)
        assert validate_chrome_trace(json.loads(json.dumps(tr.to_chrome()))) == []


class TestMetrics:
    def test_counter_labels_and_total(self):
        r = Registry()
        c = r.counter("msgs")
        c.inc(topic="scan")
        c.inc(2, topic="scan")
        c.inc(topic="map")
        assert c.value(topic="scan") == 3
        assert c.total() == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_add(self):
        r = Registry()
        g = r.gauge("depth")
        g.set(5)
        g.add(-2)
        assert g.value() == 3

    def test_histogram_quantile_math(self):
        r = Registry()
        h = r.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.count() == 4
        assert h.mean() == pytest.approx(1.625)
        # exact endpoints
        assert h.quantile(0.0) == 0.5
        assert h.quantile(1.0) == 3.0
        # interpolated interior quantile lands inside the winning bucket
        q50 = h.quantile(0.5)
        assert 1.0 <= q50 <= 2.0
        # monotone in q
        qs = [h.quantile(q) for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert qs == sorted(qs)

    def test_histogram_overflow_bucket(self):
        r = Registry()
        h = r.histogram("lat", buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(1.0) == 100.0
        snap = h.snapshot()["series"][""]
        assert snap["buckets"][-1] == [math.inf, 1]

    def test_histogram_rejects_nan_and_bad_q(self):
        r = Registry()
        h = r.histogram("lat")
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        with pytest.raises(ValueError):
            h.quantile(1.5)
        assert math.isnan(h.quantile(0.5))  # empty

    def test_label_cardinality_guard(self):
        r = Registry()
        c = r.counter("ids", max_label_sets=3)
        for i in range(3):
            c.inc(id=str(i))
        with pytest.raises(LabelCardinalityError):
            c.inc(id="3")
        # existing label sets still work
        c.inc(id="0")
        assert c.value(id="0") == 2

    def test_label_cardinality_error_names_the_culprit(self):
        r = Registry()
        c = r.counter("cloud_tick_latency", max_label_sets=2)
        c.inc(tenant="r0")
        c.inc(tenant="r1")
        with pytest.raises(LabelCardinalityError) as exc:
            c.inc(tenant="r2", seq="99")
        msg = str(exc.value)
        # the metric, the offending label set and the budget all appear
        assert "'cloud_tick_latency'" in msg
        assert "seq=99,tenant=r2" in msg
        assert "budget 2" in msg
        # unlabelled offenders are spelled out, not shown as ''
        g = r.gauge("depth", max_label_sets=1)
        g.set(1.0, worker="w0")
        with pytest.raises(LabelCardinalityError, match=r"\(unlabelled\)"):
            g.set(2.0)

    def test_registry_get_or_create_and_kind_clash(self):
        r = Registry()
        assert r.counter("x") is r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")
        assert r.get("missing") is None

    def test_snapshot_is_json_serializable(self):
        r = Registry()
        r.counter("c").inc(topic="a")
        r.gauge("g").set(1.5)
        r.histogram("h").observe(0.2)
        json.dumps(r.snapshot())  # must not raise
        text = r.render_text()
        assert "c{topic=a} 1" in text


class TestEventBus:
    def test_emit_select_kinds(self):
        bus = EventBus()
        bus.emit("migration", 1.0, node="slam")
        bus.emit("migration", 2.0, node="dwa")
        bus.emit("adjust", 2.0, action="hold")
        assert len(bus) == 3
        assert [e.get("node") for e in bus.select("migration")] == ["slam", "dwa"]
        assert bus.kinds() == {"migration": 2, "adjust": 1}

    def test_retention_cap(self):
        bus = EventBus(max_events=2)
        for i in range(4):
            bus.emit("x", float(i))
        assert len(bus) == 2
        assert bus.dropped == 2

    def test_first_drop_hook_fires_exactly_once(self):
        fired = []
        bus = EventBus(max_events=1, on_first_drop=fired.append)
        bus.emit("x", 0.0)
        assert not fired
        bus.emit("x", 1.0)
        bus.emit("x", 2.0)
        assert fired == [1.0]  # the overflowing event's time

    def test_overflow_marker_carries_the_event_time(self):
        # regression: the marker read the tracer clock, which an unbound
        # Telemetry (every serving run) leaves on time.perf_counter
        tel = Telemetry()
        tel.events.max_events = 2
        for _ in range(3):
            tel.emit("tick_done", t=5.0)
        (marker,) = [s for s in tel.tracer.spans if s.name == "event_bus_overflow"]
        assert (marker.t_start, marker.t_end) == (5.0, 5.0)
        assert (marker.track, marker.cat, marker.kind) == ("events", "telemetry", "instant")
        assert marker.args == {"max_events": 2}

    def test_overflow_surfaces_in_report_and_counter(self):
        # regression: events dropped past the retention cap used to
        # vanish silently — the report must call the undercount out
        tel = Telemetry()
        tel.events.max_events = 3
        for i in range(5):
            tel.emit("tick_done", t=float(i))
        assert tel.events.dropped == 2
        # warn-once: the counter records the overflow, not every drop
        assert tel.metrics.get("telemetry_events_dropped").total() == 1
        report = render_report(tel)
        assert "event bus retention" in report
        assert "dropped" in report
        assert "[2 dropped past the 3-event retention cap]" in report


class TestWiring:
    def _tiny_workload(self):
        from repro.workloads.navigation import build_navigation
        from repro.world.geometry import Pose2D
        from repro.world.maps import box_world

        tel = Telemetry()
        w = build_navigation(
            box_world(10.0), Pose2D(2, 2, 0.7), Pose2D(8, 8, 0), telemetry=tel
        )
        return tel, w

    def test_kernel_spans_and_counters(self):
        tel, w = self._tiny_workload()
        w.sim.run(until=2.0)
        snap = tel.metrics.snapshot()
        assert snap["sim_events_total"]["values"][""] > 0
        kernel_spans = [s for s in tel.tracer.spans if s.track == "kernel"]
        assert kernel_spans, "every fired event should produce a kernel span"
        # spans are in virtual time, bounded by the run horizon
        assert all(0.0 <= s.t_start <= 2.0 for s in kernel_spans)

    def test_graph_node_and_topic_metrics(self):
        tel, w = self._tiny_workload()
        w.sim.run(until=3.0)
        m = tel.metrics
        assert m.get("node_proc_seconds").count(node="localization") > 0
        assert m.get("topic_messages_total").value(topic="scan") > 0
        assert m.get("topic_bytes_total").value(topic="scan") > 0

    def test_migration_events_through_bus(self):
        tel, w = self._tiny_workload()
        w.sim.run(until=1.0)
        w.graph.move_node("path_planning", w.cloud_host, reason="test")
        mig = tel.events.select("migration")
        assert mig and mig[-1].get("node") == "path_planning"
        assert mig[-1].get("reason") == "test"
        assert mig[-1].get("dest") == "cloud"
        # the legacy list and the bus see the same migration
        assert w.graph.migrations[-1][1] == "path_planning"
        assert tel.metrics.get("migrations_total").value(
            node="path_planning", dest="cloud"
        ) == 1

    def test_energy_gauges_flushed(self):
        tel, w = self._tiny_workload()
        w.sim.run(until=3.0)
        tel.flush_now()
        g = tel.metrics.get("energy_joules_total")
        assert g.value(host="lgv", kind="total") > 0
        assert g.value(host="lgv", kind="idle") > 0

    def test_telemetry_off_leaves_no_hooks(self):
        from repro.workloads.navigation import build_navigation
        from repro.world.geometry import Pose2D
        from repro.world.maps import box_world

        w = build_navigation(box_world(10.0), Pose2D(2, 2, 0.7), Pose2D(8, 8, 0))
        assert w.sim.telemetry is None
        assert w.graph.telemetry is None
        w.sim.run(until=1.0)  # runs clean without a sink

    def test_instrument_workload_is_explicit_and_rebinds_clock(self):
        sim = Simulator()
        tel = Telemetry()
        from repro.middleware.graph import Graph

        instrument_workload(tel, sim, Graph(sim), ())
        sim.run(until=4.2)
        assert tel.now() == sim.now() == 4.2


class TestInstrumentHelpers:
    """Every instrument_* helper: populated hub vs no telemetry at all."""

    def _pool(self, sim, telemetry=None):
        from repro.cloud import WorkerPool, make_balancer, make_scheduler
        from repro.compute import EDGE_GATEWAY, Host

        return WorkerPool(
            sim,
            [Host("cloud-vm0", EDGE_GATEWAY)],
            make_scheduler("fifo"),
            make_balancer("round-robin"),
            telemetry=telemetry,
        )

    def test_instrument_simulator_and_graph(self):
        from repro.middleware.graph import Graph
        from repro.telemetry.instrument import instrument_graph, instrument_simulator

        sim = Simulator()
        tel = Telemetry(clock=sim.now)
        graph = Graph(sim)
        instrument_simulator(sim, tel)
        instrument_graph(graph, tel)
        assert sim.telemetry is tel and graph.telemetry is tel
        sim.schedule_at(0.5, lambda: None, label="probe")
        sim.run()
        assert tel.metrics.get("sim_events_total").total() >= 1

    def test_instrument_hosts_flushes_gauges(self):
        from repro.compute import EDGE_GATEWAY, Host
        from repro.telemetry.instrument import instrument_hosts

        sim = Simulator()
        tel = Telemetry(clock=sim.now)
        host = Host("gw", EDGE_GATEWAY)
        instrument_hosts(tel, sim, [host])
        sim.run(until=2.5)
        tel.flush_now()
        assert tel.metrics.get("energy_joules_total").value(
            host="gw", kind="idle"
        ) > 0

    def test_pool_without_telemetry_runs_clean(self):
        from repro.cloud import TickRequest

        sim = Simulator()
        pool = self._pool(sim, telemetry=None)
        done = []
        pool.submit(
            TickRequest(
                tenant="r0", seq=0, cycles=1e8, threads=4,
                deadline_s=0.5, issued_at=0.0,
            ),
            lambda r, t: done.append(t),
        )
        sim.run(until=2.0)
        assert done  # no hooks, no crashes, request served


class TestEndToEnd:
    def test_fig9_traced_run_produces_valid_artifacts(self, tmp_path):
        from repro.experiments.fig9_ecn import run_fig9

        tel = Telemetry()
        res = run_fig9(telemetry=tel)
        # the model sweep still returns the exact same numbers
        assert res.best_speedup("cloud-server") > res.best_speedup("edge-gateway")

        trace_path = tel.write_trace(tmp_path / "t.json")
        metrics_path = tel.write_metrics(tmp_path / "m.json")
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        tids = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(t.startswith("model:") for t in tids)
        assert any(t.startswith("host:") for t in tids)

        snap = json.loads(metrics_path.read_text())
        for required in (
            "node_proc_seconds",
            "topic_messages_total",
            "transport_latency_seconds",
            "migrations_total",
            "energy_joules_total",
        ):
            assert required in snap, required
        assert tel.events.select("migration")
        report = render_report(tel)
        assert "per-node processing time" in report
        assert "migrations" in report
