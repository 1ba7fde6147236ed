"""Tests for repro.obs: causal tracing, the kernel profiler, SLO watch."""

import json
import math

import pytest

from repro.cloud import (
    RobotTenant,
    TenantSpec,
    TickRequest,
    WorkerPool,
    make_balancer,
    make_scheduler,
)
from repro.compute import EDGE_GATEWAY, Host
from repro.network import FleetRadioNetwork, WapSite
from repro.obs import (
    IdAllocator,
    KernelProfiler,
    P2Quantile,
    RequestTracer,
    SloPolicy,
    TraceContext,
    aggregate_profiles,
    critical_path_report,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import seeded_rng
from repro.telemetry import Telemetry, validate_chrome_trace
from repro.telemetry.spans import Tracer


def make_pool(sim, n_workers=1, scheduler="fifo", telemetry=None):
    hosts = [Host(f"cloud-vm{i}", EDGE_GATEWAY) for i in range(n_workers)]
    return WorkerPool(
        sim, hosts, make_scheduler(scheduler), make_balancer("round-robin"),
        telemetry=telemetry,
    )


def req(tenant="r0", seq=0, cycles=1e9, threads=8, deadline=0.2, issued=0.0):
    return TickRequest(
        tenant=tenant, seq=seq, cycles=cycles, threads=threads,
        deadline_s=deadline, issued_at=issued,
    )


class TestTraceContext:
    def test_ids_are_deterministic_per_seed(self):
        a, b = IdAllocator(7), IdAllocator(7)
        assert [a.new_trace_id() for _ in range(5)] == [
            b.new_trace_id() for _ in range(5)
        ]
        assert IdAllocator(7).new_trace_id() != IdAllocator(8).new_trace_id()

    def test_child_keeps_trace_id_and_links_parent(self):
        root = TraceContext(trace_id=42, span_id=1)
        child = root.child(2)
        assert child.trace_id == 42
        assert child.parent_id == root.span_id
        assert root.parent_id is None


class TestRequestTracer:
    def test_lifecycle_and_telescoping(self):
        rt = RequestTracer()
        ctx = rt.start("tick", "r0", 0.0, deadline_s=0.2)
        rt.segment(ctx, "serialize", 0.0, 0.0)
        rt.segment(ctx, "uplink", 0.0, 0.03)
        rt.segment(ctx, "queue_wait", 0.03, 0.05)
        rt.segment(ctx, "service", 0.05, 0.12)
        rt.segment(ctx, "downlink", 0.12, 0.15)
        rt.segment(ctx, "actuate", 0.15, 0.15)
        tree = rt.finish(ctx, 0.15)
        assert tree.finished and tree.status == "ok"
        assert tree.latency_s == pytest.approx(0.15)
        assert tree.reconciles()
        assert not tree.missed_deadline
        assert tree.dominant_segment()[0] == "service"

    def test_nested_segments_do_not_double_count(self):
        rt = RequestTracer()
        ctx = rt.start("tick", "r0", 0.0)
        up = rt.segment(ctx, "uplink", 0.0, 0.05)
        rt.segment(up, "air", 0.0, 0.03)
        rt.segment(up, "wired", 0.03, 0.05)
        rt.segment(ctx, "service", 0.05, 0.10)
        tree = rt.finish(ctx, 0.10)
        assert len(tree.segments) == 4
        assert len(tree.top_segments()) == 2
        assert tree.segment_sum() == pytest.approx(0.10)
        assert tree.reconciles()
        assert set(tree.by_segment()) == {"uplink", "service"}

    def test_miss_detection(self):
        rt = RequestTracer()
        ctx = rt.start("tick", "r0", 0.0, deadline_s=0.1)
        rt.segment(ctx, "service", 0.0, 0.3)
        rt.finish(ctx, 0.3, status="miss")
        assert rt.misses()[0].missed_deadline
        assert len(rt.finished()) == 1

    def test_retention_cap_drops_and_tolerates(self):
        rt = RequestTracer(max_traces=2)
        ctxs = [rt.start("tick", f"r{i}", 0.0) for i in range(4)]
        assert ctxs[2] is None and ctxs[3] is None
        assert rt.dropped == 2 and len(rt) == 2
        # every later call is a no-op on a dropped trace, not an error
        assert rt.segment(ctxs[2], "service", 0.0, 1.0) is None
        assert rt.finish(ctxs[3], 1.0) is None

    def test_segments_mirror_onto_span_tracer(self):
        tr = Tracer(clock=lambda: 0.0)
        rt = RequestTracer(tracer=tr)
        ctx = rt.start("tick", "r0", 0.0, deadline_s=1.0)
        rt.segment(ctx, "service", 0.0, 0.5)
        rt.finish(ctx, 0.5)
        assert [s.name for s in tr.spans] == ["service", "tick:r0"]
        assert all(s.track == "req:r0" and s.cat == "request" for s in tr.spans)
        obj = json.loads(json.dumps(tr.to_chrome()))
        assert validate_chrome_trace(obj) == []

    def test_segment_is_recorded_once(self):
        # the tree and the span tracer hold the same object, not a copy
        tr = Tracer(clock=lambda: 0.0)
        rt = RequestTracer(tracer=tr)
        ctx = rt.start("tick", "r0", 0.0)
        up = rt.segment(ctx, "uplink", 0.0, 0.05, bytes=512)
        seg = rt.tree(ctx).segments[-1]
        assert seg is tr.spans[-1]
        assert seg.ctx == up and seg.ctx.parent_id == ctx.span_id
        assert list(seg.args) == ["trace", "bytes"]

    def test_instant_is_zero_width(self):
        rt = RequestTracer()
        ctx = rt.start("tick", "r0", 0.0)
        rt.instant(ctx, "udp_dropped", 0.25, cause="fault")
        seg = rt.tree(ctx).segments[0]
        assert seg.duration == 0.0 and seg.args["cause"] == "fault"


class TestP2Quantile:
    def test_small_sample_is_exact(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.observe(x)
        assert est.value() == 3.0

    def test_tracks_uniform_distribution(self):
        rng = seeded_rng(0)
        xs = rng.random(5000)
        for q in (0.5, 0.95, 0.99):
            est = P2Quantile(q)
            for x in xs:
                est.observe(float(x))
            assert est.value() == pytest.approx(q, abs=0.03)

    def test_rejects_degenerate_q(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)
        assert math.isnan(P2Quantile(0.5).value())


class TestSloMonitor:
    def _monitor(self, **policy):
        tel = Telemetry()
        mon = tel.enable_slo(
            SloPolicy(window_s=5.0, burn_threshold=0.1, min_samples=10, **policy)
        )
        return tel, mon

    def test_breach_fires_once_past_min_samples(self):
        tel, mon = self._monitor()
        # 9 misses in a row: below min_samples, never breaches
        for i in range(9):
            assert mon.observe("r0", 0.5, 0.2, 0.1 * i) is None
        breach = mon.observe("r0", 0.5, 0.2, 0.9)
        assert breach is not None and breach.kind == "slo_breach"
        assert breach.burn_rate == 1.0
        # already breached: stays silent while burning
        assert mon.observe("r0", 0.5, 0.2, 1.0) is None
        events = tel.events.select("slo_breach")
        assert len(events) == 1 and events[0].get("tenant") == "r0"

    def test_rearm_hysteresis(self):
        tel, mon = self._monitor(rearm_factor=0.5)
        for i in range(10):
            mon.observe("r0", 0.5, 0.2, 0.1 * i)  # all misses -> breach
        assert mon.breaches[-1].kind == "slo_breach"
        # healthy ticks dilute the burn rate below threshold*rearm
        t = 1.0
        while mon.breaches[-1].kind != "slo_recovered":
            t += 0.1
            mon.observe("r0", 0.05, 0.2, t)
            assert t < 20.0, "never re-armed"
        assert tel.events.select("slo_recovered")
        # burn rate is now well under the re-arm threshold
        assert mon.burn_rate("r0", t) <= 0.05

    def test_window_forgets_old_misses(self):
        _, mon = self._monitor()
        for i in range(10):
            mon.observe("r0", 0.5, 0.2, 0.01 * i)  # burst of misses at t~0
        for i in range(200):
            mon.observe("r0", 0.05, 0.2, 10.0 + 0.05 * i)  # healthy later
        assert mon.burn_rate("r0", 20.0) == 0.0

    def test_quantile_tracking_per_tenant(self):
        _, mon = self._monitor()
        for i in range(100):
            mon.observe("r0", 0.1, 0.2, 0.1 * i)
        assert mon.p95("r0") == pytest.approx(0.1)
        assert math.isnan(mon.p95("ghost"))
        assert mon.tenants() == ("r0",)


class TestKernelProfiler:
    def _fake_clock(self, step=0.001):
        state = {"t": 0.0}

        def clock():
            state["t"] += step
            return state["t"]

        return clock

    def test_attributes_wall_time_by_label(self):
        sim = Simulator()
        prof = KernelProfiler(clock=self._fake_clock()).attach(sim)
        sim.schedule_at(1.0, lambda: None, label="a")
        sim.schedule_at(2.0, lambda: None, label="a")
        sim.schedule_at(3.0, lambda: None, label="b")
        sim.run()
        assert prof.events == 3
        assert prof.labels["a"].count == 2
        assert prof.labels["b"].count == 1
        assert prof.wall_s > 0
        snap = prof.snapshot()
        assert set(snap["labels"]) == {"a", "b"}
        assert snap["queue"]["pushes"] >= 3

    def test_counts_same_time_ties(self):
        sim = Simulator()
        prof = KernelProfiler(clock=self._fake_clock()).attach(sim)
        for _ in range(4):
            sim.schedule_at(1.0, lambda: None, label="tied")
        sim.run()
        assert prof.ties == 3

    def test_collapsed_stacks_follow_parents(self):
        sim = Simulator()
        prof = KernelProfiler(clock=self._fake_clock()).attach(sim)

        def root():
            sim.schedule_after(1.0, lambda: None, label="child")

        sim.schedule_at(0.0, root, label="root")
        sim.run()
        assert "root;child" in prof.snapshot()["top_stacks"]

    def test_detach_stops_recording(self):
        sim = Simulator()
        prof = KernelProfiler(clock=self._fake_clock()).attach(sim)
        sim.schedule_at(0.0, lambda: None, label="before")
        sim.run()
        prof.detach()
        sim.schedule_at(1.0, lambda: None, label="after")
        sim.run()
        assert "after" not in prof.labels

    def test_write_json(self, tmp_path):
        sim = Simulator()
        prof = KernelProfiler(clock=self._fake_clock()).attach(sim)
        sim.schedule_at(0.0, lambda: None, label="x")
        sim.run()
        p = prof.write_json(tmp_path / "prof.json")
        data = json.loads(p.read_text())
        assert data["events"] == 1 and "x" in data["labels"]

    def test_aggregate_profiles_merges(self):
        profs = []
        for _ in range(2):
            sim = Simulator()
            prof = KernelProfiler(clock=self._fake_clock()).attach(sim)
            sim.schedule_at(0.0, lambda: None, label="shared")
            sim.run()
            profs.append(prof)
        merged = aggregate_profiles(profs)
        assert merged["simulators"] == 2
        assert merged["events"] == 2
        assert merged["labels"]["shared"]["count"] == 2
        assert merged["queue"]["pushes"] >= 2

    def test_profiler_and_telemetry_share_one_firing(self):
        from repro.telemetry.instrument import instrument_simulator

        sim = Simulator()
        tel = Telemetry(clock=sim.now)
        instrument_simulator(sim, tel)
        log = []
        tick = self._fake_clock()

        def clock():
            log.append("clock")
            return tick()

        prof = KernelProfiler(clock=clock).attach(sim)
        begin, end = tel.tracer.begin, tel.tracer.end

        def logged_begin(name, **kw):
            log.append("begin")
            return begin(name, **kw)

        def logged_end(span, **kw):
            log.append("end")
            return end(span, **kw)

        tel.tracer.begin, tel.tracer.end = logged_begin, logged_end

        def boom():
            raise RuntimeError("boom")

        def ok():
            sim.schedule_after(1.0, boom, label="boom")

        sim.schedule_at(1.0, ok, label="ok")
        log.clear()  # attach's own clock read
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

        # The profiler brackets the kernel span on both events, and the
        # raising event is still profiled and its span still closed.
        assert log == ["clock", "begin", "end", "clock"] * 2
        assert prof.events == 2
        assert prof.labels["ok"].count == prof.labels["boom"].count == 1
        assert prof.labels["boom"].wall_s == pytest.approx(0.001)
        assert "ok;boom" in prof.snapshot()["top_stacks"]
        kernel = [s for s in tel.tracer.spans if s.track == "kernel"]
        assert [(s.name, s.t_start, s.t_end) for s in kernel] == [
            ("ok", 1.0, 1.0), ("boom", 2.0, 2.0),
        ]
        # Only the event that returned counts as fired.
        assert tel.metrics.get("sim_events_total").total() == 1
        assert sim.events_processed == 1
        # The firing flags were reset: the simulator runs on.
        sim.schedule_at(3.0, lambda: None, label="after")
        sim.run()
        assert sim.events_processed == 2
        assert prof.labels["after"].count == 1

    def test_default_profiling_registry(self):
        registry = Simulator.install_default_profiling()
        try:
            sim = Simulator()
            sim.schedule_at(0.0, lambda: None, label="auto")
            sim.run()
        finally:
            Simulator.clear_default_profiling()
        assert len(registry) == 1
        assert "auto" in registry[0].labels
        # cleared: new simulators are not profiled
        assert Simulator().profiler is None


class TestCriticalPathReport:
    def test_empty_tracer_reports_cleanly(self):
        out = critical_path_report(RequestTracer())
        assert "no request traces recorded" in out

    def test_names_dominant_segment_per_miss(self):
        rt = RequestTracer()
        ctx = rt.start("tick", "r0", 0.0, deadline_s=0.1)
        rt.segment(ctx, "uplink", 0.0, 0.02)
        rt.segment(ctx, "queue_wait", 0.02, 0.25)
        rt.segment(ctx, "service", 0.25, 0.30)
        rt.finish(ctx, 0.30, status="miss")
        out = critical_path_report(rt)
        assert "deadline misses by dominant segment" in out
        assert "queue_wait" in out
        assert "misses by dominant segment: queue_wait=1" in out

    def test_no_misses_is_called_out(self):
        rt = RequestTracer()
        ctx = rt.start("tick", "r0", 0.0, deadline_s=1.0)
        rt.segment(ctx, "service", 0.0, 0.1)
        rt.finish(ctx, 0.1)
        out = critical_path_report(rt)
        assert "no deadline misses" in out


class TestTickTracing:
    """End-to-end: RobotTenant -> radio -> pool produces telescoping trees."""

    def _spec(self, name="r0", rate=5.0):
        return TenantSpec(
            name=name, cycles=1.4e9, threads=8, tick_rate_hz=rate, local_vdp_s=0.9
        )

    def _run(self, radio=True, n_tenants=1, until=4.0, scheduler="fifo"):
        sim = Simulator()
        tel = Telemetry(clock=sim.now)
        tel.enable_obs()
        tel.enable_slo()
        pool = make_pool(sim, n_workers=1, scheduler=scheduler, telemetry=tel)
        net = None
        if radio:
            net = FleetRadioNetwork((WapSite(0.0, 0.0),), wired_latency_s=0.02)
        tenants = []
        for i in range(n_tenants):
            name = f"r{i}"
            if net is not None:
                net.attach(name, (2.0 + i, 1.0))
            t = RobotTenant(
                sim, self._spec(name), pool, radio=net,
                phase_s=0.01 * i, telemetry=tel,
            )
            t.start()
            tenants.append(t)
        sim.run(until=until)
        return tel, tenants

    def test_every_finished_tick_reconciles(self):
        tel, tenants = self._run(radio=True)
        finished = tel.requests.finished("tick")
        assert finished, "no ticks completed"
        for tree in finished:
            if tree.status == "lost":
                continue
            assert tree.reconciles(tol_s=1e-9), (
                f"tick {tree.root.trace_id:x}: segments "
                f"{tree.by_segment()} != latency {tree.latency_s}"
            )
            assert set(tree.by_segment()) <= {
                "serialize", "uplink", "queue_wait", "service",
                "downlink", "actuate",
            }

    def test_radio_hop_nests_air_and_wired(self):
        tel, _ = self._run(radio=True)
        tree = tel.requests.finished("tick")[0]
        names = [s.name for s in tree.segments]
        assert "air" in names and "wired" in names
        # nested attribution stays out of the top level
        assert "air" not in [s.name for s in tree.top_segments()]

    def test_radioless_ticks_reconcile_too(self):
        tel, _ = self._run(radio=False)
        for tree in tel.requests.finished("tick"):
            assert tree.reconciles(tol_s=1e-9)
            assert "uplink" not in tree.by_segment()

    def test_slo_fed_from_completion_path(self):
        tel, _ = self._run(radio=True)
        assert tel.slo.tenants() == ("r0",)
        assert not math.isnan(tel.slo.p95("r0"))

    def test_eviction_closes_partial_segments(self):
        sim = Simulator()
        tel = Telemetry(clock=sim.now)
        tel.enable_obs()
        pool = make_pool(sim, n_workers=1, telemetry=tel)
        rt = tel.requests
        reqs = []
        for i in range(3):  # one active + two queued on the 1-worker pool
            r = req(tenant="r0", seq=i, threads=8)
            r.ctx = rt.start("tick", "r0", 0.0, deadline_s=0.2, seq=i)
            reqs.append(r)
        sim.schedule_at(0.0, lambda: [pool.submit(r, lambda *_: None) for r in reqs])
        sim.schedule_at(0.01, lambda: pool.workers[0].evict_all())
        sim.run(until=0.02)
        evicted = [
            s
            for r in reqs
            for s in rt.tree(r.ctx).segments
            if s.args.get("evicted")
        ]
        assert {s.name for s in evicted} == {"service", "queue_wait"}
        assert all(s.t_end == 0.01 for s in evicted)


class TestMigrationTracing:
    def test_committed_migration_records_phases(self):
        from repro.middleware import Graph, Node
        from repro.recovery import CheckpointStore, RecoveryConfig, TwoPhaseMigrator

        class StatefulNode(Node):
            def __init__(self):
                super().__init__("stateful")

            def state_size_bytes(self):
                return 1000

            def snapshot(self):
                return []

            def restore(self, state):
                pass

        class InstantTransport:
            def send(self, src, dst, n_bytes, now):
                return 0.001

            def rtt(self, a, b, n_bytes, now):
                return 0.002

        from repro.compute import TURTLEBOT3_PI

        sim = Simulator()
        tel = Telemetry(clock=sim.now)
        tel.enable_obs()
        graph = Graph(sim, InstantTransport())
        lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        gw = Host("gw", EDGE_GATEWAY)
        graph.add_node(StatefulNode(), lgv)
        cfg = RecoveryConfig(
            checkpoint_period_s=1.0, heartbeat_period_s=0.5, lease_ttl_s=1.2,
            prepare_timeout_s=0.1, commit_timeout_s=0.1, retry_delay_s=0.05,
            max_attempts=3, cooldown_s=2.0,
        )
        mig = TwoPhaseMigrator(
            graph, CheckpointStore(cfg.max_versions), cfg, telemetry=tel
        )
        assert mig.request("stateful", gw, reason="test") is True
        sim.run(until=5.0)
        trees = tel.requests.trees("migration")
        assert len(trees) == 1
        tree = trees[0]
        assert tree.finished and tree.status == "committed"
        assert {"prepare", "transfer", "commit"} <= set(tree.by_segment())
        assert tree.attrs["src"] == "lgv" and tree.attrs["dest"] == "gw"


class TestVdpTickTracing:
    def test_fig9_traces_reconcile(self):
        from repro.experiments.fig9_ecn import run_fig9

        tel = Telemetry()
        tel.enable_obs()
        run_fig9(telemetry=tel)
        trees = tel.requests.finished("vdp_tick")
        assert trees, "fig9 produced no vdp_tick traces"
        for tree in trees:
            assert tree.reconciles(tol_s=1e-9)
        remote = [t for t in trees if "uplink" in t.by_segment()]
        assert remote, "no offloaded tick carried an uplink segment"
        report = critical_path_report(tel.requests)
        assert "vdp_tick" in report


class TestDisabledObsIsInert:
    def test_plain_telemetry_has_no_obs_handles(self):
        tel = Telemetry()
        assert tel.requests is None and tel.slo is None

    def test_enable_is_idempotent(self):
        tel = Telemetry()
        assert tel.enable_obs() is tel.enable_obs()
        assert tel.enable_slo() is tel.enable_slo()

    def test_summary_counts_request_traces(self):
        tel = Telemetry()
        tel.enable_obs()
        ctx = tel.requests.start("tick", "r0", 0.0, deadline_s=0.1)
        tel.requests.segment(ctx, "service", 0.0, 0.3)
        tel.requests.finish(ctx, 0.3)
        assert "request traces: 1 (1 finished, 1 deadline misses)" in tel.summary()


class TestObservabilityNeverSteers:
    """Recording a run never changes what it computes: each serving
    builder returns the same result with telemetry, request traces and
    SLO monitoring on as with no telemetry at all."""

    @staticmethod
    def _serving():
        from repro.compute.platform import TURTLEBOT3_PI

        cycles = 1.4e9
        # tick rate, cycles, threads, local tick time, wired latency,
        # seed, radio on: the serving inputs of the bench's serve cells
        return (5.0, cycles, 8, cycles / TURTLEBOT3_PI.effective_hz, 0.02, 0, True)

    def test_traced_serving_equals_untraced(self):
        from dataclasses import asdict

        from repro.experiments.fleet_scale import serve_fleet_point
        from repro.experiments.geo import run_geo
        from repro.hybrid.experiment import _jsonable, serve_hybrid_point

        serving = self._serving()

        def fleet(admission):
            return lambda tel: _jsonable(asdict(serve_fleet_point(
                24, 2, "edf", "least-loaded", admission, 6.0, *serving, tel
            )))

        def hybrid(tel):
            return _jsonable(asdict(serve_hybrid_point(
                10_000, 8, 2, "ps", "least-loaded", True, 6.0, *serving, tel
            )))

        def geo(tel):
            return run_geo(
                cells=("site_outage",), sim_time_s=30.0, telemetry=tel
            ).to_json()

        breaches = 0
        for name, run in (
            ("fleet, admission on", fleet(True)),
            ("fleet, admission off", fleet(False)),
            ("hybrid", hybrid),
            ("geo site outage", geo),
        ):
            tel = Telemetry()
            tel.enable_obs()
            tel.enable_slo()
            assert run(tel) == run(None), name
            assert tel.requests.finished(), f"{name}: no request trace recorded"
            breaches += len(tel.slo.breaches)
        assert breaches, "no run breached its SLO, so none could have reacted"

    def test_admit_all_fleet_breach_record_is_pinned(self):
        """Every breach of the traced admit-all fleet cell, as
        ``(t, tenant, kind, burn_rate, p95_s)`` with floats in
        ``float.hex``: the one SLO output that reaches an artifact
        (the ``slo_breach`` instants of the trace)."""
        from repro.experiments.fleet_scale import serve_fleet_point

        tel = Telemetry()
        tel.enable_obs()
        tel.enable_slo()
        serve_fleet_point(
            24, 2, "edf", "least-loaded", False, 6.0, *self._serving(), tel
        )
        got = [
            (b.t.hex(), b.tenant, b.kind, b.burn_rate.hex(), b.p95_s.hex())
            for b in tel.slo.breaches
        ]
        b70, b65, b75 = "0x1.6666666666666p-1", "0x1.4cccccccccccdp-1", "0x1.8000000000000p-1"
        assert got == [
            ("0x1.0c166ef894c14p+2", "robot00", "slo_breach", b70, "0x1.74e84bb84d7c3p-2"),
            ("0x1.0d2c0e6d40735p+2", "robot02", "slo_breach", b65, "0x1.7131c399970ddp-2"),
            ("0x1.0dba32cb516f2p+2", "robot01", "slo_breach", b70, "0x1.6602afffda55ep-2"),
            ("0x1.0e9229bf9738fp+2", "robot04", "slo_breach", b65, "0x1.714c109cf06fep-2"),
            ("0x1.0e9c2510a118ep+2", "robot03", "slo_breach", b70, "0x1.6676d4ee63fe9p-2"),
            ("0x1.0f780a86531e6p+2", "robot05", "slo_breach", b70, "0x1.66f431fabd92cp-2"),
            ("0x1.0fbfac91595cbp+2", "robot06", "slo_breach", b70, "0x1.781112b6af63bp-2"),
            ("0x1.10a88d725ddf8p+2", "robot08", "slo_breach", b70, "0x1.73f9e0c0f67c4p-2"),
            ("0x1.1143eca4d9369p+2", "robot07", "slo_breach", b70, "0x1.6be5004590a8bp-2"),
            ("0x1.120e000255c98p+2", "robot10", "slo_breach", b70, "0x1.73788ce6aadf4p-2"),
            ("0x1.1213318b802e9p+2", "robot09", "slo_breach", b70, "0x1.6b7a07e6f3094p-2"),
            ("0x1.12fe058398197p+2", "robot11", "slo_breach", b75, "0x1.6c1aa933b31a5p-2"),
            ("0x1.132899ceb6e66p+2", "robot12", "slo_breach", b70, "0x1.797fb6af27a58p-2"),
            ("0x1.141bd2a018844p+2", "robot13", "slo_breach", b70, "0x1.70b5c72e97613p-2"),
            ("0x1.15701ff499a19p+2", "robot15", "slo_breach", b70, "0x1.71cc6af36a6afp-2"),
            ("0x1.158dd364083d9p+2", "robot16", "slo_breach", b70, "0x1.743b6daf571b2p-2"),
            ("0x1.1661c7ca6402dp+2", "robot18", "slo_breach", b70, "0x1.7a0c8daf1f25ep-2"),
            ("0x1.17d7fb6edfc89p+2", "robot20", "slo_breach", b70, "0x1.791289fa5fa75p-2"),
            ("0x1.18213ef69a338p+2", "robot19", "slo_breach", b75, "0x1.754f9109931a7p-2"),
            ("0x1.18f4c2c83803bp+2", "robot22", "slo_breach", b70, "0x1.7872ec677dfd1p-2"),
            ("0x1.19210c7d45a39p+2", "robot21", "slo_breach", b75, "0x1.73cf7837de695p-2"),
            ("0x1.1a0a8af607d81p+2", "robot23", "slo_breach", b75, "0x1.72ad2ce4982d1p-2"),
            ("0x1.2287d5a05c4c3p+2", "robot14", "slo_breach", b70, "0x1.7ae28b670c7afp-2"),
            ("0x1.2435e4fd406acp+2", "robot17", "slo_breach", b75, "0x1.81beb191e3a14p-2"),
        ]
