"""Tests for repro.sites: topology, selection, sessions, and handoff.

The integration tests drive the full serving plane — driving tenants,
2PC mobility handoffs over the backhaul, site outages, the
evacuate/degrade/re-offload ladder — and pin the exactly-once
contract (zero ``duplicate_completions``) through every path.
"""

from __future__ import annotations

import pytest

from repro.cloud import BatchPolicy, TenantSpec
from repro.compute.platform import TURTLEBOT3_PI
from repro.experiments.geo import run_geo
from repro.faults import FaultInjector, FaultPlan, SiteOutage
from repro.network.signal import link_quality, phy_rate
from repro.recovery import RecoveryConfig
from repro.sim import Simulator
from repro.sites import (
    EdgeSite,
    HandoffManager,
    SessionTable,
    SiteBackhaul,
    SiteSelector,
    SiteTopology,
    TenantSession,
)
from repro.sites.session import ALL_LOCAL, FULL_OFFLOAD
from repro.sites.topology import coverage_path_loss, triangle_city

LOCAL_VDP_S = 1.4e9 / TURTLEBOT3_PI.effective_hz

#: Fast recovery knobs so ladder transitions resolve in seconds.
FAST = RecoveryConfig(
    heartbeat_period_s=0.25,
    lease_ttl_s=0.8,
    prepare_timeout_s=0.3,
    commit_timeout_s=0.3,
    retry_delay_s=0.1,
    max_attempts=3,
    cooldown_s=2.0,
)


def _spec(name: str, threads: int = 4) -> TenantSpec:
    return TenantSpec(
        name=name,
        cycles=1.4e9,
        threads=threads,
        tick_rate_hz=5.0,
        local_vdp_s=LOCAL_VDP_S,
    )


def _city(sim, coverage_radius_m: float, n_workers: int = 2, batching=None):
    topology = triangle_city(
        sim,
        side_m=50.0,
        coverage_radius_m=coverage_radius_m,
        n_workers=n_workers,
        seed=0,
        batching=batching,
    )
    table = SessionTable(sim, SiteBackhaul(topology))
    selector = SiteSelector(topology)
    manager = HandoffManager(
        sim, topology, selector, table, config=FAST, check_period_s=0.25
    )
    manager.start()
    return topology, table, selector, manager


def _drive(sim, speed_mps: float = 1.5):
    """Position along the A->B edge, a pure function of virtual time."""

    def position() -> tuple[float, float]:
        return (min(50.0, speed_mps * sim.now()), 0.0)

    return position


def _parked(xy: tuple[float, float]):
    def position() -> tuple[float, float]:
        return xy

    return position


def _dup_completions(topology) -> int:
    return sum(s.pool.duplicate_completions for s in topology.sites)


class TestCoveragePathLoss:
    def test_quality_knee_sits_at_coverage_edge(self):
        for radius in (10.0, 16.0, 30.0):
            model = coverage_path_loss(radius)
            assert link_quality(model.rssi(radius)) == pytest.approx(0.5)
            assert link_quality(model.rssi(0.5 * radius)) > 0.95

    def test_radio_dies_past_the_fringe(self):
        model = coverage_path_loss(16.0)
        assert phy_rate(model.rssi(16.0)) > 0
        assert phy_rate(model.rssi(2.0 * 16.0)) == 0.0


class TestTopology:
    def test_covering_sorted_nearest_first(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        names = [s.name for s in topo.covering((22.0, 0.0))]
        assert names == ["siteA", "siteB"]

    def test_covering_excludes_down_sites(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        topo.site("siteA").gateway.up = False
        assert [s.name for s in topo.covering((22.0, 0.0))] == ["siteB"]

    def test_site_down_when_all_workers_dead(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        site = topo.site("siteC")
        for h in site.pool.worker_hosts():
            h.up = False
            site.pool.on_worker_down(h)
        assert not site.up

    def test_by_gateway_roundtrip(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=16.0)
        for s in topo.sites:
            assert topo.by_gateway(s.gateway.name) is s
        assert topo.by_gateway("nope") is None

    def test_duplicate_site_names_rejected(self):
        sim = Simulator()
        a = EdgeSite(sim, "dup", (0.0, 0.0))
        b = EdgeSite(sim, "dup", (10.0, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            SiteTopology([a, b])

    def test_backhaul_dead_endpoint_blows_the_timeout(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=16.0)
        bh = SiteBackhaul(topo)
        a, b = topo.site("siteA").gateway, topo.site("siteB").gateway
        alive = bh.rtt(a, b, 128, 0.0)
        assert alive < FAST.prepare_timeout_s
        b.up = False
        assert bh.send(a, b, 128, 0.0) is None
        assert bh.rtt(a, b, 128, 0.0) == bh.dead_rtt_s
        assert bh.rtt(a, b, 128, 0.0) > FAST.commit_timeout_s


class TestSelector:
    def test_no_coverage_returns_none(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=16.0)
        assert SiteSelector(topo).select((25.0, 0.0)) is None

    def test_unmeasured_site_competes_on_distance(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        sel = SiteSelector(topo, hysteresis=0.15)
        sel.observe("siteA", 0.05)
        # Decisively closer to the never-measured siteB: the optimistic
        # prior lets it win despite having no observations.
        assert sel.select((45.0, 0.0), current="siteA").name == "siteB"

    def test_hysteresis_keeps_marginal_incumbent(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        sel = SiteSelector(topo, hysteresis=0.15)
        sel.observe("siteA", 0.050)
        sel.observe("siteB", 0.048)  # inside the band
        assert sel.select((25.0, 1.0), current="siteA").name == "siteA"

    def test_decisively_faster_challenger_wins(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        sel = SiteSelector(topo, hysteresis=0.15)
        sel.observe("siteA", 0.100)
        sel.observe("siteB", 0.050)
        assert sel.select((25.0, 1.0), current="siteA").name == "siteB"

    def test_ewma_smooths_observations(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        sel = SiteSelector(topo, alpha=0.5)
        sel.observe("siteA", 0.1)
        sel.observe("siteA", 0.2)
        assert sel.response_time("siteA") == pytest.approx(0.15)

    def test_validation(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=16.0)
        with pytest.raises(ValueError, match="hysteresis"):
            SiteSelector(topo, hysteresis=1.0)
        with pytest.raises(ValueError, match="alpha"):
            SiteSelector(topo, alpha=0.0)


class TestSession:
    def test_host_setter_reassociates_radio(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        s = TenantSession(sim, _spec("r0"), topo, _parked((25.0, 0.0)))
        a, b = topo.site("siteA"), topo.site("siteB")
        s.host = a.gateway
        assert s.site is a and "r0" in a.radio.tenants()
        s.host = b.gateway
        assert s.site is b
        assert "r0" not in a.radio.tenants()
        assert "r0" in b.radio.tenants()
        s.host = None
        assert s.site is None and "r0" not in b.radio.tenants()

    def test_buffered_replay_keeps_original_issue_times(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        s = TenantSession(sim, _spec("r0"), topo, _parked((5.0, 0.0)))
        s.host = topo.site("siteA").gateway
        s.mode = FULL_OFFLOAD
        s.start()
        sim.run(until=1.0)
        s.begin_pause(buffer=True)
        sim.run(until=3.0)
        assert s.seq > 0
        s.end_pause()
        sim.run(until=5.0)
        # Ticks issued during the pause completed late: their latency
        # includes the pause, so the cost is visible, not vanished.
        paused_ticks = [
            lat
            for issued_at, lat, kind in s.tick_log
            if 1.0 <= issued_at < 3.0 and lat is not None
        ]
        assert paused_ticks and max(paused_ticks) > 1.0

    def test_degrade_serves_locally_at_local_vdp(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=16.0)
        s = TenantSession(sim, _spec("r0"), topo, _parked((25.0, 0.0)))
        s.start()
        sim.run(until=3.0)
        assert s.mode == ALL_LOCAL
        assert s.local_served > 0 and s.served == 0
        local = [lat for _, lat, kind in s.tick_log if kind == "local"]
        assert local and local[0] == pytest.approx(LOCAL_VDP_S)

    def test_degraded_windows_accounting(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        s = TenantSession(sim, _spec("r0"), topo, _parked((5.0, 0.0)))
        site = topo.site("siteA")
        s.offload_to(site)
        sim.run(until=1.0)
        s.degrade()
        sim.run(until=3.0)
        s.offload_to(site)
        sim.run(until=4.0)
        assert s.degraded_s(horizon=4.0) == pytest.approx(2.0)
        s.degrade()
        assert s.degraded_s(horizon=6.0) == pytest.approx(4.0)

    def test_max_service_gap_brackets_the_run(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        s = TenantSession(sim, _spec("r0"), topo, _parked((5.0, 0.0)))
        s.completion_times.extend([1.0, 1.5, 2.0])
        assert s.max_service_gap_s(horizon=10.0) == pytest.approx(8.0)

    def test_stats_stranded_flag(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        s = TenantSession(sim, _spec("r0"), topo, _parked((5.0, 0.0)))
        s.seq = 10  # ticked but never served anywhere
        assert s.stats(horizon=2.0).stranded

    def test_table_rejects_duplicate_registration(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=30.0)
        table = SessionTable(sim, SiteBackhaul(topo))
        s = TenantSession(sim, _spec("r0"), topo, _parked((5.0, 0.0)))
        table.add(s)
        with pytest.raises(ValueError, match="already registered"):
            table.add(s)


class TestMobilityHandoff:
    def test_driving_tenant_hands_off_via_2pc(self):
        sim = Simulator()
        topology, table, selector, manager = _city(sim, coverage_radius_m=30.0)
        s = TenantSession(
            sim, _spec("r0"), topology, _drive(sim), selector=selector
        )
        assert manager.add(s).name == "siteA"
        s.start()
        sim.run(until=40.0)
        assert manager.handoffs >= 1
        assert manager.migrator.commits == manager.handoffs
        assert manager.lease_expiries == 0
        assert s.site.name == "siteB"
        # The handoff pause is tens of ms, not lease-expiry seconds.
        assert max(manager.handoff_pauses_s) < 0.5
        assert s.max_service_gap_s(40.0) < 1.5
        assert _dup_completions(topology) == 0
        # Source admission released, destination holds the tenant.
        assert "r0" not in topology.site("siteA").controller.admitted
        assert "r0" in topology.site("siteB").controller.admitted

    def test_handoff_denied_by_admission_stays_put(self):
        sim = Simulator()
        topology, table, selector, manager = _city(
            sim, coverage_radius_m=30.0, n_workers=1
        )
        dest = topology.site("siteB")
        # Saturate siteB's gate so it cannot admit the mover.
        dest.controller.background_demand_cores = 10_000.0
        s = TenantSession(
            sim, _spec("r0"), topology, _parked((20.0, 0.0)), selector=selector
        )
        manager.add(s)
        s.start()
        # Make siteB look decisively faster so the selector wants to move.
        selector.observe("siteA", 0.5)
        selector.observe("siteB", 0.01)
        sim.run(until=10.0)
        assert manager.handoffs == 0
        assert s.site.name == "siteA"
        assert s.served > 0


class TestSiteOutageLadder:
    def test_overlap_tenant_evacuates_to_neighbor(self):
        sim = Simulator()
        # Coverage 35 m: the tenant at (20, 0) sits 30 m from siteB,
        # inside the usable-quality region (not at the knee edge).
        topology, table, selector, manager = _city(sim, coverage_radius_m=35.0)
        s = TenantSession(
            sim, _spec("r0"), topology, _parked((20.0, 0.0)), selector=selector
        )
        assert manager.add(s).name == "siteA"
        s.start()
        plan = FaultPlan((SiteOutage(start=5.0, duration=10.0, site="siteA"),))
        FaultInjector.for_sites(plan, topology).arm()
        sim.run(until=14.0)
        assert manager.lease_expiries >= 1
        assert manager.evacuations >= 1
        assert s.evacuations >= 1
        assert s.site.name == "siteB"
        assert s.mode == FULL_OFFLOAD
        # After the outage clears the selector re-ranks the nearer site
        # and hands the tenant back via an ordinary 2PC migration.
        sim.run(until=25.0)
        assert s.site.name == "siteA"
        assert s.max_service_gap_s(25.0) < 5.0
        assert _dup_completions(topology) == 0

    def test_sole_coverage_tenant_degrades_then_reoffloads(self):
        sim = Simulator()
        topology, table, selector, manager = _city(sim, coverage_radius_m=30.0)
        s = TenantSession(
            sim, _spec("r0"), topology, _parked((3.0, 0.0)), selector=selector
        )
        assert manager.add(s).name == "siteA"
        s.start()
        plan = FaultPlan((SiteOutage(start=5.0, duration=6.0, site="siteA"),))
        FaultInjector.for_sites(plan, topology).arm()
        sim.run(until=20.0)
        assert manager.degradations >= 1
        assert s.local_served > 0  # the ladder kept it alive locally
        assert manager.reoffloads >= 1  # and brought it back after clear
        assert s.mode == FULL_OFFLOAD
        assert s.site.name == "siteA"
        assert s.stats(20.0).degraded_s > 0
        assert _dup_completions(topology) == 0

    def test_dead_zone_crossing_uses_the_ladder_not_the_lease(self):
        sim = Simulator()
        topology, table, selector, manager = _city(sim, coverage_radius_m=16.0)
        s = TenantSession(
            sim, _spec("r0"), topology, _drive(sim), selector=selector
        )
        manager.add(s)
        s.start()
        sim.run(until=40.0)
        assert manager.degradations >= 1
        assert manager.reoffloads >= 1
        assert s.local_served > 0
        assert s.site is not None and s.site.name == "siteB"
        assert not s.stats(40.0).stranded
        assert _dup_completions(topology) == 0

    def test_outage_clear_restores_the_site(self):
        sim = Simulator()
        topology, table, selector, manager = _city(sim, coverage_radius_m=30.0)
        site = topology.site("siteB")
        plan = FaultPlan((SiteOutage(start=1.0, duration=2.0, site="siteB"),))
        FaultInjector.for_sites(plan, topology).arm()
        sim.run(until=1.5)
        assert not site.up
        assert not site.gateway.up
        sim.run(until=4.0)
        assert site.up
        assert site.pool.has_live_workers()

    def test_site_outage_requires_topology(self):
        sim = Simulator()
        topo = triangle_city(sim, side_m=50.0, coverage_radius_m=16.0)
        plan = FaultPlan((SiteOutage(start=1.0, site="siteA"),))
        inj = FaultInjector(
            sim, plan, server_hosts=topo.gateways()
        )
        with pytest.raises(ValueError, match="topology"):
            inj.arm()

    def test_site_outage_validation(self):
        with pytest.raises(ValueError, match="site"):
            SiteOutage(start=1.0)
        with pytest.raises(KeyError):
            sim = Simulator()
            topo = triangle_city(sim, side_m=50.0, coverage_radius_m=16.0)
            plan = FaultPlan((SiteOutage(start=1.0, site="nope"),))
            FaultInjector.for_sites(plan, topo).arm()


class TestRollbackWithBatching:
    """Satellite: destination dies mid-TRANSFER with batching enabled.

    The 2PC machinery must roll the session back to the source site,
    release the destination's admission reservation, replay the
    buffered ticks at the source — and the batched pools must not
    complete any request twice. Rollback must also be idempotent.
    """

    def _run(self):
        sim = Simulator()
        batching = BatchPolicy(max_size=4, max_wait_s=0.02, amortization=0.25)
        topology, table, selector, manager = _city(
            sim, coverage_radius_m=30.0, batching=batching
        )
        # Big session state -> a seconds-long TRANSFER window.
        s = TenantSession(
            sim,
            _spec("r0"),
            topology,
            _parked((25.0, 0.0)),
            selector=selector,
            session_state_bytes=400_000_000,
        )
        manager.add(s)
        s.start()
        src = topology.site(s.site.name)
        dest = next(x for x in topology.sites if x is not src and x.name != "siteC")
        # Kick off the handoff at t=1; kill the destination mid-TRANSFER.
        sim.schedule_at(1.0, lambda: manager._begin_handoff(s, src, dest))
        plan = FaultPlan((SiteOutage(start=3.0, site=dest.name),))
        FaultInjector.for_sites(plan, topology).arm()
        sim.run(until=30.0)
        return sim, topology, manager, s, src, dest

    def test_rollback_to_source_with_zero_duplicates(self):
        sim, topology, manager, s, src, dest = self._run()
        assert manager.migrator.aborts == 1
        assert manager.migrator.commits == 0
        assert manager.handoffs == 0
        # Rolled back: still placed (and serving) at the source.
        assert s.site is src
        assert s.mode == FULL_OFFLOAD
        late = [t for t in s.completion_times if t > 20.0]
        assert late  # serving resumed at the source after the abort
        assert _dup_completions(topology) == 0

    def test_destination_admission_released_on_abort(self):
        sim, topology, manager, s, src, dest = self._run()
        assert "r0" not in dest.controller.admitted
        assert "r0" in src.controller.admitted
        assert manager._pending == {}

    def test_rollback_is_idempotent(self):
        sim, topology, manager, s, src, dest = self._run()
        aborts = manager.migrator.aborts
        host_before = s.host
        assert not manager.migrator.abort("r0")  # already terminal: no-op
        assert manager.migrator.aborts == aborts
        assert s.host is host_before
        assert not s._paused


class TestRunGeo:
    def test_geo_matrix_is_deterministic(self):
        kwargs = dict(robots=3, sim_time_s=30.0, seed=0)
        a = run_geo(**kwargs)
        b = run_geo(**kwargs)
        assert a.to_json() == b.to_json()

    def test_geo_cells_and_verdicts(self):
        r = run_geo(robots=4, sim_time_s=60.0, seed=0)
        assert [c.cell for c in r.cells] == [
            "baseline",
            "site_outage",
            "dead_zone",
        ]
        assert r.resilient
        assert r.cell("baseline").handoffs > 0
        outage = r.cell("site_outage")
        assert outage.evacuations + outage.degradations > 0
        assert outage.duplicate_completions == 0
        dead = r.cell("dead_zone")
        assert dead.degradations > 0 and dead.reoffloads > 0
        for c in r.cells:
            assert all(not t.stranded for t in c.tenants)
            assert any(
                f is not None and f > 0.0 for _, f in c.survival
            )

    def test_geo_background_splits_across_site_pools(self):
        r = run_geo(
            robots=2,
            sim_time_s=20.0,
            seed=0,
            background=30,
            cells=("baseline",),
            scheduler="ps",
        )
        assert r.background == 30
        assert r.cell("baseline").duplicate_completions == 0

    @pytest.mark.parametrize("scheduler", ["fifo", "edf"])
    def test_geo_background_refuses_unvalidated_scheduler(self, scheduler):
        # the fluid background is validated only under processor sharing
        with pytest.raises(ValueError, match="ps scheduler"):
            run_geo(robots=1, sim_time_s=5.0, background=1, scheduler=scheduler)

    def test_unknown_cell_rejected(self):
        with pytest.raises(KeyError, match="unknown geo cell"):
            run_geo(robots=1, sim_time_s=5.0, cells=("nope",))
