"""Tests for repro.cloud: pool, schedulers, balancers, admission —
plus the DES <-> analytical cross-validation against
repro.cloud.fleet and the fig13-path identity check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    AdmissionController,
    AffinityBalancer,
    BatchPolicy,
    LeastLoadedBalancer,
    RobotTenant,
    RoundRobinBalancer,
    TenantSpec,
    TickRequest,
    WorkerPool,
    make_balancer,
    make_scheduler,
)
from repro.cloud.fleet import FleetServerModel
from repro.compute import CLOUD_SERVER, EDGE_GATEWAY, Host
from repro.compute.executor import DWA_PROFILE
from repro.control.velocity_law import max_velocity_oa
from repro.faults import FaultInjector, FaultPlan, LinkOutage, ServerCrash
from repro.sim.kernel import Simulator
from repro.telemetry import Telemetry


def req(tenant="r0", seq=0, cycles=1e9, threads=8, deadline=0.2, issued=0.0):
    return TickRequest(
        tenant=tenant,
        seq=seq,
        cycles=cycles,
        threads=threads,
        deadline_s=deadline,
        issued_at=issued,
    )


def make_pool(sim, n_workers=1, scheduler="fifo", balancer="round-robin",
              platform=EDGE_GATEWAY, telemetry=None, batching=None):
    hosts = [Host(f"cloud-vm{i}", platform) for i in range(n_workers)]
    return WorkerPool(
        sim, hosts, make_scheduler(scheduler), make_balancer(balancer),
        telemetry=telemetry, batching=batching,
    )


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            req(threads=0)
        with pytest.raises(ValueError):
            req(deadline=0.0)
        with pytest.raises(ValueError):
            req(cycles=-1.0)

    def test_absolute_deadline(self):
        r = req(issued=3.0, deadline=0.25)
        assert r.absolute_deadline == pytest.approx(3.25)


class TestSchedulers:
    def test_fifo_picks_head(self):
        s = make_scheduler("fifo")
        q = [req(seq=i, issued=float(i)) for i in range(3)]
        # equal keys: the worker's arrival seq decides, so the head starts
        assert len({s.key(r) for r in q}) == 1

    def test_edf_picks_earliest_deadline(self):
        s = make_scheduler("edf")
        slow = req(tenant="slow", issued=0.0, deadline=1.0)
        urgent = req(tenant="urgent", issued=0.0, deadline=0.1)
        assert s.key(urgent) < s.key(slow)

    def test_edf_ties_stable(self):
        sim = Simulator()
        pool = make_pool(sim, scheduler="edf")
        order = []
        pool.submit(req(tenant="busy", threads=8), lambda r, t: order.append(r.tenant))
        tied = [f"t{i}" for i in range(6)]
        for name in tied:  # identical deadlines, all queued behind "busy"
            pool.submit(req(tenant=name, threads=8), lambda r, t: order.append(r.tenant))
        sim.run(until=10.0)
        assert order == ["busy", *tied]

    def test_ps_has_no_queue(self):
        with pytest.raises(RuntimeError):
            make_scheduler("ps").key(req())

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("lottery")


class TestBalancers:
    def _workers(self, n=3):
        sim = Simulator()
        return make_pool(sim, n_workers=n).workers

    def test_round_robin_cycles(self):
        ws = self._workers(3)
        b = RoundRobinBalancer()
        picks = [b.pick(ws, req(), 0.0).host.name for _ in range(6)]
        assert picks == [w.host.name for w in ws] * 2

    def test_least_loaded_prefers_idle(self):
        ws = self._workers(2)
        ws[0].submit(req(threads=8), lambda r, t: None)  # load worker 0
        b = LeastLoadedBalancer()
        assert b.pick(ws, req(), 0.0) is ws[1]

    def test_affinity_is_sticky_and_deterministic(self):
        ws = self._workers(4)
        b = AffinityBalancer()
        first = b.pick(ws, req(tenant="robot07"), 0.0)
        for _ in range(5):
            assert b.pick(ws, req(tenant="robot07"), 0.0) is first

    def test_affinity_spreads_tenants(self):
        ws = self._workers(4)
        b = AffinityBalancer()
        homes = {
            b.pick(ws, req(tenant=f"robot{i:02d}"), 0.0).host.name
            for i in range(32)
        }
        assert len(homes) >= 3  # rendezvous hashing actually spreads

    def test_affinity_only_remaps_crashed_tenants(self):
        ws = self._workers(4)
        b = AffinityBalancer()
        before = {
            f"robot{i:02d}": b.pick(ws, req(tenant=f"robot{i:02d}"), 0.0)
            for i in range(16)
        }
        dead = ws[0]
        alive = [w for w in ws if w is not dead]
        for name, home in before.items():
            after = b.pick(alive, req(tenant=name), 0.0)
            if home is not dead:
                assert after is home  # survivors keep their tenants

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_balancer("random")


class TestPoolWorkerQueueing:
    def test_single_request_costs_exec_time(self):
        sim = Simulator()
        pool = make_pool(sim)
        done = []
        pool.submit(req(threads=8), lambda r, t: done.append(t))
        sim.run(until=10.0)
        expected = pool.workers[0].host.exec_time(1e9, 8, DWA_PROFILE)
        assert done == [pytest.approx(expected)]

    def test_full_width_requests_serialize(self):
        sim = Simulator()
        pool = make_pool(sim)  # EDGE_GATEWAY: 8 hardware threads
        done = []
        pool.submit(req(seq=0, threads=8), lambda r, t: done.append((r.seq, t)))
        pool.submit(req(seq=1, threads=8), lambda r, t: done.append((r.seq, t)))
        sim.run(until=10.0)
        t_iso = pool.workers[0].host.exec_time(1e9, 8, DWA_PROFILE)
        assert [s for s, _ in done] == [0, 1]
        assert done[0][1] == pytest.approx(t_iso)
        assert done[1][1] == pytest.approx(2 * t_iso)

    def test_edf_reorders_queue(self):
        sim = Simulator()
        pool = make_pool(sim, scheduler="edf")
        order = []
        # occupy the worker so the next three actually queue
        pool.submit(req(tenant="first", threads=8), lambda r, t: order.append(r.tenant))
        pool.submit(
            req(tenant="lax", threads=8, deadline=9.0),
            lambda r, t: order.append(r.tenant),
        )
        pool.submit(
            req(tenant="mid", threads=8, deadline=5.0),
            lambda r, t: order.append(r.tenant),
        )
        pool.submit(
            req(tenant="urgent", threads=8, deadline=1.0),
            lambda r, t: order.append(r.tenant),
        )
        sim.run(until=30.0)
        assert order == ["first", "urgent", "mid", "lax"]

    def test_no_backfill_behind_blocked_head(self):
        sim = Simulator()
        pool = make_pool(sim)
        order = []
        pool.submit(req(tenant="w4", threads=4), lambda r, t: order.append(r.tenant))
        pool.submit(req(tenant="w8", threads=8), lambda r, t: order.append(r.tenant))
        pool.submit(req(tenant="w1", threads=1), lambda r, t: order.append(r.tenant))
        # w8 cannot start beside w4, and w1 must NOT jump the queue
        assert pool.workers[0].queue_depth() == 2
        sim.run(until=30.0)
        assert order == ["w4", "w8", "w1"]

    def test_occupancy_accounting(self):
        sim = Simulator()
        pool = make_pool(sim)
        host = pool.workers[0].host
        pool.submit(req(threads=4), lambda r, t: None)
        assert host.inflight_threads == 4
        sim.run(until=10.0)
        assert host.inflight_threads == 0
        with pytest.raises(RuntimeError, match="vacated more threads"):
            host.vacate(1)  # an accounting fault, not a silent negative


class TestQueueOrder:
    """The queue order a worker's heap must keep: batches by their most
    urgent rider, crash victims in arrival order."""

    def test_batch_is_as_urgent_as_its_most_urgent_rider(self):
        sim = Simulator()
        pool = make_pool(
            sim, scheduler="edf", batching=BatchPolicy(max_size=2, max_wait_s=0.01)
        )
        order = []

        def submit_at(t, tenant, cycles, deadline):
            r = req(tenant=tenant, cycles=cycles, deadline=deadline, issued=t)
            sim.schedule_at(
                t, lambda: pool.submit(r, lambda done, _: order.append(done.tenant))
            )

        submit_at(0.0, "busy", 1e9, 10.0)  # alone: starts at t=0.01
        submit_at(0.02, "queued", 2e9, 5.0)  # its own shape: queues behind busy
        # one batch: the lax rider first, then one due before "queued"
        submit_at(0.04, "lax", 1e9, 9.0)
        submit_at(0.04, "urgent", 1e9, 1.0)
        sim.run(until=0.04)
        assert pool.workers[0].inflight() == 1
        assert pool.workers[0].queue_depth() == 3
        sim.run(until=10.0)
        assert order == ["busy", "lax", "urgent", "queued"]

    def test_evict_all_returns_active_then_arrival_order_then_staged(self):
        sim = Simulator()
        pool = make_pool(
            sim, scheduler="edf", batching=BatchPolicy(max_size=2, max_wait_s=1.0)
        )
        w = pool.workers[0]
        names = []
        # pair j0 runs; pairs j1..j3 queue, due in reverse arrival order
        for i, deadline in enumerate([50.0, 30.0, 20.0, 10.0]):
            for rider in "ab":
                names.append(f"j{i}{rider}")
                w.submit(
                    req(tenant=names[-1], cycles=(i + 1) * 1e9, deadline=deadline),
                    lambda r, t: None,
                )
        names.append("staged")
        w.submit(req(tenant="staged", cycles=5e9, deadline=60.0), lambda r, t: None)
        assert w.inflight() == 2 and w.queue_depth() == 7
        assert [r.tenant for r, _ in w.evict_all()] == names
        assert w.inflight() == w.queue_depth() == 0 and w.load() == 0.0


class TestPoolWorkBound:
    """A worker's event cost must not grow with its backlog. Counting
    deadline reads makes that a deterministic check: an overloaded
    admit-all fleet may read each request's deadline a bounded number
    of times, however deep its queues grow."""

    @pytest.mark.parametrize("scheduler", ["fifo", "edf"])
    def test_deadline_reads_per_request_are_bounded(self, monkeypatch, scheduler):
        from repro.compute.platform import TURTLEBOT3_PI
        from repro.experiments.fleet_scale import serve_fleet_point

        reads = 0
        deadline = TickRequest.absolute_deadline

        def counted(r):
            nonlocal reads
            reads += 1
            return deadline.fget(r)

        pools = []
        init = WorkerPool.__init__

        def capture(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pools.append(self)

        monkeypatch.setattr(TickRequest, "absolute_deadline", property(counted))
        monkeypatch.setattr(WorkerPool, "__init__", capture)
        serve_fleet_point(
            64, 2, scheduler, "least-loaded", False, 5.0, 5.0, 1.4e9, 8,
            1.4e9 / TURTLEBOT3_PI.effective_hz, 0.02, 0, True, None,
        )
        (pool,) = pools
        assert pool.queue_depth() > 500  # far past the knee: deep backlog
        assert reads <= 2 * pool.submitted
        if scheduler == "edf":
            assert reads > 0  # the counting property is really in place


def _recount(w):
    """(load, queue depth, inflight, active width) summed afresh from its jobs."""
    queued = [job for _, _, job in w._queue]
    width = sum(j.width for j in w._active)
    return (
        (width + sum(j.width for j in queued) + w.background_load) / w.capacity,
        sum(j.size for j in queued) + sum(len(s.members) for s in w._stages.values()),
        sum(j.size for j in w._active),
        width,
    )


_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=1, max_value=8),
            st.sampled_from([5e8, 1e9]),
            st.floats(min_value=0.01, max_value=2.0),
        ),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.3)),
        st.tuples(st.just("crash_or_restore"), st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("background"), st.floats(min_value=0.0, max_value=12.0)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(
    scheduler=st.sampled_from(["fifo", "edf", "ps"]),
    batched=st.booleans(),
    steps=_STEPS,
)
def test_load_counters_match_a_recount(scheduler, batched, steps):
    """Every worker's O(1) load signals equal the sums over its jobs
    after any mix of submits, progress, crashes and background shifts."""
    sim = Simulator()
    pool = make_pool(
        sim, n_workers=2, scheduler=scheduler, balancer="least-loaded",
        batching=BatchPolicy(max_size=4) if batched else None,
    )
    for seq, (kind, *args) in enumerate(steps):
        if kind == "submit":
            threads, cycles, deadline = args
            r = req(seq=seq, cycles=cycles, threads=threads, deadline=deadline,
                    issued=sim.now())
            pool.submit(r, lambda r, t: None)
        elif kind == "advance":
            sim.run(until=sim.now() + args[0])
        elif kind == "crash_or_restore":
            host = pool.workers[args[0]].host
            host.up = not host.up
            if host.up:
                pool.on_worker_up(host)
            else:
                pool.on_worker_down(host)
        else:
            pool.set_background_demand(args[0])
        for w in pool.workers:
            load, depth, inflight, width = _recount(w)
            assert (w.load(), w.queue_depth(), w.inflight()) == (load, depth, inflight)
            assert w.host.inflight_threads == width


class TestPoolWorkerProcessorSharing:
    def test_overload_stretches_everyone(self):
        sim = Simulator()
        pool = make_pool(sim, scheduler="ps")
        done = []
        t_iso = pool.workers[0].host.exec_time(1e9, 8, DWA_PROFILE)
        pool.submit(req(tenant="a", threads=8), lambda r, t: done.append(t))
        pool.submit(req(tenant="b", threads=8), lambda r, t: done.append(t))
        sim.run(until=10.0)
        # demand 16 on 8 threads -> rate 1/2 -> both finish at 2 * t_iso
        assert done == [pytest.approx(2 * t_iso), pytest.approx(2 * t_iso)]

    def test_underload_runs_at_full_rate(self):
        sim = Simulator()
        pool = make_pool(sim, scheduler="ps")
        done = []
        t_iso = pool.workers[0].host.exec_time(1e9, 4, DWA_PROFILE)
        pool.submit(req(tenant="a", threads=4), lambda r, t: done.append(t))
        pool.submit(req(tenant="b", threads=4), lambda r, t: done.append(t))
        sim.run(until=10.0)
        assert done == [pytest.approx(t_iso), pytest.approx(t_iso)]

    def test_late_arrival_slows_inflight_job(self):
        sim = Simulator()
        pool = make_pool(sim, scheduler="ps")
        done = {}
        t_iso = pool.workers[0].host.exec_time(1e9, 8, DWA_PROFILE)
        pool.submit(req(tenant="a", threads=8), lambda r, t: done.setdefault("a", t))
        sim.schedule_at(
            t_iso / 2,
            lambda: pool.submit(
                req(tenant="b", threads=8, issued=t_iso / 2),
                lambda r, t: done.setdefault("b", t),
            ),
        )
        sim.run(until=10.0)
        # a: half alone + half at rate 1/2 -> 1.5 * t_iso total
        assert done["a"] == pytest.approx(1.5 * t_iso)
        # b: t_iso/2 at rate 1/2 then alone -> finishes at 2 * t_iso
        assert done["b"] == pytest.approx(2 * t_iso)


class TestWorkerPool:
    def test_counters(self):
        sim = Simulator()
        pool = make_pool(sim, n_workers=2, balancer="least-loaded")
        for i in range(4):
            pool.submit(req(seq=i), lambda r, t: None)
        sim.run(until=10.0)
        assert pool.submitted == 4
        assert pool.completed == 4
        assert sum(w.served for w in pool.workers) == 4

    def test_crash_rebalances_to_survivor(self):
        sim = Simulator()
        pool = make_pool(sim, n_workers=2, balancer="least-loaded")
        done = []
        pool.submit(req(tenant="a", threads=8), lambda r, t: done.append(r))
        victim = next(
            w for w in pool.workers if w.inflight() == 1
        )
        victim.host.up = False
        assert pool.on_worker_down(victim.host) == 1
        sim.run(until=10.0)
        assert len(done) == 1
        assert done[0].rebalances == 1
        assert pool.rebalanced == 1
        survivor = next(w for w in pool.workers if w is not victim)
        assert survivor.served == 1 and victim.served == 0

    def test_all_down_parks_then_replays(self):
        sim = Simulator()
        pool = make_pool(sim, n_workers=1)
        host = pool.workers[0].host
        host.up = False
        done = []
        pool.submit(req(), lambda r, t: done.append(t))
        assert not done and pool.queue_depth() == 0  # parked, not queued
        sim.run(until=1.0)
        assert not done
        host.up = True
        pool.on_worker_up(host)
        sim.run(until=10.0)
        assert len(done) == 1

    def test_select_host_least_loaded(self):
        sim = Simulator()
        pool = make_pool(sim, n_workers=2)
        pool.workers[0].submit(req(threads=8), lambda r, t: None)
        assert pool.select_host("amcl") is pool.workers[1].host

    def test_select_host_no_live_worker_raises(self):
        sim = Simulator()
        pool = make_pool(sim)
        pool.workers[0].host.up = False
        with pytest.raises(RuntimeError):
            pool.select_host("amcl")

    def test_needs_a_host(self):
        with pytest.raises(ValueError):
            WorkerPool(
                Simulator(), [], make_scheduler("fifo"), make_balancer("round-robin")
            )

    def test_construction_announces_each_host_once(self):
        sim = Simulator()
        tel = Telemetry()
        make_pool(sim, n_workers=3, telemetry=tel)
        names = ["cloud-vm0", "cloud-vm1", "cloud-vm2"]
        assert [(ev.t, ev.kind, ev.get("worker")) for ev in tel.events.events] == [
            (0.0, "pool_worker_added", name) for name in names
        ]
        assert tel.metrics.get("cloud_pool_workers").value() == 3
        util = tel.metrics.get("cloud_pool_utilization")
        assert util.label_sets() == [f"worker={name}" for name in names]

    def test_telemetry_labels_per_tenant(self):
        sim = Simulator()
        tel = Telemetry()
        pool = make_pool(sim, telemetry=tel)
        pool.submit(req(tenant="robot00"), lambda r, t: None)
        pool.submit(req(tenant="robot01"), lambda r, t: None)
        sim.run(until=10.0)
        c = tel.metrics.get("cloud_requests_total")
        assert c.value(tenant="robot00", outcome="served") == 1
        assert c.value(tenant="robot01", outcome="served") == 1


class TestFaultWiring:
    """repro.faults -> pool integration (the ServerCrash rebalance)."""

    def test_for_pool_server_crash_rebalances(self):
        sim = Simulator()
        pool = make_pool(sim, n_workers=2, balancer="round-robin")
        done = []
        plan = FaultPlan(
            (ServerCrash(start=0.001, restart_after=1.0, host="cloud-vm0"),)
        )
        FaultInjector.for_pool(plan, pool).arm()
        pool.submit(req(tenant="a", threads=8), lambda r, t: done.append(r))
        sim.run(until=10.0)
        assert len(done) == 1
        assert done[0].rebalances == 1
        assert pool.workers[0].host.up  # restarted

    def test_for_pool_rejects_network_faults(self):
        sim = Simulator()
        pool = make_pool(sim)
        inj = FaultInjector.for_pool(FaultPlan((LinkOutage(start=1.0),)), pool)
        with pytest.raises(ValueError, match="fabric"):
            inj.arm()

    def test_crash_with_no_restart_parks_requests(self):
        sim = Simulator()
        pool = make_pool(sim, n_workers=1)
        done = []
        FaultInjector.for_pool(
            FaultPlan((ServerCrash(start=0.001),)), pool
        ).arm()
        pool.submit(req(), lambda r, t: done.append(t))
        sim.run(until=5.0)
        assert not done  # stranded: the only worker never came back

    def test_all_workers_down_parks_then_replays_on_restart(self):
        # Satellite regression: with EVERY worker crashed there is no
        # survivor to rebalance onto — requests must park, then drain
        # on the first restart, in submission order, losing nothing.
        sim = Simulator()
        pool = make_pool(sim, n_workers=2, balancer="round-robin")
        done = []
        plan = FaultPlan(
            (
                ServerCrash(start=0.001, host="cloud-vm0"),  # never restarts
                ServerCrash(start=0.001, restart_after=2.0, host="cloud-vm1"),
            )
        )
        FaultInjector.for_pool(plan, pool).arm()
        for i in range(3):
            pool.submit(
                req(tenant=f"r{i}", seq=i), lambda r, t, i=i: done.append((i, t))
            )
        sim.run(until=1.0)
        assert not done  # parked: the whole pool is dark
        assert not pool.has_live_workers()
        sim.run(until=10.0)
        assert sorted(i for i, _ in done) == [0, 1, 2]  # nothing lost
        assert all(t >= 2.0 for _, t in done)  # nothing served before restart
        assert pool.has_live_workers()


class TestAdmissionController:
    SPEC = dict(cycles=1.4e9, threads=8, tick_rate_hz=5.0, local_vdp_s=1.0)

    def _controller(self, workers=1):
        sim = Simulator()
        pool = make_pool(sim, n_workers=workers, platform=CLOUD_SERVER)
        return AdmissionController(pool, network_latency_s=0.02)

    def test_fills_then_downgrades_then_rejects(self):
        ac = self._controller()
        outcomes = [
            ac.request_admission(TenantSpec(f"r{i:02d}", **self.SPEC))
            for i in range(14)
        ]
        assert all(d.admitted for d in outcomes[:9])
        assert any(d.downgraded for d in outcomes)
        assert any(not d.admitted for d in outcomes)
        # decisions are monotone here: once rejected, later ones reject too
        admitted_flags = [d.admitted for d in outcomes]
        first_reject = admitted_flags.index(False)
        assert not any(admitted_flags[first_reject:])

    def test_admitted_tenants_stay_under_deadline(self):
        ac = self._controller()
        for i in range(20):
            ac.request_admission(TenantSpec(f"r{i:02d}", **self.SPEC))
        util = ac.projected_utilization()
        assert util <= ac.max_utilization
        for spec in ac.admitted.values():
            assert ac.projected_p95(spec, spec.threads, util) <= spec.deadline_s

    def test_admission_beats_local_velocity(self):
        ac = self._controller()
        d = ac.request_admission(TenantSpec("r00", **self.SPEC))
        assert d.admitted
        v_local = max_velocity_oa(1.0, hardware_cap=1.0)
        assert d.projected_velocity_mps > v_local

    def test_rejects_when_local_already_better(self):
        ac = self._controller()
        # local tick is already fast: the cloud's 2 * 20 ms RTT alone
        # makes offloading a losing trade for this tenant
        fast_local = TenantSpec(
            "speedy", cycles=1e7, threads=1, tick_rate_hz=5.0,
            local_vdp_s=0.005,
        )
        d = ac.request_admission(fast_local)
        assert not d.admitted

    def test_one_utilization_projection_per_width_tried(self):
        ac = self._controller()
        project = ac.projected_utilization
        widths = []

        def counted(extra=None):
            widths.append(extra[1])
            return project(extra)

        ac.projected_utilization = counted
        ladder = ac._width_ladder(self.SPEC["threads"])
        decisions = []
        for i in range(14):
            widths.clear()
            d = ac.request_admission(TenantSpec(f"r{i:02d}", **self.SPEC))
            decisions.append(d)
            if d.admitted:
                # The protection check reuses the width's projection.
                assert widths == ladder[: ladder.index(d.threads) + 1]
            else:
                # Every width once, then the width-1 projection reported.
                assert widths == ladder + [1]
        assert any(d.downgraded for d in decisions)
        assert not decisions[-1].admitted

    def test_release_frees_capacity(self):
        ac = self._controller()
        decisions = [
            ac.request_admission(TenantSpec(f"r{i:02d}", **self.SPEC))
            for i in range(14)
        ]
        assert not decisions[-1].admitted
        for name in list(ac.admitted):
            ac.release(name)
        again = ac.request_admission(TenantSpec("r13", **self.SPEC))
        assert again.admitted and again.threads == 8

    def test_no_live_workers_rejects(self):
        ac = self._controller()
        ac.pool.workers[0].host.up = False
        d = ac.request_admission(TenantSpec("r00", **self.SPEC))
        assert not d.admitted and d.reason == "no live workers"

    def test_build_request_uses_granted_width(self):
        ac = self._controller()
        for i in range(10):
            ac.request_admission(TenantSpec(f"r{i:02d}", **self.SPEC))
        downgraded = [d for d in ac.decisions if d.downgraded]
        assert downgraded
        name = downgraded[0].tenant
        r = ac.build_request(name, seq=1, now=2.0)
        assert r.threads == downgraded[0].threads < 8
        assert r.issued_at == 2.0


class TestFleetCrossValidation:
    """Satellite 1: the DES processor-sharing worker agrees with the
    analytical FleetServerModel within tolerance in its stable region,
    and reproduces the saturation knee past it."""

    TICK = 5.0
    CYCLES = 1.4e9

    def _des_mean_latency(self, n_robots, threads, sim_time_s=12.0):
        sim = Simulator()
        pool = make_pool(sim, scheduler="ps", platform=CLOUD_SERVER)
        period = 1.0 / self.TICK
        tenants = [
            RobotTenant(
                sim,
                TenantSpec(
                    f"r{i:02d}", self.CYCLES, threads, self.TICK, 1.0
                ),
                pool,
                phase_s=(i / n_robots) * period,
            )
            for i in range(n_robots)
        ]
        for t in tenants:
            t.start()
        sim.run(until=sim_time_s)
        lats = [v for t in tenants for v in t.latencies]
        assert lats, "no tick completed"
        return sum(lats) / len(lats)

    @pytest.mark.parametrize("n_robots", [1, 4, 8, 12, 16])
    def test_stable_region_matches_fluid_model(self, n_robots):
        # threads=4 keeps rho(16) ~ 0.97: inside the stable region
        model = FleetServerModel(
            server=CLOUD_SERVER,
            vdp_cycles=self.CYCLES,
            threads=4,
            tick_rate_hz=self.TICK,
            network_latency_s=0.0,
        )
        analytic = model.service_time(n_robots)
        assert analytic.utilization < 1.0
        des = self._des_mean_latency(n_robots, threads=4)
        assert des == pytest.approx(analytic.vdp_time_s, rel=0.15)

    def test_knee_appears_past_analytic_saturation(self):
        # threads=8 saturates near n = 11; past it the open-loop DES
        # queue diverges while below it latency stays at t_iso
        model = FleetServerModel(
            server=CLOUD_SERVER,
            vdp_cycles=self.CYCLES,
            threads=8,
            tick_rate_hz=self.TICK,
            network_latency_s=0.0,
        )
        t_iso = model.service_time(1).vdp_time_s
        assert model.service_time(16).utilization > 1.0
        below = self._des_mean_latency(4, threads=8)
        above = self._des_mean_latency(16, threads=8)
        assert below == pytest.approx(t_iso, rel=0.15)
        assert above > 1.3 * t_iso


class TestFig13Identity:
    """Acceptance: one tenant on one dedicated FIFO worker reproduces
    the single-robot offloaded tick quantity of the fig13 path."""

    def test_identity(self):
        from repro.experiments.fleet_scale import _identity_check

        check = _identity_check(
            cycles=1.4e9, threads=8, tick_rate_hz=5.0, wired_latency_s=0.02
        )
        host = Host("cloud", CLOUD_SERVER)
        fig13_tick = host.exec_time(1.4e9, 8, DWA_PROFILE) + 2 * 0.02
        assert check.exact
        assert check.expected_vdp_s == pytest.approx(fig13_tick)
        assert check.measured_mean_s == pytest.approx(
            host.exec_time(1.4e9, 8, DWA_PROFILE)
        )


class TestFleetExperiment:
    def test_small_sweep_deterministic_and_protective(self):
        from repro.experiments.fleet_scale import run_fleet

        a = run_fleet(robots=4, workers=1, sim_time_s=8.0)
        b = run_fleet(robots=4, workers=1, sim_time_s=8.0)
        assert a.to_json() == b.to_json()
        assert a.admission_always_protects
        assert a.identity.exact

    def test_empty_fleet_is_refused(self):
        from repro.experiments.fleet_scale import serve_fleet_point

        with pytest.raises(ValueError, match="focal"):
            serve_fleet_point(
                0, 1, "edf", "least-loaded", True, 2.0, 5.0, 1.4e9, 8,
                1.0, 0.02, 0, False, None,
            )

    def test_fleet_chaos_recovers(self):
        from repro.experiments.fleet_scale import run_fleet_chaos

        res = run_fleet_chaos(robots=4, workers=2, sim_time_s=12.0)
        assert res.success
        assert not res.stranded
        for t in res.tenants:
            assert t.served > 0

    def test_pool_worker_crash_chaos_cell(self):
        from repro.experiments.chaos import run_chaos

        m = run_chaos(scenarios=("pool_worker_crash",))
        cell = m.run("pool_worker_crash")
        assert cell.success
        assert cell.distance_m == 0.0
