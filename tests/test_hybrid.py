"""repro.hybrid + worker-side batching: contracts and regressions.

The two load-bearing properties are hypothesis-driven:

* batching with ``max_size=1`` is **byte-identical** to the unbatched
  path under every scheduler (the opt-in contract of
  :mod:`repro.cloud.batching`);
* a hybrid run with zero background tenants (``N - K == 0``)
  reports the plain fleet serving run **exactly**: both entry points
  summarize one shared builder's run, and the summaries must agree.

Both compare float-for-float, not approximately: any drift means an
extra or reordered DES event leaked in. The inertness contract of
:class:`repro.hybrid.FluidBackground` that makes the shared builder
exact is pinned directly by ``test_empty_background_is_inert``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    AdmissionController,
    BatchPolicy,
    RobotTenant,
    TenantSpec,
    WorkerPool,
    make_balancer,
    make_scheduler,
)
from repro.cloud.fleet import FleetServerModel
from repro.cloud.request import TickRequest
from repro.compute.host import Host
from repro.compute.platform import CLOUD_SERVER, TURTLEBOT3_PI
from repro.experiments.fleet_scale import run_fleet_chaos, serve_fleet_point
from repro.hybrid import (
    FluidBackground,
    admit_background,
    run_fleet_hybrid,
    serve_hybrid_point,
)
from repro.hybrid.experiment import _outcome_json, calibrate_fleet_model
from repro.sim.kernel import Simulator
from repro.telemetry import Telemetry

LOCAL_VDP_S = 1.4e9 / TURTLEBOT3_PI.effective_hz
SPEC_ARGS = dict(cycles=1.4e9, threads=8, tick_rate_hz=5.0)


def _serve(
    scheduler: str,
    batching: BatchPolicy | None,
    n_tenants: int,
    tick_rate_hz: float,
    sim_time_s: float = 3.0,
    synchronized: bool = False,
    telemetry: Telemetry | None = None,
) -> tuple[WorkerPool, list[RobotTenant]]:
    """A small one-worker serving run; returns the pool and tenants."""
    sim = Simulator()
    pool = WorkerPool(
        sim,
        [Host("cloud-vm0", CLOUD_SERVER)],
        make_scheduler(scheduler),
        make_balancer("round-robin"),
        telemetry=telemetry,
        batching=batching,
    )
    period = 1.0 / tick_rate_hz
    tenants = [
        RobotTenant(
            sim,
            TenantSpec(f"robot{i:02d}", 1.4e9, 8, tick_rate_hz, LOCAL_VDP_S),
            pool,
            phase_s=0.0 if synchronized else (i / n_tenants) * period,
            telemetry=telemetry,
        )
        for i in range(n_tenants)
    ]
    for t in tenants:
        t.start()
    sim.run(until=sim_time_s)
    return pool, tenants


# ---------------------------------------------------------------------------
# Property: batch_size=1 == unbatched, byte for byte, every scheduler
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    scheduler=st.sampled_from(["fifo", "edf", "ps"]),
    n_tenants=st.integers(min_value=1, max_value=6),
    tick_rate_hz=st.sampled_from([3.0, 5.0, 8.0]),
    max_wait_ms=st.floats(min_value=0.0, max_value=50.0),
    synchronized=st.booleans(),
)
def test_batch_size_one_is_byte_identical(
    scheduler, n_tenants, tick_rate_hz, max_wait_ms, synchronized
):
    pool_a, tenants_a = _serve(
        scheduler, None, n_tenants, tick_rate_hz, synchronized=synchronized
    )
    pool_b, tenants_b = _serve(
        scheduler,
        BatchPolicy(max_size=1, max_wait_s=max_wait_ms / 1000.0),
        n_tenants,
        tick_rate_hz,
        synchronized=synchronized,
    )
    for a, b in zip(tenants_a, tenants_b):
        assert b.latencies == a.latencies  # exact float equality
        assert b.completion_times == a.completion_times
        assert (b.seq, b.served, b.lost) == (a.seq, a.served, a.lost)
    assert pool_b.completed == pool_a.completed
    assert pool_b.submitted == pool_a.submitted


# ---------------------------------------------------------------------------
# Property: zero fluid background reproduces the fleet run exactly
# ---------------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    scheduler=st.sampled_from(["fifo", "edf", "ps"]),
    admission=st.booleans(),
    use_radio=st.booleans(),
)
def test_zero_background_matches_fleet_exactly(n, scheduler, admission, use_radio):
    # One builder serves both entry points: their summaries of the same
    # run must agree field for field.
    args = (
        n, 1, scheduler, "least-loaded", admission,
        8.0, 5.0, 1.4e9, 8, LOCAL_VDP_S, 0.02, 0, use_radio, None,
    )
    full = serve_fleet_point(*args)
    hybrid = serve_hybrid_point(n, *args)
    # TenantStats is a frozen dataclass: == is exact float equality on
    # every latency quantile, miss rate and velocity.
    assert hybrid.tenants == full.tenants
    assert hybrid.ticks == full.ticks
    assert hybrid.served == full.served
    assert hybrid.lost == full.lost
    assert hybrid.focal_admitted == full.admitted
    assert hybrid.focal_rejected == full.rejected
    assert hybrid.bg_admitted == 0
    assert hybrid.bg_demand_cores == 0.0
    assert hybrid.bg_deadline_ok


def test_empty_background_is_inert():
    """Zero background tenants schedule nothing, impose no demand and
    leave the gate's ledger alone, with or without a controller."""
    sim = Simulator()
    pool = WorkerPool(
        sim,
        [Host("cloud-vm0", CLOUD_SERVER)],
        make_scheduler("ps"),
        make_balancer("least-loaded"),
    )
    ctl = AdmissionController(pool, network_latency_s=0.02)
    assert ctl.request_admission(
        TenantSpec("robot00", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS)
    ).admitted
    admitted, decisions = dict(ctl.admitted), list(ctl.decisions)
    spec = TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS)
    for controller in (ctl, None):
        FluidBackground(sim, pool, spec, 0, controller=controller).attach()
        assert sim.queue_depth == 0
        assert pool.background_demand_cores == 0.0
        assert ctl.background_demand_cores == 0.0
        assert ctl.admitted == admitted
        assert ctl.decisions == decisions


@pytest.mark.parametrize("scheduler", ["fifo", "edf"])
def test_fluid_background_refuses_unvalidated_scheduler(scheduler):
    args = (
        64, 4, 1, scheduler, "least-loaded", True,
        2.0, 5.0, 1.4e9, 8, LOCAL_VDP_S, 0.02, 0, False, None,
    )
    with pytest.raises(ValueError, match="only with the ps scheduler"):
        serve_hybrid_point(*args)
    with pytest.raises(ValueError, match="only with the ps scheduler"):
        run_fleet_hybrid(tenants=64, focal=4, scheduler=scheduler)


def test_outcome_json_is_strict_json():
    out = serve_fleet_point(
        2, 1, "edf", "least-loaded", True,
        2.0, 5.0, 1.4e9, 8, LOCAL_VDP_S, 0.02, 0, False, None,
    )
    tenant = dataclasses.replace(out.tenants[0], p95_latency_s=math.nan)
    doc = _outcome_json(
        dataclasses.replace(out, worst_admitted_p95_s=math.nan, tenants=(tenant,))
    )
    json.dumps(doc, allow_nan=False)
    assert "policy" not in doc
    assert doc["worst_admitted_p95_s"] is None
    assert doc["tenants"][0]["p95_latency_s"] is None
    assert doc["tenants"][0]["tenant"] == tenant.tenant


# ---------------------------------------------------------------------------
# Aggregate background admission == sequential admission, bit for bit
# ---------------------------------------------------------------------------
def _fresh_controller() -> AdmissionController:
    sim = Simulator()
    pool = WorkerPool(
        sim,
        [Host("cloud-vm0", CLOUD_SERVER)],
        make_scheduler("ps"),
        make_balancer("round-robin"),
    )
    return AdmissionController(pool, network_latency_s=0.02)


@pytest.mark.parametrize("n", [0, 1, 5, 12, 30, 100])
def test_admit_background_matches_sequential(n):
    sequential = _fresh_controller()
    by_width: dict[int, int] = {}
    admitted = 0
    for i in range(n):
        d = sequential.request_admission(
            TenantSpec(f"bg{i:03d}", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS)
        )
        if d.admitted:
            admitted += 1
            granted = sequential.admitted[f"bg{i:03d}"].threads
            by_width[granted] = by_width.get(granted, 0) + 1
    seq_demand = sum(
        sequential._demand(s, s.threads) for s in sequential.admitted.values()
    )

    aggregate = _fresh_controller()
    result = admit_background(
        aggregate, TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS), n
    )
    assert result.admitted == admitted
    assert result.rejected == n - admitted
    assert dict(result.by_width) == by_width
    assert result.demand_cores == seq_demand  # same left-fold, same floats


def test_admit_background_counts_focal_demand():
    """The gate sees focal tenants admitted before the background."""
    ctl = _fresh_controller()
    for i in range(4):
        assert ctl.request_admission(
            TenantSpec(f"robot{i:02d}", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS)
        ).admitted
    alone = admit_background(
        _fresh_controller(),
        TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS),
        1000,
    )
    with_focal = admit_background(
        ctl, TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS), 1000
    )
    assert 0 < with_focal.admitted < alone.admitted


def test_background_demand_tightens_projections():
    ctl = _fresh_controller()
    ctl.background_demand_cores = 40.0  # > the 24-thread capacity
    d = ctl.request_admission(
        TenantSpec("robot00", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS)
    )
    assert not d.admitted


# ---------------------------------------------------------------------------
# The analytic model's DES calibration
# ---------------------------------------------------------------------------
def test_calibrate_fleet_model_matches_analytic_on_pristine_host():
    fitted = calibrate_fleet_model()
    analytic = FleetServerModel()
    assert fitted.calibrated_t_iso_s is not None
    # An uncontended FIFO worker charges exactly the execution model's
    # time per tick, so the fit lands on the analytic prior.
    assert fitted.t_iso_s() == pytest.approx(analytic.t_iso_s(), abs=1e-12)
    assert fitted.service_time(1).vdp_time_s == pytest.approx(
        analytic.service_time(1).vdp_time_s, abs=1e-12
    )


def test_calibrate_fleet_model_pins_the_default_fit():
    # The bits of the standalone calibration run this builder replaced.
    fitted = calibrate_fleet_model()
    assert fitted.calibrated_t_iso_s == float.fromhex("0x1.bb3a121a07880p-5")


def test_calibrate_fleet_model_raises_when_no_tick_completes():
    with pytest.raises(RuntimeError, match="completed no ticks"):
        calibrate_fleet_model(vdp_cycles=5e10, threads=1, tick_rate_hz=10.0)


def test_calibrated_t_iso_overrides_analytic():
    m = FleetServerModel(calibrated_t_iso_s=0.1)
    assert m.t_iso_s() == 0.1
    assert m.service_time(1).vdp_time_s == pytest.approx(0.1 + 0.04)


# ---------------------------------------------------------------------------
# Batching mechanics
# ---------------------------------------------------------------------------
def test_batching_coalesces_synchronized_tenants():
    pol = BatchPolicy(max_size=4, max_wait_s=0.03, amortization=0.25)
    pool, tenants = _serve("fifo", pol, 4, 5.0, synchronized=True)
    batches, batched = pool.batch_stats()
    assert batches >= 1
    assert batched / batches > 1.0  # real coalescing happened
    assert all(t.served > 0 for t in tenants)
    # Amortization must beat serial service: 4 synchronized 8-wide
    # ticks on 24 threads queue under FIFO unbatched, but one batch of
    # 4 runs in 1.75 * t_iso.
    _, unbatched = _serve("fifo", None, 4, 5.0, synchronized=True)
    worst_batched = max(max(t.latencies) for t in tenants)
    worst_unbatched = max(max(t.latencies) for t in unbatched)
    assert worst_batched < worst_unbatched


def test_batching_deadline_bound_flushes_early():
    # A huge staging window cannot hold a request past its deadline:
    # the deadline bound flushes the stage immediately instead.
    pol = BatchPolicy(max_size=8, max_wait_s=10.0)
    pool, tenants = _serve("fifo", pol, 1, 5.0)
    assert tenants[0].served == tenants[0].seq
    assert all(lat <= 0.2 for lat in tenants[0].latencies)


def test_batch_occupancy_reported_through_telemetry():
    tel = Telemetry()
    pol = BatchPolicy(max_size=4, max_wait_s=0.03)
    _serve("fifo", pol, 4, 5.0, synchronized=True, telemetry=tel)
    hist = tel.metrics.get("cloud_batch_occupancy")
    assert hist is not None


def test_batch_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(max_size=0)
    with pytest.raises(ValueError):
        BatchPolicy(amortization=0.0)
    with pytest.raises(ValueError):
        BatchPolicy(max_wait_s=-1.0)
    assert BatchPolicy().duration(0.1, 1) == 0.1
    assert BatchPolicy(amortization=0.25).duration(0.1, 5) == pytest.approx(0.2)
    assert BatchPolicy(amortization=0.25).speedup(5) == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# Satellite: exactly-once completion accounting
# ---------------------------------------------------------------------------
def test_completed_request_is_never_served_twice():
    sim = Simulator()
    pool = WorkerPool(
        sim,
        [Host("cloud-vm0", CLOUD_SERVER)],
        make_scheduler("fifo"),
        make_balancer("round-robin"),
    )
    done: list[float] = []
    req = TickRequest("robot00", 1, 1.4e9, 8, 0.2, issued_at=0.0)
    pool.submit(req, lambda r, t: done.append(t))
    sim.run(until=1.0)
    assert len(done) == 1 and pool.completed == 1 and req.completed
    # An evicted-then-resubmitted request that in fact already
    # completed (the crash-split-batch shape) must not count again.
    pool.submit(req, lambda r, t: done.append(t))
    sim.run(until=2.0)
    assert len(done) == 1
    assert pool.completed == 1
    assert sum(w.served for w in pool.workers) == 1


def test_chaos_crash_splitting_batches_conserves_completions():
    """Regression vs the chaos matrix: a mid-run worker crash that
    splits staged/active batches must re-serve every rider exactly
    once — no tenant records more served ticks than it issued and the
    pool suppresses zero-or-more stale duplicates, never double-counts.
    """
    res = run_fleet_chaos(
        robots=6,
        workers=2,
        scheduler="fifo",
        sim_time_s=16.0,
        batching=BatchPolicy(max_size=4, max_wait_s=0.05),
    )
    assert res.success
    assert res.duplicate_completions == 0
    for t in res.tenants:
        assert t.served <= t.ticks
        assert t.served > 0


def test_chaos_unbatched_still_clean():
    res = run_fleet_chaos(robots=4, workers=2, sim_time_s=12.0)
    assert res.success
    assert res.duplicate_completions == 0


# ---------------------------------------------------------------------------
# FluidBackground behaviour
# ---------------------------------------------------------------------------
def test_fluid_background_stretches_focal_service():
    lean = serve_hybrid_point(
        8, 8, 1, "ps", "least-loaded", False,
        8.0, 5.0, 1.4e9, 8, LOCAL_VDP_S, 0.02, 0, False, None,
    )
    loaded = serve_hybrid_point(
        48, 8, 1, "ps", "least-loaded", False,
        8.0, 5.0, 1.4e9, 8, LOCAL_VDP_S, 0.02, 0, False, None,
    )
    assert loaded.worst_focal_p95_s > lean.worst_focal_p95_s
    assert loaded.utilization > lean.utilization
    assert not loaded.bg_deadline_ok  # 40 fluid tenants drown one worker


def test_fluid_background_demand_spreads_and_withdraws():
    sim = Simulator()
    hosts = [Host(f"cloud-vm{i}", CLOUD_SERVER) for i in range(2)]
    pool = WorkerPool(
        sim, hosts, make_scheduler("ps"), make_balancer("least-loaded")
    )
    bg = FluidBackground(
        sim, pool,
        TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS),
        10,
    )
    result = bg.attach()
    assert result.admitted == 10
    assert pool.background_demand_cores > 0
    share = pool.background_demand_cores / 2
    assert all(w.background_load == share for w in pool.workers)
    bg.detach()
    assert pool.background_demand_cores == 0.0
    assert all(w.background_load == 0.0 for w in pool.workers)


def test_fluid_background_migrates_off_dead_worker():
    sim = Simulator()
    hosts = [Host(f"cloud-vm{i}", CLOUD_SERVER) for i in range(2)]
    pool = WorkerPool(
        sim, hosts, make_scheduler("ps"), make_balancer("least-loaded")
    )
    bg = FluidBackground(
        sim, pool,
        TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS),
        6,
    )
    bg.attach()
    total = pool.background_demand_cores
    hosts[0].up = False
    pool.on_worker_down(hosts[0])
    assert pool.workers[0].background_load == 0.0
    assert pool.workers[1].background_load == pytest.approx(total)


def _pool(sim, n_workers: int, tag: str) -> WorkerPool:
    hosts = [Host(f"{tag}-vm{i}", CLOUD_SERVER) for i in range(n_workers)]
    return WorkerPool(
        sim, hosts, make_scheduler("ps"), make_balancer("least-loaded")
    )


def test_fluid_background_splits_across_pools_by_capacity():
    sim = Simulator()
    pools = [_pool(sim, 2, "a"), _pool(sim, 1, "b")]
    controllers = [AdmissionController(p) for p in pools]
    bg = FluidBackground(
        sim, pools[0],
        TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS),
        12,
        controller=controllers[0],
        pools=pools,
        controllers=controllers,
    )
    bg.attach()
    total = sum(p.background_demand_cores for p in pools)
    assert total > 0
    # Live-capacity proportional: the 2-worker pool takes 2/3.
    assert pools[0].background_demand_cores == pytest.approx(total * 2 / 3)
    assert pools[1].background_demand_cores == pytest.approx(total / 3)
    # Each site's admission gate sees its own share, not the total.
    for p, c in zip(pools, controllers):
        assert c.background_demand_cores == p.background_demand_cores
    bg.detach()
    assert all(p.background_demand_cores == 0.0 for p in pools)
    assert all(c.background_demand_cores == 0.0 for c in controllers)


def test_fluid_background_single_entry_pools_matches_plain():
    spec_args = dict(local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS)
    sim_a = Simulator()
    plain_pool = _pool(sim_a, 2, "cloud")
    plain = FluidBackground(sim_a, plain_pool, TenantSpec("background", **spec_args), 10)
    plain.attach()
    sim_b = Simulator()
    listed_pool = _pool(sim_b, 2, "cloud")
    listed = FluidBackground(
        sim_b, listed_pool, TenantSpec("background", **spec_args), 10,
        pools=[listed_pool],
    )
    listed.attach()
    # Exact equality: the one-pool list must take the scalar code path.
    assert listed_pool.background_demand_cores == plain_pool.background_demand_cores
    assert [w.background_load for w in listed_pool.workers] == [
        w.background_load for w in plain_pool.workers
    ]


def test_fluid_background_rebalance_shifts_share_to_survivors():
    sim = Simulator()
    pools = [_pool(sim, 1, "a"), _pool(sim, 1, "b")]
    bg = FluidBackground(
        sim, pools[0],
        TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS),
        8,
        pools=pools,
    )
    bg.attach()
    total = sum(p.background_demand_cores for p in pools)
    assert pools[0].background_demand_cores == pytest.approx(total / 2)
    # Pool b's only worker dies: its share must flow to pool a.
    dead = pools[1].worker_hosts()[0]
    dead.up = False
    pools[1].on_worker_down(dead)
    bg.rebalance()
    assert pools[1].background_demand_cores == 0.0
    assert pools[0].background_demand_cores == pytest.approx(total)


def test_fluid_background_multi_pool_validation():
    sim = Simulator()
    pools = [_pool(sim, 1, "a"), _pool(sim, 1, "b")]
    spec = TenantSpec("background", local_vdp_s=LOCAL_VDP_S, **SPEC_ARGS)
    with pytest.raises(ValueError, match="pools\\[0\\]"):
        FluidBackground(sim, pools[0], spec, 4, pools=[pools[1], pools[0]])
    with pytest.raises(ValueError, match="controllers"):
        FluidBackground(
            sim, pools[0], spec, 4, pools=pools,
            controllers=[AdmissionController(pools[0])],
        )


def test_jittered_background_is_deterministic():
    kwargs = dict(
        tenants=600, focal=4, workers=1, sim_time_s=6.0, jitter=0.1, seed=3
    )
    a = run_fleet_hybrid(**kwargs)
    b = run_fleet_hybrid(**kwargs)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# Hybrid experiment end-to-end
# ---------------------------------------------------------------------------
def test_run_fleet_hybrid_shape_and_determinism():
    r = run_fleet_hybrid(tenants=2000, focal=4, workers=1, sim_time_s=6.0)
    assert r.admission.focal_admitted == 4
    assert r.admission.bg_admitted > 0
    assert r.admission.admitted < 2000  # the gate actually gates
    assert r.admit_all.bg_admitted == 1996
    assert not r.admit_all.deadline_ok  # admit-all at N=2000 must drown
    assert r.calibrated_t_iso_s > 0
    again = run_fleet_hybrid(tenants=2000, focal=4, workers=1, sim_time_s=6.0)
    assert again.to_json() == r.to_json()


def test_hybrid_recalibration_tracks_derated_service():
    """Calibration closes the loop: with batching amortizing real DES
    service, the observed/predicted ratio drops below 1 and the
    imposed fluid demand follows it down.
    """
    r = run_fleet_hybrid(
        tenants=400,
        focal=8,
        workers=1,
        sim_time_s=10.0,
        batching=BatchPolicy(max_size=4, max_wait_s=0.03),
        use_radio=False,
    )
    # With batching on, ticks coalesce and per-request observed time
    # shrinks; the calibration ratio must have moved off its prior.
    assert r.admission.cal_ratio != 1.0


def test_hybrid_scales_to_many_tenants_quickly():
    r = run_fleet_hybrid(tenants=100_000, focal=8, workers=1, sim_time_s=4.0)
    assert r.admission.bg_admitted + r.admission.bg_rejected == 99_992
    assert r.admission.served > 0
    assert math.isfinite(r.admission.bg_p95_s)
