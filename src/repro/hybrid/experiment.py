"""The hybrid fleet experiment: K focal DES tenants + N−K fluid load.

``python -m repro fleet --hybrid --tenants N --focal K`` runs the
serving layer at fleet sizes the pure DES cannot touch: the K focal
robots are simulated tick by tick (radio, queueing/sharing, batching,
telemetry — everything), while the other N−K tenants press on the
same pool through a calibrated :class:`~repro.hybrid.FluidBackground`.
Cost scales with K and the admission loop's O(N), so N=10^5–10^6 runs
in seconds.

Both admission policies are reported, mirroring
:mod:`repro.experiments.fleet_scale`:

* **admission** — focal tenants pass the Eq. 2c gate one by one (the
  same sequential prefix a full-DES run would produce), then the
  background population is ruled on in aggregate, bit-equal to
  sequential admission (:mod:`repro.hybrid.admission`);
* **admit-all** — everyone in: the fluid demand is the full N−K
  population and the focal tenants measure what that does to service.

A point's ``deadline_ok`` combines both halves: the focal verdict is
*measured* (every admitted focal tenant's p95 within its deadline),
the background verdict is the fluid projection
(:meth:`~repro.hybrid.FluidBackground.p95_s` within the deadline).

Every single-pool serving run is built by :func:`_run_serving` here.
The plain fleet experiment is the case ``N == K``, where the
background is empty and inert; its identity check, its worker-crash
chaos cell and the analytic model's DES calibration
(:func:`calibrate_fleet_model`) are the same build with one tenant, or
with a fault plan armed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.cloud import (
    AdmissionController,
    BatchPolicy,
    RobotTenant,
    TenantSpec,
    TenantStats,
    WorkerPool,
    make_balancer,
    make_scheduler,
)
from repro.cloud.fleet import FleetServerModel
from repro.compute.host import Host
from repro.compute.platform import CLOUD_SERVER, TURTLEBOT3_PI
from repro.control.velocity_law import max_velocity_oa
from repro.faults import FaultInjector, FaultPlan
from repro.hybrid.admission import BackgroundAdmission
from repro.hybrid.background import FluidBackground
from repro.network.fabric import FleetRadioNetwork
from repro.network.signal import WapSite
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

#: Ring radius (m) robots park at around their WAP: well inside the
#: solid-signal zone, so radio loss stays a small deterministic tail.
_PARK_RADIUS_M = 5.0


def _jsonable(x: Any) -> Any:
    """NaN -> None at any depth, so an artifact stays strict JSON."""
    if isinstance(x, float) and math.isnan(x):
        return None
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _outcome_json(outcome: Any, **extra: Any) -> Any:
    """A policy outcome for an artifact: every dataclass field but
    ``policy`` (the artifact keys outcomes by it), plus ``extra``."""
    fields = asdict(outcome)
    del fields["policy"]
    return _jsonable({**fields, **extra})


@dataclass(frozen=True)
class HybridOutcome:
    """One hybrid serving run under one admission policy."""

    policy: str  # "admission" | "admit-all"
    n_tenants: int
    focal: int
    # focal half (measured)
    focal_admitted: int
    focal_downgraded: int
    focal_rejected: int
    ticks: int
    served: int
    lost: int
    worst_focal_p95_s: float
    focal_deadline_ok: bool
    # background half (fluid)
    bg_admitted: int
    bg_downgraded: int
    bg_rejected: int
    bg_demand_cores: float
    cal_ratio: float
    bg_p95_s: float
    bg_deadline_ok: bool
    # pool-wide
    utilization: float
    batches: int
    batched_requests: int
    duplicate_completions: int
    tenants: tuple[TenantStats, ...]

    @property
    def deadline_ok(self) -> bool:
        """Both halves hold: measured focal and projected background."""
        return self.focal_deadline_ok and self.bg_deadline_ok

    @property
    def admitted(self) -> int:
        """Total admitted tenants, focal + fluid."""
        return self.focal_admitted + self.bg_admitted

    @property
    def batch_occupancy(self) -> float:
        """Mean requests per executed batch (NaN when unbatched)."""
        if self.batches == 0:
            return math.nan
        return self.batched_requests / self.batches


@dataclass(frozen=True)
class HybridResult:
    """Both policies at one hybrid fleet size."""

    tenants: int
    focal: int
    workers: int
    scheduler: str
    balancer: str
    seed: int
    sim_time_s: float
    tick_rate_hz: float
    threads: int
    local_vdp_s: float
    calibrated_t_iso_s: float
    batching: BatchPolicy | None
    admission: HybridOutcome
    admit_all: HybridOutcome

    def render(self) -> str:
        pol = self.batching
        batch_line = (
            f"batching max_size={pol.max_size} max_wait={pol.max_wait_s * 1e3:.0f} ms "
            f"amortization={pol.amortization:.2f}"
            if pol is not None
            else "batching off"
        )
        lines = [
            f"Hybrid fleet: N={self.tenants} tenants ({self.focal} focal DES, "
            f"{self.tenants - self.focal} fluid) on {self.workers} x "
            f"{CLOUD_SERVER.name}, {self.scheduler} scheduler, {batch_line}",
            f"  calibrated t_iso {self.calibrated_t_iso_s:.4f} s "
            f"({self.tick_rate_hz:.0f} Hz ticks, deadline "
            f"{1.0 / self.tick_rate_hz:.2f} s)",
        ]
        for o in (self.admission, self.admit_all):
            occ = (
                f", batch occupancy {o.batch_occupancy:.2f}"
                if o.batches
                else ""
            )
            lines.append(
                f"  {o.policy}: admitted {o.admitted}/{o.n_tenants} "
                f"(focal {o.focal_admitted}/{o.focal}, "
                f"fluid {o.bg_admitted}/{o.n_tenants - o.focal}); "
                f"util {o.utilization:.2f}, focal p95 "
                f"{o.worst_focal_p95_s:.3f} s, fluid p95 {o.bg_p95_s:.3f} s "
                f"-> {'ok' if o.deadline_ok else 'DEADLINE BLOWN'}{occ}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "meta": {
                "tenants": self.tenants,
                "focal": self.focal,
                "workers": self.workers,
                "scheduler": self.scheduler,
                "balancer": self.balancer,
                "seed": self.seed,
                "sim_time_s": self.sim_time_s,
                "tick_rate_hz": self.tick_rate_hz,
                "threads": self.threads,
                "local_vdp_s": self.local_vdp_s,
                "calibrated_t_iso_s": self.calibrated_t_iso_s,
                "server": CLOUD_SERVER.name,
                "batching": (
                    asdict(self.batching) if self.batching is not None else None
                ),
            },
            "policies": {
                o.policy: _outcome_json(
                    o, batch_occupancy=o.batch_occupancy, deadline_ok=o.deadline_ok
                )
                for o in (self.admission, self.admit_all)
            },
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, so equal runs are bit-identical."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
        return path


# ----------------------------------------------------------------------
# The serving builder
# ----------------------------------------------------------------------
def _tenant_name(i: int) -> str:
    return f"robot{i:02d}"


def _build_radio(
    n_robots: int, wired_latency_s: float, seed: int
) -> tuple[FleetRadioNetwork, dict[str, tuple[float, float]]]:
    """Two-WAP access layer with robots parked on rings around them."""
    waps = (WapSite(0.0, 0.0), WapSite(40.0, 0.0))
    radio = FleetRadioNetwork(waps, wired_latency_s=wired_latency_s, seed=seed)
    positions: dict[str, tuple[float, float]] = {}
    for i in range(n_robots):
        wap = waps[i % len(waps)]
        angle = 2.399963229728653 * i  # golden-angle spacing, no overlap
        positions[_tenant_name(i)] = (
            wap.x + _PARK_RADIUS_M * math.cos(angle),
            wap.y + _PARK_RADIUS_M * math.sin(angle),
        )
    return radio, positions


@dataclass(frozen=True)
class _ServingRun:
    """A finished serving run, for its caller to summarize."""

    sim: Simulator
    pool: WorkerPool
    background: FluidBackground
    bg_admission: BackgroundAdmission
    deadline_s: float
    #: The admitted focal tenants, in index order.
    tenants: tuple[RobotTenant, ...]
    #: Every focal robot's stats: the rejected ones (held at their local
    #: tick time and velocity) first, then the admitted ones, each in
    #: index order. Float sums over it must keep this order.
    stats: tuple[TenantStats, ...]
    rejected: int
    downgraded: int

    @property
    def admitted_stats(self) -> tuple[TenantStats, ...]:
        return self.stats[self.rejected :]

    @property
    def worst_p95_s(self) -> float:
        """Worst p95 among the admitted tenants served at all (NaN if none)."""
        p95s = [s.p95_latency_s for s in self.admitted_stats if s.served > 0]
        return max(p95s) if p95s else math.nan

    @property
    def deadline_ok(self) -> bool:
        """Someone was admitted and every admitted tenant held its deadline."""
        admitted = self.admitted_stats
        return bool(admitted) and all(
            s.served > 0 and s.p95_latency_s <= self.deadline_s for s in admitted
        )


def _run_serving(
    n_tenants: int,
    focal: int,
    workers: int,
    scheduler: str,
    balancer: str,
    admission: bool,
    sim_time_s: float,
    tick_rate_hz: float,
    cycles: float,
    threads: int,
    local_vdp_s: float,
    wired_latency_s: float,
    seed: int,
    use_radio: bool,
    telemetry: "Telemetry | None",
    batching: BatchPolicy | None = None,
    model: FleetServerModel | None = None,
    recalibrate_every_s: float = 1.0,
    jitter: float = 0.0,
    faults: FaultPlan | None = None,
) -> _ServingRun:
    """Serve ``focal`` DES tenants and ``n_tenants - focal`` fluid ones.

    A fresh simulator, a pool of ``workers`` hosts ``cloud-vm{i}`` and
    an Eq. 2c gate. With ``admission`` the focal robots pass the gate
    one by one in index order and the background is then ruled on in
    aggregate; without it everyone is in at the requested width.
    ``n_tenants == focal`` is the plain fleet: the background is empty
    and inert. ``faults`` is armed on the pool after the tenants are
    built and before they start.
    """
    if not 0 < focal <= n_tenants:
        raise ValueError(
            f"need 0 < focal <= tenants, got focal={focal} tenants={n_tenants}"
        )
    if n_tenants > focal and scheduler != "ps":
        raise ValueError(
            "a fluid background is validated only with the ps scheduler, "
            f"not {scheduler!r} (docs/hybrid.md)"
        )
    sim = Simulator()
    hosts = [Host(f"cloud-vm{i}", CLOUD_SERVER) for i in range(workers)]
    pool = WorkerPool(
        sim,
        hosts,
        make_scheduler(scheduler),
        make_balancer(balancer),
        telemetry=telemetry,
        batching=batching,
    )
    controller = AdmissionController(
        pool, network_latency_s=wired_latency_s, telemetry=telemetry
    )
    radio: FleetRadioNetwork | None = None
    if use_radio:
        radio, positions = _build_radio(focal, wired_latency_s, seed)

    period = 1.0 / tick_rate_hz
    tenants: list[RobotTenant] = []
    stats: list[TenantStats] = []
    rejected = downgraded = 0
    v_local = max_velocity_oa(local_vdp_s, hardware_cap=1.0)
    for i in range(focal):
        spec = TenantSpec(
            _tenant_name(i), cycles, threads, tick_rate_hz, local_vdp_s
        )
        if admission:
            decision = controller.request_admission(spec)
            if not decision.admitted:
                rejected += 1
                # The robot stays on its own silicon: local tick time,
                # local Eq. 2c velocity, no cloud traffic at all.
                stats.append(
                    TenantStats(
                        tenant=spec.name,
                        threads=0,
                        ticks=0,
                        served=0,
                        lost=0,
                        mean_latency_s=local_vdp_s,
                        p95_latency_s=local_vdp_s,
                        deadline_miss_rate=0.0,
                        velocity_mps=v_local,
                    )
                )
                continue
            if decision.downgraded:
                downgraded += 1
            granted = controller.admitted[spec.name]
        else:
            granted = spec
        if radio is not None:
            radio.attach(spec.name, positions[spec.name])
        tenants.append(
            RobotTenant(
                sim,
                granted,
                pool,
                radio=radio,
                # Focal tenants keep the phases they would have in the
                # full-DES fleet of the same size N, so their burst
                # pattern matches the run they stand in for.
                phase_s=(i / n_tenants) * period,
                telemetry=telemetry,
            )
        )
    background = FluidBackground(
        sim,
        pool,
        TenantSpec("background", cycles, threads, tick_rate_hz, local_vdp_s),
        n_tenants - focal,
        controller=controller if admission else None,
        model=model,
        recalibrate_every_s=recalibrate_every_s,
        jitter=jitter,
        seed=seed,
        telemetry=telemetry,
    )
    bg_admission = background.attach()
    if faults is not None:
        FaultInjector.for_pool(faults, pool, telemetry=telemetry).arm()
    for t in tenants:
        t.start()
    sim.run(until=sim_time_s)
    stats.extend(t.stats() for t in tenants)
    return _ServingRun(
        sim=sim,
        pool=pool,
        background=background,
        bg_admission=bg_admission,
        deadline_s=period,
        tenants=tuple(tenants),
        stats=tuple(stats),
        rejected=rejected,
        downgraded=downgraded,
    )


def calibrate_fleet_model(
    vdp_cycles: float = 1.4e9,
    threads: int = 8,
    tick_rate_hz: float = 5.0,
    network_latency_s: float = 0.02,
) -> FleetServerModel:
    """Fit the analytic model's service time from a short DES run.

    Serves one tenant for eight tick periods on one uncontended FIFO
    ``CLOUD_SERVER`` worker (no radio, no admission, no background) and
    takes the mean measured tick latency as ``calibrated_t_iso_s`` —
    the DES is the ground truth, so whatever the serving layer actually
    charges per tick lands in the fluid model instead of being
    re-derived from platform constants. On a pristine host this
    reproduces the analytical ``exec_time`` to float noise (pinned in
    ``tests/test_hybrid.py``).
    """
    # local_vdp_s and seed only feed admission and the radio, both off.
    run = _run_serving(
        n_tenants=1, focal=1, workers=1, scheduler="fifo",
        balancer="round-robin", admission=False,
        sim_time_s=8 / tick_rate_hz + 1e-9, tick_rate_hz=tick_rate_hz,
        cycles=vdp_cycles, threads=threads, local_vdp_s=1.0,
        wired_latency_s=network_latency_s, seed=0, use_radio=False,
        telemetry=None,
    )
    latencies = run.tenants[0].latencies
    if not latencies:
        raise RuntimeError("calibration run completed no ticks")
    return FleetServerModel(
        vdp_cycles=vdp_cycles,
        threads=threads,
        tick_rate_hz=tick_rate_hz,
        network_latency_s=network_latency_s,
        calibrated_t_iso_s=sum(latencies) / len(latencies),
    )


# ----------------------------------------------------------------------
# One hybrid serving run
# ----------------------------------------------------------------------
def serve_hybrid_point(
    n_tenants: int,
    focal: int,
    workers: int,
    scheduler: str,
    balancer: str,
    admission: bool,
    sim_time_s: float,
    tick_rate_hz: float,
    cycles: float,
    threads: int,
    local_vdp_s: float,
    wired_latency_s: float,
    seed: int,
    use_radio: bool,
    telemetry: "Telemetry | None",
    batching: BatchPolicy | None = None,
    model: FleetServerModel | None = None,
    recalibrate_every_s: float = 1.0,
    jitter: float = 0.0,
) -> HybridOutcome:
    """One hybrid fleet size under one policy; a fresh simulator.

    ``focal`` robots run in full DES and ``n_tenants - focal`` as fluid
    demand. A non-empty background needs the ``ps`` scheduler, the only
    one its fidelity is validated for; ``n_tenants == focal`` is the
    plain fleet run under any scheduler.
    """
    run = _run_serving(
        n_tenants, focal, workers, scheduler, balancer, admission,
        sim_time_s, tick_rate_hz, cycles, threads, local_vdp_s,
        wired_latency_s, seed, use_radio, telemetry, batching=batching,
        model=model, recalibrate_every_s=recalibrate_every_s, jitter=jitter,
    )
    focal_stats = run.admitted_stats
    bg = run.bg_admission
    batches, batched_requests = run.pool.batch_stats()
    return HybridOutcome(
        policy="admission" if admission else "admit-all",
        n_tenants=n_tenants,
        focal=focal,
        focal_admitted=len(run.tenants),
        focal_downgraded=run.downgraded,
        focal_rejected=run.rejected,
        ticks=sum(s.ticks for s in focal_stats),
        served=sum(s.served for s in focal_stats),
        lost=sum(s.lost for s in focal_stats),
        worst_focal_p95_s=run.worst_p95_s,
        focal_deadline_ok=run.deadline_ok,
        bg_admitted=bg.admitted,
        bg_downgraded=bg.downgraded,
        bg_rejected=bg.rejected,
        bg_demand_cores=bg.demand_cores,
        cal_ratio=run.background.cal_ratio,
        bg_p95_s=run.background.p95_s(wired_latency_s),
        bg_deadline_ok=run.background.deadline_ok(),
        utilization=run.pool.utilization(run.sim.now()),
        batches=batches,
        batched_requests=batched_requests,
        duplicate_completions=run.pool.duplicate_completions,
        tenants=tuple(sorted(run.stats, key=lambda s: s.tenant)),
    )


def run_fleet_hybrid(
    tenants: int = 10_000,
    focal: int = 8,
    workers: int = 2,
    scheduler: str = "ps",
    balancer: str = "least-loaded",
    sim_time_s: float = 20.0,
    tick_rate_hz: float = 5.0,
    vdp_cycles: float = 1.4e9,
    threads: int = 8,
    wired_latency_s: float = 0.02,
    seed: int = 0,
    use_radio: bool = True,
    telemetry: "Telemetry | None" = None,
    batching: BatchPolicy | None = None,
    recalibrate_every_s: float = 1.0,
    jitter: float = 0.0,
) -> HybridResult:
    """The hybrid fleet experiment at one (N, K) point, both policies.

    The fluid model is first fitted from a short DES run
    (:func:`calibrate_fleet_model`) and then re-calibrated every
    ``recalibrate_every_s`` virtual seconds from the focal tenants'
    observed service times.
    Deterministic: same arguments -> bit-identical
    :meth:`HybridResult.to_json`, regardless of ``PYTHONHASHSEED``.
    """
    local_vdp_s = vdp_cycles / TURTLEBOT3_PI.effective_hz
    model = calibrate_fleet_model(
        vdp_cycles=vdp_cycles,
        threads=threads,
        tick_rate_hz=tick_rate_hz,
        network_latency_s=wired_latency_s,
    )
    outcomes = {}
    for admission in (True, False):
        outcomes[admission] = serve_hybrid_point(
            tenants,
            focal,
            workers,
            scheduler,
            balancer,
            admission,
            sim_time_s,
            tick_rate_hz,
            vdp_cycles,
            threads,
            local_vdp_s,
            wired_latency_s,
            seed,
            use_radio,
            telemetry,
            batching=batching,
            model=model,
            recalibrate_every_s=recalibrate_every_s,
            jitter=jitter,
        )
    assert model.calibrated_t_iso_s is not None
    return HybridResult(
        tenants=tenants,
        focal=focal,
        workers=workers,
        scheduler=scheduler,
        balancer=balancer,
        seed=seed,
        sim_time_s=sim_time_s,
        tick_rate_hz=tick_rate_hz,
        threads=threads,
        local_vdp_s=local_vdp_s,
        calibrated_t_iso_s=model.calibrated_t_iso_s,
        batching=batching,
        admission=outcomes[True],
        admit_all=outcomes[False],
    )
