"""Fleet-scale serving: the capacity curve of ``repro.cloud``.

The paper closes (§VIII-E) by arguing that offloading should save
"financial cost and resource usage on the cloud servers" — which only
matters once *several* robots share the serving side. This experiment
simulates a fleet of K lightweight robot tenants (periodic tick
sources, not full missions — see :mod:`repro.cloud.tenants`) streaming
VDP work through a :class:`~repro.cloud.WorkerPool`, and sweeps the
fleet size to produce the capacity curve:

* under **admission control** the Eq. 2c gate rejects (or downgrades)
  tenants whose projected p95 tick latency would no longer beat their
  local baseline — so every *admitted* tenant keeps its deadline;
* under **admit-all** the same fleet is let in unconditionally — past
  the capacity knee the queues grow without bound and everyone's p95
  blows through the tick deadline.

The DES curve is cross-referenced against the analytical fluid model
of :mod:`repro.cloud.fleet` (stretch = max(1, utilization)), and
the single-robot point doubles as an identity check: one tenant on one
FIFO worker with no radio must pay exactly the fig13 offloaded-tick
quantity ``exec_time + 2 * wired_latency``.

``run_fleet_chaos`` is the fault-injection variant: a
:class:`~repro.faults.ServerCrash` kills one pool worker mid-run and
the pool's rebalance path must keep every tenant served (the
``pool_worker_crash`` cell of the chaos matrix).

Every run here is built by :mod:`repro.hybrid.experiment`'s serving
builder with no fluid background, so a fleet point is the hybrid run
with ``focal == tenants``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.cloud import BatchPolicy, TenantStats
from repro.compute.executor import DWA_PROFILE, ExecutionModel
from repro.compute.platform import CLOUD_SERVER, TURTLEBOT3_PI, PlatformSpec
from repro.faults import FaultPlan, ServerCrash
from repro.hybrid.experiment import _jsonable, _outcome_json, _run_serving

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


def _analytic_vdp_s(
    n_robots: int,
    workers: int,
    server: PlatformSpec,
    cycles: float,
    threads: int,
    tick_rate_hz: float,
    network_latency_s: float,
) -> float:
    """The fluid-model tick makespan (cloud.fleet, pool-sized).

    Identical to :meth:`repro.cloud.fleet.FleetServerModel.service_time`
    for ``workers == 1``; the capacity generalizes to
    ``workers * hardware_threads`` for a pool.
    """
    t_iso = ExecutionModel(server).exec_time(cycles, threads, DWA_PROFILE)
    width = min(threads, server.hardware_threads)
    demand = n_robots * tick_rate_hz * t_iso * width
    capacity = workers * server.hardware_threads
    stretch = max(1.0, demand / capacity)
    return t_iso * stretch + 2.0 * network_latency_s


@dataclass(frozen=True)
class PolicyOutcome:
    """One fleet size served under one admission policy."""

    policy: str  # "admission" | "admit-all"
    admitted: int
    downgraded: int
    rejected: int
    ticks: int
    served: int
    lost: int
    worst_admitted_p95_s: float
    admitted_miss_rate: float  # deadline misses over served admitted ticks
    mean_velocity_mps: float  # fleet mean, rejected robots at local v
    min_velocity_mps: float
    deadline_ok: bool  # every admitted tenant held its deadline
    tenants: tuple[TenantStats, ...]


@dataclass(frozen=True)
class CapacityPoint:
    """Both policies at one fleet size, plus the analytical reference."""

    n_robots: int
    analytic_vdp_s: float
    admission: PolicyOutcome
    admit_all: PolicyOutcome


@dataclass(frozen=True)
class IdentityCheck:
    """Single tenant, one FIFO worker, no radio: latency == exec_time.

    ``expected_vdp_s`` adds the two wired one-way latencies — the same
    per-tick quantity the fig13 end-to-end path pays for an offloaded
    VDP tick, tying the serving layer back to the single-robot story.
    """

    measured_mean_s: float
    expected_exec_s: float
    network_rtt_s: float
    expected_vdp_s: float
    max_abs_err_s: float

    @property
    def exact(self) -> bool:
        # issue-time subtraction leaves ~1e-17 of float noise
        return self.max_abs_err_s <= 1e-12


@dataclass(frozen=True)
class FleetResult:
    """The capacity sweep."""

    robots: int
    workers: int
    scheduler: str
    balancer: str
    seed: int
    sim_time_s: float
    tick_rate_hz: float
    threads: int
    local_vdp_s: float
    points: tuple[CapacityPoint, ...]
    identity: IdentityCheck

    @property
    def capacity_admit_all(self) -> int:
        """Largest fleet admit-all serves without a deadline violation."""
        best = 0
        for p in self.points:
            if not p.admit_all.deadline_ok:
                break
            best = p.n_robots
        return best

    @property
    def admission_always_protects(self) -> bool:
        """The headline claim: admitted tenants never blow deadlines."""
        return all(p.admission.deadline_ok for p in self.points)

    def point(self, n_robots: int) -> CapacityPoint:
        for p in self.points:
            if p.n_robots == n_robots:
                return p
        raise KeyError(f"no capacity point for n_robots={n_robots}")

    # ------------------------------------------------------------------
    # Rendering / artifact
    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [
            f"Fleet capacity: {self.workers} x {CLOUD_SERVER.name} pool, "
            f"{self.scheduler} scheduler, {self.tick_rate_hz:.0f} Hz ticks, "
            f"deadline {1.0 / self.tick_rate_hz:.2f} s",
            f"{'K':>3}  {'analytic':>9}  "
            f"{'admission (adm/dwn/rej)':>24}{'p95_s':>8}{'ok':>4}  "
            f"{'admit-all p95_s':>16}{'ok':>4}",
        ]
        for p in self.points:
            a, b = p.admission, p.admit_all
            lines.append(
                f"{p.n_robots:>3}  {p.analytic_vdp_s:>9.3f}  "
                f"{a.admitted:>12}/{a.downgraded}/{a.rejected:<8}"
                f"{a.worst_admitted_p95_s:>8.3f}{'y' if a.deadline_ok else 'N':>4}  "
                f"{b.worst_admitted_p95_s:>16.3f}{'y' if b.deadline_ok else 'N':>4}"
            )
        lines.append(
            f"-> admit-all capacity: {self.capacity_admit_all} robots; "
            + (
                "admission control held every admitted tenant's deadline"
                if self.admission_always_protects
                else "ADMISSION CONTROL FAILED TO PROTECT A TENANT"
            )
        )
        i = self.identity
        lines.append(
            f"-> identity (K=1, fifo, no radio): measured {i.measured_mean_s:.6f} s "
            f"vs exec {i.expected_exec_s:.6f} s "
            f"(max |err| {i.max_abs_err_s:.2e}; +rtt -> vdp {i.expected_vdp_s:.6f} s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "meta": {
                "robots": self.robots,
                "workers": self.workers,
                "scheduler": self.scheduler,
                "balancer": self.balancer,
                "seed": self.seed,
                "sim_time_s": self.sim_time_s,
                "tick_rate_hz": self.tick_rate_hz,
                "threads": self.threads,
                "local_vdp_s": self.local_vdp_s,
                "server": CLOUD_SERVER.name,
            },
            "identity": _jsonable(
                {**asdict(self.identity), "exact": self.identity.exact}
            ),
            "capacity_admit_all": self.capacity_admit_all,
            "admission_always_protects": self.admission_always_protects,
            "points": [
                {
                    "n_robots": p.n_robots,
                    "analytic_vdp_s": p.analytic_vdp_s,
                    "policies": {
                        o.policy: _outcome_json(o) for o in (p.admission, p.admit_all)
                    },
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, so equal runs are bit-identical."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
        return path


# ----------------------------------------------------------------------
# One serving run
# ----------------------------------------------------------------------
def serve_fleet_point(
    n_robots: int,
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
) -> PolicyOutcome:
    """One fleet size under one policy, every robot in full DES.

    The hybrid serving run with no fluid background
    (``focal == tenants``) and a fresh simulator each time. Public as
    the full-DES reference point :mod:`repro.hybrid`'s fidelity
    benchmark compares the hybrid mode against.
    """
    run = _run_serving(
        n_robots, n_robots, workers, scheduler, balancer, admission,
        sim_time_s, tick_rate_hz, cycles, threads, local_vdp_s,
        wired_latency_s, seed, use_radio, telemetry, batching=batching,
    )
    admitted = run.admitted_stats
    served = sum(s.served for s in admitted)
    missed = sum(round(s.deadline_miss_rate * s.served) for s in admitted)
    velocities = [s.velocity_mps for s in run.stats]
    return PolicyOutcome(
        policy="admission" if admission else "admit-all",
        admitted=len(run.tenants),
        downgraded=run.downgraded,
        rejected=run.rejected,
        ticks=sum(s.ticks for s in admitted),
        served=served,
        lost=sum(s.lost for s in admitted),
        worst_admitted_p95_s=run.worst_p95_s,
        admitted_miss_rate=missed / served if served else math.nan,
        mean_velocity_mps=sum(velocities) / len(velocities),
        min_velocity_mps=min(velocities),
        deadline_ok=run.deadline_ok,
        tenants=tuple(sorted(run.stats, key=lambda s: s.tenant)),
    )


def _identity_check(
    cycles: float, threads: int, tick_rate_hz: float, wired_latency_s: float
) -> IdentityCheck:
    """K=1, one FIFO worker, no radio: serving adds nothing to exec."""
    run = _run_serving(
        1, 1, 1, "fifo", "round-robin", False, 4.0 / tick_rate_hz + 1e-9,
        tick_rate_hz, cycles, threads, 1.0, wired_latency_s, 0, False, None,
    )
    expected = run.pool.workers[0].host.exec_time(cycles, threads, DWA_PROFILE)
    lats = run.tenants[0].latencies
    mean = sum(lats) / len(lats) if lats else math.nan
    err = max((abs(v - expected) for v in lats), default=math.nan)
    rtt = 2.0 * wired_latency_s
    return IdentityCheck(
        measured_mean_s=mean,
        expected_exec_s=expected,
        network_rtt_s=rtt,
        expected_vdp_s=expected + rtt,
        max_abs_err_s=err,
    )


def run_fleet(
    robots: int = 24,
    workers: int = 2,
    scheduler: str = "edf",
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
) -> FleetResult:
    """Sweep fleet size 1..robots under admission control vs admit-all.

    Deterministic: the same arguments produce a bit-identical
    :meth:`FleetResult.to_json` (per-tenant radio randomness is derived
    from ``seed`` and the tenant name, never from wall-clock or
    ``hash()``).
    """
    if robots < 1 or workers < 1:
        raise ValueError("need robots >= 1 and workers >= 1")
    local_vdp_s = vdp_cycles / TURTLEBOT3_PI.effective_hz
    points = []
    for n in range(1, robots + 1):
        outcomes = {}
        for admission in (True, False):
            outcomes[admission] = serve_fleet_point(
                n,
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
            )
        points.append(
            CapacityPoint(
                n_robots=n,
                analytic_vdp_s=_analytic_vdp_s(
                    n,
                    workers,
                    CLOUD_SERVER,
                    vdp_cycles,
                    threads,
                    tick_rate_hz,
                    wired_latency_s,
                ),
                admission=outcomes[True],
                admit_all=outcomes[False],
            )
        )
    return FleetResult(
        robots=robots,
        workers=workers,
        scheduler=scheduler,
        balancer=balancer,
        seed=seed,
        sim_time_s=sim_time_s,
        tick_rate_hz=tick_rate_hz,
        threads=threads,
        local_vdp_s=local_vdp_s,
        points=tuple(points),
        identity=_identity_check(
            vdp_cycles, threads, tick_rate_hz, wired_latency_s
        ),
    )


# ----------------------------------------------------------------------
# Chaos: worker crash mid-run
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetChaosResult:
    """A fleet run with one pool worker crashed mid-mission."""

    robots: int
    workers: int
    scheduler: str
    crash_at_s: float
    restart_after_s: float
    sim_time_s: float
    rebalanced: int  # requests re-placed off the dead worker
    #: Stale completions the pool's exactly-once guard suppressed (a
    #: crash-split batch re-serving an already-completed request).
    duplicate_completions: int
    stranded: tuple[str, ...]  # tenants that stopped being served
    all_recovered: bool  # every tenant served ticks after the crash
    tenants: tuple[TenantStats, ...]

    @property
    def success(self) -> bool:
        return not self.stranded and self.all_recovered

    def render(self) -> str:
        lines = [
            f"Fleet chaos: {self.robots} robots on {self.workers} workers "
            f"({self.scheduler}); cloud-vm0 crashes at t={self.crash_at_s:.0f} s, "
            f"restarts after {self.restart_after_s:.0f} s",
            f"  rebalanced requests: {self.rebalanced}",
        ]
        for t in self.tenants:
            lines.append(
                f"  {t.tenant}: served {t.served}/{t.ticks}, "
                f"p95 {t.p95_latency_s:.3f} s"
            )
        lines.append(
            "-> every tenant kept being served through the crash"
            if self.success
            else f"-> STRANDED TENANTS: {list(self.stranded)}"
        )
        return "\n".join(lines)


def run_fleet_chaos(
    robots: int = 8,
    workers: int = 2,
    scheduler: str = "edf",
    crash_at_s: float = 5.0,
    restart_after_s: float = 8.0,
    sim_time_s: float = 20.0,
    tick_rate_hz: float = 5.0,
    vdp_cycles: float = 1.4e9,
    threads: int = 8,
    seed: int = 0,
    telemetry: "Telemetry | None" = None,
    batching: BatchPolicy | None = None,
) -> FleetChaosResult:
    """Crash one pool worker mid-run; the survivors must absorb it.

    ``ServerCrash`` fires on ``cloud-vm0`` via
    :meth:`repro.faults.FaultInjector.for_pool`: the pool evicts and
    re-places everything the dead worker held, and no tenant may end
    the run stranded (every one keeps completing ticks after the
    crash instant).
    """
    if workers < 2:
        raise ValueError("a crash demo needs at least 2 workers")
    crash = ServerCrash(
        start=crash_at_s, restart_after=restart_after_s, host="cloud-vm0"
    )
    # No radio and no admission: the tenants reach the pool directly.
    run = _run_serving(
        robots, robots, workers, scheduler, "least-loaded", False,
        sim_time_s, tick_rate_hz, vdp_cycles, threads, 1.0, 0.0, seed,
        False, telemetry, batching=batching, faults=FaultPlan((crash,)),
    )
    recovered = all(
        any(ct > crash_at_s for ct in t.completion_times) for t in run.tenants
    )
    return FleetChaosResult(
        robots=robots,
        workers=workers,
        scheduler=scheduler,
        crash_at_s=crash_at_s,
        restart_after_s=restart_after_s,
        sim_time_s=sim_time_s,
        rebalanced=run.pool.rebalanced,
        duplicate_completions=run.pool.duplicate_completions,
        stranded=tuple(s.tenant for s in run.stats if s.stranded),
        all_recovered=recovered,
        tenants=run.stats,
    )
