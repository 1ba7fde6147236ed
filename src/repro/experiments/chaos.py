"""The chaos matrix: every single-fault scenario vs the framework.

The robustness claim of §VI ("degrade, never crash") becomes a
testable matrix: run the offloaded navigation mission once per fault
in the taxonomy and assert the adaptive framework still completes it,
while the static policy — fine-grained placement but no Algorithm 2 —
is stranded by the permanent data-plane outage exactly as the paper's
motivating failure story predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments._missions import DEPLOYMENTS, launch_navigation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    MigrationInterrupt,
    PacketMangling,
    ServerCrash,
    ServerSlowdown,
    WapDeath,
)
from repro.telemetry import Telemetry

#: One representative plan per fault type. Faults strike at t=8 s —
#: after the initial offload has settled, well before the ~60 s the
#: clean mission needs — except the migration interrupt, which arms at
#: t=0 to hit the framework's *initial* state transfer.
SCENARIOS: dict[str, FaultPlan] = {
    "link_outage": FaultPlan((LinkOutage(start=8.0),)),
    "link_degradation": FaultPlan(
        (LinkDegradation(start=8.0, duration=20.0, rssi_offset_db=-14.0),)
    ),
    "wap_death": FaultPlan((WapDeath(start=8.0),)),
    "server_slowdown": FaultPlan(
        (ServerSlowdown(start=8.0, duration=30.0, factor=6.0),)
    ),
    "server_crash": FaultPlan((ServerCrash(start=8.0, restart_after=30.0),)),
    "packet_mangling": FaultPlan(
        (
            PacketMangling(
                start=8.0,
                duration=20.0,
                drop_p=0.5,
                duplicate_p=0.1,
                corrupt_p=0.1,
                seed=7,
            ),
        )
    ),
    "migration_interrupt": FaultPlan((MigrationInterrupt(start=0.0),)),
    # Recovery cells (repro.recovery attached): the crash lands while
    # the initial offload's two-phase transfer is in flight — between
    # PREPARE and COMMIT — so the protocol must observe the dead
    # destination and roll back; the finite outage outlives the lease
    # TTL, so supervision must declare the placements dead from missed
    # heartbeats alone and restore them from checkpoints.
    "crash_during_handshake": FaultPlan(
        (ServerCrash(start=1.0, restart_after=20.0),)
    ),
    "lease_expiry_in_outage": FaultPlan((LinkOutage(start=8.0, duration=6.0),)),
    # Fleet-scale cell: the crash hits one repro.cloud pool worker
    # instead of the single mission's server — exercised through
    # run_fleet_chaos rather than the navigation mission.
    "pool_worker_crash": FaultPlan(
        (ServerCrash(start=5.0, restart_after=8.0, host="cloud-vm0"),)
    ),
}

#: Scenarios that run with the recovery subsystem attached (stateful
#: 2PC migration + lease supervision); the rest run the bare framework.
RECOVERY_SCENARIOS: tuple[str, ...] = (
    "crash_during_handshake",
    "lease_expiry_in_outage",
)


@dataclass(frozen=True)
class ChaosRun:
    """One mission under one fault plan and one policy."""

    scenario: str
    policy: str  # adaptive | static
    success: bool
    reason: str
    time_s: float
    distance_m: float
    retreats: int  # Algorithm 2 retreat decisions taken


@dataclass(frozen=True)
class ChaosResult:
    """The full matrix."""

    runs: tuple[ChaosRun, ...]

    def run(self, scenario: str, policy: str = "adaptive") -> ChaosRun:
        """Look up one cell of the matrix."""
        for r in self.runs:
            if r.scenario == scenario and r.policy == policy:
                return r
        raise KeyError(f"no run for {scenario!r}/{policy!r}")

    @property
    def adaptive_all_complete(self) -> bool:
        """The headline claim: adaptive survives every scenario."""
        return all(r.success for r in self.runs if r.policy == "adaptive")

    def render(self) -> str:
        """Plain-text matrix table."""
        lines = [
            "Chaos matrix: navigation mission (gateway +8T) under single faults",
            f"{'scenario':<22}{'policy':<10}{'outcome':<22}"
            f"{'time_s':>8}{'dist_m':>8}{'retreats':>10}",
        ]
        for r in self.runs:
            outcome = "completed" if r.success else f"FAILED ({r.reason})"
            lines.append(
                f"{r.scenario:<22}{r.policy:<10}{outcome:<22}"
                f"{r.time_s:>8.1f}{r.distance_m:>8.1f}{r.retreats:>10d}"
            )
        verdict = (
            "adaptive framework completed every scenario"
            if self.adaptive_all_complete
            else "ADAPTIVE FRAMEWORK FAILED A SCENARIO"
        )
        lines.append(f"-> {verdict}")
        return "\n".join(lines)


def _one_run(
    scenario: str,
    plan: FaultPlan,
    adaptive: bool,
    timeout_s: float,
    telemetry: Telemetry | None,
) -> ChaosRun:
    w, fw, runner = launch_navigation(
        DEPLOYMENTS[2], timeout_s=timeout_s, telemetry=telemetry
    )
    if not adaptive:
        fw.config = replace(fw.config, enable_realtime_adjustment=False)
    FaultInjector.for_workload(plan, w, telemetry=telemetry).arm()
    res = runner.run()
    retreats = sum("retreat" in e.action for e in fw.events)
    return ChaosRun(
        scenario=scenario,
        policy="adaptive" if adaptive else "static",
        success=res.success,
        reason=res.reason,
        time_s=res.completion_time_s,
        distance_m=res.distance_m,
        retreats=retreats,
    )


def _one_recovery_run(
    scenario: str,
    plan: FaultPlan,
    timeout_s: float,
    telemetry: Telemetry | None,
) -> ChaosRun:
    """A chaos cell with the recovery subsystem attached.

    Identical mission to :func:`_one_run`, but migrations go through
    the two-phase protocol and remote placements are lease-supervised;
    ``retreats`` additionally counts the recovery manager's
    checkpoint/fresh restorations (its analogue of a retreat).
    """
    from repro.recovery.manager import attach_recovery

    w, fw, runner = launch_navigation(
        DEPLOYMENTS[2], timeout_s=timeout_s, telemetry=telemetry
    )
    manager = attach_recovery(fw, w.fabric, telemetry=telemetry)
    FaultInjector.for_workload(plan, w, telemetry=telemetry).arm()
    res = runner.run()
    retreats = sum("retreat" in e.action for e in fw.events)
    retreats += manager.restored_from_checkpoint + manager.restored_fresh
    return ChaosRun(
        scenario=scenario,
        policy="adaptive",
        success=res.success,
        reason=res.reason,
        time_s=res.completion_time_s,
        distance_m=res.distance_m,
        retreats=retreats,
    )


def _one_pool_run(
    scenario: str, timeout_s: float, telemetry: Telemetry | None
) -> ChaosRun:
    """The fleet-scale cell: ServerCrash against a worker pool.

    "success" here means the serving layer's §VI analogue: no tenant
    is permanently stranded and every one keeps completing ticks after
    the crash. ``retreats`` counts rebalanced requests (the pool's
    recovery actions) and ``distance_m`` is 0 — tick sources do not
    drive anywhere.
    """
    from repro.experiments.fleet_scale import run_fleet_chaos

    res = run_fleet_chaos(
        sim_time_s=min(20.0, timeout_s), telemetry=telemetry
    )
    reason = "" if res.success else f"stranded: {', '.join(res.stranded)}"
    return ChaosRun(
        scenario=scenario,
        policy="adaptive",
        success=res.success,
        reason=reason,
        time_s=res.sim_time_s,
        distance_m=0.0,
        retreats=res.rebalanced,
    )


def run_chaos(
    scenarios: tuple[str, ...] | None = None,
    timeout_s: float = 300.0,
    telemetry: Telemetry | None = None,
) -> ChaosResult:
    """Run the chaos matrix; ``scenarios=None`` means all of them.

    Every selected scenario runs under the adaptive framework; the
    permanent link outage additionally runs under the static policy to
    reproduce the stranded-robot contrast of the paper's §VI argument.
    """
    names = tuple(scenarios) if scenarios is not None else tuple(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {unknown}; have {list(SCENARIOS)}")
    runs: list[ChaosRun] = []
    for name in names:
        if name == "pool_worker_crash":
            runs.append(_one_pool_run(name, timeout_s, telemetry))
            continue
        if name in RECOVERY_SCENARIOS:
            runs.append(
                _one_recovery_run(name, SCENARIOS[name], timeout_s, telemetry)
            )
            continue
        runs.append(_one_run(name, SCENARIOS[name], True, timeout_s, telemetry))
        if name == "link_outage":
            runs.append(_one_run(name, SCENARIOS[name], False, timeout_s, telemetry))
    return ChaosResult(runs=tuple(runs))
