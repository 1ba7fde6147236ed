"""Mission execution and metric collection.

The :class:`MissionRunner` closes the loop the middleware cannot see:
it steps vehicle physics on the simulator clock, feeds the framework's
profiler, charges the embedded computer's energy to the battery, and
watches for termination (goal reached, exploration complete, timeout,
dead battery). Its :class:`MissionResult` carries exactly the
quantities the paper's Figs. 12-14 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.framework import OffloadingFramework
from repro.middleware.messages import TwistMsg
from repro.vehicle.power import PowerBudget
from repro.workloads.navigation import Workload


@dataclass
class VelocityPoint:
    """One sample of the commanded-vs-real velocity trace (Fig. 14)."""

    t: float
    v_real: float
    v_max: float


@dataclass
class MissionResult:
    """Metrics of one completed (or failed) mission."""

    success: bool
    reason: str
    completion_time_s: float
    energy: PowerBudget
    distance_m: float
    collisions: int
    cycle_breakdown: dict[str, float]
    velocity_trace: list[VelocityPoint] = field(default_factory=list)
    final_placement: dict[str, str] = field(default_factory=dict)

    @property
    def total_energy_j(self) -> float:
        """Robot-side mission energy (Eq. 1a)."""
        return self.energy.total_j()


class MissionRunner:
    """Drives a built workload to completion.

    Parameters
    ----------
    workload:
        A built :class:`~repro.workloads.navigation.Workload`; one with a
        ``goal`` ends when it is reached, one without ends when the
        area is explored.
    framework:
        Optional offloading framework (``None`` = everything local).
    physics_dt_s:
        Vehicle integration step.
    timeout_s:
        Mission abort horizon (virtual seconds).
    """

    def __init__(
        self,
        workload: Workload,
        framework: OffloadingFramework | None = None,
        physics_dt_s: float = 0.05,
        timeout_s: float = 300.0,
    ) -> None:
        self.workload = workload
        self.framework = framework
        self.physics_dt_s = physics_dt_s
        self.timeout_s = timeout_s
        self.velocity_trace: list[VelocityPoint] = []
        self._last_dyn_energy = 0.0
        self._wire_instruments()

    def _wire_instruments(self) -> None:
        w = self.workload
        sim, graph, lgv = w.sim, w.graph, w.lgv

        def physics_tick() -> None:
            lgv.step(self.physics_dt_s)
            # inform path tracking of the current controller velocity cap
            graph.inject(
                "velocity_limit", TwistMsg(v=lgv.velocity_cap), w.lgv_host
            )
            # charge the embedded computer's energy to the battery
            meter = w.lgv_host.energy
            meter.account_idle(sim.now())
            dyn = meter.dynamic_energy_j
            delta = dyn - self._last_dyn_energy
            self._last_dyn_energy = dyn
            idle_w = w.lgv_host.platform.idle_power_w
            lgv.account_compute_energy(delta + idle_w * self.physics_dt_s)
            self.velocity_trace.append(
                VelocityPoint(t=sim.now(), v_real=abs(lgv.state.v), v_max=lgv.velocity_cap)
            )

        sim.every(self.physics_dt_s, physics_tick, label="physics")

        if self.framework is not None:
            prof = self.framework.profiler

            def on_processed(node, trigger, cycles, proc) -> None:
                # a mux tick triggered by a *remote* path tracker is a
                # delivered cloud VDP output — the Fig. 11 bandwidth signal
                if node.name == "velocity_mux" and trigger == "cmd_vel_raw":
                    pt = graph.nodes.get("path_tracking")
                    if pt is not None and pt.host is not None and not pt.host.on_robot:
                        prof.record_vdp_delivery(sim.now())

            def on_publish(src, topic, msg) -> None:
                if topic == "pose":
                    prof.record_pose(sim.now(), msg.pose.x, msg.pose.y)

            graph.on_processed(on_processed)
            graph.on_publish(on_publish)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> MissionResult:
        """Run to termination; returns the mission metrics."""
        w = self.workload
        sim = w.sim
        if self.framework is not None and not self.framework._started:
            self.framework.start()
        check_interval = 1.0
        reason = "timeout"
        success = False
        while sim.now() < self.timeout_s:
            sim.run(until=min(sim.now() + check_interval, self.timeout_s))
            done, why = self._termination()
            if done:
                success = why in ("goal_reached", "explored")
                reason = why
                break
        result = MissionResult(
            success=success,
            reason=reason,
            completion_time_s=sim.now(),
            energy=w.lgv.energy,
            distance_m=w.lgv.distance_traveled,
            collisions=w.lgv.collisions,
            cycle_breakdown=self._merged_cycles(),
            velocity_trace=self.velocity_trace,
            final_placement={
                name: (node.host.name if node.host else "?")
                for name, node in w.graph.nodes.items()
            },
        )
        return result

    def _termination(self) -> tuple[bool, str]:
        w = self.workload
        if w.lgv.battery.depleted:
            return True, "battery_depleted"
        if w.goal is not None:
            pt = w.nodes["path_tracking"]
            if getattr(pt, "goal_reached", False):
                return True, "goal_reached"
            if w.lgv.pose.distance_to(w.goal) < 0.2:
                return True, "goal_reached"
        else:
            ex = w.nodes.get("exploration")
            if ex is not None and getattr(ex, "done", False):
                return True, "explored"
        return False, ""

    def _merged_cycles(self) -> dict[str, float]:
        """Per-node cycles summed across every host (Table II data)."""
        w = self.workload
        merged: dict[str, float] = {}
        for host in (w.lgv_host, w.gateway_host, w.cloud_host):
            for name, cycles in host.energy.cycle_breakdown().items():
                merged[name] = merged.get(name, 0.0) + cycles
        return merged
