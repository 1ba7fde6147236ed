"""The end-to-end offloading framework (§VII, Fig. 8).

Assembles the ROBOT module (Controller + Profiler + Switcher) over a
running workload graph and drives the two algorithms on a fixed
adjustment period:

* Algorithm 2 first (robustness has priority): bandwidth + signal
  direction decide whether remote nodes must retreat to the LGV or may
  return to the server;
* Algorithm 1 next (when the network is healthy): measured local-vs-
  cloud VDP makespans decide where the T3 nodes run;
* finally Eq. 2c resets the vehicle's maximum velocity from the
  winning makespan.

The framework is workload-agnostic: it only needs node *names* (the
Fig. 2 pipeline's canonical ones) and never touches algorithm
internals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compute.host import Host
from repro.core.bottleneck import NodeClassification, classify_nodes
from repro.core.controller import Controller
from repro.core.migration import MigrationPlan, OffloadingGoal, OffloadingStrategy
from repro.core.netqual import NetworkQualityController, QualityDecision
from repro.core.profiler import Profiler
from repro.core.switcher import Switcher
from repro.middleware.graph import Graph
from repro.vehicle.robot import LGV


@dataclass(frozen=True)
class FrameworkConfig:
    """Tuning of the end-to-end framework."""

    goal: OffloadingGoal = OffloadingGoal.COMPLETION_TIME
    adjust_period_s: float = 1.0
    bandwidth_threshold_hz: float = 4.0
    server_threads: int = 8
    enable_realtime_adjustment: bool = True
    enable_fine_grained_migration: bool = True
    hardware_cap: float = 1.0
    #: "strategy" = Algorithm 1's fine-grained selection;
    #: "all_local" = the no-offloading baseline (Eq. 2c still runs);
    #: "all_server" = whole-workload offload (RoboMaker-style baseline).
    initial_placement: str = "strategy"
    #: Algorithm 2 stays quiet this long after start: the bandwidth
    #: window needs history before a low reading means packet loss.
    netqual_warmup_s: float = 5.0

    def __post_init__(self) -> None:
        if self.initial_placement not in ("strategy", "all_local", "all_server"):
            raise ValueError(f"unknown initial_placement {self.initial_placement!r}")


@dataclass
class AdjustmentEvent:
    """One framework decision, for traces and figures."""

    t: float
    action: str
    vdp_local_s: float
    vdp_cloud_s: float
    bandwidth_hz: float
    direction: float
    velocity_cap: float


class OffloadingFramework:
    """ROBOT-module orchestration over a workload graph.

    Parameters
    ----------
    graph:
        The running pipeline (nodes already added to their hosts).
    lgv:
        The vehicle (velocity-cap actuation target).
    lgv_host, server_host:
        The robot's embedded computer and the offload target.
    wap_xy:
        WAP world position for the signal-direction estimator.
    cycle_breakdown:
        Per-node cycles from a profiling run — the Table II data the
        ECN classification is computed from. Nodes absent from the
        graph are ignored at migration time.
    config:
        Framework tuning.
    """

    def __init__(
        self,
        graph: Graph,
        lgv: LGV,
        lgv_host: Host,
        server_host: Host,
        wap_xy: tuple[float, float],
        cycle_breakdown: dict[str, float],
        config: FrameworkConfig = FrameworkConfig(),
        parallel_nodes: tuple[str, ...] = ("path_tracking", "slam", "costmap_gen"),
    ) -> None:
        self.graph = graph
        self.lgv = lgv
        self.lgv_host = lgv_host
        self.server_host = server_host
        self.config = config
        self.classification: NodeClassification = classify_nodes(cycle_breakdown)
        self.strategy = OffloadingStrategy(self.classification, config.goal)
        self.profiler = Profiler(graph, lgv_host, server_host, wap_xy)
        self.switcher = Switcher(
            graph,
            lgv_host,
            server_host,
            server_threads={n: config.server_threads for n in parallel_nodes},
        )
        self.controller = Controller(
            set_velocity_cap=lgv.set_velocity_cap,
            hardware_cap=config.hardware_cap,
        )
        self.netqual = NetworkQualityController(
            bandwidth=self.profiler.bandwidth,
            direction=self.profiler.direction,
            threshold_hz=config.bandwidth_threshold_hz,
        )
        self.events: list[AdjustmentEvent] = []
        self._started = False
        self._retreated = False  # Algorithm 2 pulled nodes local

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Apply the initial plan and begin periodic adjustment."""
        if self._started:
            raise RuntimeError("framework already started")
        self._started = True
        placement = self.config.initial_placement
        if placement == "strategy":
            self.switcher.apply(self.strategy.initial_plan(), reason="initial")
        elif placement == "all_server":
            # whole-workload offload baseline (RoboMaker-style):
            # everything movable goes to the server. The actuator-side
            # nodes stay — they are the hardware.
            movable = tuple(
                n
                for n in self.graph.nodes
                if n not in ("velocity_mux", "sensor_driver", "actuator", "safety")
            )
            self.switcher.apply(
                MigrationPlan(to_server=movable, to_robot=(), vdp_time_s=float("nan")),
                reason="initial:all_server",
            )
            self.strategy.t3_on_server = True
        else:  # all_local: the no-offloading baseline
            self.strategy.t3_on_server = False
        self.graph.sim.every(
            self.config.adjust_period_s, self.adjust, label="framework:adjust"
        )

    # ------------------------------------------------------------------
    # The periodic decision
    # ------------------------------------------------------------------
    def adjust(self) -> None:
        """One adjustment tick: Algorithm 2, then Algorithm 1, then Eq. 2c."""
        now = self.graph.sim.now()
        sample = self.profiler.sample_vdp()
        bw = self.profiler.bandwidth.rate(now)
        direction = self.profiler.direction.direction()
        action = "hold"

        remote_now = bool(self.switcher.remote_nodes())

        if (
            self.config.enable_realtime_adjustment
            and now >= self.config.netqual_warmup_s
        ):
            decision = self.netqual.evaluate(now, currently_remote=remote_now)
            if decision is QualityDecision.GO_LOCAL:
                pulled = self.switcher.remote_nodes()
                self.switcher.apply(
                    MigrationPlan(to_server=(), to_robot=pulled, vdp_time_s=sample.local_s),
                    reason="algo2:retreat",
                )
                self.strategy.t3_on_server = False
                self._retreated = True
                action = f"algo2:retreat({len(pulled)})"
            elif decision is QualityDecision.GO_REMOTE and self._retreated:
                # Under either goal the return re-offloads every ECN:
                # Algorithm 1's first step (``initial_plan``).
                plan = MigrationPlan(
                    to_server=self.classification.offload_for_energy,
                    to_robot=(),
                    vdp_time_s=sample.cloud_s,
                )
                self.switcher.apply(plan, reason="algo2:return")
                self.strategy.t3_on_server = True
                self._retreated = False
                action = "algo2:return"

        if (
            action == "hold"
            and not self._retreated
            and self.config.enable_fine_grained_migration
        ):
            plan = self.strategy.decide(sample.local_s, sample.cloud_s)
            if plan.to_server or plan.to_robot:
                self.switcher.apply(plan, reason="algo1")
                action = f"algo1:{self.strategy.current_vdp_location}"

        vdp = sample.cloud_s if self.strategy.t3_on_server else sample.local_s
        if vdp > 0:
            vcap = self.controller.update_velocity(now, vdp)
        else:
            vcap = self.controller.current_velocity_cap
        self.events.append(
            AdjustmentEvent(
                t=now,
                action=action,
                vdp_local_s=sample.local_s,
                vdp_cloud_s=sample.cloud_s,
                bandwidth_hz=bw,
                direction=direction,
                velocity_cap=vcap,
            )
        )
        tel = self.graph.telemetry
        if tel is not None:
            tel.emit(
                "adjust",
                t=now,
                track="framework",
                action=action,
                bandwidth_hz=bw,
                direction=direction,
                velocity_cap=vcap,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def placement(self) -> dict[str, str]:
        """Current node -> host-name mapping."""
        return self.switcher.placement()

    def velocity_trace(self) -> list[tuple[float, float]]:
        """(t, velocity cap) — the Fig. 12 series."""
        return list(self.controller.velocity_history)
