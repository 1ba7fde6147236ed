"""The Fig. 2 pipeline, wired for both LGV workloads (paper §II-B).

Both workloads run SensorDriver -> localization -> CostmapGen ->
PathPlanning (A*) -> PathTracking (DWA) -> VelocityMux -> Actuator,
plus the local Safety guard, on one discrete-event graph with the
wireless fabric between the LGV and the servers. They differ only in
the perception front-end and in where the goal comes from:

* navigation (with a map): AMCL against the known map, a costmap
  seeded from it, and the user's goal injected once at t=0+;
* exploration (without a map): GMapping SLAM, a costmap tracking the
  SLAM map, and frontier goals; the mission ends when no admissible
  frontier remains (the area is mapped).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.sim.rng import seeded_rng

from repro.compute.host import Host
from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY, TURTLEBOT3_PI
from repro.control.dwa import DwaConfig, DwaPlanner
from repro.control.safety import SafetyController
from repro.middleware.graph import Graph
from repro.middleware.messages import GoalMsg
from repro.middleware.node import Node
from repro.network.fabric import NetworkFabric
from repro.network.link import WirelessLink
from repro.network.signal import WapSite
from repro.perception.amcl import Amcl, AmclConfig
from repro.perception.costmap import LayeredCostmap
from repro.perception.gmapping import GMapping, GMappingConfig
from repro.planning.frontier import FrontierExplorer
from repro.planning.global_planner import GlobalPlanner
from repro.sim.kernel import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.instrument import instrument_workload
from repro.vehicle.robot import LGV, RobotProfile
from repro.workloads.pipeline import (
    ActuatorDriver,
    CostmapGenNode,
    ExplorationNode,
    LocalizationNode,
    PathPlanningNode,
    PathTrackingNode,
    SafetyNode,
    SensorDriver,
    SlamNode,
    VelocityMuxNode,
)
from repro.world.geometry import Pose2D
from repro.world.grid import OccupancyGrid

#: Vehicle profile used by the evaluation: Turtlebot3 frame, but with
#: the paper's Fig. 12 velocity range (up to ~1 m/s) as the mechanical
#: ceiling so computation — not the chassis — is the binding limit.
EVAL_PROFILE = RobotProfile(max_v=1.0, max_accel=2.0)

#: A perception front-end: from the ``seed + 3`` stream, the costmap the
#: planners read and the nodes between the sensor driver and path
#: planning, in graph order.
_FrontEnd = Callable[[np.random.Generator], tuple[LayeredCostmap, dict[str, Node]]]


@dataclass
class Workload:
    """Everything a mission needs, wired and ready.

    ``goal`` is the navigation target; ``None`` for exploration, whose
    goals come from the frontier node.
    """

    sim: Simulator
    graph: Graph
    lgv: LGV
    lgv_host: Host
    gateway_host: Host
    cloud_host: Host
    fabric: NetworkFabric
    wap: WapSite
    goal: Pose2D | None
    nodes: dict[str, object] = field(default_factory=dict)


def _build(
    front_end: _FrontEnd,
    world: OccupancyGrid,
    start: Pose2D,
    goal: Pose2D | None,
    wap_xy: tuple[float, float],
    seed: int,
    nominal_samples: int,
    actual_samples: int,
    scan_rate_hz: float,
    wired_latency: dict[str, float] | None,
    profile: RobotProfile,
    telemetry: Telemetry | None,
) -> Workload:
    sim = Simulator()
    lgv = LGV(world, profile=profile, start=start, rng=seeded_rng(seed + 1))

    lgv_host = Host("lgv", TURTLEBOT3_PI, on_robot=True)
    gateway_host = Host("gateway", EDGE_GATEWAY)
    cloud_host = Host("cloud", CLOUD_SERVER)

    wap = WapSite(*wap_xy)
    link = WirelessLink(wap, lambda: (lgv.pose.x, lgv.pose.y), seeded_rng(seed + 2))
    fabric = NetworkFabric(
        link,
        wired_latency=wired_latency or {"gateway": 0.0015, "cloud": 0.025},
        energy_sink=lgv.account_wireless_energy,
    )
    graph = Graph(sim, fabric)

    costmap, perception = front_end(seeded_rng(seed + 3))
    planner = GlobalPlanner(costmap, algorithm="astar")
    dwa = DwaPlanner(costmap, DwaConfig(n_samples=actual_samples))

    nodes = {
        "sensor_driver": SensorDriver(lgv, scan_rate_hz),
        **perception,
        "path_planning": PathPlanningNode(planner),
        "path_tracking": PathTrackingNode(dwa, nominal_samples=nominal_samples),
        "safety": SafetyNode(SafetyController()),
        "velocity_mux": VelocityMuxNode(),
        "actuator": ActuatorDriver(lgv),
    }
    for node in nodes.values():
        graph.add_node(node, lgv_host)

    if telemetry is not None:
        instrument_workload(telemetry, sim, graph, (lgv_host, gateway_host, cloud_host))

    return Workload(
        sim=sim,
        graph=graph,
        lgv=lgv,
        lgv_host=lgv_host,
        gateway_host=gateway_host,
        cloud_host=cloud_host,
        fabric=fabric,
        wap=wap,
        goal=goal,
        nodes=nodes,
    )


def build_navigation(
    world: OccupancyGrid,
    start: Pose2D,
    goal: Pose2D,
    wap_xy: tuple[float, float] = (1.0, 1.0),
    seed: int = 0,
    nominal_samples: int = 2000,
    actual_samples: int = 300,
    scan_rate_hz: float = 5.0,
    wired_latency: dict[str, float] | None = None,
    profile: RobotProfile = EVAL_PROFILE,
    telemetry: Telemetry | None = None,
) -> Workload:
    """Build a ready-to-run navigation workload.

    ``nominal_samples`` is the trajectory count the cost model charges
    (the paper's workload size); ``actual_samples`` is what the real
    DWA evaluates per tick, kept smaller for wall-clock tractability
    without changing control quality. Passing ``telemetry`` instruments
    the kernel, graph and host energy meters.
    """

    def amcl_front_end(rng: np.random.Generator) -> tuple[LayeredCostmap, dict[str, Node]]:
        amcl = Amcl(world, AmclConfig(n_particles=300), rng=rng, initial_pose=start)
        costmap = LayeredCostmap(static_map=world)
        return costmap, {
            "localization": LocalizationNode(amcl),
            "costmap_gen": CostmapGenNode(costmap),
        }

    w = _build(
        amcl_front_end, world, start, goal, wap_xy, seed, nominal_samples, actual_samples,
        scan_rate_hz, wired_latency, profile, telemetry,
    )
    # the user's mission goal, injected once at t=0+
    w.sim.schedule_after(
        1e-3, lambda: w.graph.inject("goal", GoalMsg(goal=goal), w.lgv_host), label="goal"
    )
    return w


def build_exploration(
    world: OccupancyGrid,
    start: Pose2D,
    wap_xy: tuple[float, float] = (1.0, 1.0),
    seed: int = 0,
    nominal_particles: int = 30,
    actual_particles: int = 12,
    nominal_samples: int = 2000,
    actual_samples: int = 300,
    scan_rate_hz: float = 5.0,
    wired_latency: dict[str, float] | None = None,
    profile: RobotProfile = EVAL_PROFILE,
    telemetry: Telemetry | None = None,
) -> Workload:
    """Build a ready-to-run exploration workload.

    ``nominal_particles`` / ``nominal_samples`` drive the charged
    cycle costs (Figs. 9-10 knobs); the ``actual_*`` values size the
    real algorithms for simulation wall-clock. Passing ``telemetry``
    instruments the kernel, graph and host energy meters.
    """
    rows, cols, res, origin = world.rows, world.cols, world.resolution, world.origin

    def slam_front_end(rng: np.random.Generator) -> tuple[LayeredCostmap, dict[str, Node]]:
        slam = GMapping(
            GMappingConfig(
                n_particles=actual_particles, rows=rows, cols=cols, resolution=res, origin=origin
            ),
            rng=rng,
            initial_pose=start,
        )
        costmap = LayeredCostmap(rows=rows, cols=cols, resolution=res, origin=origin)
        return costmap, {
            "slam": SlamNode(slam, nominal_particles=nominal_particles),
            "costmap_gen": CostmapGenNode(costmap, track_slam_map=True),
            "exploration": ExplorationNode(FrontierExplorer()),
        }

    return _build(
        slam_front_end, world, start, None, wap_xy, seed, nominal_samples, actual_samples,
        scan_rate_hz, wired_latency, profile, telemetry,
    )
