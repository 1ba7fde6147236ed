"""The Fig. 2 pipeline nodes as middleware :class:`~repro.middleware.node.Node`\\ s.

Every node runs the real algorithm (AMCL, GMapping, costmap, A*, DWA)
and *charges* the calibrated reference-cycle cost of its nominal
configuration, so mission-level energy and timing reflect the paper's
workload even when the in-simulation algorithm runs with lighter
parameters for wall-clock tractability (``nominal_*`` vs actual
arguments — see DESIGN.md §2).

Topic map (Fig. 2's arrows):

    sensor_driver  -> scan, odom
    localization   -> pose          (AMCL, with-map)
    slam           -> pose, map     (GMapping, without-map)
    costmap_gen    -> costmap
    exploration    -> goal
    path_planning  -> path
    path_tracking  -> cmd_vel_raw
    safety         -> cmd_vel_safety
    velocity_mux   -> cmd_vel
    actuator       (applies cmd_vel to the vehicle)
"""

from __future__ import annotations

import numpy as np

from repro.compute.executor import DWA_PROFILE, SLAM_PROFILE
from repro.control.dwa import DwaPlanner, dwa_cycles
from repro.control.safety import SafetyController
from repro.control.velocity_mux import VelocityMux, mux_cycles
from repro.middleware.messages import (
    GoalMsg,
    GridMsg,
    OdomMsg,
    PathMsg,
    PoseMsg,
    ScanMsg,
    TwistMsg,
)
from repro.middleware.node import Node
from repro.perception.amcl import Amcl, amcl_update_cycles
from repro.perception.costmap import (
    CostmapSnapshot,
    LayeredCostmap,
    costmap_update_cycles,
)
from repro.perception.gmapping import GMapping, gmapping_scan_cycles
from repro.planning.frontier import FrontierExplorer, exploration_cycles
from repro.planning.global_planner import GlobalPlanner, plan_cycles
from repro.vehicle.robot import LGV
from repro.world.geometry import Pose2D


class SensorDriver(Node):
    """Publishes lidar scans and odometry at the sensor rate.

    Pinned to the LGV (it *is* the hardware); negligible cycles.
    """

    def __init__(self, lgv: LGV, scan_rate_hz: float = 5.0) -> None:
        super().__init__("sensor_driver")
        self.lgv = lgv
        self.scan_rate_hz = scan_rate_hz
        self.scans_published = 0

    def on_start(self) -> None:
        self.create_timer(1.0 / self.scan_rate_hz, self.tick, name="scan_timer")

    def tick(self) -> None:
        self.charge(1e5)
        scan = self.lgv.scan(stamp=self.now())
        self.publish("scan", ScanMsg(scan=scan))
        self.publish(
            "odom",
            OdomMsg(pose=self.lgv.odom_pose, v=self.lgv.state.v, w=self.lgv.state.w),
        )
        self.scans_published += 1


class LocalizationNode(Node):
    """AMCL against a known map (the with-map Localization node)."""

    def __init__(
        self,
        amcl: Amcl,
        nominal_particles: int | None = None,
        nominal_beams: int | None = None,
    ) -> None:
        super().__init__("localization")
        self.amcl = amcl
        self.nominal_particles = nominal_particles or amcl.config.n_particles
        self.nominal_beams = nominal_beams or amcl.config.beams_used
        self._last_odom: Pose2D | None = None

    def on_start(self) -> None:
        self.subscribe("scan", self.on_scan)
        self.subscribe("odom", self.on_odom)

    def on_odom(self, msg: OdomMsg) -> None:
        self.charge(1e4)
        if self._last_odom is not None:
            delta = msg.pose.relative_to(self._last_odom)
            self.amcl.predict(delta)
        self._last_odom = msg.pose

    def on_scan(self, msg: ScanMsg) -> None:
        self.charge(amcl_update_cycles(self.nominal_particles, self.nominal_beams))
        self.amcl.update(msg.scan)
        est = self.amcl.estimate()
        self.publish(
            "pose",
            PoseMsg(pose=est, covariance_trace=self.amcl.covariance_trace()),
        )

    def state_size_bytes(self) -> int:
        # particle set: (x, y, theta, w) doubles
        return len(self.amcl.particles) * 32

    def snapshot(self) -> object:
        return {
            "particles": self.amcl.particles.copy(),
            "weights": self.amcl.weights.copy(),
            "last_odom": self._last_odom,
        }

    def restore(self, state: object) -> None:
        if state is None:
            return
        self.amcl.particles = state["particles"].copy()
        self.amcl.weights = state["weights"].copy()
        self._last_odom = state["last_odom"]


class SlamNode(Node):
    """GMapping RBPF SLAM (the without-map Localization node).

    The nominal particle count is the Fig. 9 knob; the paper's §V
    parallelization is engaged by setting ``threads`` > 1 (done by the
    Switcher when the node lands on a server).
    """

    def __init__(
        self,
        slam: GMapping,
        map_publish_every: int = 3,
        nominal_particles: int | None = None,
    ) -> None:
        super().__init__("slam")
        self.slam = slam
        self.map_publish_every = map_publish_every
        self.nominal_particles = nominal_particles or slam.config.n_particles
        self.parallel_profile = SLAM_PROFILE
        self._last_odom: Pose2D | None = None
        self._pending_odom: Pose2D | None = None
        self._scan_count = 0

    def on_start(self) -> None:
        self.subscribe("scan", self.on_scan)
        self.subscribe("odom", self.on_odom)

    def on_odom(self, msg: OdomMsg) -> None:
        self.charge(1e4)
        self._pending_odom = msg.pose

    def on_scan(self, msg: ScanMsg) -> None:
        self.charge(gmapping_scan_cycles(self.nominal_particles))
        odom = self._pending_odom
        if odom is None:
            delta = Pose2D()
        elif self._last_odom is None:
            delta = Pose2D()
        else:
            delta = odom.relative_to(self._last_odom)
        self._last_odom = odom
        est = self.slam.process(msg.scan, delta)
        self.publish("pose", PoseMsg(pose=est))
        self._scan_count += 1
        if self._scan_count % self.map_publish_every == 0:
            grid = self.slam.map_estimate()
            self.publish(
                "map",
                GridMsg(data=grid.data, resolution=grid.resolution, origin=grid.origin),
            )

    def state_size_bytes(self) -> int:
        return self.slam.state_bytes()

    def snapshot(self) -> object:
        # particle poses + maps; the particles' rng streams are
        # deliberately NOT captured — a restored filter continues from
        # the live stream, like a process resuming from a core image.
        slam = self.slam
        return {
            "poses": slam.poses.copy(),
            "log_odds": slam.log_odds.copy(),
            "weights": slam.weights.copy(),
            "match_scores": slam.match_scores.copy(),
            "last_odom": self._last_odom,
            "scan_count": self._scan_count,
        }

    def restore(self, state: object) -> None:
        if state is None:
            return
        slam = self.slam
        slam.poses = state["poses"].copy()
        slam.log_odds = state["log_odds"].copy()
        slam.weights = state["weights"].copy()
        slam.match_scores = state["match_scores"].copy()
        self._last_odom = state["last_odom"]
        self._scan_count = state["scan_count"]


class CostmapGenNode(Node):
    """Layered costmap maintenance (the CostmapGen ECN).

    With a static map the costmap is seeded from it; without one the
    static layer tracks the SLAM map.
    """

    def __init__(self, costmap: LayeredCostmap, track_slam_map: bool = False) -> None:
        super().__init__("costmap_gen")
        self.costmap = costmap
        self.track_slam_map = track_slam_map
        self.parallel_profile = DWA_PROFILE
        self._pose: Pose2D | None = None

    def on_start(self) -> None:
        self.subscribe("scan", self.on_scan)
        self.subscribe("pose", self.on_pose)
        if self.track_slam_map:
            self.subscribe("map", self.on_map)

    def on_pose(self, msg: PoseMsg) -> None:
        self.charge(1e4)
        self._pose = msg.pose

    def on_map(self, msg: GridMsg) -> None:
        self.charge(5e5)
        from repro.world.grid import OccupancyGrid

        self.costmap.set_static_from(
            OccupancyGrid(msg.data, msg.resolution, msg.origin)
        )

    def on_scan(self, msg: ScanMsg) -> None:
        n_beams = len(msg.scan.ranges)
        self.charge(costmap_update_cycles(n_beams, self.costmap.rows * self.costmap.cols))
        pose = self._pose if self._pose is not None else msg.scan.pose
        self.costmap.update_from_scan(msg.scan, pose)
        self.publish(
            "costmap",
            GridMsg(
                data=self.costmap.cost,
                resolution=self.costmap.resolution,
                origin=self.costmap.origin,
            ),
        )

    def state_size_bytes(self) -> int:
        return int(self.costmap.cost.nbytes)

    def snapshot(self) -> object:
        return {
            "cost": self.costmap.cost.copy(),
            "obstacle_lethal": self.costmap._obstacle_lethal.copy(),
            "pose": self._pose,
        }

    def restore(self, state: object) -> None:
        if state is None:
            return
        self.costmap.cost = state["cost"].copy()
        self.costmap._obstacle_lethal = state["obstacle_lethal"].copy()
        self.costmap._lethal = None
        self._pose = state["pose"]


class PathPlanningNode(Node):
    """Global path planning on goal arrival (A*/Dijkstra)."""

    def __init__(self, planner: GlobalPlanner, replan_period_s: float = 4.0) -> None:
        super().__init__("path_planning")
        self.planner = planner
        self.replan_period_s = replan_period_s
        self._goal: Pose2D | None = None
        self._pose: Pose2D | None = None
        self.failures = 0

    def on_start(self) -> None:
        self.subscribe("goal", self.on_goal)
        self.subscribe("pose", self.on_pose)
        self.create_timer(self.replan_period_s, self.replan, name="replan_timer")

    def on_pose(self, msg: PoseMsg) -> None:
        self.charge(1e4)
        self._pose = msg.pose

    def on_goal(self, msg: GoalMsg) -> None:
        self._goal = msg.goal
        self._plan()

    def replan(self) -> None:
        if self._goal is not None:
            self._plan()

    def _plan(self) -> None:
        if self._pose is None or self._goal is None:
            self.charge(1e4)
            return
        cm = self.planner.costmap
        from repro.planning.search import PlanningError

        try:
            path = self.planner.plan(self._pose, self._goal)
        except PlanningError:
            self.failures += 1
            self.charge(plan_cycles(0, cm.rows * cm.cols, self.planner.algorithm))
            self.publish("plan_failed", GoalMsg(goal=self._goal))
            return
        self.charge(plan_cycles(len(path) * 10, cm.rows * cm.cols, self.planner.algorithm))
        self.publish("path", PathMsg(waypoints=path))


class ExplorationNode(Node):
    """Frontier-based exploration: picks goals from the SLAM map."""

    def __init__(self, explorer: FrontierExplorer, decide_period_s: float = 3.0) -> None:
        super().__init__("exploration")
        self.explorer = explorer
        self.decide_period_s = decide_period_s
        self._map = None
        self._pose: Pose2D | None = None
        self._known_history: list[float] = []
        self._goal_counts: dict[tuple[int, int], int] = {}
        self.done = False

    def on_start(self) -> None:
        self.subscribe("map", self.on_map)
        self.subscribe("pose", self.on_pose)
        self.subscribe("plan_failed", self.on_plan_failed)
        self.create_timer(self.decide_period_s, self.decide, name="explore_timer")

    def on_map(self, msg: GridMsg) -> None:
        self.charge(1e4)
        from repro.world.grid import OccupancyGrid

        self._map = OccupancyGrid(msg.data, msg.resolution, msg.origin)

    def on_pose(self, msg: PoseMsg) -> None:
        self.charge(1e4)
        self._pose = msg.pose

    def on_plan_failed(self, msg: GoalMsg) -> None:
        self.charge(1e4)
        self.explorer.blacklist((msg.goal.x, msg.goal.y))

    def decide(self) -> None:
        if self._map is None or self._pose is None or self.done:
            self.charge(1e4)
            return
        self.charge(exploration_cycles(self._map.rows * self._map.cols))

        # exploration is complete when the map has stopped growing:
        # residual frontiers behind walls (unknown slivers the lidar can
        # never clear) would otherwise keep the mission alive forever
        kf = self._map.known_fraction()
        self._known_history.append(kf)
        if (
            len(self._known_history) >= 8
            and kf > 0.5
            and kf - self._known_history[-8] < 0.003
        ):
            self.done = True
            self.publish("exploration_done", GoalMsg(goal=self._pose))
            return

        goal = self.explorer.next_goal(self._map, self._pose)
        if goal is None:
            self.done = True
            self.publish("exploration_done", GoalMsg(goal=self._pose))
            return
        # a frontier that keeps being re-picked without getting mapped
        # is unreachable in practice — blacklist it
        bucket = (int(goal.x / 0.5), int(goal.y / 0.5))
        self._goal_counts[bucket] = self._goal_counts.get(bucket, 0) + 1
        if self._goal_counts[bucket] > 4:
            self.explorer.blacklist((goal.x, goal.y))
            return
        self.publish("goal", GoalMsg(goal=goal))


class PathTrackingNode(Node):
    """DWA path tracking (the Path Tracking ECN on the VDP).

    Triggered by costmap updates (the VDP chain scan -> CostmapGen ->
    Path Tracking), it commands the best simulated trajectory. The
    nominal sample count is the Fig. 10 knob.
    """

    def __init__(
        self,
        dwa: DwaPlanner,
        nominal_samples: int | None = None,
    ) -> None:
        super().__init__("path_tracking")
        self.dwa = dwa
        self.nominal_samples = nominal_samples or dwa.config.n_samples
        self.parallel_profile = DWA_PROFILE
        self._pose: Pose2D | None = None
        self._v = 0.0
        self._w = 0.0
        self._v_limit = 0.3
        self._last_tick_t: float | None = None
        self._period_ema = 0.2  # smoothed control period (s)
        self.goal_reached = False
        self.commands_sent = 0

    def on_start(self) -> None:
        self.subscribe("costmap", self.on_costmap)
        self.subscribe("path", self.on_path)
        self.subscribe("pose", self.on_pose)
        self.subscribe("odom", self.on_odom)
        self.subscribe("velocity_limit", self.on_vlimit)

    def on_pose(self, msg: PoseMsg) -> None:
        self.charge(1e4)
        self._pose = msg.pose

    def on_odom(self, msg: OdomMsg) -> None:
        self.charge(1e4)
        self._v, self._w = msg.v, msg.w

    def on_path(self, msg: PathMsg) -> None:
        self.charge(5e4)
        self.dwa.set_path(msg.waypoints)
        self.goal_reached = False

    def on_vlimit(self, msg: TwistMsg) -> None:
        self.charge(1e3)
        self._v_limit = msg.v

    def on_costmap(self, msg: GridMsg) -> None:
        self.charge(dwa_cycles(self.nominal_samples))
        now = self.now()
        if self._last_tick_t is not None:
            dt = now - self._last_tick_t
            self._period_ema = 0.7 * self._period_ema + 0.3 * dt
        self._last_tick_t = now
        if self._pose is None or len(self.dwa.path) == 0:
            return
        # plan against the freshest costmap payload
        self.dwa.costmap = CostmapSnapshot(msg.data, msg.resolution, msg.origin)
        # at slow control rates a strong turn would rotate far past the
        # intended heading before the next command lands; bound the
        # per-period rotation to ~0.5 rad
        w_limit = float(np.clip(0.5 / max(self._period_ema, 1e-3), 0.4, 2.84))
        res = self.dwa.compute(
            self._pose, self._v, self._w, v_limit=self._v_limit, w_limit=w_limit
        )
        if res.goal_reached:
            self.goal_reached = True
            self.publish("cmd_vel_raw", TwistMsg(v=0.0, w=0.0, source="path_tracking"))
            self.publish("tracking_done", GoalMsg(goal=self._pose))
            return
        self.commands_sent += 1
        self.publish(
            "cmd_vel_raw", TwistMsg(v=res.v, w=res.w, source="path_tracking")
        )

    def state_size_bytes(self) -> int:
        return 64 + 16 * len(self.dwa.path)

    def snapshot(self) -> object:
        return {
            "path": self.dwa.path.copy(),
            "pose": self._pose,
            "v": self._v,
            "w": self._w,
            "v_limit": self._v_limit,
            "period_ema": self._period_ema,
            "goal_reached": self.goal_reached,
        }

    def restore(self, state: object) -> None:
        if state is None:
            return
        self.dwa.path = state["path"].copy()
        self._pose = state["pose"]
        self._v = state["v"]
        self._w = state["w"]
        self._v_limit = state["v_limit"]
        self._period_ema = state["period_ema"]
        self.goal_reached = state["goal_reached"]


class SafetyNode(Node):
    """Local reactive guard; publishes high-priority slowdowns."""

    def __init__(self, controller: SafetyController) -> None:
        super().__init__("safety")
        self.controller = controller

    def on_start(self) -> None:
        self.subscribe("scan", self.on_scan)

    def on_scan(self, msg: ScanMsg) -> None:
        self.charge(5e4)
        cap, emergency = self.controller.check(msg.scan)
        if emergency:
            self.publish("cmd_vel_safety", TwistMsg(v=0.0, w=0.0, source="safety"))


class VelocityMuxNode(Node):
    """Priority velocity multiplexer (always local, T2)."""

    def __init__(self, mux: VelocityMux | None = None) -> None:
        super().__init__("velocity_mux")
        self.mux = mux or VelocityMux()
        self.mux.add_input("path_tracking", priority=10, timeout_s=1.5)
        self.mux.add_input("safety", priority=100, timeout_s=0.4)

    def on_start(self) -> None:
        self.subscribe("cmd_vel_raw", self.on_cmd)
        self.subscribe("cmd_vel_safety", self.on_cmd)

    def on_cmd(self, msg: TwistMsg) -> None:
        self.charge(mux_cycles())
        self.mux.offer(msg.source, msg.v, msg.w, self.now())
        sel = self.mux.select(self.now())
        if sel is not None:
            v, w, src = sel
            self.publish("cmd_vel", TwistMsg(v=v, w=w, source=src))


class ActuatorDriver(Node):
    """Applies the final velocity command to the vehicle (hardware)."""

    def __init__(self, lgv: LGV, command_timeout_s: float = 1.5) -> None:
        super().__init__("actuator")
        self.lgv = lgv
        self.command_timeout_s = command_timeout_s
        self._last_cmd_t = -1e18

    def on_start(self) -> None:
        self.subscribe("cmd_vel", self.on_cmd)
        # watchdog: stop the vehicle if commands dry up (network dead,
        # pipeline stalled) — the LGV must not sail blind.
        self.create_timer(0.5, self.watchdog, name="cmd_watchdog")

    def on_cmd(self, msg: TwistMsg) -> None:
        self.charge(1e4)
        self._last_cmd_t = self.now()
        self.lgv.set_command(msg.v, msg.w)

    def watchdog(self) -> None:
        self.charge(1e3)
        if self.now() - self._last_cmd_t > self.command_timeout_s:
            self.lgv.set_command(0.0, 0.0)
