"""Shared mission-launch helpers for the evaluation experiments."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.framework import FrameworkConfig, OffloadingFramework
from repro.core.migration import OffloadingGoal
from repro.telemetry import Telemetry
from repro.workloads.missions import MissionRunner
from repro.workloads.navigation import Workload, build_exploration, build_navigation
from repro.world.geometry import Pose2D
from repro.world.grid import OccupancyGrid
from repro.world.maps import box_world

#: Representative per-node cycle breakdowns (what a Table II profiling
#: run yields); used to seed the framework's ECN classification.
NAV_CYCLES: dict[str, float] = {
    "localization": 0.9e9,
    "costmap_gen": 43e9,
    "path_planning": 0.13e9,
    "path_tracking": 95e9,
    "velocity_mux": 0.02e9,
}
EXP_CYCLES: dict[str, float] = {
    "slam": 190e9,
    "costmap_gen": 43e9,
    "path_planning": 0.13e9,
    "exploration": 1.2e9,
    "path_tracking": 95e9,
    "velocity_mux": 0.02e9,
}


@dataclass(frozen=True)
class Deployment:
    """One evaluation configuration (a Fig. 12/13 bar)."""

    label: str
    placement: str  # all_local | strategy | all_server
    server: str  # gateway | cloud
    threads: int


#: The five deployments of Figs. 12-13.
DEPLOYMENTS: tuple[Deployment, ...] = (
    Deployment("local (no offload)", "all_local", "gateway", 1),
    Deployment("gateway", "strategy", "gateway", 1),
    Deployment("gateway +8T", "strategy", "gateway", 8),
    Deployment("cloud", "strategy", "cloud", 1),
    Deployment("cloud +12T", "strategy", "cloud", 12),
)


def _launch(
    w: Workload,
    deployment: Deployment,
    wap_xy: tuple[float, float],
    cycles: dict[str, float],
    goal_mode: OffloadingGoal,
    timeout_s: float,
) -> tuple[Workload, OffloadingFramework, MissionRunner]:
    server = w.gateway_host if deployment.server == "gateway" else w.cloud_host
    fw = OffloadingFramework(
        w.graph,
        w.lgv,
        w.lgv_host,
        server,
        wap_xy,
        cycles,
        FrameworkConfig(
            goal=goal_mode,
            initial_placement=deployment.placement,
            server_threads=deployment.threads,
        ),
    )
    runner = MissionRunner(w, framework=fw, timeout_s=timeout_s)
    return w, fw, runner


def launch_navigation(
    deployment: Deployment,
    world: OccupancyGrid | None = None,
    start: Pose2D = Pose2D(2, 2, 0.7),
    goal: Pose2D = Pose2D(8, 8, 0),
    wap_xy: tuple[float, float] = (2.0, 2.0),
    seed: int = 0,
    timeout_s: float = 400.0,
    goal_mode: OffloadingGoal = OffloadingGoal.COMPLETION_TIME,
    telemetry: Telemetry | None = None,
) -> tuple[Workload, OffloadingFramework, MissionRunner]:
    """Build a navigation mission under ``deployment`` (not yet run)."""
    w = build_navigation(
        world or box_world(10.0), start, goal, wap_xy=wap_xy, seed=seed, telemetry=telemetry
    )
    return _launch(w, deployment, wap_xy, NAV_CYCLES, goal_mode, timeout_s)


def launch_exploration(
    deployment: Deployment,
    world: OccupancyGrid | None = None,
    start: Pose2D = Pose2D(2, 2, 0.5),
    wap_xy: tuple[float, float] = (2.0, 2.0),
    seed: int = 0,
    timeout_s: float = 700.0,
    telemetry: Telemetry | None = None,
) -> tuple[Workload, OffloadingFramework, MissionRunner]:
    """Build an exploration mission under ``deployment`` (not yet run)."""
    w = build_exploration(
        world or box_world(8.0), start, wap_xy=wap_xy, seed=seed, telemetry=telemetry
    )
    return _launch(w, deployment, wap_xy, EXP_CYCLES, OffloadingGoal.COMPLETION_TIME, timeout_s)
