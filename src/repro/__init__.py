"""repro — a full reproduction of *Towards Practical Cloud Offloading
for Low-cost Ground Vehicle Workloads* (IPDPS 2021).

The package contains the paper's contribution (the adaptive offloading
framework: analytical model, fine-grained migration, cloud
acceleration, real-time network adjustment) **and** every substrate it
runs on, built from scratch: a deterministic discrete-event ROS-like
middleware, a 2-D vehicle/world simulator, wireless network models
with the paper's UDP kernel-buffer pathology, compute-platform models,
and the robotics stack itself (AMCL, GMapping RBPF SLAM, layered
costmaps, A*/Dijkstra planning, frontier exploration, DWA control).

Quick start::

    from repro import quickstart_navigation
    result = quickstart_navigation()
    print(result.completion_time_s, result.total_energy_j)

Importing the package loads none of it: every name lives in (and is
imported from) its own module, e.g. ``repro.core.framework`` or
``repro.experiments.fig9_ecn``, so a serving run never pays for the
robot stack. See DESIGN.md for the system inventory and EXPERIMENTS.md
for the paper-vs-measured record of every table and figure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.missions import MissionResult

__version__ = "1.0.0"

__all__ = ["quickstart_navigation", "__version__"]


def quickstart_navigation(
    offload: bool = True,
    server: str = "gateway",
    threads: int = 8,
    seed: int = 0,
) -> MissionResult:
    """Run one navigation mission end-to-end and return its metrics.

    The 60-second tour of the system: builds the Fig. 2 pipeline in a
    10 m arena, attaches the offloading framework (or the local
    baseline), runs the mission, and returns completion time, the
    per-component energy budget, and the final node placement.
    """
    from repro.core.framework import FrameworkConfig, OffloadingFramework
    from repro.experiments._missions import NAV_CYCLES
    from repro.workloads.missions import MissionRunner
    from repro.workloads.navigation import build_navigation
    from repro.world.geometry import Pose2D
    from repro.world.maps import box_world

    w = build_navigation(
        box_world(10.0), Pose2D(2, 2, 0.7), Pose2D(8, 8, 0), seed=seed, wap_xy=(2.0, 2.0)
    )
    server_host = w.gateway_host if server == "gateway" else w.cloud_host
    fw = OffloadingFramework(
        w.graph,
        w.lgv,
        w.lgv_host,
        server_host,
        (2.0, 2.0),
        NAV_CYCLES,
        FrameworkConfig(
            initial_placement="strategy" if offload else "all_local",
            server_threads=threads,
        ),
    )
    return MissionRunner(w, framework=fw, timeout_s=400.0).run()
