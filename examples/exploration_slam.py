#!/usr/bin/env python
"""Exploration without a map: GMapping SLAM + frontier exploration.

The paper's second workload category: the LGV starts with no map, runs
RBPF SLAM on its laser scans, picks frontier goals, and maps the whole
arena. With SLAM on the robot the Pi saturates and the mission crawls;
offloading SLAM + the VDP to the cloud server with 12-thread
parallelized scanMatch (paper §V, Fig. 6) transforms it.

Run:  python examples/exploration_slam.py
"""

from repro.core.framework import FrameworkConfig, OffloadingFramework
from repro.experiments._missions import EXP_CYCLES
from repro.workloads.missions import MissionRunner
from repro.workloads.navigation import build_exploration
from repro.world.geometry import Pose2D
from repro.world.maps import box_world


def run(offload: bool):
    w = build_exploration(box_world(8.0), Pose2D(2, 2, 0.5), seed=0, wap_xy=(2.0, 2.0))
    fw = OffloadingFramework(
        w.graph, w.lgv, w.lgv_host, w.cloud_host, (2.0, 2.0), EXP_CYCLES,
        FrameworkConfig(
            initial_placement="strategy" if offload else "all_local",
            server_threads=12,
        ),
    )
    result = MissionRunner(w, framework=fw, timeout_s=700.0).run()
    grid = w.nodes["slam"].slam.map_estimate()
    return result, grid


def render_map(grid) -> str:
    """Tiny ASCII rendering of the SLAM map (downsampled)."""
    chars = {0: ".", 100: "#", -1: " "}
    step = max(1, grid.rows // 24)
    lines = []
    for r in range(grid.rows - 1, -1, -step):
        lines.append("".join(chars[int(grid.data[r, c])] for c in range(0, grid.cols, step)))
    return "\n".join(lines)


def main() -> None:
    for offload, label in ((False, "LOCAL (SLAM on the Pi)"), (True, "OFFLOADED (cloud +12T)")):
        print(f"--- {label} ---")
        result, grid = run(offload)
        print(f"finished: {result.reason} after {result.completion_time_s:.0f} s, "
              f"{result.total_energy_j:.0f} J, mapped {grid.known_fraction():.0%} of the arena")
        print(render_map(grid))
        print()


if __name__ == "__main__":
    main()
