#!/usr/bin/env python
"""Quickstart: one navigation mission, local vs offloaded.

Builds the paper's Fig. 2 pipeline on a simulated Turtlebot3 in a
10 m arena, runs it once with everything on the robot and once with
the paper's adaptive offloading framework targeting the edge gateway,
and prints the energy/time comparison — the essence of the paper in
~30 lines of user code.

Run:  python examples/quickstart.py
"""

from repro import quickstart_navigation


def show_mission_map() -> None:
    """Render the arena + planned path + robot of one offloaded run."""
    from repro.analysis.viz import render_mission
    from repro.core.framework import FrameworkConfig, OffloadingFramework
    from repro.experiments._missions import NAV_CYCLES
    from repro.workloads.missions import MissionRunner
    from repro.workloads.navigation import build_navigation
    from repro.world.geometry import Pose2D
    from repro.world.maps import box_world
    import numpy as np

    w = build_navigation(box_world(10.0), Pose2D(2, 2, 0.7), Pose2D(8, 8, 0),
                         seed=0, wap_xy=(2.0, 2.0))
    fw = OffloadingFramework(w.graph, w.lgv, w.lgv_host, w.gateway_host,
                             (2.0, 2.0), NAV_CYCLES, FrameworkConfig(server_threads=8))
    runner = MissionRunner(w, framework=fw, timeout_s=300.0)
    poses = []
    w.sim.every(0.5, lambda: poses.append((w.lgv.pose.x, w.lgv.pose.y)))
    runner.run()
    print()
    print("Mission picture (R robot, G goal, W WAP, o driven path):")
    print(render_mission(w.lgv.world, trajectory=np.array(poses),
                         robot=w.lgv.pose, goal=w.goal, wap=(2.0, 2.0), max_cols=60))


def main() -> None:
    print("Running the local (no offloading) baseline ...")
    local = quickstart_navigation(offload=False)
    print(f"  completed: {local.success} in {local.completion_time_s:.0f} s, "
          f"{local.total_energy_j:.0f} J")

    print("Running with adaptive offloading (gateway, 8 threads) ...")
    off = quickstart_navigation(offload=True, server="gateway", threads=8)
    print(f"  completed: {off.success} in {off.completion_time_s:.0f} s, "
          f"{off.total_energy_j:.0f} J")
    print(f"  final placement: "
          f"{ {k: v for k, v in off.final_placement.items() if v != 'lgv'} }")

    print()
    print(f"mission time reduction : {local.completion_time_s / off.completion_time_s:.2f}x")
    print(f"total energy reduction : {local.total_energy_j / off.total_energy_j:.2f}x")
    print()
    print("Energy breakdown (J):")
    print(f"  {'component':>18s}  {'local':>8s}  {'offloaded':>9s}")
    for comp, lv in local.energy.as_dict().items():
        ov = off.energy.as_dict()[comp]
        print(f"  {comp:>18s}  {lv:8.1f}  {ov:9.1f}")

    show_mission_map()


if __name__ == "__main__":
    main()
