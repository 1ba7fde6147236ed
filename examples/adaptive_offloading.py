#!/usr/bin/env python
"""Adaptive offloading under a degrading network.

A navigation mission whose goal lies toward the edge of WiFi coverage:
Algorithm 1 offloads the VDP at start, Algorithm 2 watches bandwidth +
signal direction and pulls the nodes back to the LGV as the robot
leaves coverage — the mission survives where a static offload policy
would strand the vehicle. The framework's decision trace is printed.

Run:  python examples/adaptive_offloading.py
"""

from repro.core.framework import FrameworkConfig, OffloadingFramework
from repro.experiments._missions import NAV_CYCLES
from repro.workloads.missions import MissionRunner
from repro.workloads.navigation import build_navigation
from repro.world.geometry import Pose2D
from repro.world.maps import open_world


def run(adaptive: bool):
    # 16 m arena, WAP in one corner, goal in the far (weak-signal) corner
    w = build_navigation(
        open_world(16.0), Pose2D(2, 2, 0.7), Pose2D(14, 14, 0),
        seed=1, wap_xy=(2.0, 2.0),
    )
    fw = OffloadingFramework(
        w.graph, w.lgv, w.lgv_host, w.gateway_host, (2.0, 2.0), NAV_CYCLES,
        FrameworkConfig(
            initial_placement="strategy",
            server_threads=8,
            enable_realtime_adjustment=adaptive,
        ),
    )
    result = MissionRunner(w, framework=fw, timeout_s=500.0).run()
    return result, fw


def main() -> None:
    for adaptive, label in ((True, "ADAPTIVE (Algorithm 2 on)"), (False, "STATIC (no adjustment)")):
        print(f"--- {label} ---")
        result, fw = run(adaptive)
        print(f"finished: {result.reason} after {result.completion_time_s:.0f} s, "
              f"{result.total_energy_j:.0f} J, distance {result.distance_m:.1f} m")
        decisions = [e for e in fw.events if e.action != "hold"]
        if decisions:
            print("framework decisions:")
            for e in decisions:
                print(f"  t={e.t:6.1f}s  {e.action:22s} bw={e.bandwidth_hz:4.1f} Hz "
                      f"dir={e.direction:+.2f}  vcap={e.velocity_cap:.2f} m/s")
        else:
            print("framework decisions: (none)")
        print()


if __name__ == "__main__":
    main()
