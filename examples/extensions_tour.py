#!/usr/bin/env python
"""Tour of the §IX/§X extensions: DVFS, GA baseline, WAP roaming, vision, fleet.

Each section quantifies one direction the paper's discussion sketches,
using the same calibrated models as the main evaluation.

Run:  python examples/extensions_tour.py
"""

import numpy as np

from repro.cloud.fleet import FleetServerModel, size_fleet
from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY
from repro.extensions import (
    DvfsPolicy,
    GeneticOffloadPlanner,
    PlacementGenome,
    VisionLocalizationModel,
    optimal_frequency,
    vision_safe_velocity,
)
from repro.network.fabric import FleetRadioNetwork
from repro.network.signal import WapSite


def demo_dvfs() -> None:
    print("=== DVFS: what if the Pi could scale frequency? (Eq. 1c's knob) ===")
    pol = DvfsPolicy()
    for f in (0.6e9, 1.0e9, 1.4e9, 2.0e9):
        p = pol.evaluate(f)
        print(f"  f={f/1e9:.1f} GHz: VDP {p.vdp_time_s:.2f} s -> v {p.velocity_mps:.2f} m/s, "
              f"mission {p.mission_time_s:.0f} s, {p.energy_j:.0f} J")
    best = optimal_frequency(pol, 0.4e9, 2.2e9)
    print(f"  energy-optimal frequency: {best.freq_hz/1e9:.2f} GHz "
          f"({best.energy_j:.0f} J) — an interior optimum\n")


def demo_genetic() -> None:
    print("=== GA offloading baseline (Rahman et al., §X) ===")
    cycles = {"localization": 0.18e9, "costmap_gen": 0.43e9, "path_planning": 0.03e9,
              "path_tracking": 0.95e9, "velocity_mux": 0.02e6}
    planner = GeneticOffloadPlanner(node_cycles=cycles, server=EDGE_GATEWAY)
    best, cost = planner.plan(seed=1)
    print(f"  GA offloads: {best.to_server()}  (predicted T={cost.time_s:.0f}s, "
          f"E={cost.energy_j:.0f}J) — a superset of Algorithm 1's T3 choice")
    degraded = GeneticOffloadPlanner(node_cycles=cycles, server=EDGE_GATEWAY,
                                     network_latency_s=1.5)
    all_local = PlacementGenome({n: False for n in degraded.movable})
    print(f"  but under a 1.5 s link the static plan costs "
          f"T={degraded.predict(best).time_s:.0f}s vs local "
          f"T={degraded.predict(all_local).time_s:.0f}s — it cannot adapt\n")


def demo_multiwap() -> None:
    print("=== Access-point roaming (prior-work robustness, §X) ===")

    def drive(waps: list[WapSite]) -> tuple[int, int, list[float]]:
        # x = 2 -> 28 m, one 500 B datagram every 0.2 s, re-picking the
        # nearest WAP before each send
        net = FleetRadioNetwork(waps, seed=1)
        pos = [2.0, 0.0]
        link = net.attach("r0", lambda: (pos[0], pos[1]))
        delivered = far = 0
        roams = []
        for i, x in enumerate(np.linspace(2, 28, 120)):
            pos[0] = float(x)
            wap = link.wap
            net.reassociate("r0")
            if link.wap is not wap:
                roams.append(i * 0.2)
            if net.uplink_latency("r0", 500, i * 0.2) is not None:
                delivered += 1
                far += int(x > 20)
        return delivered, far, roams

    delivered, far, roams = drive([WapSite(0, 0), WapSite(30, 0)])
    print(f"  two WAPs 30 m apart: {delivered}/120 delivered ({far} beyond 20 m), "
          f"{len(roams)} roam(s) at {[f'{t:.1f}s' for t in roams]}")
    delivered, far, _ = drive([WapSite(0, 0)])
    print(f"  one WAP:             {delivered}/120 delivered ({far} beyond 20 m) "
          f"— the far end of the drive is a dead zone\n")


def demo_vision() -> None:
    print("=== Vision-based LGVs (§IX): feature tracking limits speed ===")
    cam = VisionLocalizationModel(frame_rate_hz=15.0, flow_scale_m=0.03)
    print(f"  camera tracking limit: {cam.max_tracking_velocity():.2f} m/s")
    for tp in (0.02, 0.5, 2.0):
        v = vision_safe_velocity(tp, cam)
        print(f"  perception latency {tp:4.2f} s -> safe velocity {v:.2f} m/s")
    print("  at low latency the camera binds; at high latency Eq. 2c does\n")


def demo_fleet() -> None:
    print("=== Fleet sizing: robots per server before offloading stops paying ===")
    for label, server, threads in (("gateway, 8T", EDGE_GATEWAY, 8),
                                   ("cloud, 8T", CLOUD_SERVER, 8)):
        m = FleetServerModel(server=server, threads=threads)
        n = size_fleet(m)
        p = m.service_time(max(n, 1))
        print(f"  {label:12s}: up to {n} LGVs (at n={max(n,1)}: util {p.utilization:.0%}, "
              f"v {p.velocity_mps:.2f} m/s)")


def main() -> None:
    demo_dvfs()
    demo_genetic()
    demo_multiwap()
    demo_vision()
    demo_fleet()


if __name__ == "__main__":
    main()
