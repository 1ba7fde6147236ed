#!/usr/bin/env python
"""Cloud acceleration: the modeled cross-platform sweeps of Figs. 9 and 10.

The paper's §V parallelizes GMapping's scanMatch (Fig. 6) and DWA
trajectory scoring (Fig. 5) over a thread pool. Here that speedup is
modeled: the calibrated execution model turns each kernel's cycle
count into time on the Turtlebot3, the edge gateway and the cloud
server at 1-12 threads, and the script prints both sweeps with the
best speedup of each offload target over the local robot.

Run:  python examples/cloud_acceleration.py
"""

from repro.experiments.fig9_ecn import run_fig9
from repro.experiments.fig10_vdp import run_fig10


def main() -> None:
    f9 = run_fig9()
    print(f9.render())
    print(f"\nbest ECN speedup vs local: gateway {f9.best_speedup('edge-gateway'):.1f}x, "
          f"cloud {f9.best_speedup('cloud-server'):.1f}x  (paper: 27.97x / 40.84x)")
    print()
    f10 = run_fig10()
    print(f10.render())
    print(f"\nbest VDP speedup vs local: gateway {f10.best_speedup('edge-gateway'):.1f}x, "
          f"cloud {f10.best_speedup('cloud-server'):.1f}x  (paper: 23.92x / 17.29x)")


if __name__ == "__main__":
    main()
