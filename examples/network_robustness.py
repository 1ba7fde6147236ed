#!/usr/bin/env python
"""Network robustness: Algorithm 2 on a drive into the WiFi dead zone.

Reproduces the paper's §VI story interactively: the LGV drives from
the WAP out to a point deep in the unstable area and back, while a
cloud-side Path Tracking node streams 5 Hz velocity commands over UDP.
The script prints the per-second latency/bandwidth/direction telemetry
and Algorithm 2's decisions — watch the latency column stay green
right up to where the bandwidth column has already collapsed.

Run:  python examples/network_robustness.py
"""

import math

from repro.experiments.ablations import run_ablation_netqual_metric
from repro.experiments.fig11_network import run_fig11


def main() -> None:
    result = run_fig11()
    print(result.render())
    print()
    print("per-second telemetry (every 5th sample):")
    print(f"{'t (s)':>7s} {'dist (m)':>9s} {'lat (ms)':>9s} {'bw (Hz)':>8s} "
          f"{'dir':>6s} {'placement':>10s}")
    for i in range(0, len(result.t), 5):
        lat = result.latency_ms[i]
        lat_s = f"{lat:9.1f}" if not math.isnan(lat) else "        -"
        print(f"{result.t[i]:7.1f} {result.distance_m[i]:9.1f} {lat_s} "
              f"{result.bandwidth_hz[i]:8.1f} {result.direction[i]:6.2f} "
              f"{'remote' if result.remote[i] else 'LOCAL':>10s}")

    print()
    print("And the reason latency is the wrong metric:")
    print(run_ablation_netqual_metric().render())


if __name__ == "__main__":
    main()
