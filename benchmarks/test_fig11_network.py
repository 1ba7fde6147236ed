"""Figure 11 benchmark: network robustness on the A -> C -> A drive.

Asserts the section's three claims:

* received bandwidth collapses in the unstable area while delivered-
  packet latency stays misleadingly low on the way in (the Fig. 7 UDP
  pathology);
* Algorithm 2 switches the VDP local *before* the dead zone (negative
  direction + bandwidth under the threshold);
* on the way back it migrates to the cloud again.
"""


import numpy as np

from benchmarks.conftest import render
from repro.experiments.fig11_network import run_fig11
from repro.experiments.fig7_udp import run_fig7


def test_fig11_drive(benchmark):
    """Regenerate the Fig. 11 series and switch events."""
    result = benchmark.pedantic(run_fig11, rounds=1, iterations=1)
    render(result)

    t = np.array(result.t)
    bw = np.array(result.bandwidth_hz)
    d = np.array(result.distance_m)

    # healthy bandwidth near the WAP (sender rate is 5 Hz)
    near_out = bw[(t > 3) & (t < 15)]
    assert near_out.mean() > 4.0

    # dead zone: bandwidth collapses
    assert bw[d > 16].mean() < 1.0

    # latency of delivered packets stays low while approaching the
    # unstable area (the misleading metric)
    lat = np.array(result.latency_ms)
    approaching = (d > 8) & (d < 13) & (t < 40)
    vals = lat[approaching]
    vals = vals[~np.isnan(vals)]
    assert len(vals) > 0 and np.median(vals) < 20.0

    # Algorithm 2 switched local before the turnaround and back after
    kinds = [what for _, what in result.switch_events]
    assert any("invoke nodes locally" in k for k in kinds)
    assert any("migrate back" in k for k in kinds)
    t_local = next(tt for tt, k in result.switch_events if "locally" in k)
    t_turn = next(tt for tt, k in result.switch_events if "turnaround" in k)
    assert t_local < t_turn


def test_fig7_udp_mechanism(benchmark):
    """Regenerate the Fig. 7 packet trace: transmit, hold, discard, flush."""
    result = benchmark(run_fig7)
    render(result)
    assert result.count("delivered") >= 1
    assert result.count("held") == 2       # kernel buffer capacity
    assert result.count("discarded") == 2  # non-blocking socket drops
    assert min(result.flushed_latencies_ms) > 1000  # held packets arrive late
