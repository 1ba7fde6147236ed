#!/usr/bin/env python
"""Telemetry walkthrough: trace one offloaded mission, read the data back.

Runs a short navigation mission with the telemetry subsystem attached,
then shows the three surfaces:

* the span tracer — per-host node executions and kernel events in
  virtual time, written as a Chrome trace you can drop into
  https://ui.perfetto.dev;
* the metrics registry — per-node latency histograms, per-topic
  traffic, transport stats, energy gauges;
* the event bus — migrations and Algorithm 1/2 decisions as queryable
  records.

Run:  python examples/telemetry_demo.py
"""

from repro.core.framework import FrameworkConfig, OffloadingFramework
from repro.experiments._missions import NAV_CYCLES
from repro.telemetry import Telemetry, render_report
from repro.workloads.missions import MissionRunner
from repro.workloads.navigation import build_navigation
from repro.world.geometry import Pose2D
from repro.world.maps import box_world


def main() -> None:
    tel = Telemetry()

    print("Running an instrumented offloaded navigation mission ...")
    w = build_navigation(
        box_world(10.0), Pose2D(2, 2, 0.7), Pose2D(8, 8, 0),
        seed=0, wap_xy=(2.0, 2.0), telemetry=tel,
    )
    fw = OffloadingFramework(
        w.graph, w.lgv, w.lgv_host, w.gateway_host,
        (2.0, 2.0), NAV_CYCLES, FrameworkConfig(server_threads=8),
    )
    runner = MissionRunner(w, framework=fw, timeout_s=120.0)
    mission = runner.run()
    print(f"mission {'completed' if mission.success else 'timed out'} "
          f"at t={mission.completion_time_s:.1f}s\n")

    # 1. spans: where did virtual time go, host by host?
    trace = tel.write_trace("telemetry_demo_trace.json")
    print(f"wrote {trace} — open it in https://ui.perfetto.dev")
    for track in tel.tracer.tracks():
        spans = [s for s in tel.tracer.spans if s.track == track]
        busy = sum(s.duration for s in spans)
        print(f"  track {track:<16s} {len(spans):5d} spans, {busy:8.2f}s busy")

    # 2. metrics: ask pointed questions of the run
    h = tel.metrics.get("node_proc_seconds")
    print("\npath_tracking processing time: "
          f"p50={h.quantile(0.5, node='path_tracking') * 1e3:.1f}ms "
          f"p99={h.quantile(0.99, node='path_tracking') * 1e3:.1f}ms")
    scans = tel.metrics.get("topic_messages_total").value(topic="scan")
    print(f"lidar scans published: {scans:.0f}")

    # 3. events: what did the framework decide, and when?
    print("\nmigrations:")
    for ev in tel.events.select("migration"):
        print(f"  t={ev.t:6.2f}s {ev.get('node'):<14s} "
              f"{ev.get('src')} -> {ev.get('dest')}  ({ev.get('reason') or '-'})")

    print("\nfull run report:\n")
    print(render_report(tel))


if __name__ == "__main__":
    main()
