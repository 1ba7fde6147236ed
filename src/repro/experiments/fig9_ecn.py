"""Figure 9: ECN (SLAM) processing time vs threads and particles.

For each platform (Turtlebot3 / edge gateway / cloud server), each
thread count and each particle count, the modeled per-scan SLAM
processing time is computed from the calibrated cycle cost and the
platform's parallel execution model. The expected shape:

* time grows linearly with particles (the accuracy knob);
* threads help more the more particles there are;
* the manycore cloud server achieves the best ECN acceleration
  (paper: up to 40.84x vs 27.97x on the gateway).

The thread axis comes from the execution model only. ``measure_real_slam``
times the real (serial) ``GMapping`` on the recorded Intel-lab-like
sequence, so the tests can check that its cost grows with particles
as the cycle model says.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.tables import Table, format_seconds
from repro.compute.executor import ExecutionModel, SLAM_PROFILE
from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY, PlatformSpec, TURTLEBOT3_PI
from repro.datasets.sequences import intel_lab_sequence
from repro.perception.gmapping import GMapping, GMappingConfig, gmapping_scan_cycles
from repro.sim.rng import seeded_rng
from repro.telemetry import Telemetry

#: The Fig. 9 sweep axes.
THREAD_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 12)
PARTICLE_COUNTS: tuple[int, ...] = (10, 20, 30, 100)
PLATFORMS: tuple[PlatformSpec, ...] = (TURTLEBOT3_PI, EDGE_GATEWAY, CLOUD_SERVER)


@dataclass
class Fig9Result:
    """Modeled per-scan SLAM processing times."""

    #: (platform, threads, particles) -> seconds
    times: dict[tuple[str, int, int], float] = field(default_factory=dict)
    tables: list[Table] = field(default_factory=list)

    def best_speedup(self, platform: str) -> float:
        """Best speedup of ``platform`` over the 1-thread Turtlebot3."""
        best = min(
            self.times[(platform, n, max(PARTICLE_COUNTS))] for n in THREAD_COUNTS
        )
        return self.times[("turtlebot3-pi", 1, max(PARTICLE_COUNTS))] / best

    def render(self) -> str:
        """All three per-platform tables."""
        return "\n\n".join(t.render() for t in self.tables)

    def write_json(self, path: str | Path) -> Path:
        """Write the sweep as canonical JSON (sorted keys, fixed floats).

        The byte-stable artifact the dual-``PYTHONHASHSEED``
        determinism harness compares: same seed → same bytes,
        regardless of interpreter hash randomization.
        """
        payload = {
            "times": {
                f"{plat}/{threads}t/{particles}p": secs
                for (plat, threads, particles), secs in self.times.items()
            },
            "best_speedup": {p.name: self.best_speedup(p.name) for p in PLATFORMS},
        }
        out = Path(path)
        out.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        return out


def run_fig9(telemetry: Telemetry | None = None) -> Fig9Result:
    """Regenerate Fig. 9 from the execution model.

    With ``telemetry`` the sweep emits each modeled SLAM scan as a
    complete span on a ``model:<platform>`` track (so the sweep is
    viewable as a timeline), then runs a short instrumented exploration
    mission so the trace also carries the in-situ graph, transport and
    energy instrumentation.
    """
    res = Fig9Result()
    for platform in PLATFORMS:
        model = ExecutionModel(platform)
        t = Table(
            title=f"Fig. 9 ({platform.name}) — SLAM per-scan processing time",
            columns=["threads \\ particles"] + [str(p) for p in PARTICLE_COUNTS],
        )
        cursor = 0.0  # synthetic timeline: scans laid back to back
        for n in THREAD_COUNTS:
            row: list = [str(n)]
            for particles in PARTICLE_COUNTS:
                cycles = gmapping_scan_cycles(particles)
                secs = model.exec_time(cycles, n, SLAM_PROFILE)
                res.times[(platform.name, n, particles)] = secs
                row.append(format_seconds(secs))
                if telemetry is not None:
                    telemetry.tracer.complete(
                        f"slam[{particles}p/{n}t]",
                        ts=cursor,
                        dur=secs,
                        track=f"model:{platform.name}",
                        cat="model",
                        particles=particles,
                        threads=n,
                    )
                    cursor += secs
            t.rows.append(row)
        res.tables.append(t)
    if telemetry is not None:
        _trace_reference_mission(telemetry)
    return res


def _trace_reference_mission(telemetry: Telemetry, timeout_s: float = 20.0) -> None:
    """Run a short instrumented exploration mission into ``telemetry``.

    The Fig. 9 sweep itself is a pure model; this gives the trace its
    in-situ counterpart — the SLAM ECN running under the offloading
    framework with kernel spans, per-node histograms, topic counters,
    transport stats, migration events and energy gauges.
    """
    from repro.experiments._missions import Deployment, launch_exploration

    dep = Deployment("traced", "strategy", "cloud", 12)
    w, fw, runner = launch_exploration(dep, timeout_s=timeout_s, telemetry=telemetry)
    runner.run()


def measure_real_slam(
    n_particles: int = 10,
    n_scans: int = 12,
    seed: int = 5,
) -> float:
    """Wall-clock seconds/scan of the real GMapping.

    Replays the recorded lab sequence; the experiment tests use it to
    check the real filter's cost against the particle axis.
    """
    seq = intel_lab_sequence(n_scans=n_scans)
    cfg = GMappingConfig(n_particles=n_particles, rows=200, cols=380, resolution=0.05)
    slam = GMapping(cfg, rng=seeded_rng(seed), initial_pose=seq.poses[0])
    t0 = time.perf_counter()  # lint: ok(DET001): wall-clock benchmark of real compute
    for scan, delta in seq:
        slam.process(scan, delta)
    elapsed = time.perf_counter() - t0  # lint: ok(DET001): wall-clock benchmark of real compute
    return elapsed / len(seq)
