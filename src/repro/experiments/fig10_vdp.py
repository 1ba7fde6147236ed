"""Figure 10: VDP (CostmapGen + Path Tracking + Velocity Multiplexer)
processing time vs threads and trajectory samples.

Expected shape (paper §VIII-B):

* time grows with the sample count (the decision-accuracy knob);
* parallelization saturates beyond 4 threads — per-thread work is too
  small to amortize dispatch;
* the high-frequency gateway achieves the best VDP acceleration
  (paper: 23.92x vs 17.29x on the cloud).

The thread axis comes from the execution model only.
``measure_real_vdp`` times the real vectorized pipeline (costmap
update + DWA scoring + mux) for benchmark validation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import Table, format_seconds
from repro.compute.executor import DWA_PROFILE, ExecutionModel
from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY, PlatformSpec, TURTLEBOT3_PI
from repro.control.dwa import DwaConfig, DwaPlanner, dwa_cycles
from repro.control.velocity_mux import VelocityMux, mux_cycles
from repro.datasets.sequences import box_sequence
from repro.perception.costmap import LayeredCostmap, costmap_update_cycles
from repro.telemetry import Telemetry
from repro.world.maps import box_world

#: The Fig. 10 sweep axes.
THREAD_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 12)
SAMPLE_COUNTS: tuple[int, ...] = (200, 500, 1000, 2000)
PLATFORMS: tuple[PlatformSpec, ...] = (TURTLEBOT3_PI, EDGE_GATEWAY, CLOUD_SERVER)

#: Local costmap window size assumed by the cycle model (cells).
COSTMAP_CELLS = 200 * 200
#: Lidar beams per costmap update.
COSTMAP_BEAMS = 360


def vdp_cycles(n_samples: int) -> float:
    """Total reference cycles of one VDP tick (CG + PT + mux)."""
    return (
        costmap_update_cycles(COSTMAP_BEAMS, COSTMAP_CELLS)
        + dwa_cycles(n_samples)
        + mux_cycles()
    )


@dataclass
class Fig10Result:
    """Modeled per-tick VDP processing times."""

    #: (platform, threads, samples) -> seconds
    times: dict[tuple[str, int, int], float] = field(default_factory=dict)
    tables: list[Table] = field(default_factory=list)

    def best_speedup(self, platform: str) -> float:
        """Best speedup of ``platform`` over the 1-thread Turtlebot3
        at the largest sample count."""
        s = max(SAMPLE_COUNTS)
        base = self.times[("turtlebot3-pi", 1, s)]
        best = min(self.times[(platform, n, s)] for n in THREAD_COUNTS)
        return base / best

    def saturation_ratio(self, platform: str, samples: int = 500) -> float:
        """t(8 threads) / t(4 threads): ~1 means saturation past 4."""
        return (
            self.times[(platform, 8, samples)] / self.times[(platform, 4, samples)]
        )

    def render(self) -> str:
        """All three per-platform tables."""
        return "\n\n".join(t.render() for t in self.tables)


def run_fig10(telemetry: Telemetry | None = None) -> Fig10Result:
    """Regenerate Fig. 10 from the execution model.

    With ``telemetry`` each modeled VDP tick becomes a complete span on
    a ``model:<platform>`` track, laid back to back.
    """
    res = Fig10Result()
    for platform in PLATFORMS:
        model = ExecutionModel(platform)
        t = Table(
            title=f"Fig. 10 ({platform.name}) — VDP (CG+PT+VM) per-tick processing time",
            columns=["threads \\ samples"] + [str(s) for s in SAMPLE_COUNTS],
        )
        cursor = 0.0
        for n in THREAD_COUNTS:
            row: list = [str(n)]
            for samples in SAMPLE_COUNTS:
                secs = model.exec_time(vdp_cycles(samples), n, DWA_PROFILE)
                res.times[(platform.name, n, samples)] = secs
                row.append(format_seconds(secs))
                if telemetry is not None:
                    telemetry.tracer.complete(
                        f"vdp[{samples}s/{n}t]",
                        ts=cursor,
                        dur=secs,
                        track=f"model:{platform.name}",
                        cat="model",
                        samples=samples,
                        threads=n,
                    )
                    cursor += secs
            t.rows.append(row)
        res.tables.append(t)
    return res


def measure_real_vdp(
    n_samples: int = 500,
    n_ticks: int = 10,
) -> float:
    """Wall-clock seconds/tick of the real VDP stack.

    One tick = costmap update from a recorded scan + DWA + mux
    selection, as the pipeline runs it.
    """
    world = box_world(8.0)
    seq = box_sequence(n_scans=min(n_ticks, 40))
    costmap = LayeredCostmap(static_map=world)
    dwa = DwaPlanner(costmap, DwaConfig(n_samples=n_samples))
    dwa.set_path(np.array([[2.0, 2.0], [6.0, 6.0]]))
    mux = VelocityMux()
    mux.add_input("path_tracking", 10)
    t0 = time.perf_counter()  # lint: ok(DET001): wall-clock benchmark of real compute
    ticks = 0
    for i in range(n_ticks):
        scan = seq.scans[i % len(seq)]
        pose = seq.poses[i % len(seq)]
        costmap.update_from_scan(scan, pose)
        r = dwa.compute(pose, 0.2, 0.0, v_limit=0.5)
        mux.offer("path_tracking", r.v, r.w, float(i))
        mux.select(float(i))
        ticks += 1
    elapsed = time.perf_counter() - t0  # lint: ok(DET001): wall-clock benchmark of real compute
    return elapsed / ticks
