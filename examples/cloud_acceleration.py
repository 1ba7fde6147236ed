#!/usr/bin/env python
"""Cloud acceleration: parallel scanMatch and parallel trajectory scoring.

Runs the paper's two §V parallelizations *for real* on this machine:

* :class:`ParallelGMapping` splits the particles' batched scanMatch into
  chunks on a thread pool (Fig. 6) — and produces bit-identical maps to
  the serial filter;
* :class:`ParallelScorer` chunks DWA trajectory scoring (Fig. 5) — and
  picks the identical best trajectory.

Then it prints the modeled cross-platform sweeps behind Figs. 9 and 10.

Run:  python examples/cloud_acceleration.py
"""

import time

import numpy as np

from repro.control import DwaConfig, DwaPlanner, ParallelScorer
from repro.datasets import intel_lab_sequence
from repro.experiments import run_fig9, run_fig10
from repro.perception import GMapping, GMappingConfig, LayeredCostmap, ParallelGMapping
from repro.sim.rng import seeded_rng
from repro.world import Pose2D, box_world


def demo_parallel_slam() -> None:
    seq = intel_lab_sequence(n_scans=10)
    cfg = GMappingConfig(n_particles=12, rows=200, cols=380)

    def run(cls, **kw):
        slam = cls(cfg, rng=seeded_rng(5), initial_pose=seq.poses[0], **kw)
        t0 = time.perf_counter()
        for scan, delta in seq:
            est = slam.process(scan, delta)
        dt = time.perf_counter() - t0
        lo = slam.log_odds[slam.best_index()].copy()
        if hasattr(slam, "close"):
            slam.close()
        return est, lo, dt

    e1, m1, t1 = run(GMapping)
    e2, m2, t2 = run(ParallelGMapping, n_threads=4)
    print(f"serial GMapping   : {t1:.2f} s for {len(seq)} scans")
    print(f"parallel (4 thr)  : {t2:.2f} s  -> identical pose: {e1 == e2}, "
          f"identical map: {np.array_equal(m1, m2)}")


def demo_parallel_dwa() -> None:
    cm = LayeredCostmap(static_map=box_world(10.0))
    serial = DwaPlanner(cm, DwaConfig(n_samples=2000))
    serial.set_path(np.array([[2.0, 2.0], [8.0, 8.0]]))
    pose = Pose2D(3.0, 3.0, 0.7)

    t0 = time.perf_counter()
    r1 = serial.compute(pose, 0.3, 0.0, v_limit=0.8)
    t1 = time.perf_counter() - t0

    with ParallelScorer(4) as scorer:
        parallel = DwaPlanner(cm, DwaConfig(n_samples=2000), scorer=scorer)
        parallel.set_path(np.array([[2.0, 2.0], [8.0, 8.0]]))
        t0 = time.perf_counter()
        r2 = parallel.compute(pose, 0.3, 0.0, v_limit=0.8)
        t2 = time.perf_counter() - t0

    print(f"serial scoring    : {t1 * 1e3:.1f} ms for 2000 trajectories")
    print(f"parallel (4 thr)  : {t2 * 1e3:.1f} ms  -> identical command: "
          f"{(r1.v, r1.w) == (r2.v, r2.w)}")


def main() -> None:
    print("=== real thread-pool parallelization (this machine) ===")
    demo_parallel_slam()
    demo_parallel_dwa()
    print()
    print("=== modeled cross-platform acceleration (Figs. 9 & 10) ===")
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
