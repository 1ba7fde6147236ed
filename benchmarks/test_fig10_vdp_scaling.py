"""Figure 10 benchmark: VDP (CG + PT + VM) acceleration across platforms.

Asserts the paper's shape: time scales with trajectory samples,
parallelization saturates beyond 4 threads, and the high-frequency
gateway — not the manycore cloud — wins VDP offloading (paper:
23.92x vs 17.29x). The thread axis comes from the calibrated
execution model. Includes a real measurement of the vectorized
costmap + DWA + mux pipeline.
"""


from benchmarks.conftest import render
from repro.experiments.fig10_vdp import run_fig10
from repro.experiments.fig10_vdp import (
    SAMPLE_COUNTS,
    measure_real_vdp,
)


def test_fig10_modeled_sweep(benchmark):
    """Regenerate Fig. 10's three platform tables."""
    result = benchmark(run_fig10)
    render(result)

    # time grows with samples at 1 thread
    for plat in ("turtlebot3-pi", "edge-gateway", "cloud-server"):
        col = [result.times[(plat, 1, s)] for s in SAMPLE_COUNTS]
        assert col == sorted(col)

    # saturation: going 4 -> 8 threads buys (almost) nothing
    assert result.saturation_ratio("edge-gateway") > 0.9
    assert result.saturation_ratio("cloud-server") > 0.85

    # the high-frequency gateway wins VDP (paper: 23.92x vs 17.29x)
    gw = result.best_speedup("edge-gateway")
    cloud = result.best_speedup("cloud-server")
    assert gw > cloud
    assert 12 < gw < 35
    assert 10 < cloud < 30


def test_fig10_real_vdp_pipeline(benchmark):
    """Time the real VDP tick and sanity-check sample scaling."""
    t_small = measure_real_vdp(n_samples=200, n_ticks=6)
    t_big = benchmark.pedantic(
        measure_real_vdp,
        kwargs={"n_samples": 2000, "n_ticks": 6},
        rounds=1,
        iterations=1,
    )
    # ten times the trajectories must cost visibly more, though far
    # less than 10x thanks to vectorized scoring
    assert t_big > t_small
