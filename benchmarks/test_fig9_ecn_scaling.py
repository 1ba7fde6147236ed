"""Figure 9 benchmark: ECN (SLAM) acceleration across platforms.

Regenerates the modeled cross-platform sweep (the actual figure) and
asserts the paper's shape: time rises with particles, threads help,
the manycore cloud beats the high-frequency gateway on ECN work. The
thread speedups come from the calibrated execution model; the real
filter's cost against particles is checked by the tier-1 experiment
tests.
"""



from benchmarks.conftest import render
from repro.experiments.fig9_ecn import run_fig9
from repro.experiments.fig9_ecn import PARTICLE_COUNTS


def test_fig9_modeled_sweep(benchmark):
    """Regenerate Fig. 9's three platform tables."""
    result = benchmark(run_fig9)
    render(result)

    # time grows with particles on every platform at 1 thread
    for plat in ("turtlebot3-pi", "edge-gateway", "cloud-server"):
        col = [result.times[(plat, 1, p)] for p in PARTICLE_COUNTS]
        assert col == sorted(col)

    # threads help at the largest particle count
    big = max(PARTICLE_COUNTS)
    for plat in ("edge-gateway", "cloud-server"):
        assert result.times[(plat, 8, big)] < result.times[(plat, 1, big)]

    # manycore cloud gives the best ECN acceleration (paper: 40.84x
    # vs 27.97x); we assert the ordering and the magnitude band
    gw = result.best_speedup("edge-gateway")
    cloud = result.best_speedup("cloud-server")
    assert cloud > gw
    assert 15 < gw < 60
    assert 25 < cloud < 70

