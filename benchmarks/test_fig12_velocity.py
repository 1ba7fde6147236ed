"""Figure 12 benchmark: maximum velocity under five deployments.

Asserts §VIII-D's velocity claims: offloading + parallelization raises
the Eq. 2c cap roughly 3-5x over the local baseline; parallelization
(+8T / +12T) beats the unoptimized offload; and every deployment still
completes the mission.
"""

from benchmarks.conftest import render
from repro.experiments.fig12_velocity import run_fig12


def test_fig12_velocity(benchmark):
    """Regenerate the Fig. 12 velocity traces."""
    result = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    render(result)

    # every deployment finishes the mission
    assert all(result.completed.values()), result.completed

    # offloading raises the cap 3-5x (paper: 4-5x)
    assert 2.5 < result.speedup_over_local("gateway +8T") < 5.5
    assert 2.5 < result.speedup_over_local("cloud +12T") < 5.5

    # parallelization beats plain offloading on both servers
    assert result.mean_caps["gateway +8T"] > result.mean_caps["gateway"]
    assert result.mean_caps["cloud +12T"] > result.mean_caps["cloud"]

    # the local cap is steady; offloaded caps fluctuate with latency
    import numpy as np

    local = np.array(result.traces["local (no offload)"].y)
    remote = np.array(result.traces["gateway +8T"].y)
    assert np.std(local) < np.std(remote) + 1e-3
