"""Figure 14 benchmark: the max-vs-real velocity gap.

Asserts §VIII-E's adaptivity argument: in an obstacle-rich world the
real velocity only touches the cap on straight stretches, the gap
grows with the cap, and lowering the cap (i.e. reducing cloud
parallelization when the environment wouldn't let the robot use it)
closes the gap.
"""

from benchmarks.conftest import render
from repro.experiments.fig14_adaptivity import run_fig14


def test_fig14_adaptivity(benchmark):
    """Regenerate the Fig. 14 traces at two cap levels."""
    result = benchmark.pedantic(run_fig14, rounds=1, iterations=1)
    render(result)

    labels = list(result.traces)
    high, low = labels[0], labels[1]

    # the higher the cap, the bigger the gap (the figure's headline)
    assert result.gaps[high] > result.gaps[low]

    # at the low cap the robot actually uses most of its allowance
    assert result.utilization[low] > result.utilization[high]
    assert result.utilization[low] > 0.6
