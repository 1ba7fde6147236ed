"""Table II benchmark: cycle breakdown and ECN identification.

Profiles both workload categories on the simulated LGV and checks the
paper's conclusions: CostmapGen + Path Tracking are the with-map ECNs,
SLAM joins (and dominates) without a map, and the lightweight nodes
(Localization-laser, Path Planning, Exploration, mux) stay under the
ECN threshold.
"""

from benchmarks.conftest import render
from repro.experiments.table2_cycles import run_table2


def test_table2_cycle_breakdown(benchmark):
    """Regenerate Table II from two short profiling missions."""
    result = benchmark.pedantic(run_table2, kwargs={"duration_s": 30.0}, rounds=1, iterations=1)
    render(result)

    with_map = result.with_map_classification
    assert set(with_map.ecns) == {"costmap_gen", "path_tracking"}

    without_map = result.without_map_classification
    assert "slam" in without_map.ecns
    assert "costmap_gen" in without_map.ecns or "path_tracking" in without_map.ecns

    # SLAM dominates the without-map breakdown (paper: 62%)
    shares = result.without_map_classification.shares
    assert shares["slam"] > 0.4
    # the lightweight nodes stay small
    assert shares.get("path_planning", 0) < 0.1
    assert shares.get("exploration", 0) < 0.1
    assert result.with_map_classification.shares.get("localization", 0) < 0.1
