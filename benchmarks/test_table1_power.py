"""Table I benchmark: component power budgets of three commodity LGVs."""

from benchmarks.conftest import render
from repro.experiments.table1_power import run_table1


def test_table1_power(benchmark):
    """Regenerate Table I and check its headline observation."""
    result = benchmark(run_table1)
    render(result)
    # motor + embedded computer dominate every robot's budget
    for robot, share in result.dominant_share.items():
        assert share > 0.7, robot
    # Turtlebot3 row matches the paper's numbers exactly
    row = [r for r in result.table.rows if r[0] == "Turtlebot3"][0]
    assert row[2].startswith("6.7") and row[4].startswith("6.5")
