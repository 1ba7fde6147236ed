"""Table III benchmark: offloading platform specifications."""

from benchmarks.conftest import render
from repro.experiments.table3_platforms import run_table3


def test_table3_platforms(benchmark):
    """Regenerate Table III and check the three platform roles."""
    result = benchmark(run_table3)
    render(result)
    rows = {r[0]: r for r in result.table.rows}
    assert rows["turtlebot3-pi"][4] == "Low Freq"
    assert rows["edge-gateway"][4] == "High Freq"
    assert rows["cloud-server"][4] == "Manycore"
    assert rows["cloud-server"][2] == 24
