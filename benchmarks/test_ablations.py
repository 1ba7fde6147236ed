"""Ablation benchmarks for the design choices DESIGN.md calls out."""

from repro.experiments.ablations import (
    run_ablation_migration_granularity,
    run_ablation_netqual_metric,
    run_ablation_velocity_adaptation,
)


def test_ablation_netqual_metric(benchmark):
    """Bandwidth+direction vs latency threshold on the dead-zone drive.

    The latency policy never sees the loss (delivered packets look
    fast), so the robot starves; Algorithm 2 switches out in time.
    """
    result = benchmark.pedantic(run_ablation_netqual_metric, rounds=1, iterations=1)
    print()
    print(result.render())
    assert result.starved_s_algorithm2 <= 2.0
    assert result.starved_s_latency >= 5.0
    assert len(result.switch_times_algorithm2) >= 2  # out and back


def test_ablation_migration_granularity(benchmark):
    """Fine-grained selection vs whole-workload offload.

    With a healthy network both complete; fine-grained migration ships
    less over the air (the lightweight nodes stay home).
    """
    result = benchmark.pedantic(run_ablation_migration_granularity, rounds=1, iterations=1)
    print()
    print(result.render())
    assert result.fine.success and result.whole.success
    assert result.fine.energy.wireless_j <= result.whole.energy.wireless_j


def test_ablation_velocity_adaptation(benchmark):
    """Eq. 2c's cap vs a fixed hardware-max cap on the local baseline.

    Out-driving the perception latency wrecks the mission.
    """
    result = benchmark.pedantic(run_ablation_velocity_adaptation, rounds=1, iterations=1)
    print()
    print(result.render())
    assert result.adaptive.success
    assert (not result.fixed.success) or (
        result.fixed.collisions > result.adaptive.collisions
    )
