"""Tests for platform specs, the execution model, energy and hosts."""

import pytest
from hypothesis import given, strategies as st

from repro.compute import (
    CLOUD_SERVER,
    EDGE_GATEWAY,
    ExecutionModel,
    Host,
    ParallelProfile,
    PlatformSpec,
    TURTLEBOT3_PI,
)
from repro.compute.executor import DWA_PROFILE, SLAM_PROFILE


class TestPlatformSpec:
    def test_table3_values(self):
        assert TURTLEBOT3_PI.freq_hz == 1.4e9 and TURTLEBOT3_PI.cores == 4
        assert EDGE_GATEWAY.freq_hz == 4.2e9 and EDGE_GATEWAY.cores == 4
        assert EDGE_GATEWAY.hardware_threads == 8
        assert CLOUD_SERVER.freq_hz == 3.1e9 and CLOUD_SERVER.cores == 24

    def test_features_match_table3(self):
        assert TURTLEBOT3_PI.feature == "Low Freq"
        assert EDGE_GATEWAY.feature == "High Freq"
        assert CLOUD_SERVER.feature == "Manycore"

    def test_serial_time(self):
        assert TURTLEBOT3_PI.serial_time(1.4e9) == pytest.approx(1.0)

    def test_dynamic_energy_scales_with_cycles(self):
        e1 = TURTLEBOT3_PI.dynamic_energy(1e9)
        e2 = TURTLEBOT3_PI.dynamic_energy(2e9)
        assert e2 == pytest.approx(2 * e1)

    def test_pi_full_load_power_near_rated(self):
        # k was calibrated so a fully loaded core draws ~4.5 W dynamic
        assert TURTLEBOT3_PI.max_dynamic_power() == pytest.approx(4.5)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PlatformSpec("x", 0.0, 1, 1e-27)
        with pytest.raises(ValueError):
            PlatformSpec("x", 1e9, 0, 1e-27)
        with pytest.raises(ValueError):
            TURTLEBOT3_PI.serial_time(-1)

    def test_energy_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            TURTLEBOT3_PI.dynamic_energy(-5)


class TestExecutionModel:
    def test_single_thread_is_pure_serial(self):
        m = ExecutionModel(EDGE_GATEWAY)
        assert m.exec_time(4.2e9, 1) == pytest.approx(EDGE_GATEWAY.serial_time(4.2e9))
        # the Pi is the IPC reference: 1 cycle per Hz
        assert ExecutionModel(TURTLEBOT3_PI).exec_time(1.4e9, 1) == pytest.approx(1.0)

    def test_parallel_speedup_bounded_by_hw_threads(self):
        m = ExecutionModel(EDGE_GATEWAY)  # 4 cores / 8 hw threads
        t8 = m.exec_time(42e9, 8, SLAM_PROFILE)
        t16 = m.exec_time(42e9, 16, SLAM_PROFILE)
        assert t16 >= t8  # threads beyond SMT width only add overhead

    def test_manycore_wins_on_heavy_parallel_work(self):
        cycles = 50e9  # heavy SLAM-like load
        gw = ExecutionModel(EDGE_GATEWAY)
        cloud = ExecutionModel(CLOUD_SERVER)
        assert cloud.exec_time(cycles, 24, SLAM_PROFILE) < gw.exec_time(cycles, 4, SLAM_PROFILE)

    def test_high_freq_wins_on_light_work(self):
        cycles = 0.2e9  # light VDP-like load
        gw = ExecutionModel(EDGE_GATEWAY)
        cloud = ExecutionModel(CLOUD_SERVER)
        best_gw = min(gw.exec_time(cycles, n, DWA_PROFILE) for n in (1, 2, 4, 8))
        best_cloud = min(cloud.exec_time(cycles, n, DWA_PROFILE) for n in (1, 2, 4, 8, 12))
        assert best_gw < best_cloud

    def test_vdp_saturates_beyond_4_threads(self):
        # Fig. 10: threads > 4 give no improvement for path tracking —
        # the per-thread work of one control tick is too small.
        m = ExecutionModel(CLOUD_SERVER)
        cycles = 0.15e9  # one 500-sample VDP tick
        t4 = m.exec_time(cycles, 4, DWA_PROFILE)
        t8 = m.exec_time(cycles, 8, DWA_PROFILE)
        assert t8 > t4 * 0.95

    def test_best_threads_prefers_more_for_heavy_work(self):
        m = ExecutionModel(CLOUD_SERVER)
        light = m.best_threads(0.05e9, DWA_PROFILE)
        heavy = m.best_threads(100e9, SLAM_PROFILE)
        assert heavy > light

    def test_speedup_definition(self):
        m = ExecutionModel(CLOUD_SERVER)
        s = m.speedup(50e9, 12, SLAM_PROFILE)
        assert s > 5.0

    def test_invalid_args(self):
        m = ExecutionModel(TURTLEBOT3_PI)
        with pytest.raises(ValueError):
            m.exec_time(-1, 1)
        with pytest.raises(ValueError):
            m.exec_time(1e9, 0)
        with pytest.raises(ValueError):
            ParallelProfile(parallel_fraction=1.5)
        with pytest.raises(ValueError):
            ParallelProfile(dispatch_overhead_s=-1)

    @given(st.floats(1e6, 1e11), st.integers(1, 32))
    def test_time_always_positive(self, cycles, threads):
        m = ExecutionModel(CLOUD_SERVER)
        assert m.exec_time(cycles, threads, SLAM_PROFILE) > 0


class TestHostEnergy:
    def test_account_accumulates(self):
        h = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        h.account("slam", 1e9, 0.7)
        h.account("slam", 2e9, 1.4)
        st_ = h.energy.per_node["slam"]
        assert st_.cycles == pytest.approx(3e9)
        assert st_.invocations == 2
        assert h.energy.cycle_breakdown()["slam"] == pytest.approx(3e9)

    def test_idle_energy_integration(self):
        h = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        h.energy.account_idle(10.0)
        assert h.energy.idle_energy_j == pytest.approx(20.0)  # 2 W * 10 s

    def test_idle_backwards_raises(self):
        h = Host("lgv", TURTLEBOT3_PI)
        h.energy.account_idle(5.0)
        with pytest.raises(ValueError):
            h.energy.account_idle(4.0)

    def test_total_energy_sums(self):
        h = Host("lgv", TURTLEBOT3_PI)
        h.account("a", 1e9, 0.7)
        h.energy.account_idle(1.0)
        assert h.energy.total_energy_j == pytest.approx(
            h.energy.dynamic_energy_j + h.energy.idle_energy_j
        )
