"""Tests for the experiment harness (tables, figures, ablations).

These are the fast shape checks; the full regeneration with mission
matrices lives in benchmarks/.
"""


import numpy as np
import pytest

from repro.experiments.ablations import run_ablation_netqual_metric
from repro.experiments.fig9_ecn import PARTICLE_COUNTS, measure_real_slam, run_fig9
from repro.experiments.fig10_vdp import (
    SAMPLE_COUNTS,
    measure_real_vdp,
    run_fig10,
    vdp_cycles,
)
from repro.experiments.fig11_network import run_fig11
from repro.experiments.table1_power import run_table1
from repro.experiments.table3_platforms import run_table3


class TestTable1:
    def test_rows_and_dominance(self):
        r = run_table1()
        assert len(r.table.rows) == 3
        assert all(share > 0.7 for share in r.dominant_share.values())

    def test_render_contains_robots(self):
        text = run_table1().render()
        for name in ("Turtlebot2", "Turtlebot3", "Pioneer 3DX"):
            assert name in text


class TestTable3:
    def test_three_platforms(self):
        r = run_table3()
        assert [row[0] for row in r.table.rows] == [
            "turtlebot3-pi", "edge-gateway", "cloud-server",
        ]


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9()

    def test_monotone_in_particles(self, result):
        for plat in ("turtlebot3-pi", "edge-gateway", "cloud-server"):
            times = [result.times[(plat, 1, p)] for p in PARTICLE_COUNTS]
            assert times == sorted(times)

    def test_cloud_beats_gateway_on_ecn(self, result):
        assert result.best_speedup("cloud-server") > result.best_speedup("edge-gateway")

    def test_threads_help_more_with_more_particles(self, result):
        # relative thread gain at 100 particles > at 10 particles (cloud)
        g100 = result.times[("cloud-server", 1, 100)] / result.times[("cloud-server", 8, 100)]
        g10 = result.times[("cloud-server", 1, 10)] / result.times[("cloud-server", 8, 10)]
        assert g100 > g10

    def test_render_has_three_tables(self, result):
        assert result.render().count("Fig. 9") == 3


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig10()

    def test_monotone_in_samples(self, result):
        for plat in ("turtlebot3-pi", "edge-gateway", "cloud-server"):
            times = [result.times[(plat, 1, s)] for s in SAMPLE_COUNTS]
            assert times == sorted(times)

    def test_gateway_beats_cloud_on_vdp(self, result):
        assert result.best_speedup("edge-gateway") > result.best_speedup("cloud-server")

    def test_saturation_beyond_4_threads(self, result):
        assert result.saturation_ratio("edge-gateway", 500) > 0.9

    def test_vdp_cycles_includes_all_three_nodes(self):
        from repro.control.dwa import dwa_cycles

        assert vdp_cycles(500) > dwa_cycles(500)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig11()

    def test_bandwidth_tracks_distance(self, result):
        bw = np.array(result.bandwidth_hz)
        d = np.array(result.distance_m)
        assert bw[d < 6].mean() > bw[d > 15].mean() + 2.0

    def test_switches_out_and_back(self, result):
        kinds = [k for _, k in result.switch_events]
        assert any("locally" in k for k in kinds)
        assert any("back" in k for k in kinds)

    def test_latency_samples_low_when_delivered(self, result):
        lat = np.array(result.latency_ms)
        good = lat[~np.isnan(lat)]
        assert np.median(good) < 25.0

    def test_series_lengths_consistent(self, result):
        n = len(result.t)
        assert len(result.bandwidth_hz) == n == len(result.distance_m) == len(result.remote)


class TestRealMeasurements:
    def test_real_slam_scales_with_particles(self):
        t_small = measure_real_slam(n_particles=4, n_scans=4)
        t_big = measure_real_slam(n_particles=16, n_scans=4)
        assert t_big > t_small

    def test_real_vdp_runs(self):
        t = measure_real_vdp(n_samples=200, n_ticks=3)
        assert 0 < t < 5.0


class TestNetqualAblation:
    def test_algorithm2_beats_latency_policy(self):
        r = run_ablation_netqual_metric()
        assert r.starved_s_algorithm2 < r.starved_s_latency
        assert "starved" in r.render()
