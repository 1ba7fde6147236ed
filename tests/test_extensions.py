"""Tests for the §IX/§X extensions: DVFS, GA planner, vision, fleet."""


import json
from pathlib import Path

import pytest

from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY
from repro.cloud.fleet import FleetServerModel, size_fleet
from repro.extensions import (
    DvfsPolicy,
    GeneticOffloadPlanner,
    PlacementGenome,
    VisionLocalizationModel,
    optimal_frequency,
    vision_safe_velocity,
)

ROOT = Path(__file__).resolve().parent.parent

NAV = {
    "localization": 0.18e9,
    "costmap_gen": 0.43e9,
    "path_planning": 0.03e9,
    "path_tracking": 0.95e9,
    "velocity_mux": 0.02e6,
}


class TestDvfs:
    def test_operating_point_fields(self):
        p = DvfsPolicy().evaluate(1.4e9)
        assert p.vdp_time_s == pytest.approx(1.0)
        assert 0 < p.velocity_mps <= 1.0
        assert p.energy_j > 0 and p.mission_time_s > 0

    def test_higher_freq_faster_mission(self):
        pol = DvfsPolicy()
        slow = pol.evaluate(0.7e9)
        fast = pol.evaluate(1.4e9)
        assert fast.mission_time_s < slow.mission_time_s

    def test_optimum_is_interior_for_energy(self):
        """The energy-optimal frequency is neither the floor nor the cap
        — the quadratic compute term fights the longer-mission term."""
        pol = DvfsPolicy()
        best = optimal_frequency(pol, 0.4e9, 2.2e9, n_grid=120)
        assert 0.4e9 < best.freq_hz < 2.2e9
        assert best.energy_j <= pol.evaluate(0.4e9).energy_j
        assert best.energy_j <= pol.evaluate(2.2e9).energy_j

    def test_time_weighted_optimum_is_faster(self):
        pol = DvfsPolicy()
        e_opt = optimal_frequency(pol, 0.4e9, 2.2e9, energy_weight=1, time_weight=0)
        t_opt = optimal_frequency(pol, 0.4e9, 2.2e9, energy_weight=0, time_weight=1)
        assert t_opt.freq_hz >= e_opt.freq_hz

    def test_invalid(self):
        with pytest.raises(ValueError):
            DvfsPolicy().evaluate(0.0)
        with pytest.raises(ValueError):
            optimal_frequency(DvfsPolicy(), 2e9, 1e9)
        with pytest.raises(ValueError):
            optimal_frequency(DvfsPolicy(), 1e9, 2e9, n_grid=1)


class TestGeneticOffload:
    def make(self, **kw):
        return GeneticOffloadPlanner(node_cycles=dict(NAV), server=EDGE_GATEWAY, **kw)

    def test_ga_finds_near_optimal_plan(self):
        planner = self.make()
        best, cost = planner.plan(seed=1)
        opt_g, opt_c = planner.exhaustive_best()
        w = (planner.energy_weight, planner.time_weight)
        assert cost.weighted(*w) <= opt_c.weighted(*w) * 1.05

    def test_plan_offloads_the_heavy_vdp_nodes(self):
        best, _ = self.make().plan(seed=1)
        assert best.offloaded["path_tracking"]
        assert best.offloaded["costmap_gen"]

    def test_mux_never_in_genome(self):
        planner = self.make()
        assert "velocity_mux" not in planner.movable

    def test_offloading_beats_all_local_in_model(self):
        planner = self.make()
        all_local = PlacementGenome({n: False for n in planner.movable})
        best, cost = planner.plan(seed=2)
        base = planner.predict(all_local)
        assert cost.time_s < base.time_s

    def test_static_plan_blind_to_network(self):
        """The baseline's flaw: plans under good latency stay offloaded
        even when evaluated under terrible latency."""
        good = self.make(network_latency_s=0.01)
        best, _ = good.plan(seed=3)
        bad = self.make(network_latency_s=1.5)
        cost_bad_net = bad.predict(best)
        all_local = PlacementGenome({n: False for n in bad.movable})
        assert cost_bad_net.time_s > bad.predict(all_local).time_s

    def test_deterministic(self):
        a, _ = self.make().plan(seed=7)
        b, _ = self.make().plan(seed=7)
        assert a.key() == b.key()

    def test_invalid_population(self):
        with pytest.raises(ValueError):
            self.make().plan(population=2)


class TestVision:
    def test_survival_decays_with_speed(self):
        m = VisionLocalizationModel()
        assert m.survival_rate(0.0) == 1.0
        assert m.survival_rate(1.0) < m.survival_rate(0.2)

    def test_localization_fails_past_limit(self):
        m = VisionLocalizationModel()
        v_max = m.max_tracking_velocity()
        assert m.localization_ok(v_max * 0.95)
        assert not m.localization_ok(v_max * 1.1)

    def test_vision_constraint_binds_at_low_latency(self):
        """Fast offloaded perception: the camera, not Eq. 2c, limits speed."""
        m = VisionLocalizationModel(frame_rate_hz=10.0, flow_scale_m=0.03)
        v = vision_safe_velocity(0.02, m)
        assert v == pytest.approx(m.max_tracking_velocity())

    def test_eq2c_binds_at_high_latency(self):
        m = VisionLocalizationModel()  # generous camera
        from repro.control.velocity_law import max_velocity_oa

        v = vision_safe_velocity(2.0, m)
        assert v == pytest.approx(max_velocity_oa(2.0, hardware_cap=1.0))

    def test_slower_than_laser_counterpart(self):
        """§IX: vision-based LGVs need a slower speed than laser ones."""
        from repro.control.velocity_law import max_velocity_oa

        m = VisionLocalizationModel(frame_rate_hz=15.0, flow_scale_m=0.03)
        assert vision_safe_velocity(0.05, m) <= max_velocity_oa(0.05, hardware_cap=1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            VisionLocalizationModel(min_inliers=0)
        with pytest.raises(ValueError):
            VisionLocalizationModel().survival_rate(-1)


class TestFleet:
    def test_single_robot_beats_local(self):
        m = FleetServerModel()
        p = m.service_time(1)
        assert p.beats_local
        assert p.utilization < 1.0

    def test_service_degrades_with_fleet_size(self):
        m = FleetServerModel()
        pts = m.sweep(40)
        vs = [p.velocity_mps for p in pts]
        assert vs == sorted(vs, reverse=True)

    def test_size_fleet_finds_knee(self):
        m = FleetServerModel()
        n = size_fleet(m)
        assert n >= 1
        at, past = m.service_time(n), m.service_time(n + 1)
        assert at.utilization <= 1.0 and at.beats_local
        assert past.utilization > 1.0 or not past.beats_local

    def test_size_fleet_matches_des_admit_all_knee(self):
        # the committed DES fleet curve serves the default model's
        # server, tick rate and pool width over the same wired latency
        bench = json.loads((ROOT / "BENCH_fleet_capacity.json").read_text())
        m = FleetServerModel()
        meta = bench["meta"]
        assert (meta["server"], meta["threads"], meta["tick_rate_hz"]) == (
            m.server.name,
            m.threads,
            m.tick_rate_hz,
        )
        assert size_fleet(m) == bench["capacity_admit_all"]

    def test_terrible_network_supports_nobody(self):
        m = FleetServerModel(network_latency_s=3.0)
        assert size_fleet(m) == 0

    def test_bigger_server_carries_more(self):
        small = FleetServerModel(server=EDGE_GATEWAY, threads=4)
        big = FleetServerModel(server=CLOUD_SERVER, threads=4)
        assert size_fleet(big) >= size_fleet(small)

    def test_invalid(self):
        with pytest.raises(ValueError):
            FleetServerModel().service_time(0)
