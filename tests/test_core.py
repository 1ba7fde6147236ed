"""Tests for the paper's core: model, ECN/VDP, Algorithms 1 & 2, framework parts."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AnalyticalModel,
    NodeClass,
    OffloadingGoal,
    OffloadingStrategy,
    NetworkQualityController,
    QualityDecision,
    classify_nodes,
    energy_compute,
    energy_motor,
    energy_transmission,
    find_ecns,
    mission_time,
    standby_time,
)
from repro.core.controller import Controller
from repro.core.netqual import LatencyThresholdController
from repro.network.monitor import BandwidthMonitor, SignalDirectionEstimator

#: A Table-II-like with-map breakdown.
NAV = {
    "localization": 0.9e9,
    "costmap_gen": 43e9,
    "path_planning": 0.13e9,
    "path_tracking": 95e9,
    "velocity_mux": 0.02e9,
}
#: A Table-II-like without-map breakdown.
EXP = dict(NAV, slam=190e9)
EXP.pop("localization")


class TestAnalyticalModel:
    def test_eq1b_transmission(self):
        # E = P * 8 * D / R
        assert energy_transmission(1.2, 1000, 24e6) == pytest.approx(1.2 * 8000 / 24e6)
        with pytest.raises(ValueError):
            energy_transmission(1.0, 100, 0)

    def test_eq1c_compute(self):
        k = 4.5 / 1.4e9**3
        e = energy_compute(k, 1.4e9, 1.4e9)
        assert e == pytest.approx(4.5)  # one second at full load = 4.5 J
        with pytest.raises(ValueError):
            energy_compute(k, -1, 1e9)

    def test_eq1d_motor(self):
        e_fast = energy_motor(0.5, 1.0, 0.9, 0.0, 0.6, 10.0)
        e_slow = energy_motor(0.5, 1.0, 0.2, 0.0, 0.6, 10.0)
        assert e_fast > e_slow
        with pytest.raises(ValueError):
            energy_motor(0.5, 1, 0.2, 0, 0.6, -1)

    def test_motor_energy_distance_dominated(self):
        """E_motor ~ m*g*mu*distance: halving speed, doubling time ~ same."""
        e1 = energy_motor(0.0, 1.0, 0.4, 0.0, 0.6, 10.0)  # 4 m traveled
        e2 = energy_motor(0.0, 1.0, 0.2, 0.0, 0.6, 20.0)  # 4 m traveled
        assert e1 == pytest.approx(e2)

    def test_eq2b_standby(self):
        assert standby_time(0.3, 0.05, 0.02) == pytest.approx(0.37)
        with pytest.raises(ValueError):
            standby_time(-1, 0, 0)

    def test_mission_time_faster_when_offloaded(self):
        t_local = mission_time(10.0, 1.0, 0, stop_distance_m=0.2, max_accel=2.0)
        t_off = mission_time(10.0, 0.05, 0, stop_distance_m=0.2, max_accel=2.0)
        assert t_off < t_local / 2

    def test_whole_model_predicts_offload_win(self):
        m = AnalyticalModel()
        e_local, t_local = m.predict(10.0, local_cycles=400e9, vdp_time_s=1.0, uplink_bytes=0)
        e_off, t_off = m.predict(10.0, local_cycles=10e9, vdp_time_s=0.06, uplink_bytes=2e6)
        assert t_off < t_local
        assert e_off.total_j < e_local.total_j
        assert e_off.transmission_j > 0
        # motor energy roughly flat across deployments (Fig. 13)
        assert 0.3 < e_off.motor_j / e_local.motor_j < 3.0

    @given(st.floats(0, 5), st.floats(0, 5))
    @settings(max_examples=30)
    def test_time_monotone_in_vdp(self, a, b):
        lo, hi = sorted((a, b))
        t_lo = mission_time(5.0, lo, 0)
        t_hi = mission_time(5.0, hi, 0)
        assert t_lo <= t_hi + 1e-9


class TestBottleneck:
    def test_nav_ecns_match_paper(self):
        cls = classify_nodes(NAV)
        assert set(cls.ecns) == {"costmap_gen", "path_tracking"}

    def test_exp_ecns_match_paper(self):
        cls = classify_nodes(EXP)
        assert set(cls.ecns) == {"slam", "costmap_gen", "path_tracking"}

    def test_fig4_quadrants(self):
        cls = classify_nodes(EXP)
        assert cls.classes["slam"] is NodeClass.T1_ECN_ONLY
        assert cls.classes["velocity_mux"] is NodeClass.T2_VDP_ONLY
        assert cls.classes["costmap_gen"] is NodeClass.T3_ECN_AND_VDP
        assert cls.classes["path_tracking"] is NodeClass.T3_ECN_AND_VDP
        assert cls.classes["path_planning"] is NodeClass.T4_NEITHER

    def test_offload_sets(self):
        cls = classify_nodes(EXP)
        assert set(cls.offload_for_energy) == {"slam", "costmap_gen", "path_tracking"}
        assert set(cls.offload_for_time) == {"costmap_gen", "path_tracking"}

    def test_mux_pinned_even_if_heavy(self):
        heavy_mux = dict(NAV, velocity_mux=200e9)
        cls = classify_nodes(heavy_mux)
        assert "velocity_mux" not in cls.ecns

    def test_find_ecns_threshold(self):
        assert find_ecns({"a": 90, "b": 10}, threshold=0.2) == ("a",)
        assert find_ecns({}, threshold=0.1) == ()
        with pytest.raises(ValueError):
            find_ecns({"a": 1}, threshold=1.5)

    def test_shares_sum_to_one(self):
        cls = classify_nodes(NAV)
        assert sum(cls.shares.values()) == pytest.approx(1.0)


class TestAlgorithm1:
    def make(self, goal=OffloadingGoal.COMPLETION_TIME):
        return OffloadingStrategy(classify_nodes(EXP), goal)

    def test_initial_plan_offloads_all_ecns(self):
        s = self.make()
        plan = s.initial_plan()
        assert set(plan.to_server) == {"slam", "costmap_gen", "path_tracking"}
        assert s.current_vdp_location == "server"

    def test_mct_reverts_t3_when_cloud_slow(self):
        s = self.make()
        s.initial_plan()
        plan = s.decide(t_local_vdp_s=0.5, t_cloud_vdp_s=2.0)
        assert set(plan.to_robot) == {"costmap_gen", "path_tracking"}
        assert s.current_vdp_location == "robot"

    def test_mct_keeps_cloud_when_fast(self):
        s = self.make()
        s.initial_plan()
        plan = s.decide(t_local_vdp_s=1.0, t_cloud_vdp_s=0.05)
        assert plan.to_robot == () and plan.to_server == ()

    def test_mct_returns_to_cloud_when_network_recovers(self):
        s = self.make()
        s.initial_plan()
        s.decide(0.5, 2.0)  # revert
        plan = s.decide(0.5, 0.05)  # recover
        assert set(plan.to_server) == {"costmap_gen", "path_tracking"}

    def test_hysteresis_prevents_thrash(self):
        s = self.make()
        s.initial_plan()
        # cloud marginally worse than local: inside hysteresis, hold
        plan = s.decide(1.0, 1.05)
        assert plan.to_robot == () and plan.to_server == ()

    def test_ec_goal_is_static(self):
        s = self.make(OffloadingGoal.ENERGY)
        s.initial_plan()
        plan = s.decide(0.5, 5.0)  # terrible latency
        assert plan.to_robot == ()  # energy goal never reverts
        assert s.current_vdp_location == "server"

    def test_plan_placement_lookup(self):
        s = self.make()
        plan = s.initial_plan()
        assert plan.placement("slam") == "server"
        assert plan.placement("velocity_mux") == "unchanged"

    def test_negative_times_rejected(self):
        s = self.make()
        with pytest.raises(ValueError):
            s.decide(-1.0, 0.5)


class TestAlgorithm2:
    def make(self, threshold=4.0):
        bw = BandwidthMonitor(1.0)
        d = SignalDirectionEstimator((0.0, 0.0))
        return NetworkQualityController(bw, d, threshold), bw, d

    def feed_direction(self, d, away: bool):
        xs = [1.0, 2.0, 3.0] if away else [3.0, 2.0, 1.0]
        for i, x in enumerate(xs):
            d.record(float(i), x, 0.0)

    def test_low_bw_moving_away_goes_local(self):
        ctl, bw, d = self.make()
        self.feed_direction(d, away=True)
        bw.record(2.0)  # 1 Hz < threshold
        assert ctl.evaluate(2.5, currently_remote=True) is QualityDecision.GO_LOCAL
        assert ctl.switches_to_local == 1

    def test_high_bw_approaching_goes_remote(self):
        ctl, bw, d = self.make()
        self.feed_direction(d, away=False)
        for i in range(6):
            bw.record(2.0 + i * 0.1)
        assert ctl.evaluate(2.6, currently_remote=False) is QualityDecision.GO_REMOTE

    def test_low_bw_but_approaching_holds(self):
        # paper's rule requires BOTH conditions
        ctl, bw, d = self.make()
        self.feed_direction(d, away=False)
        bw.record(2.0)
        assert ctl.evaluate(2.5, currently_remote=True) is QualityDecision.HOLD

    def test_high_bw_moving_away_holds(self):
        ctl, bw, d = self.make()
        self.feed_direction(d, away=True)
        for i in range(6):
            bw.record(2.0 + i * 0.1)
        assert ctl.evaluate(2.6, currently_remote=True) is QualityDecision.HOLD

    def test_already_local_no_repeat_decision(self):
        ctl, bw, d = self.make()
        self.feed_direction(d, away=True)
        bw.record(2.0)
        assert ctl.evaluate(2.5, currently_remote=False) is QualityDecision.HOLD

    def test_warmup_rate_not_spuriously_low(self):
        # Regression: during the first window the monitor used to divide
        # by the full window span, so a healthy ~5 Hz stream observed
        # for only 0.3 s read as 3 Hz — under threshold — and Algorithm
        # 2 retreated at mission start for no reason.
        ctl, bw, d = self.make()
        self.feed_direction(d, away=True)
        for t in (0.1, 0.2, 0.3):
            bw.record(t)
        assert ctl.evaluate(0.4, currently_remote=True) is QualityDecision.HOLD
        assert ctl.switches_to_local == 0

    def test_latency_strawman_holds_on_nan(self):
        ctl = LatencyThresholdController()
        assert ctl.evaluate(float("nan"), True) is QualityDecision.HOLD

    def test_latency_strawman_reacts_to_big_tail(self):
        ctl = LatencyThresholdController(latency_threshold_s=0.1)
        assert ctl.evaluate(0.5, True) is QualityDecision.GO_LOCAL
        assert ctl.evaluate(0.01, False) is QualityDecision.GO_REMOTE


class TestController:
    def test_updates_velocity_from_vdp(self):
        applied = []
        c = Controller(set_velocity_cap=applied.append, hardware_cap=1.0)
        v = c.update_velocity(1.0, vdp_time_s=1.0)
        assert applied == [v]
        assert 0.15 < v < 0.25  # the calibrated local operating point

    def test_velocity_history_grows(self):
        c = Controller(set_velocity_cap=lambda v: None)
        c.update_velocity(1.0, 0.5)
        c.update_velocity(2.0, 0.1)
        assert len(c.velocity_history) == 2
        assert c.current_velocity_cap == c.velocity_history[-1][1]

    def test_default_cap_before_updates(self):
        c = Controller(set_velocity_cap=lambda v: None, hardware_cap=0.7)
        assert c.current_velocity_cap == 0.7


class TestSwitcher:
    def make(self):
        from repro.core.migration import MigrationPlan
        from repro.core.switcher import Switcher
        from repro.compute import EDGE_GATEWAY, Host, TURTLEBOT3_PI
        from repro.middleware import Graph, InstantTransport, Node
        from repro.sim import Simulator

        sim = Simulator()
        graph = Graph(sim, InstantTransport())
        lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        server = Host("gateway", EDGE_GATEWAY)

        class Worker(Node):
            def on_start(self):
                pass

        graph.add_node(Worker("worker"), server)
        sw = Switcher(graph, lgv, server, server_threads={"worker": 8})
        return sw, graph, MigrationPlan

    def test_no_move_still_applies_thread_width(self):
        # Regression: a node already sitting on the destination host
        # used to be silently skipped, so a changed server_threads
        # entry never reached it — the §V acceleration knob went dead.
        sw, graph, MigrationPlan = self.make()
        pause = sw.apply(MigrationPlan(to_server=("worker",), to_robot=(), vdp_time_s=0.0))
        assert pause == 0.0
        assert graph.nodes["worker"].threads == 8
        # ...but it is NOT a migration: nothing recorded, no pause paid
        assert sw.records == []

    def test_no_move_to_robot_resets_width(self):
        sw, graph, MigrationPlan = self.make()
        sw.apply(MigrationPlan(to_server=("worker",), to_robot=(), vdp_time_s=0.0))
        graph.nodes["worker"].host = sw.lgv_host  # relocate out-of-band
        sw.apply(MigrationPlan(to_server=(), to_robot=("worker",), vdp_time_s=0.0))
        assert graph.nodes["worker"].threads == 1
        assert sw.records == []

    def test_unknown_node_is_ignored(self):
        sw, graph, MigrationPlan = self.make()
        assert sw.apply(MigrationPlan(to_server=("ghost",), to_robot=(), vdp_time_s=0.0)) == 0.0
