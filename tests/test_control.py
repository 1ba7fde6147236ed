"""Tests for trajectory rollout, DWA, mux, safety, Eq. 2c."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.dwa import DwaConfig, DwaPlanner, dwa_cycles
from repro.control.safety import SafetyController
from repro.control.trajectory import TrajectoryRollout
from repro.control.velocity_law import max_velocity_oa
from repro.control.velocity_mux import VelocityMux, mux_cycles
from repro.perception import CostValues, LayeredCostmap
from repro.world import Lidar, Pose2D, box_world, open_world


class TestVelocityLaw:
    def test_zero_processing_time_gives_max(self):
        # v(0) = sqrt(2 d a)
        v = max_velocity_oa(0.0, stop_distance_m=0.2, max_accel=2.0)
        assert v == pytest.approx(math.sqrt(2 * 0.2 * 2.0))

    def test_monotone_decreasing_in_tp(self):
        vs = [max_velocity_oa(tp) for tp in (0.0, 0.1, 0.5, 1.0, 3.0)]
        assert vs == sorted(vs, reverse=True)

    def test_large_tp_approaches_d_over_tp(self):
        tp = 50.0
        v = max_velocity_oa(tp, stop_distance_m=0.2, max_accel=2.0)
        assert v == pytest.approx(0.2 / tp, rel=0.05)

    def test_hardware_cap(self):
        assert max_velocity_oa(0.0, hardware_cap=0.1) == 0.1

    def test_paper_calibration(self):
        # ~1 s local VDP -> ~0.2 m/s; ~50 ms offloaded -> ~0.8 m/s
        assert 0.15 < max_velocity_oa(1.0) < 0.25
        assert 0.7 < max_velocity_oa(0.05) < 0.95

    def test_invalid(self):
        with pytest.raises(ValueError):
            max_velocity_oa(-1.0)
        with pytest.raises(ValueError):
            max_velocity_oa(0.1, stop_distance_m=0.0)

    @given(st.floats(0, 10), st.floats(0.01, 2), st.floats(0.1, 5))
    @settings(max_examples=50)
    def test_stopping_distance_invariant(self, tp, d, a):
        """From v_max, coasting tp then braking at a stays within d."""
        v = max_velocity_oa(tp, d, a)
        travelled = v * tp + v * v / (2 * a)
        assert travelled <= d + 1e-6


class TestTrajectoryRollout:
    def test_straight_rollout(self):
        r = TrajectoryRollout(sim_time_s=1.0, sim_dt_s=0.1)
        traj = r.rollout(0, 0, 0, np.array([0.5]), np.array([0.0]))
        assert traj.x[0, -1] == pytest.approx(0.5)
        assert traj.y[0, -1] == pytest.approx(0.0)

    def test_arc_rollout_matches_kinematics(self):
        r = TrajectoryRollout(sim_time_s=math.pi, sim_dt_s=math.pi / 10)
        traj = r.rollout(0, 0, 0, np.array([1.0]), np.array([1.0]))
        # half circle of radius 1 ends at (0, 2)
        assert traj.x[0, -1] == pytest.approx(0.0, abs=1e-9)
        assert traj.y[0, -1] == pytest.approx(2.0, abs=1e-9)

    def test_window_respects_limits(self):
        r = TrajectoryRollout(max_accel=1.0, max_ang_accel=2.0)
        v, w = r.sample_window(0.5, 0.0, v_limit=0.6, w_limit=1.0, n_samples=100)
        assert (v >= 0).all() and (v <= 0.6 + 1e-9).all()
        assert (np.abs(w) <= 1.0 + 1e-9).all()

    def test_window_centered_on_current(self):
        r = TrajectoryRollout(max_accel=1.0)
        v, _ = r.sample_window(0.3, 0.0, v_limit=10.0, w_limit=1.0, n_samples=64, window_dt=0.2)
        assert v.min() >= 0.3 - 0.2 - 1e-9
        assert v.max() <= 0.3 + 0.2 + 1e-9

    def test_sample_count(self):
        r = TrajectoryRollout()
        v, w = r.sample_window(0.2, 0, 0.5, 1.0, 300)
        assert len(v) == 300 and len(w) == 300

    def test_invalid(self):
        with pytest.raises(ValueError):
            TrajectoryRollout(sim_time_s=0)
        r = TrajectoryRollout()
        with pytest.raises(ValueError):
            r.sample_window(0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            r.rollout(0, 0, 0, np.zeros(3), np.zeros(4))


class TestDwa:
    def make(self, n_samples=300):
        cm = LayeredCostmap(static_map=box_world(10.0))
        dwa = DwaPlanner(cm, DwaConfig(n_samples=n_samples))
        dwa.set_path(np.array([[2.0, 2.0], [2.0, 8.0], [8.0, 8.0]]))
        return dwa

    def test_moves_toward_path(self):
        dwa = self.make()
        res = dwa.compute(Pose2D(2, 2, math.pi / 2), 0.2, 0.0, v_limit=0.5)
        assert res.v > 0.1
        assert not res.goal_reached and not res.stuck

    def test_goal_reached_inside_tolerance(self):
        dwa = self.make()
        res = dwa.compute(Pose2D(7.95, 8.0, 0), 0.1, 0.0, v_limit=0.5)
        assert res.goal_reached
        assert res.v == 0.0

    def test_never_selects_colliding_trajectory(self):
        dwa = self.make()
        # heading straight at the box from nearby
        res = dwa.compute(Pose2D(3.2, 5.0, 0.0), 0.4, 0.0, v_limit=0.8)
        # simulate the chosen command: must stay out of lethal space
        traj = dwa.rollout.rollout(3.2, 5.0, 0.0, np.array([res.v]), np.array([res.w]))
        costs = dwa.costmap.costs_at_world(traj.endpoints)
        assert (costs < 254).all()

    def test_empty_path_is_stuck(self):
        cm = LayeredCostmap(static_map=open_world(5.0))
        dwa = DwaPlanner(cm)
        res = dwa.compute(Pose2D(2, 2, 0), 0, 0, v_limit=0.5)
        assert res.stuck

    def test_escape_rule_inside_inflation_ring(self):
        # the corner cell costs INSCRIBED (< LETHAL), so every candidate
        # starts there; only the LETHAL threshold keeps any of them
        cm = LayeredCostmap(static_map=box_world(10.0))
        assert CostValues.INSCRIBED <= cm.cost_at_world(0.05, 0.05) < CostValues.LETHAL
        dwa = DwaPlanner(cm, DwaConfig(n_samples=300))
        dwa.set_path(np.array([[0.05, 0.05], [5.0, 5.0]]))
        res = dwa.compute(Pose2D(0.05, 0.05, math.pi / 4), 0.0, 0.0, v_limit=0.5)
        assert res.v > 0.1
        assert not res.stuck
        assert res.n_valid == 300

    @pytest.mark.parametrize(
        "theta, w", [(-math.pi / 2, 2.84), (math.pi, -2.84)], ids=["south", "west"]
    )
    def test_parked_facing_away_rotates_toward_path(self, theta, w):
        # standing still outranks turning here, which would never change
        # the scores: the planner must rotate toward the path instead
        dwa = self.make()
        res = dwa.compute(Pose2D(2, 2, theta), 0.0, 0.0, v_limit=0.5)
        assert res.v == 0.0
        assert res.w == w
        assert res.stuck
        assert res.n_valid == 300

    def test_bad_path_shape_rejected(self):
        dwa = self.make()
        with pytest.raises(ValueError):
            dwa.set_path(np.zeros((3, 3)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DwaConfig(n_samples=2)

    def test_cycles_model(self):
        assert dwa_cycles(2000) > dwa_cycles(200)
        assert dwa_cycles(2000) == pytest.approx(4e5 + 2000 * 4.75e5)
        with pytest.raises(ValueError):
            dwa_cycles(-1)


class TestVelocityMux:
    def make(self):
        mux = VelocityMux()
        mux.add_input("path_tracking", priority=10, timeout_s=1.0)
        mux.add_input("safety", priority=100, timeout_s=0.3)
        return mux

    def test_higher_priority_wins(self):
        mux = self.make()
        mux.offer("path_tracking", 0.5, 0.0, stamp=0.0)
        mux.offer("safety", 0.0, 0.0, stamp=0.0)
        v, w, src = mux.select(0.1)
        assert src == "safety" and v == 0.0

    def test_stale_source_ignored(self):
        mux = self.make()
        mux.offer("safety", 0.0, 0.0, stamp=0.0)
        mux.offer("path_tracking", 0.5, 0.0, stamp=1.0)
        v, w, src = mux.select(1.1)  # safety is 1.1 s old > 0.3 s timeout
        assert src == "path_tracking" and v == 0.5

    def test_all_stale_returns_none(self):
        mux = self.make()
        mux.offer("path_tracking", 0.5, 0.0, stamp=0.0)
        assert mux.select(10.0) is None

    def test_sources_sorted_by_priority(self):
        assert self.make().sources() == ["safety", "path_tracking"]

    def test_unknown_source_raises(self):
        with pytest.raises(KeyError):
            self.make().offer("joystick", 0, 0, 0)

    def test_duplicate_input_rejected(self):
        mux = self.make()
        with pytest.raises(ValueError):
            mux.add_input("safety", 1)

    def test_cycles_model(self):
        assert mux_cycles() > 0


class TestSafetyController:
    def scan_at(self, world, pose):
        return Lidar(world).scan(pose)

    def test_clear_space_no_restriction(self):
        world = open_world(10.0)
        s = SafetyController()
        cap, emergency = s.check(self.scan_at(world, Pose2D(5, 5, 0)))
        assert cap == 1.0 and not emergency

    def test_emergency_stop_near_wall(self):
        world = open_world(10.0)
        s = SafetyController(stop_distance_m=0.3, slow_distance_m=0.8)
        cap, emergency = s.check(self.scan_at(world, Pose2D(0.25, 5, math.pi)))
        assert emergency and cap == 0.0
        assert s.stops_issued == 1

    def test_slow_zone_scales_cap(self):
        world = open_world(10.0)
        s = SafetyController(stop_distance_m=0.2, slow_distance_m=1.0)
        cap, emergency = s.check(self.scan_at(world, Pose2D(0.7, 5, math.pi)))
        assert not emergency
        assert 0.0 < cap < 1.0

    def test_side_obstacle_outside_cone_ignored(self):
        world = open_world(10.0)
        s = SafetyController(cone_half_angle_rad=0.3)
        # wall close on the left, heading parallel to it
        cap, emergency = s.check(self.scan_at(world, Pose2D(5, 0.4, 0.0)))
        assert not emergency

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SafetyController(stop_distance_m=0.5, slow_distance_m=0.4)
