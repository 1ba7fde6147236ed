"""Integration tests: the Fig. 2 pipelines, missions, and the framework."""

import numpy as np
import pytest

from repro.core import FrameworkConfig, OffloadingGoal
from repro.experiments._missions import (
    DEPLOYMENTS,
    launch_exploration,
    launch_navigation,
)
from repro.workloads.navigation import build_exploration, build_navigation
from repro.world.geometry import Pose2D
from repro.world.maps import box_world


def _pending(w):
    """``(time, label)`` of every event the build queued, popped so that
    no callback runs."""
    out = []
    while w.sim.queue:
        ev = w.sim.queue.pop()
        out.append((ev.time, ev.label))
    return out


class TestMissionBuild:
    """Both missions share one scaffold; pin what each build leaves
    behind (graph node order and queued events) at seed 0."""

    def test_navigation(self):
        goal = Pose2D(8, 8, 0)
        w = build_navigation(box_world(10.0), Pose2D(2, 2, 0.7), goal, wap_xy=(2.0, 2.0), seed=0)
        assert w.goal == goal
        assert list(w.graph.nodes) == [
            "sensor_driver",
            "localization",
            "costmap_gen",
            "path_planning",
            "path_tracking",
            "safety",
            "velocity_mux",
            "actuator",
        ]
        assert _pending(w) == [
            (0.001, "goal"),
            (0.2, "sensor_driver:scan_timer"),
            (0.5, "actuator:cmd_watchdog"),
            (4.0, "path_planning:replan_timer"),
        ]

    def test_exploration(self):
        w = build_exploration(box_world(8.0), Pose2D(2, 2, 0.5), wap_xy=(2.0, 2.0), seed=0)
        assert w.goal is None
        assert list(w.graph.nodes) == [
            "sensor_driver",
            "slam",
            "costmap_gen",
            "exploration",
            "path_planning",
            "path_tracking",
            "safety",
            "velocity_mux",
            "actuator",
        ]
        assert _pending(w) == [
            (0.2, "sensor_driver:scan_timer"),
            (0.5, "actuator:cmd_watchdog"),
            (3.0, "exploration:explore_timer"),
            (4.0, "path_planning:replan_timer"),
        ]


@pytest.fixture(scope="module")
def local_nav_result():
    """One local navigation mission, shared across assertions."""
    _, _, runner = launch_navigation(DEPLOYMENTS[0], timeout_s=200.0)
    return runner.run()


@pytest.fixture(scope="module")
def offloaded_nav_result():
    """One gateway+8T navigation mission, shared across assertions."""
    _, fw, runner = launch_navigation(DEPLOYMENTS[2], timeout_s=200.0)
    res = runner.run()
    res._fw = fw
    return res


class TestNavigationMission:
    def test_local_completes(self, local_nav_result):
        assert local_nav_result.success
        assert local_nav_result.reason == "goal_reached"

    def test_local_velocity_capped_by_eq2c(self, local_nav_result):
        caps = [p.v_max for p in local_nav_result.velocity_trace[20:]]
        assert max(caps) < 0.3  # local VDP ~1 s -> ~0.2 m/s

    def test_energy_components_all_positive(self, local_nav_result):
        e = local_nav_result.energy
        assert e.motor_j > 0 and e.sensor_j > 0
        assert e.microcontroller_j > 0 and e.embedded_computer_j > 0

    def test_local_has_no_wireless_energy(self, local_nav_result):
        assert local_nav_result.energy.wireless_j < 1.0

    def test_cycle_breakdown_covers_pipeline(self, local_nav_result):
        names = set(local_nav_result.cycle_breakdown)
        assert {"localization", "costmap_gen", "path_tracking", "velocity_mux"} <= names

    def test_offloaded_faster_and_cheaper(self, local_nav_result, offloaded_nav_result):
        assert offloaded_nav_result.success
        assert offloaded_nav_result.completion_time_s < local_nav_result.completion_time_s
        assert offloaded_nav_result.total_energy_j < local_nav_result.total_energy_j

    def test_offloaded_placement_is_t3(self, offloaded_nav_result):
        remote = {k for k, v in offloaded_nav_result.final_placement.items() if v != "lgv"}
        assert remote == {"costmap_gen", "path_tracking"}

    def test_offloaded_pays_wireless_energy(self, offloaded_nav_result):
        assert offloaded_nav_result.energy.wireless_j > 0

    def test_mux_and_actuator_stay_local(self, offloaded_nav_result):
        p = offloaded_nav_result.final_placement
        assert p["velocity_mux"] == "lgv"
        assert p["actuator"] == "lgv"
        assert p["sensor_driver"] == "lgv"

    def test_velocity_cap_raised_when_offloaded(self, offloaded_nav_result):
        caps = [v for _, v in offloaded_nav_result._fw.velocity_trace()]
        assert np.mean(caps[3:]) > 0.5


class TestExplorationMission:
    @pytest.fixture(scope="class")
    def offloaded(self):
        _, fw, runner = launch_exploration(DEPLOYMENTS[4], timeout_s=400.0)
        return runner.run()

    def test_completes_and_maps(self, offloaded):
        assert offloaded.success
        assert offloaded.reason == "explored"

    def test_slam_offloaded_as_t1(self, offloaded):
        assert offloaded.final_placement["slam"] != "lgv"

    def test_cycles_dominated_by_slam(self, offloaded):
        c = offloaded.cycle_breakdown
        assert c["slam"] > c["costmap_gen"]


class TestFrameworkBehaviours:
    def test_energy_goal_offloads_t1_too(self):
        w, fw, runner = launch_navigation(
            DEPLOYMENTS[2], timeout_s=120.0, goal_mode=OffloadingGoal.ENERGY
        )
        res = runner.run()
        remote = {k for k, v in res.final_placement.items() if v != "lgv"}
        # EC goal sends all ECNs (here T3 only since nav has no T1 ECN)
        assert {"costmap_gen", "path_tracking"} <= remote

    def test_all_server_moves_everything_movable(self):
        w, fw, runner = launch_navigation(
            DEPLOYMENTS[2]._replace() if hasattr(DEPLOYMENTS[2], "_replace") else DEPLOYMENTS[2],
            timeout_s=60.0,
        )
        fw.config = FrameworkConfig(initial_placement="all_server", server_threads=8)
        fw.start()
        w.sim.run(until=1.0)
        placement = fw.placement()
        assert placement["localization"] != "lgv"
        assert placement["velocity_mux"] == "lgv"

    def test_framework_double_start_raises(self):
        w, fw, runner = launch_navigation(DEPLOYMENTS[0], timeout_s=10.0)
        fw.start()
        with pytest.raises(RuntimeError):
            fw.start()

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError):
            FrameworkConfig(initial_placement="nowhere")

    def test_adjustment_events_recorded(self):
        w, fw, runner = launch_navigation(DEPLOYMENTS[2], timeout_s=30.0)
        runner.run()
        assert len(fw.events) >= 20
        assert all(e.velocity_cap > 0 for e in fw.events[3:])

    def test_deterministic_mission(self):
        def run_once():
            _, _, runner = launch_navigation(DEPLOYMENTS[2], timeout_s=120.0)
            res = runner.run()
            return (res.completion_time_s, res.total_energy_j, res.distance_m)

        assert run_once() == run_once()


class TestMissionRunnerEdges:
    def test_timeout_reported(self):
        w, fw, runner = launch_navigation(DEPLOYMENTS[0], timeout_s=3.0)
        res = runner.run()
        assert not res.success
        assert res.reason == "timeout"

    def test_velocity_trace_sampled(self):
        w, fw, runner = launch_navigation(DEPLOYMENTS[0], timeout_s=5.0)
        res = runner.run()
        assert len(res.velocity_trace) == pytest.approx(100, rel=0.1)  # 5 s / 0.05

    def test_battery_drains_during_mission(self):
        w, fw, runner = launch_navigation(DEPLOYMENTS[0], timeout_s=20.0)
        runner.run()
        assert w.lgv.battery.drawn_j > 0
        assert w.lgv.battery.state_of_charge < 1.0
