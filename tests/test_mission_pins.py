"""Mission outputs pinned across commits.

Two short missions of the Fig. 13 ``gateway +8T`` deployment at seed 0
must reproduce these values exactly (compared by ``repr``): the
navigation to its goal, and the first 20 virtual s of an exploration.
They run every kernel of the perception loop (lidar ray cast, AMCL,
GMapping, costmap clearing and inflation, A*), so a change meant to
keep every simulated byte fails here if it does not. A change that
moves a mission on purpose updates the pin and says so in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.experiments._missions import DEPLOYMENTS, launch_exploration, launch_navigation

NAVIGATION = {
    "success": True,
    "reason": "goal_reached",
    "completion_time_s": 21.0,
    "energy": {
        "sensor": 20.950000000000163,
        "motor": 66.96163003339932,
        "microcontroller": 20.950000000000163,
        "embedded_computer": 42.298317500000124,
        "wireless": 0.1580056888888885,
    },
    "distance_m": 9.543234187984453,
    "collisions": 0,
    "cycles": {
        "path_planning": 13170000.0,
        "sensor_driver": 10500000.0,
        "localization": 92560000.0,
        "safety": 5200000.0,
        "actuator": 892000.0,
        "velocity_mux": 1700000.0,
        "path_tracking": 98844291000.0,
        "costmap_gen": 45053820000.0,
    },
    "pose": (8.05261052266352, 7.862123929602441, 1.5346470588235217),
    "events": 3195,
}

EXPLORATION = {
    "success": False,
    "reason": "timeout",
    "completion_time_s": 20.0,
    "energy": {
        "sensor": 19.95000000000015,
        "motor": 42.93717524120567,
        "microcontroller": 19.95000000000015,
        "embedded_computer": 40.00836064285721,
        "wireless": 0.3374606222222135,
    },
    "distance_m": 5.506401796946229,
    "collisions": 0,
    "cycles": {
        "sensor_driver": 10000000.0,
        "safety": 4950000.0,
        "path_planning": 13470000.0,
        "exploration": 4363200.0,
        "actuator": 890000.0,
        "velocity_mux": 1700000.0,
        "path_tracking": 94092420000.0,
        "slam": 191199690000.0,
        "costmap_gen": 42868650000.0,
    },
    "pose": (4.304802297932067, 1.770771347914692, 0.18433379810092365),
    "events": 3493,
}


@pytest.mark.parametrize(
    "launch, timeout_s, pin",
    [(launch_navigation, 400.0, NAVIGATION), (launch_exploration, 20.0, EXPLORATION)],
    ids=["navigation", "exploration"],
)
def test_mission_matches_pin(launch, timeout_s, pin):
    dep = next(d for d in DEPLOYMENTS if d.label == "gateway +8T")
    world, _, runner = launch(dep, seed=0, timeout_s=timeout_s)
    m = runner.run()
    pose = world.lgv.pose
    got = {
        "success": m.success,
        "reason": m.reason,
        "completion_time_s": m.completion_time_s,
        "energy": m.energy.as_dict(),
        "distance_m": m.distance_m,
        "collisions": m.collisions,
        "cycles": m.cycle_breakdown,
        "pose": (pose.x, pose.y, pose.theta),
        "events": world.sim.events_processed,
    }
    assert repr(got) == repr(pin)
