"""Control: DWA path tracking, the velocity multiplexer, safety.

Path Tracking reimplements ROS ``base_local_planner``'s Trajectory
Rollout / DWA: sample velocities, forward-simulate trajectories, score
against costmap + path + goal, pick the best. §V parallelizes the
scoring loop; that speedup is modeled through the execution model.
The Velocity Multiplexer reimplements Yujin's yocs_cmd_vel_mux.
"""

from repro.control.trajectory import TrajectoryRollout, TrajectorySet
from repro.control.dwa import DwaConfig, DwaPlanner, dwa_cycles
from repro.control.velocity_mux import VelocityMux, MuxInput, mux_cycles
from repro.control.safety import SafetyController
from repro.control.velocity_law import max_velocity_oa

__all__ = [
    "TrajectoryRollout",
    "TrajectorySet",
    "DwaConfig",
    "DwaPlanner",
    "dwa_cycles",
    "VelocityMux",
    "MuxInput",
    "mux_cycles",
    "SafetyController",
    "max_velocity_oa",
]
