"""Control: DWA path tracking, the velocity multiplexer, safety.

Path Tracking reimplements ROS ``base_local_planner``'s Trajectory
Rollout / DWA: sample velocities, forward-simulate trajectories, score
against costmap + path + goal, pick the best. §V parallelizes the
scoring loop; that speedup is modeled through the execution model.
The Velocity Multiplexer reimplements Yujin's yocs_cmd_vel_mux.

The package loads nothing: import from the modules. The Eq. 2c law in
:mod:`repro.control.velocity_law` imports only ``math``, so the cloud
serving stack can use it without loading DWA, the costmap or scipy.
"""
