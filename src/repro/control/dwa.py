"""DWA / Trajectory Rollout path tracking (the Path Tracking node).

Per control tick: sample the dynamic window, roll out N trajectories,
score each against (goal progress, global-path proximity, obstacle
clearance, velocity preference), discard colliding ones, command the
winner (lowest-index argmax tie-break). Scoring is the loop §V
parallelizes; its modeled cost on each platform is :func:`dwa_cycles`
through the execution model, and here it is one vectorized pass over
all candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.trajectory import TrajectoryRollout, TrajectorySet
from repro.perception.costmap import CostValues, LayeredCostmap
from repro.world.geometry import Pose2D, normalize_angle


@dataclass(frozen=True)
class DwaConfig:
    """Path-tracking parameters."""

    n_samples: int = 500
    sim_time_s: float = 1.5
    sim_dt_s: float = 0.15
    max_accel: float = 2.0
    max_ang_accel: float = 2.5
    goal_weight: float = 2.0
    path_weight: float = 1.2
    clearance_weight: float = 2.5
    speed_weight: float = 0.8
    turn_weight: float = 0.2
    goal_tolerance_m: float = 0.15
    yaw_tolerance_rad: float = 0.4

    def __post_init__(self) -> None:
        if self.n_samples < 4:
            raise ValueError(f"n_samples must be >= 4, got {self.n_samples}")


@dataclass
class DwaResult:
    """Outcome of one control tick."""

    v: float
    w: float
    best_score: float
    n_valid: int
    goal_reached: bool = False
    stuck: bool = False


class DwaPlanner:
    """The Path Tracking node's control law."""

    def __init__(
        self,
        costmap: LayeredCostmap,
        config: DwaConfig = DwaConfig(),
    ) -> None:
        self.costmap = costmap
        self.config = config
        self.rollout = TrajectoryRollout(
            sim_time_s=config.sim_time_s,
            sim_dt_s=config.sim_dt_s,
            max_accel=config.max_accel,
            max_ang_accel=config.max_ang_accel,
        )
        self.path: np.ndarray = np.empty((0, 2))
        self.ticks = 0

    def set_path(self, waypoints: np.ndarray) -> None:
        """Install the global path to track ((N, 2) world points)."""
        wp = np.asarray(waypoints, dtype=np.float64)
        if wp.ndim != 2 or wp.shape[1] != 2:
            raise ValueError(f"expected (N, 2) waypoints, got {wp.shape}")
        self.path = wp

    def compute(
        self,
        pose: Pose2D,
        v_now: float,
        w_now: float,
        v_limit: float,
        w_limit: float = 2.84,
    ) -> DwaResult:
        """One control tick: returns the best velocity command."""
        cfg = self.config
        self.ticks += 1
        if len(self.path) == 0:
            return DwaResult(0.0, 0.0, -np.inf, 0, stuck=True)
        goal = self.path[-1]
        dist_goal = float(np.hypot(goal[0] - pose.x, goal[1] - pose.y))
        if dist_goal < cfg.goal_tolerance_m:
            return DwaResult(0.0, 0.0, 0.0, 0, goal_reached=True)

        # local target: a point ~0.7 m ahead on the global path, so the
        # scoring follows the path around obstacles instead of pulling
        # straight toward the (possibly occluded) final goal
        target = self._lookahead(pose)
        v, w = self.rollout.sample_window(
            v_now, w_now, v_limit, w_limit, cfg.n_samples
        )
        traj = self.rollout.rollout(pose.x, pose.y, pose.theta, v, w)
        scores = self._score(traj, target)
        best = int(np.argmax(scores))
        n_valid = int(np.sum(np.isfinite(scores)))
        if not np.isfinite(scores[best]):
            # everything collides: rotate in place toward the path
            bearing = np.arctan2(target[1] - pose.y, target[0] - pose.x)
            err = normalize_angle(float(bearing) - pose.theta)
            return DwaResult(0.0, float(np.clip(2.0 * err, -w_limit, w_limit)),
                             -np.inf, 0, stuck=True)
        v_best = float(traj.v[best])
        w_best = float(traj.w[best])
        if abs(v_best) < 1e-3 and abs(w_best) < 0.1:
            # the winner is "do nothing" — a scoring local minimum when
            # the robot is parked facing away from the path (rotation
            # earns no progress but pays the turn penalty, so standing
            # still outranks turning, forever). Standing still can never
            # change the scores, so this is a deadlock: escape by
            # rotating toward the path, like the all-colliding branch.
            bearing = np.arctan2(target[1] - pose.y, target[0] - pose.x)
            err = normalize_angle(float(bearing) - pose.theta)
            if abs(err) > cfg.yaw_tolerance_rad:
                return DwaResult(0.0, float(np.clip(2.0 * err, -w_limit, w_limit)),
                                 float(scores[best]), n_valid, stuck=True)
        return DwaResult(v_best, w_best, float(scores[best]), n_valid)

    def _lookahead(self, pose: Pose2D, dist: float = 0.7) -> np.ndarray:
        """Path point ~``dist`` ahead of the closest path point."""
        d = np.hypot(self.path[:, 0] - pose.x, self.path[:, 1] - pose.y)
        i = int(np.argmin(d))
        seg = np.hypot(*np.diff(self.path[i:], axis=0).T) if i < len(self.path) - 1 else np.array([])
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        j = int(np.searchsorted(cum, dist))
        return self.path[min(i + j, len(self.path) - 1)]

    def _score(self, traj: TrajectorySet, target: np.ndarray) -> np.ndarray:
        """Score every candidate against progress toward ``target``, the
        global path, obstacle clearance and speed; -inf marks colliding
        ones."""
        cfg = self.config
        cm = self.costmap
        x = traj.x
        y = traj.y
        n, t = x.shape

        # obstacle cost along each trajectory (one gather for all of them)
        pts = np.stack([x.ravel(), y.ravel()], axis=1)
        costs = cm.costs_at_world(pts).reshape(n, t)
        worst = costs.max(axis=1)
        # escape rule: when the robot already sits inside the inflation
        # ring, only truly lethal trajectories are discarded, otherwise
        # it could never leave the ring it drifted into
        start_cost = cm.cost_at_world(float(x[0, 0]), float(y[0, 0]))
        threshold = (
            CostValues.LETHAL if start_cost >= CostValues.INSCRIBED else CostValues.INSCRIBED
        )
        colliding = worst >= threshold
        proximity = worst / CostValues.INSCRIBED  # 0 = clear, ~1 = touching

        # progress toward the lookahead target on the global path
        d_end = np.hypot(target[0] - x[:, -1], target[1] - y[:, -1])
        d_now = np.hypot(target[0] - x[:, 0], target[1] - y[:, 0])
        progress = d_now - d_end

        # path proximity: endpoint distance to the nearest path point
        path = self.path
        step = max(1, len(path) // 40)
        px = path[::step, 0][None, :]
        py = path[::step, 1][None, :]
        d_path = np.min(
            np.hypot(x[:, -1][:, None] - px, y[:, -1][:, None] - py), axis=1
        )

        speed = traj.v
        turn = np.abs(traj.w)

        # clearance enters as a *penalty* so a stationary trajectory in
        # open space scores zero, never positive — otherwise stopping
        # would beat making progress
        score = (
            cfg.goal_weight * progress
            - cfg.path_weight * d_path
            - cfg.clearance_weight * proximity
            + cfg.speed_weight * speed
            - cfg.turn_weight * turn
        )
        score[colliding] = -np.inf
        return score


#: Reference cycles to simulate + score one trajectory.
CYCLES_PER_TRAJECTORY = 4.75e5
#: Fixed per-tick overhead (window sampling, winner selection).
CYCLES_TICK_BASE = 4.0e5


def dwa_cycles(n_samples: int) -> float:
    """Modeled reference-cycle cost of one Path Tracking tick.

    Linear in the trajectory count (the Fig. 10 knob): 2000 samples
    -> ~0.95 G cycles (~0.68 s on the Pi). Together with CostmapGen
    this makes the local VDP ~1 s, which pins the local robot's
    velocity near 0.2 m/s through Eq. 2c — the paper's Fig. 12 floor.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    return CYCLES_TICK_BASE + CYCLES_PER_TRAJECTORY * n_samples
