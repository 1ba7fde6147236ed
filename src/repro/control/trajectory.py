"""Trajectory rollout: sample velocities, forward-simulate arcs.

All candidate trajectories are generated in one broadcast: the (N,)
velocity samples and (T,) time steps expand to (N, T) pose arrays with
no Python loop, following the HPC guide's vectorization rule. The
resulting :class:`TrajectorySet` is what
:class:`~repro.control.dwa.DwaPlanner` scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TrajectorySet:
    """N forward-simulated trajectories of T points each.

    Attributes
    ----------
    v, w:
        (N,) sampled linear and angular velocities.
    x, y, theta:
        (N, T) simulated poses along each trajectory.
    """

    v: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray

    @property
    def n(self) -> int:
        """Number of trajectories."""
        return len(self.v)

    @property
    def endpoints(self) -> np.ndarray:
        """(N, 2) final positions."""
        return np.stack([self.x[:, -1], self.y[:, -1]], axis=1)


class TrajectoryRollout:
    """Samples the reachable velocity window and rolls trajectories out.

    Parameters
    ----------
    sim_time_s:
        Forward-simulation horizon.
    sim_dt_s:
        Integration step within the horizon.
    max_accel, max_ang_accel:
        Velocity-window growth rates around the current command.
    """

    def __init__(
        self,
        sim_time_s: float = 1.5,
        sim_dt_s: float = 0.1,
        max_accel: float = 1.0,
        max_ang_accel: float = 2.0,
    ) -> None:
        if sim_time_s <= 0 or sim_dt_s <= 0:
            raise ValueError("sim_time and sim_dt must be positive")
        self.sim_time_s = sim_time_s
        self.sim_dt_s = sim_dt_s
        self.max_accel = max_accel
        self.max_ang_accel = max_ang_accel

    def sample_window(
        self,
        v_now: float,
        w_now: float,
        v_limit: float,
        w_limit: float,
        n_samples: int,
        window_dt: float = 0.2,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The dynamic window: (v, w) pairs reachable within ``window_dt``.

        Samples an approximately square grid of ``n_samples`` points
        over [v_now ± a*dt] x [w_now ± alpha*dt], clipped to limits.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        v_lo = max(0.0, v_now - self.max_accel * window_dt)
        v_hi = min(v_limit, v_now + self.max_accel * window_dt)
        w_lo = max(-w_limit, w_now - self.max_ang_accel * window_dt)
        w_hi = min(w_limit, w_now + self.max_ang_accel * window_dt)
        nv = max(2, int(np.sqrt(n_samples)))
        nw = max(2, int(np.ceil(n_samples / nv)))
        vs = np.linspace(v_lo, max(v_hi, v_lo + 1e-6), nv)
        ws = np.linspace(w_lo, max(w_hi, w_lo + 1e-6), nw)
        V, W = np.meshgrid(vs, ws, indexing="ij")
        return V.ravel()[:n_samples], W.ravel()[:n_samples]

    def rollout(
        self,
        x0: float,
        y0: float,
        th0: float,
        v: np.ndarray,
        w: np.ndarray,
    ) -> TrajectorySet:
        """Simulate all (v, w) pairs forward from the given pose.

        Constant-twist integration, broadcast over (N, T): exact for
        each arc, so longer sim steps stay accurate.
        """
        v = np.asarray(v, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if v.shape != w.shape:
            raise ValueError("v and w must have the same shape")
        t = np.arange(1, int(round(self.sim_time_s / self.sim_dt_s)) + 1) * self.sim_dt_s
        th = th0 + w[:, None] * t[None, :]  # (N, T)
        straight = np.abs(w) < 1e-9
        wk = np.where(straight, 1.0, w)  # avoid div-by-zero; masked below
        r = v / wk
        x_arc = x0 + r[:, None] * (np.sin(th) - np.sin(th0))
        y_arc = y0 - r[:, None] * (np.cos(th) - np.cos(th0))
        x_str = x0 + v[:, None] * t[None, :] * np.cos(th0)
        y_str = y0 + v[:, None] * t[None, :] * np.sin(th0)
        x = np.where(straight[:, None], x_str, x_arc)
        y = np.where(straight[:, None], y_str, y_arc)
        return TrajectorySet(v=v, w=w, x=x, y=y, theta=th)
