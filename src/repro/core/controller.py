"""The Controller thread (§VII): runtime parameter adjustment.

The paper's Controller drives two knobs through ROS APIs: the maximum
velocity and the decision accuracy (trajectory-sample / particle
counts). Here it drives only the first — the velocity cap, recomputed
from the current VDP makespan via Eq. 2c after every offloading
decision. Sample and particle counts are fixed per deployment.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.control.velocity_law import (
    DEFAULT_MAX_ACCEL,
    DEFAULT_STOP_DISTANCE_M,
    max_velocity_oa,
)


@dataclass
class Controller:
    """Velocity actuation.

    Parameters
    ----------
    set_velocity_cap:
        Callback into the vehicle (``LGV.set_velocity_cap``).
    hardware_cap:
        Mechanical velocity ceiling (m/s).
    stop_distance_m, max_accel:
        Eq. 2c constants.
    """

    set_velocity_cap: Callable[[float], None]
    hardware_cap: float = 1.0
    stop_distance_m: float = DEFAULT_STOP_DISTANCE_M
    max_accel: float = DEFAULT_MAX_ACCEL
    velocity_history: list[tuple[float, float]] = field(default_factory=list)
    #: Recovery-ladder transitions ((t, mode)); written by
    #: :class:`repro.recovery.manager.RecoveryManager` so degraded intervals
    #: line up with the velocity trace in post-run analysis.
    degraded_history: list[tuple[float, str]] = field(default_factory=list)

    def update_velocity(self, now: float, vdp_time_s: float) -> float:
        """Apply Eq. 2c for the measured VDP makespan; returns v_max."""
        v = max_velocity_oa(
            vdp_time_s,
            self.stop_distance_m,
            self.max_accel,
            hardware_cap=self.hardware_cap,
        )
        self.set_velocity_cap(v)
        self.velocity_history.append((now, v))
        return v

    def note_degraded_mode(self, now: float, mode: str) -> None:
        """Record a recovery-ladder transition (``full_offload``,
        ``t3_only``, ``all_local``)."""
        self.degraded_history.append((now, mode))

    @property
    def current_velocity_cap(self) -> float:
        """Most recently applied cap (hardware cap before any update)."""
        if not self.velocity_history:
            return self.hardware_cap
        return self.velocity_history[-1][1]
