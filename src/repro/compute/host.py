"""A host: one machine that executes middleware nodes.

Hosts tie together a platform spec, the execution-time model and the
energy meter. The ``on_robot`` flag decides whether the host's compute
energy counts against the LGV's battery (Eq. 1a only sums robot-side
energy; cloud watts are free to the vehicle).

The serving layer (:mod:`repro.cloud`) also counts the hardware threads
its in-flight requests claim on a host (``occupy``/``vacate``). It is a
live count that guards the pool's accounting, not a time integral.
"""

from __future__ import annotations

from repro.compute.energy import ComputeEnergyMeter
from repro.compute.executor import ExecutionModel, ParallelProfile, SERIAL_PROFILE
from repro.compute.platform import PlatformSpec


class Host:
    """A compute location for nodes.

    Parameters
    ----------
    name:
        Unique host name ("lgv", "gateway", "cloud-vm0", ...).
    platform:
        Hardware spec driving time and energy.
    on_robot:
        True only for the LGV's embedded computer.
    """

    def __init__(self, name: str, platform: PlatformSpec, on_robot: bool = False) -> None:
        self.name = name
        self.platform = platform
        self.on_robot = on_robot
        self.exec_model = ExecutionModel(platform)
        self.energy = ComputeEnergyMeter(platform)
        #: Fault-injection state (repro.faults). ``up=False`` models a
        #: crashed server: the fabric refuses datagrams to/from it and
        #: its nodes are paused. ``derate > 1`` models a thermally /
        #: contention-throttled CPU: every execution takes ``derate``
        #: times longer (a frequency derate).
        self.up: bool = True
        self.derate: float = 1.0
        #: Occupancy accounting (repro.cloud): hardware threads
        #: currently claimed by in-flight pool requests. The middleware
        #: graph's node executions do not occupy (they model a single
        #: mission's pipeline); only the serving layer claims threads.
        self.inflight_threads: int = 0

    # ------------------------------------------------------------------
    # Occupancy (repro.cloud serving layer)
    # ------------------------------------------------------------------
    def occupy(self, threads: int) -> None:
        """Claim ``threads`` hardware threads for an in-flight request."""
        if threads < 0:
            raise ValueError(f"threads must be non-negative, got {threads}")
        self.inflight_threads += threads

    def vacate(self, threads: int) -> None:
        """Release threads claimed by :meth:`occupy`.

        Releasing more than is claimed is an accounting fault in the
        serving layer and raises ``RuntimeError``.
        """
        self.inflight_threads -= threads
        if self.inflight_threads < 0:
            raise RuntimeError(
                f"host {self.name!r} vacated more threads than occupied"
            )

    def exec_time(
        self,
        cycles: float,
        threads: int = 1,
        profile: ParallelProfile = SERIAL_PROFILE,
    ) -> float:
        """Virtual seconds this host needs for ``cycles`` with ``threads``."""
        t = self.exec_model.exec_time(cycles, threads, profile)
        if self.derate != 1.0:
            t *= self.derate
        return t

    def account(self, node: str, cycles: float, busy_seconds: float) -> float:
        """Record one execution into the energy meter; returns energy (J)."""
        return self.energy.record(node, cycles, busy_seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Host({self.name!r}, {self.platform.name}, on_robot={self.on_robot})"
