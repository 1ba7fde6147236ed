"""Compute-platform models: Table III hardware, execution time, energy.

A :class:`~repro.compute.host.Host` represents one machine a node can
run on (the Turtlebot3's Raspberry Pi, the edge gateway, a cloud VM).
Hosts convert CPU cycles into virtual processing time through a
parallel execution model (Amdahl + per-thread overhead) and into
energy through Eq. 1c of the paper.
"""

from repro.compute.platform import (
    CLOUD_SERVER,
    EDGE_GATEWAY,
    TURTLEBOT3_PI,
    PlatformSpec,
)
from repro.compute.executor import ExecutionModel, ParallelProfile
from repro.compute.energy import ComputeEnergyMeter
from repro.compute.host import Host

__all__ = [
    "PlatformSpec",
    "TURTLEBOT3_PI",
    "EDGE_GATEWAY",
    "CLOUD_SERVER",
    "ExecutionModel",
    "ParallelProfile",
    "ComputeEnergyMeter",
    "Host",
]
