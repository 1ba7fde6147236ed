"""Runnable LGV workloads: the Fig. 2 pipeline as middleware nodes.

:mod:`repro.workloads.pipeline` holds one Node class per functional
node; :mod:`repro.workloads.navigation` assembles the with-map and
without-map variants on one scaffold that differs only in its
perception front-end; :mod:`repro.workloads.missions` runs complete
missions and collects the metrics the evaluation figures plot.
"""

from repro.workloads.pipeline import (
    ActuatorDriver,
    CostmapGenNode,
    ExplorationNode,
    LocalizationNode,
    PathPlanningNode,
    PathTrackingNode,
    SafetyNode,
    SensorDriver,
    SlamNode,
    VelocityMuxNode,
)
from repro.workloads.navigation import Workload, build_exploration, build_navigation
from repro.workloads.missions import MissionResult, MissionRunner

__all__ = [
    "SensorDriver",
    "LocalizationNode",
    "SlamNode",
    "CostmapGenNode",
    "PathPlanningNode",
    "ExplorationNode",
    "PathTrackingNode",
    "VelocityMuxNode",
    "SafetyNode",
    "ActuatorDriver",
    "Workload",
    "build_navigation",
    "build_exploration",
    "MissionRunner",
    "MissionResult",
]
