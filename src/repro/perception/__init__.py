"""Perception: localization (AMCL), SLAM (GMapping RBPF), costmaps.

These are from-scratch Python implementations of the exact ROS stacks
the paper profiles — ``amcl``, ``gmapping`` and ``costmap_2d`` — with
the serial and thread-pool-parallel variants of §V's cloud
acceleration.
"""

from repro.perception.costmap import (
    CostValues,
    LayeredCostmap,
    costmap_update_cycles,
)
from repro.perception.likelihood import LikelihoodField
from repro.perception.amcl import Amcl, AmclConfig
from repro.perception.gmapping import GMapping, GMappingConfig
from repro.perception.gmapping_parallel import ParallelGMapping

__all__ = [
    "CostValues",
    "LayeredCostmap",
    "costmap_update_cycles",
    "LikelihoodField",
    "Amcl",
    "AmclConfig",
    "GMapping",
    "GMappingConfig",
    "ParallelGMapping",
]
