"""Perception: localization (AMCL), SLAM (GMapping RBPF), costmaps.

These are from-scratch Python implementations of the exact ROS stacks
the paper profiles — ``amcl``, ``gmapping`` and ``costmap_2d``. §V's
thread-pool acceleration of ``scanMatch`` is modeled, not run: the
execution model turns each scan's cycle count into time on a given
platform and thread count.
"""

from repro.perception.costmap import (
    CostValues,
    LayeredCostmap,
    costmap_update_cycles,
)
from repro.perception.likelihood import LikelihoodField
from repro.perception.amcl import Amcl, AmclConfig
from repro.perception.gmapping import GMapping, GMappingConfig

__all__ = [
    "CostValues",
    "LayeredCostmap",
    "costmap_update_cycles",
    "LikelihoodField",
    "Amcl",
    "AmclConfig",
    "GMapping",
    "GMappingConfig",
]
