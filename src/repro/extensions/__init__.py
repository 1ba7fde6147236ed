"""Extensions beyond the paper's core evaluation.

Implements the directions §IX (Discussion and Future Work) sketches
and the related-work baselines §X compares against:

* :mod:`repro.extensions.dvfs` — CPU frequency scaling on the LGV
  (the Eq. 1c footnote's knob the paper holds constant);
* :mod:`repro.extensions.genetic_offload` — a Rahman-et-al.-style
  genetic-algorithm placement planner, the static baseline Algorithm 1
  is contrasted with;
* :mod:`repro.extensions.vision` — the vision-based LGV adaptation:
  localization-failure risk grows with speed, adding a second velocity
  constraint.

Fleet sizing — several LGVs sharing one server — lives in the serving
stack, as :mod:`repro.cloud.fleet`. Roaming among several WAPs, the
§X robustness approach that needs multiple links to exist, is
:meth:`repro.network.fabric.FleetRadioNetwork.reassociate`.
"""

from repro.extensions.dvfs import DvfsPolicy, optimal_frequency
from repro.extensions.genetic_offload import (
    GeneticOffloadPlanner,
    PlacementGenome,
    PredictedCost,
)
from repro.extensions.vision import (
    VisionLocalizationModel,
    vision_safe_velocity,
)

__all__ = [
    "DvfsPolicy",
    "optimal_frequency",
    "GeneticOffloadPlanner",
    "PlacementGenome",
    "PredictedCost",
    "VisionLocalizationModel",
    "vision_safe_velocity",
]
