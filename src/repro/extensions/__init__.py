"""Extensions beyond the paper's core evaluation.

Implements the directions §IX (Discussion and Future Work) sketches
and the related-work baselines §X compares against:

* :mod:`repro.extensions.dvfs` — CPU frequency scaling on the LGV
  (the Eq. 1c footnote's knob the paper holds constant);
* :mod:`repro.extensions.genetic_offload` — a Rahman-et-al.-style
  genetic-algorithm placement planner, the static baseline Algorithm 1
  is contrasted with;
* :mod:`repro.extensions.multi_wap` — access-point selection among
  several WAPs (the prior-work robustness approach that needs multiple
  links to exist);
* :mod:`repro.extensions.vision` — the vision-based LGV adaptation:
  localization-failure risk grows with speed, adding a second velocity
  constraint.

Fleet sizing — several LGVs sharing one server — lives in the serving
stack, as :mod:`repro.cloud.fleet`.
"""

from repro.extensions.dvfs import DvfsPolicy, optimal_frequency
from repro.extensions.genetic_offload import (
    GeneticOffloadPlanner,
    PlacementGenome,
    PredictedCost,
)
from repro.extensions.multi_wap import AccessPointSelector, MultiWapLink
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
    "AccessPointSelector",
    "MultiWapLink",
    "VisionLocalizationModel",
    "vision_safe_velocity",
]
