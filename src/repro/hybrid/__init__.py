"""``repro.hybrid`` — fluid/DES hybrid serving for huge fleets.

K focal tenants run in full DES through :mod:`repro.cloud` while the
other N−K tenants impose load as calibrated fluid demand
(:class:`FluidBackground`), so admission and balancing can be
exercised at N=10^5–10^6 tenants. See ``docs/hybrid.md`` and
``python -m repro fleet --hybrid``.
"""

from repro.hybrid.admission import BackgroundAdmission, admit_background
from repro.hybrid.background import FluidBackground
from repro.hybrid.experiment import (
    HybridOutcome,
    HybridResult,
    run_fleet_hybrid,
    serve_hybrid_point,
)

__all__ = [
    "BackgroundAdmission",
    "FluidBackground",
    "HybridOutcome",
    "HybridResult",
    "admit_background",
    "run_fleet_hybrid",
    "serve_hybrid_point",
]
