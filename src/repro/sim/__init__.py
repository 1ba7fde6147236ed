"""Deterministic discrete-event simulation kernel.

Everything in the reproduction that advances virtual time — middleware
message delivery, node compute delays, network transit, vehicle motion —
is scheduled on a single :class:`~repro.sim.kernel.Simulator` event
queue (see ``docs/kernel.md``), so entire missions replay bit-identically
from a seed.
"""

from repro.sim.audit import OrderingAuditor, TiebreakAmbiguity
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Process, Simulator
from repro.sim.rng import seeded_rng, split_rng

__all__ = [
    "SimClock",
    "Event",
    "EventQueue",
    "OrderingAuditor",
    "TiebreakAmbiguity",
    "Simulator",
    "Process",
    "seeded_rng",
    "split_rng",
]
