"""Runtime ordering auditor: detect ambiguous same-time tiebreaks.

The event queue breaks ties on identical fire times by scheduling
sequence number, so any single run is totally ordered. The hazard the
static pass cannot see is *where that sequence order comes from*: if
two causally unrelated events land on the same timestamp, their
relative order is whatever insertion order happened to be — correct
today, silently different after an innocent refactor that reorders two
``schedule_after`` calls.

The auditor watches consecutive pops at identical timestamps and
classifies each *concurrent* tie (the later event was already queued
before the earlier one fired, so neither scheduled the other):

* **ordered** — the pair of labels always resolves the same way within
  the run; the tie order is a stable function of construction order
  (e.g. two periodic processes created in a fixed sequence).
* **ambiguous** — the same label pair resolves A-before-B at one
  timestamp and B-before-A at another (*inversion*), or the two events
  share a label but different callbacks (*same-label*), so no stable
  rule orders them at all.

Zero ambiguities on the reference artifacts (fig9's traced mission,
the fig13 deployment cells) is asserted by
``benchmarks/test_determinism_audit.py`` and gated in CI.

Enable per-simulator with
:meth:`~repro.sim.kernel.Simulator.enable_ordering_audit`, or
fleet-wide for code that constructs simulators internally::

    auditors = Simulator.install_default_audit()
    run_fig9(telemetry=Telemetry())     # builds its own Simulator
    Simulator.clear_default_audit()
    assert all(not a.ambiguities for a in auditors)
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Protocol


class FiredEventView(Protocol):
    """What the auditor needs from a fired event.

    Structural on purpose: under slot reuse a periodic callback may
    mutate its own :class:`~repro.sim.events.Event` in place, so the
    kernel hands the auditor immutable scalar snapshots rather than
    live handles. Any object carrying these attributes qualifies.
    """

    time: float
    seq: int
    label: str
    callback: Callable[[], Any]


@dataclass(frozen=True)
class TiebreakAmbiguity:
    """One ambiguous same-time tiebreak observed during a run."""

    #: Virtual time at which the tie fired.
    time: float
    #: ``"inversion"`` (pair order flipped within the run) or
    #: ``"same-label"`` (identical labels, distinct callbacks).
    kind: str
    #: Label of the event popped first at this timestamp.
    first: str
    #: Label of the event popped second.
    second: str

    def render(self) -> str:
        return (
            f"t={self.time:.6f} {self.kind}: {self.first!r} before "
            f"{self.second!r}"
        )


class OrderingAuditor:
    """Accumulates tiebreak statistics for one simulator run.

    The kernel calls :meth:`observe` for every pair of consecutively
    popped events with identical fire times where the second was *not*
    scheduled by the first (concurrent insertion). Cost when enabled is
    one dict lookup per tie; disabled runs pay nothing.
    """

    def __init__(self) -> None:
        #: Concurrent same-time pairs seen, keyed ``(first, second)``.
        self.pair_counts: Counter[tuple[str, str]] = Counter()
        #: Total concurrent ties observed.
        self.tie_count = 0
        #: Ambiguities found, in observation order.
        self.ambiguities: list[TiebreakAmbiguity] = []
        self._canonical: dict[frozenset[str], tuple[str, str]] = {}

    def observe(self, first: FiredEventView, second: FiredEventView) -> None:
        """Record one concurrent same-time pop pair."""
        self.tie_count += 1
        a, b = first.label, second.label
        self.pair_counts[(a, b)] += 1
        if a == b:
            if first.callback is not second.callback:
                self.ambiguities.append(
                    TiebreakAmbiguity(time=second.time, kind="same-label", first=a, second=b)
                )
            return
        key = frozenset((a, b))
        seen = self._canonical.get(key)
        if seen is None:
            self._canonical[key] = (a, b)
        elif seen != (a, b):
            self.ambiguities.append(
                TiebreakAmbiguity(time=second.time, kind="inversion", first=a, second=b)
            )

    @property
    def ambiguous(self) -> bool:
        """Whether any ambiguous tiebreak was observed."""
        return bool(self.ambiguities)

    def report(self) -> str:
        """Human-readable audit summary."""
        lines = [
            "== ordering audit ==",
            f"concurrent same-time ties: {self.tie_count} "
            f"({len(self._canonical)} distinct label pairs)",
        ]
        for (a, b), n in sorted(self.pair_counts.items()):
            lines.append(f"  {n:6d}  {a!r} -> {b!r}")
        if self.ambiguities:
            lines.append(f"AMBIGUOUS tiebreaks: {len(self.ambiguities)}")
            lines.extend(f"  {amb.render()}" for amb in self.ambiguities)
        else:
            lines.append("no ambiguous tiebreaks")
        return "\n".join(lines)
