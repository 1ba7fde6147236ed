"""The telemetry event bus: typed, timestamped run events.

Discrete observations that are neither spans nor metric samples — a
migration with its reason, a VDP makespan sample, an Algorithm 1/2
decision — flow through one :class:`EventBus`. Components *emit*;
the trace exporter, an experiment or a test queries the retained log
afterwards. The bus is a passive record: nothing reacts to an event
while the run is going, so recording one never changes what a run
computes. This replaces the scattered private lists
(``Graph.migrations``-style bookkeeping) with a single schema:
``(t, kind, fields)``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TelemetryEvent:
    """One emitted event."""

    t: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Field accessor with default."""
        return self.fields.get(key, default)


class EventBus:
    """Retains emitted events, in emission order.

    Parameters
    ----------
    max_events:
        Retention cap; past it new events are no longer kept in
        :attr:`events` (``dropped`` counts them).
    on_first_drop:
        Called exactly once, with the overflowing event's time, when
        the cap is first exceeded — the
        :class:`~repro.telemetry.hub.Telemetry` facade wires this to a
        warn-once counter so a truncated event log is visible in the
        metrics artifact, not just in this object's state.
    """

    def __init__(
        self,
        max_events: int = 200_000,
        on_first_drop: Callable[[float], None] | None = None,
    ) -> None:
        self.max_events = max_events
        self.events: list[TelemetryEvent] = []
        self.dropped = 0
        self.on_first_drop = on_first_drop

    def emit(self, kind: str, t: float, /, **fields: Any) -> TelemetryEvent:
        """Record one event."""
        ev = TelemetryEvent(t=t, kind=kind, fields=fields)
        if len(self.events) < self.max_events:
            self.events.append(ev)
        else:
            self.dropped += 1
            if self.dropped == 1 and self.on_first_drop is not None:
                self.on_first_drop(t)
        return ev

    def select(self, kind: str) -> list[TelemetryEvent]:
        """Retained events of one kind, in emission order."""
        return [ev for ev in self.events if ev.kind == kind]

    def kinds(self) -> dict[str, int]:
        """Retained event count per kind."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)
