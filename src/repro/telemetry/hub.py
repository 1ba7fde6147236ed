"""The :class:`Telemetry` facade: one object, three surfaces.

A ``Telemetry`` bundles the span :class:`~repro.telemetry.spans.Tracer`,
the metrics :class:`~repro.telemetry.metrics.Registry` and the
:class:`~repro.telemetry.events.EventBus` behind a single handle that
is threaded — nullable — through ``Graph`` and the framework. The
convention everywhere in the reproduction is::

    tel = graph.telemetry
    if tel is not None:
        tel.metrics.counter("...").inc()

so the default (no telemetry) costs one attribute read and one ``is
None`` test per hook site.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.telemetry.events import EventBus, TelemetryEvent
from repro.telemetry.metrics import Registry
from repro.telemetry.spans import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.slo import SloMonitor, SloPolicy
    from repro.obs.tracing import RequestTracer


class Telemetry:
    """Aggregates tracer, metrics and event bus for one run.

    Parameters
    ----------
    clock:
        Time source shared by the tracer and the event bus. Bind the
        simulator via :meth:`bind_clock` once one exists; until then a
        wall-clock default applies.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.tracer = Tracer(clock)
        self.metrics = Registry()
        self.events = EventBus(on_first_drop=self._events_overflowed)
        self._flushers: list[Any] = []  # Process handles from instrument_hosts
        #: Optional obs handles (repro.obs); ``None`` until enabled.
        #: Hook sites guard with ``tel.requests is not None`` /
        #: ``tel.slo is not None`` — the same nullable contract as the
        #: facade itself, one attribute test deep.
        self.requests: "RequestTracer | None" = None
        self.slo: "SloMonitor | None" = None

    # ------------------------------------------------------------------
    # Observability layer (repro.obs) opt-ins
    # ------------------------------------------------------------------
    def enable_obs(self, seed: int = 0, max_traces: int = 100_000) -> "RequestTracer":
        """Turn on causal request tracing; idempotent.

        Returns the :class:`~repro.obs.tracing.RequestTracer` hook
        sites will record into. Its segments are kept by :attr:`tracer`
        too, so the Chrome trace artifact gains ``req:<name>`` tracks.
        """
        if self.requests is None:
            from repro.obs.tracing import RequestTracer

            self.requests = RequestTracer(
                tracer=self.tracer, seed=seed, max_traces=max_traces
            )
        return self.requests

    def enable_slo(self, policy: "SloPolicy | None" = None) -> "SloMonitor":
        """Turn on SLO monitoring; idempotent.

        Returns the :class:`~repro.obs.slo.SloMonitor` fed by the tick
        completion path; breaches emit ``slo_breach`` on :attr:`events`.
        """
        if self.slo is None:
            from repro.obs.slo import SloMonitor, SloPolicy

            self.slo = SloMonitor(self, policy or SloPolicy())
        return self.slo

    def _events_overflowed(self, t: float) -> None:
        """Warn-once hook for the event bus hitting its retention cap.

        The marker is stamped with the overflowing event's time ``t``,
        not the tracer clock, which serving runs never bind.
        """
        self.metrics.counter(
            "telemetry_events_dropped",
            "event-bus retention cap hit; later events not retained",
        ).inc()
        self.tracer.record(
            Span(
                "event_bus_overflow",
                "events",
                t,
                t,
                cat="telemetry",
                args={"max_events": self.events.max_events},
                kind="instant",
            )
        )

    # ------------------------------------------------------------------
    # Clock + events
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current time on the bound clock."""
        return self.tracer.clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point tracer (and event timestamps) at ``clock``."""
        self.tracer.bind_clock(clock)

    def emit(
        self,
        kind: str,
        /,
        t: float | None = None,
        track: str = "events",
        trace: bool = True,
        **fields: Any,
    ) -> TelemetryEvent:
        """Emit an event on the bus, mirrored as a trace instant.

        ``t`` defaults to the bound clock; pass it explicitly for code
        that runs outside any simulator (scripted network replays).
        """
        t = self.now() if t is None else t
        ev = self.events.emit(kind, t, **fields)
        if trace:
            self.tracer.complete(kind, ts=t, dur=0.0, track=track, cat="event", **fields)
        return ev

    # ------------------------------------------------------------------
    # Flushers (periodic gauge samplers; see instrument.instrument_hosts)
    # ------------------------------------------------------------------
    def register_flusher(self, process: Any) -> None:
        """Track a periodic flusher so :meth:`flush_now` can kick it."""
        self._flushers.append(process)

    def flush_now(self) -> None:
        """Force every registered flusher to sample immediately."""
        for proc in self._flushers:
            if getattr(proc, "running", False):
                proc.fire_now()

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def write_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON (open in Perfetto)."""
        self.flush_now()
        p = Path(path)
        p.write_text(json.dumps(self.tracer.to_chrome(), indent=1))
        return p

    def write_trace_jsonl(self, path: str | Path) -> Path:
        """Write the span log as JSONL (one span per line)."""
        p = Path(path)
        p.write_text(self.tracer.to_jsonl())
        return p

    def write_metrics(self, path: str | Path) -> Path:
        """Write the metrics snapshot as JSON."""
        self.flush_now()
        p = Path(path)
        p.write_text(json.dumps(self.metrics.snapshot(), indent=1, sort_keys=True))
        return p

    def summary(self) -> str:
        """Human-readable run report: spans, events, metrics."""
        lines = ["== telemetry summary =="]
        lines.append(
            f"spans: {len(self.tracer.spans)} recorded on "
            f"{len(self.tracer.tracks())} tracks"
            + (f" ({self.tracer.dropped} dropped)" if self.tracer.dropped else "")
        )
        kinds = self.events.kinds()
        dropped_note = (
            f" [{self.events.dropped} dropped past the "
            f"{self.events.max_events}-event retention cap]"
            if self.events.dropped
            else ""
        )
        if kinds:
            ev = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
            lines.append(f"events: {len(self.events)} ({ev}){dropped_note}")
        else:
            lines.append(f"events: 0{dropped_note}")
        if self.requests is not None:
            n_fin = len(self.requests.finished())
            n_miss = len(self.requests.misses())
            lines.append(
                f"request traces: {len(self.requests)} "
                f"({n_fin} finished, {n_miss} deadline misses"
                + (
                    f", {self.requests.dropped} dropped"
                    if self.requests.dropped
                    else ""
                )
                + ")"
            )
        lines.append("")
        lines.append(self.metrics.render_text().rstrip())
        return "\n".join(lines) + "\n"
