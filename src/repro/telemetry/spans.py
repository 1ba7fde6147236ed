"""The sim-time span tracer.

Spans are recorded against an injectable clock — ``Simulator.now`` for
discrete-event runs, ``time.perf_counter`` for plain wall-clock code —
and export to the Chrome trace-event format, so any run can be opened
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Spans are recorded three ways:

* :meth:`Tracer.begin` / :meth:`Tracer.end` around work the clock
  passes through (the kernel's span per fired event);
* :meth:`Tracer.complete` when the duration is known up front (the
  modeled processing time of a middleware node);
* :meth:`Tracer.instant` for zero-duration markers.

Each span lives on a *track* (a Perfetto thread row): ``"kernel"`` for
event firings, ``"host:lgv"`` for node executions on the LGV, and so
on. Nesting within a track follows begin/end pairing.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.context import TraceContext

#: Microseconds per clock unit (clock seconds -> Chrome trace ``ts``).
_US = 1e6


@dataclass(slots=True)
class Span:
    """One recorded (or still-open) span.

    ``t_end`` is ``None`` while the span is open; :meth:`Tracer.end`
    closes it. ``kind`` distinguishes duration spans (``"span"``) from
    zero-duration instants (``"instant"``). ``ctx`` is set only on a
    request-trace segment (:mod:`repro.obs.tracing`): its position in
    the request's causal tree, exported as the leading ``trace`` arg.
    """

    name: str
    track: str
    t_start: float
    t_end: float | None = None
    cat: str = ""
    args: dict[str, Any] = field(default_factory=dict)
    kind: str = "span"
    ctx: TraceContext | None = None

    @property
    def duration(self) -> float:
        """Span length in clock units (0.0 while open or for instants)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start


class Tracer:
    """Records spans against an injectable clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time in seconds.
        Defaults to ``time.perf_counter``; bind the simulator with
        :meth:`bind_clock` to trace in virtual time.
    max_spans:
        Recording stops (and ``dropped`` counts) past this many spans,
        so a runaway loop cannot eat all memory.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        max_spans: int = 500_000,
    ) -> None:
        self.clock: Callable[[], float] = clock or time.perf_counter
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._open: dict[str, list[Span]] = {}  # track -> stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Switch the time source (e.g. to ``sim.now`` once a sim exists)."""
        self.clock = clock

    def begin(self, name: str, /, track: str = "main", cat: str = "", **args: Any) -> Span:
        """Open a span at the current clock time; close with :meth:`end`."""
        span = Span(name=name, track=track, t_start=self.clock(), cat=cat, args=args)
        self._open.setdefault(track, []).append(span)
        return span

    def end(self, span: Span, **args: Any) -> Span:
        """Close ``span``; out-of-order ends raise ``ValueError``."""
        stack = self._open.get(span.track, [])
        if not stack or stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} ended out of order on track {span.track!r}"
            )
        stack.pop()
        span.t_end = self.clock()
        if args:
            span.args.update(args)
        self.record(span)
        return span

    def complete(
        self,
        name: str,
        /,
        ts: float,
        dur: float,
        track: str = "main",
        cat: str = "",
        **args: Any,
    ) -> Span:
        """Record a finished span with explicit start time and duration.

        This is the natural form for modeled work: the node's
        processing time is known when the callback returns, but the
        clock will not pass through the interval callback-by-callback.
        """
        span = Span(
            name=name,
            track=track,
            t_start=ts,
            t_end=ts + dur,
            cat=cat,
            args=args,
        )
        self.record(span)
        return span

    def instant(self, name: str, /, track: str = "main", cat: str = "", **args: Any) -> Span:
        """Record a zero-duration marker (migration, drop, decision)."""
        t = self.clock()
        span = Span(
            name=name,
            track=track,
            t_start=t,
            t_end=t,
            cat=cat,
            args=args,
            kind="instant",
        )
        self.record(span)
        return span

    def record(self, span: Span) -> None:
        """Keep a finished span, unless the retention cap is reached."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def tracks(self) -> list[str]:
        """Track names in first-seen order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.track, None)
        return list(seen)

    def chrome_events(self, pid: int = 1, process_name: str = "repro-sim") -> list[dict]:
        """The ``traceEvents`` array of the Chrome trace-event format.

        Duration spans become ``ph="X"`` complete events, instants
        become ``ph="i"``; metadata events name the process and one
        thread row per track.
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": process_name},
            }
        ]
        tids = {track: i + 1 for i, track in enumerate(self.tracks())}
        for track, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": track},
                }
            )
        for s in sorted(self.spans, key=lambda s: s.t_start):
            ev: dict[str, Any] = {
                "name": s.name,
                "cat": s.cat or "span",
                "pid": pid,
                "tid": tids[s.track],
                "ts": s.t_start * _US,
            }
            if s.kind == "instant":
                ev["ph"] = "i"
                ev["s"] = "t"  # thread-scoped instant
            else:
                ev["ph"] = "X"
                ev["dur"] = s.duration * _US
            if s.ctx is not None:
                ev["args"] = {"trace": s.ctx.short(), **s.args}
            elif s.args:
                ev["args"] = s.args
            events.append(ev)
        return events

    def to_chrome(self) -> dict:
        """The full Chrome/Perfetto trace object."""
        return {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }
