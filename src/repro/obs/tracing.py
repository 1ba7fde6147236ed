"""Causal request tracing: one tree of named segments per request.

A :class:`RequestTracer` owns every in-flight and finished
:class:`TraceTree`. The producing side is three calls:

* ``ctx = tracer.start("tick", tenant, t, deadline_s=...)`` when the
  request is born (the context rides on the request object);
* ``tracer.segment(ctx, "uplink", t0, t1)`` at every layer the request
  crosses — the canonical segment vocabulary is :data:`SEGMENT_NAMES`;
* ``tracer.finish(ctx, t, status=...)`` at the terminal point.

Segments telescope: within one tick the boundaries are shared
(``serialize`` ends where ``uplink`` starts, ...), so the sum of
segment durations reconciles with the end-to-end latency — the
invariant :meth:`TraceTree.reconciles` checks and the fig13 acceptance
test asserts. A segment is one :class:`~repro.telemetry.spans.Span`
(category ``"request"``, track ``req:<name>``) carrying its context in
``Span.ctx`` and its attrs, as passed, in ``Span.args``; the same
object goes into its tree and, when a span
:class:`~repro.telemetry.spans.Tracer` is attached, into that tracer,
so the existing Chrome-trace export shows causal trees with no new
artifact format (the export formats the ``trace`` arg from ``ctx``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.context import IdAllocator, TraceContext
from repro.telemetry.spans import Span, Tracer

#: The canonical segment vocabulary of an offloaded tick, in causal
#: order. Layers may add others (``transport``, 2PC phase names), but
#: the tick path sticks to these six.
SEGMENT_NAMES: tuple[str, ...] = (
    "serialize",
    "uplink",
    "queue_wait",
    "service",
    "downlink",
    "actuate",
)


@dataclass(slots=True)
class TraceTree:
    """One request's causal tree: a root plus its segments."""

    kind: str  # "tick" | "vdp_tick" | "migration" | ...
    name: str  # tenant / node the request belongs to
    #: The ``req:<name>`` track every span of this tree is recorded on.
    track: str
    root: TraceContext
    t_start: float
    deadline_s: float | None = None
    t_end: float | None = None
    status: str = "open"
    segments: list[Span] = field(default_factory=list)
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.t_end is not None

    @property
    def latency_s(self) -> float:
        """End-to-end latency (0.0 while open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    @property
    def missed_deadline(self) -> bool:
        """Finished, had a deadline, and blew it."""
        return (
            self.t_end is not None
            and self.deadline_s is not None
            and self.latency_s > self.deadline_s
        )

    def top_segments(self) -> list[Span]:
        """Segments that are direct children of the root.

        Nested sub-attribution (the radio splitting ``uplink`` into
        ``air`` + ``wired``) hangs *under* a top-level segment and must
        not double-count in sums, so every aggregate below works on
        this level only.
        """
        root = self.root.span_id
        return [s for s in self.segments if s.ctx is not None and s.ctx.parent_id == root]

    def segment_sum(self) -> float:
        """Total time across the top-level segments."""
        return sum(s.duration for s in self.top_segments())

    def by_segment(self) -> dict[str, float]:
        """Summed duration per top-level segment name, insertion-ordered."""
        out: dict[str, float] = {}
        for s in self.top_segments():
            out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def dominant_segment(self) -> tuple[str, float] | None:
        """The (name, seconds) segment that ate the most time."""
        totals = self.by_segment()
        if not totals:
            return None
        name = max(totals, key=lambda k: (totals[k], k))
        return name, totals[name]

    def reconciles(self, tol_s: float = 1e-9) -> bool:
        """Whether segment time telescopes to the measured latency.

        Only meaningful for finished trees whose segments tile the
        whole interval (the tick path). Trees with overlapping or
        gapped segments (a migration's retries) legitimately fail.
        """
        if self.t_end is None:
            return False
        return abs(self.segment_sum() - self.latency_s) <= tol_s


class RequestTracer:
    """Records causal trees, optionally onto a span tracer too.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.telemetry.spans.Tracer` that also keeps
        every segment span and one span per finished tree (track
        ``req:<name>``, category ``"request"``) — this is what puts
        causal trees in the Chrome trace artifact.
    seed:
        Seed for deterministic trace-id allocation.
    max_traces:
        Retention cap; trees started past it are not recorded
        (``dropped`` counts them) and their segments become no-ops.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        seed: int = 0,
        max_traces: int = 100_000,
    ) -> None:
        self.tracer = tracer
        self.ids = IdAllocator(seed)
        self.max_traces = max_traces
        self.dropped = 0
        self._trees: dict[int, TraceTree] = {}
        #: name -> its ``req:<name>`` track, shared by all its trees.
        self._tracks: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start(
        self,
        kind: str,
        name: str,
        t: float,
        deadline_s: float | None = None,
        **attrs: Any,
    ) -> TraceContext | None:
        """Open a new trace; returns its root context (or ``None`` when
        the retention cap is hit — every later call tolerates that)."""
        if len(self._trees) >= self.max_traces:
            self.dropped += 1
            return None
        ctx = TraceContext(self.ids.new_trace_id(), self.ids.new_span_id())
        track = self._tracks.get(name)
        if track is None:
            track = self._tracks[name] = f"req:{name}"
        self._trees[ctx.trace_id] = TraceTree(
            kind=kind,
            name=name,
            track=track,
            root=ctx,
            t_start=t,
            deadline_s=deadline_s,
            attrs=attrs,
        )
        return ctx

    def segment(
        self,
        ctx: TraceContext | None,
        name: str,
        t_start: float,
        t_end: float,
        **attrs: Any,
    ) -> TraceContext | None:
        """Record one named interval under ``ctx``; returns the
        segment's own context for deeper nesting."""
        if ctx is None:
            return None
        tree = self._trees.get(ctx.trace_id)
        if tree is None:
            return None
        child = ctx.child(self.ids.new_span_id())
        span = Span(name, tree.track, t_start, t_end, cat="request", args=attrs, ctx=child)
        tree.segments.append(span)
        if self.tracer is not None:
            self.tracer.record(span)
        return child

    def instant(
        self, ctx: TraceContext | None, name: str, t: float, **attrs: Any
    ) -> TraceContext | None:
        """A zero-duration marker (a drop, a rebalance) under ``ctx``."""
        return self.segment(ctx, name, t, t, **attrs)

    def finish(
        self,
        ctx: TraceContext | None,
        t: float,
        status: str = "ok",
        **attrs: Any,
    ) -> TraceTree | None:
        """Close the trace ``ctx`` belongs to; idempotent per trace."""
        if ctx is None:
            return None
        tree = self._trees.get(ctx.trace_id)
        if tree is None or tree.t_end is not None:
            return tree
        tree.t_end = t
        tree.status = status
        tree.attrs.update(attrs)
        if self.tracer is not None:
            self.tracer.complete(
                f"{tree.kind}:{tree.name}",
                ts=tree.t_start,
                dur=t - tree.t_start,
                track=tree.track,
                cat="request",
                trace=tree.root.short(),
                status=status,
                miss=tree.missed_deadline,
            )
        return tree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def tree(self, ctx_or_id: TraceContext | int) -> TraceTree | None:
        """Look a tree up by context or trace id."""
        tid = ctx_or_id.trace_id if isinstance(ctx_or_id, TraceContext) else ctx_or_id
        return self._trees.get(tid)

    def trees(self, kind: str | None = None) -> list[TraceTree]:
        """All recorded trees (optionally of one kind), start order."""
        out = list(self._trees.values())
        if kind is not None:
            out = [t for t in out if t.kind == kind]
        return out

    def finished(self, kind: str | None = None) -> list[TraceTree]:
        """Finished trees only."""
        return [t for t in self.trees(kind) if t.finished]

    def misses(self, kind: str | None = None) -> list[TraceTree]:
        """Finished trees that blew their deadline."""
        return [t for t in self.trees(kind) if t.missed_deadline]

    def __len__(self) -> int:
        return len(self._trees)
