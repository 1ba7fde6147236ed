"""Trace contexts: the ids a request carries across layers.

A :class:`TraceContext` is the immutable (trace_id, span_id, parent_id)
triple stamped onto whatever crosses a layer boundary — a middleware
:class:`~repro.middleware.messages.Message`, a
:class:`~repro.cloud.request.TickRequest`, a two-phase migration
ticket. Ids come from an :class:`IdAllocator` seeded through
:func:`repro.sim.rng.seeded_rng`, so the same run always mints the
same ids and trace artifacts diff cleanly between runs.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.sim.rng import seeded_rng


class TraceContext(NamedTuple):
    """One position in a causal tree.

    Attributes
    ----------
    trace_id:
        The request's tree; every segment of one tick shares it.
    span_id:
        This segment/root's own id, unique within the tracer.
    parent_id:
        The span that caused this one, or ``None`` at the root.
    """

    trace_id: int
    span_id: int
    parent_id: int | None = None

    def child(self, span_id: int) -> TraceContext:
        """A context for work caused by this span."""
        return TraceContext(self.trace_id, span_id, self.span_id)

    def short(self) -> str:
        """Compact hex form for labels and error messages."""
        return f"{self.trace_id:08x}/{self.span_id:x}"


#: Trace ids drawn per generator call. A block holds the same ids, in
#: the same order, as that many one-at-a-time draws.
_TRACE_ID_BLOCK = 256


class IdAllocator:
    """Deterministic id mint for trace and span ids.

    Trace ids are drawn from a :func:`~repro.sim.rng.seeded_rng`
    stream (stable across runs for a given seed, spread over 32 bits
    so ids from differently-seeded runs rarely collide), a block at a
    time; span ids are a plain counter — dense, cheap, and unique per
    tracer.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = seeded_rng(seed)
        self._trace_ids: list[int] = []  # the block's unused ids, last first
        self._next_span = 0

    def new_trace_id(self) -> int:
        """A fresh 32-bit trace id."""
        if not self._trace_ids:
            block = self._rng.integers(0, 2**32, size=_TRACE_ID_BLOCK).tolist()
            self._trace_ids = block[::-1]
        return self._trace_ids.pop()

    def new_span_id(self) -> int:
        """The next span id (0, 1, 2, ...)."""
        sid = self._next_span
        self._next_span += 1
        return sid
