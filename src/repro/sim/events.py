"""Event primitives for the discrete-event kernel.

An :class:`Event` is a record of *when* a callback fires. Ties on time
are broken by a monotonically increasing sequence number so the
execution order of same-timestamp events is the order in which they
were scheduled — this is what makes whole-mission replays
deterministic.

Every event carries an explicit lifecycle state::

    PENDING --pop()--> FIRED --repush()--> PENDING ...
        \\--cancel()--> CANCELLED

The state is what makes cancellation *safe*: cancelling an event that
already fired (or was already cancelled) is a no-op instead of
corrupting the queue's live count, and only fired events — whose queue
entry was physically consumed by ``pop`` — may be recycled through
:meth:`EventQueue.repush` (the slot-reuse path periodic processes use
to re-arm without allocating a fresh event every tick).

:class:`EventQueue` is a plain binary heap of ``(time, seq, event)``
tuples, so all ordering work happens in C-level tuple comparisons —
:class:`Event` objects are never compared. The ``@dataclass(order=True)``
per-comparison Python calls of the original heap were the kernel's
single largest overhead (see ``BENCH_kernel_throughput.json``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from heapq import heappop, heappush
from typing import Any

#: Event lifecycle states (``Event.state``).
PENDING = 0
FIRED = 1
CANCELLED = 2

_STATE_NAMES = {PENDING: "pending", FIRED: "fired", CANCELLED: "cancelled"}

#: A queue entry: the ``(time, seq)`` sort key plus the event itself.
#: ``seq`` is unique, so tuple comparison never reaches the event.
Entry = tuple[float, int, "Event"]


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Virtual time (seconds) at which the event fires.
    seq:
        Scheduling sequence number; the tie-breaker for equal times.
    callback:
        Zero-argument callable invoked when the event fires.
    label:
        Human-readable tag used in traces and error messages.
    parent:
        ``seq`` of the event whose callback scheduled this one, or
        ``-1`` when scheduled outside any callback (setup code). Used
        by the ordering auditor to tell causal same-time ties (child
        scheduled by the event it ties with) from concurrent ones.

    Events are packed with ``__slots__`` and treated as immutable by
    convention; only the owning queue mutates them (``pop`` marks them
    fired, ``repush`` re-arms a fired event with a fresh time and
    sequence number). Holders that cache ``time``/``seq`` must read
    them before handing the event back to ``repush``.
    """

    __slots__ = ("time", "seq", "callback", "label", "parent", "state", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
        parent: int = -1,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.parent = parent
        #: Lifecycle state: PENDING, FIRED or CANCELLED.
        self.state = PENDING
        #: The queue this event was scheduled on (cancellation guard).
        self.owner: EventQueue | None = None

    @property
    def pending(self) -> bool:
        """Whether the event is still scheduled to fire."""
        return self.state == PENDING

    @property
    def fired(self) -> bool:
        """Whether the event's callback has been popped for firing."""
        return self.state == FIRED

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before firing."""
        return self.state == CANCELLED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Event(t={self.time:.6f}, seq={self.seq}, "
            f"label={self.label!r}, {_STATE_NAMES[self.state]})"
        )


class EventQueue:
    """Binary heap of ``(time, seq, event)`` tuples.

    Cancellation is lazy: a cancelled event's entry stays in the heap
    and is discarded — once, counted in :attr:`pruned` — when it
    surfaces at the top. Only fired events may be recycled through
    :meth:`repush`: :meth:`pop` physically consumed their entry, so no
    stale reference can resurrect at the old position.
    """

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._counter = itertools.count()
        self._live = 0
        #: Lifetime churn counters (read by the kernel self-profiler):
        #: total pushes (including slot-reuse re-pushes), effective
        #: cancellations, and dead entries lazily discarded from the
        #: heap. Plain ints — one increment each.
        self.pushes = 0
        self.cancels = 0
        self.pruned = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
        parent: int = -1,
    ) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        if math.isnan(time):
            raise ValueError("event time is NaN")
        t = float(time)
        seq = next(self._counter)
        # allocate without the __init__ call frame — one push per
        # simulated message makes this the kernel's hottest allocation
        # (keep the field list in sync with Event.__init__)
        ev = Event.__new__(Event)
        ev.time = t
        ev.seq = seq
        ev.callback = callback
        ev.label = label
        ev.parent = parent
        ev.state = PENDING
        ev.owner = self
        heappush(self._heap, (t, seq, ev))
        self._live += 1
        self.pushes += 1
        return ev

    def repush(self, event: Event, time: float, parent: int = -1) -> Event:
        """Re-arm a *fired* event at ``time``, reusing its slot.

        The event gets a fresh sequence number (so the deterministic
        ``(time, seq)`` tie order is exactly what a fresh :meth:`push`
        would have produced) but no new object is allocated — the
        periodic-tick hot path.
        """
        if event.owner is not self:
            raise ValueError("event belongs to a different EventQueue")
        if event.state != FIRED:
            raise ValueError(
                f"can only repush a fired event, not a {_STATE_NAMES[event.state]} one"
            )
        if math.isnan(time):
            raise ValueError("event time is NaN")
        t = float(time)
        seq = next(self._counter)
        event.time = t
        event.seq = seq
        event.parent = parent
        event.state = PENDING
        heappush(self._heap, (t, seq, event))
        self._live += 1
        self.pushes += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it is still pending.

        Safe in every lifecycle state: cancelling an event that
        already fired, or cancelling twice, is a no-op — the live
        count and ``queue_depth`` telemetry stay truthful. Cancelling
        an event owned by a *different* queue raises ``ValueError``
        (sequence numbers are per-queue; honouring a foreign handle
        could kill an unrelated event).
        """
        if event.owner is not self:
            raise ValueError("event belongs to a different EventQueue")
        if event.state == PENDING:
            event.state = CANCELLED
            self._live -= 1
            self.cancels += 1

    def _head(self) -> Entry | None:
        """The next live entry, pruning dead entries off the top."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].state == PENDING:
                return entry
            heappop(heap)
            self.pruned += 1
        return None

    def peek(self) -> Event | None:
        """The next live event without removing it, or ``None``."""
        entry = self._head()
        return entry[2] if entry is not None else None

    def peek_time(self) -> float | None:
        """Return the fire time of the next live event, or ``None``."""
        entry = self._head()
        return entry[0] if entry is not None else None

    def pop(self) -> Event:
        """Remove and return the next live event, marking it fired.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        ev = self.pop_due()
        if ev is None:
            raise IndexError("pop from empty EventQueue")
        return ev

    def pop_due(self, until: float | None = None) -> Event | None:
        """Pop the next live event if it fires at or before ``until``.

        The drain loop's per-event path: one loop prunes dead entries
        off the top, bounds-checks the live head and consumes it.
        Returns ``None`` when the queue is empty *or* the head fires
        after ``until``, the two cases a drain loop treats identically
        (stop draining; the head stays queued for a later ``run``).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[2]
            if ev.state != PENDING:
                heappop(heap)
                self.pruned += 1
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(heap)
            ev.state = FIRED
            self._live -= 1
            return ev
        return None
