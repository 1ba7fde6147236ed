"""Frozen pre-overhaul DES kernel, kept verbatim for benchmarking.

This is the event queue and drain loop exactly as they shipped before
the kernel overhaul (dataclass ``Event`` with
``order=True`` comparisons, binary heap of event objects, ``_dead``-set
lazy cancellation, ``peek_time``+``pop`` double prune per drained
event) — including the cancel-after-fire accounting bug the overhaul
fixed. It exists for three reasons:

* ``test_kernel_throughput.py`` measures the current kernel *against*
  it in the same process, so ``BENCH_kernel_throughput.json``'s
  before/after speedups are machine-independent ratios, and the CI
  guard can fail on a relative regression without a calibrated host;
* ``tests/test_sim_kernel.py`` demonstrates that the cancel-after-fire
  regression test fails on this implementation and passes on the new
  queue;
* the property test pits the new backends against this one on
  randomized workloads to pin the ``(time, seq)`` pop order.

Do not "fix" or modernize anything here — its value is that it stays
exactly what PR 6 shipped.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


@dataclass(order=True, frozen=True)
class LegacyEvent:
    """The pre-overhaul event record (dataclass ordering and all)."""

    time: float
    seq: int
    callback: Callable[[], Any] = field(compare=False)
    label: str = field(compare=False, default="")
    parent: int = field(compare=False, default=-1)


class LegacyEventQueue:
    """The pre-overhaul binary heap with ``_dead``-set cancellation.

    Known bug preserved on purpose: :meth:`cancel` of an event that
    already popped still decrements ``_live`` and parks the seq in
    ``_dead`` forever (nothing left on the heap ever prunes it).
    """

    def __init__(self) -> None:
        self._heap: list[LegacyEvent] = []
        self._dead: set[int] = set()
        self._counter = itertools.count()
        self._live = 0
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
    ) -> LegacyEvent:
        if math.isnan(time):
            raise ValueError("event time is NaN")
        ev = LegacyEvent(
            time=float(time),
            seq=next(self._counter),
            callback=callback,
            label=label,
            parent=parent,
        )
        heapq.heappush(self._heap, ev)
        self._live += 1
        self.pushes += 1
        return ev

    def cancel(self, event: LegacyEvent) -> None:
        if event.seq not in self._dead:
            self._dead.add(event.seq)
            self._live -= 1
            self.cancels += 1

    def peek_time(self) -> float | None:
        self._prune()
        return self._heap[0].time if self._heap else None

    def pop(self) -> LegacyEvent:
        self._prune()
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        ev = heapq.heappop(self._heap)
        self._live -= 1
        return ev

    def _prune(self) -> None:
        while self._heap and self._heap[0].seq in self._dead:
            dead = heapq.heappop(self._heap)
            self._dead.discard(dead.seq)
            self.pruned += 1


class LegacySimulator:
    """The pre-overhaul drain loop, pared to what the benchmark needs.

    ``run`` is the old shape: ``peek_time()`` (prunes) every iteration,
    ``step``-equivalent pop (prunes again), one ``clock`` assignment
    per event even within same-time batches.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.queue = LegacyEventQueue()
        self._now = start_time
        self._processed = 0
        self._firing_seq = -1
        self._stopped = False

    def now(self) -> float:
        return self._now

    def schedule_at(self, t: float, callback: Callable[[], Any], label: str = "") -> LegacyEvent:
        if t < self._now:
            raise ValueError(f"cannot schedule in the past: {t} < {self._now}")
        return self.queue.push(t, callback, label, parent=self._firing_seq)

    def schedule_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> LegacyEvent:
        return self.queue.push(self._now + delay, callback, label, parent=self._firing_seq)

    def cancel(self, event: LegacyEvent) -> None:
        self.queue.cancel(event)

    def stop(self) -> None:
        self._stopped = True

    @property
    def events_processed(self) -> int:
        return self._processed

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        self._stopped = False
        start = self._processed
        while not self._stopped:
            if max_events is not None and self._processed - start >= max_events:
                break
            t = self.queue.peek_time()
            if t is None:
                break
            if until is not None and t > until:
                break
            ev = self.queue.pop()
            self._now = ev.time
            self._firing_seq = ev.seq
            try:
                ev.callback()
            finally:
                self._firing_seq = -1
            self._processed += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now
