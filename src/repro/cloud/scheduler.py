"""Per-worker scheduling disciplines.

A :class:`~repro.cloud.pool.PoolWorker` serves requests under one of
two mechanics, selected by its scheduler:

* **Queueing** (:class:`FifoScheduler`, :class:`EdfScheduler`) — each
  request holds ``min(threads, capacity)`` cores for its full modeled
  execution time; requests that do not fit wait in a queue ordered by
  the policy (arrival order / earliest absolute deadline). No
  backfill: the policy's head blocks until it fits, which keeps both
  disciplines starvation-free and easy to reason about.
* **Processor sharing** (:class:`ProcessorSharingScheduler`) — every
  admitted request runs immediately; whenever the summed thread
  demand exceeds the worker's hardware threads, all in-flight
  requests slow down by the common factor ``capacity / demand``. This
  is the event-driven realization of the analytical contention model
  in :mod:`repro.cloud.fleet` (stretch = max(1, utilization)),
  and the two are cross-validated in ``tests/test_cloud.py``.

A queueing policy is a sort key (:meth:`Scheduler.key`): the worker
keeps its queue as a heap on ``(key, arrival seq)``, computes a job's
key once at enqueue, and starts the head — so equal keys serve in
arrival order and one start or finish costs O(log backlog).

When worker-side batching (:mod:`repro.cloud.batching`) is enabled,
the unit the worker queues and runs is a *batch job*, keyed by the
smallest key among its riders, so EDF treats a batch as exactly as
urgent as its most urgent rider. With batching disabled (the default)
every job carries one request and nothing changes.
"""

from __future__ import annotations

from repro.cloud.request import TickRequest

#: CLI / experiment spelling -> scheduler class (see :func:`make_scheduler`).
SCHEDULER_NAMES = ("fifo", "edf", "ps")


class Scheduler:
    """Base scheduling policy for one worker's request queue."""

    name = "scheduler"

    #: True for disciplines where all admitted requests run
    #: concurrently at a shared rate (no queue).
    sharing = False

    def key(self, req: TickRequest) -> float:
        """Queue priority of ``req``: smallest starts first."""
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """Serve strictly in arrival order."""

    name = "fifo"

    def key(self, req: TickRequest) -> float:
        return 0.0


class EdfScheduler(Scheduler):
    """Earliest absolute deadline first (``issued_at + 1/tick_rate``).

    Ties break on arrival order (stable), so two tenants with the same
    tick rate interleave deterministically.
    """

    name = "edf"

    def key(self, req: TickRequest) -> float:
        return req.absolute_deadline


class ProcessorSharingScheduler(Scheduler):
    """All requests share the cores; overload stretches everyone."""

    name = "ps"
    sharing = True

    def key(self, req: TickRequest) -> float:
        raise RuntimeError("processor sharing has no queue to order")


def make_scheduler(name: str) -> Scheduler:
    """Scheduler from its CLI spelling (``fifo`` / ``edf`` / ``ps``)."""
    if name == "fifo":
        return FifoScheduler()
    if name == "edf":
        return EdfScheduler()
    if name == "ps":
        return ProcessorSharingScheduler()
    raise ValueError(f"unknown scheduler {name!r}; have {list(SCHEDULER_NAMES)}")
