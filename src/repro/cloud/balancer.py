"""Load-balancing policies: which worker gets the next request.

All policies see only workers that are up. Determinism matters more
than spread quality here: ties break on host names, never on Python's
per-process-salted ``hash``, so a seeded run places tenants
identically on every execution.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.cloud.request import TickRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.pool import PoolWorker

#: CLI / experiment spelling -> balancer class (see :func:`make_balancer`).
BALANCER_NAMES = ("round-robin", "least-loaded")


class LoadBalancer:
    """Base policy mapping a request to one of the live workers."""

    name = "balancer"

    def pick(
        self, workers: Sequence[PoolWorker], req: TickRequest, now: float
    ) -> PoolWorker:
        """Choose a worker from ``workers`` (non-empty, all up)."""
        raise NotImplementedError


class RoundRobinBalancer(LoadBalancer):
    """Cycle through live workers in order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def pick(
        self, workers: Sequence[PoolWorker], req: TickRequest, now: float
    ) -> PoolWorker:
        w = workers[self._next % len(workers)]
        self._next += 1
        return w


class LeastLoadedBalancer(LoadBalancer):
    """Lowest (in-flight + queued) thread demand relative to capacity.

    Ties break on the host-name string, so equal-load pools fill
    deterministically in name order — ``cloud-vm10`` before
    ``cloud-vm2``, whatever the worker order.
    """

    name = "least-loaded"

    def pick(
        self, workers: Sequence[PoolWorker], req: TickRequest, now: float
    ) -> PoolWorker:
        return min(workers, key=lambda w: (w.load(), w.host.name))


def make_balancer(name: str) -> LoadBalancer:
    """Balancer from its CLI spelling."""
    if name == "round-robin":
        return RoundRobinBalancer()
    if name == "least-loaded":
        return LeastLoadedBalancer()
    raise ValueError(f"unknown balancer {name!r}; have {list(BALANCER_NAMES)}")
