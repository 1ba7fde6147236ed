"""The Switcher thread (§VII): executes node migrations.

The real system's Switcher relays serialized ROS messages between the
LGV and the VMs (evpp + protobuf); in this reproduction the middleware
graph already routes cross-host traffic, so the Switcher's remaining —
and load-bearing — job is *state migration*: moving a node between
hosts, paying the transfer latency for its state (a particle set, a
costmap), and reconfiguring its thread-pool width for the platform it
lands on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.compute.host import Host
from repro.core.migration import MigrationPlan
from repro.middleware.graph import Graph


@runtime_checkable
class NodeMigrator(Protocol):
    """A non-atomic migration executor (:mod:`repro.recovery`).

    ``request`` starts an asynchronous move and returns whether it was
    accepted (a move already in flight for the node is rejected). The
    migrator applies the thread width and reports back through
    :meth:`Switcher.record_migration` when the move commits or
    :meth:`Switcher.record_aborted_migration` when it aborts.
    """

    def request(
        self, name: str, dest: Host, threads: int = 1, reason: str = ""
    ) -> bool:  # pragma: no cover
        """Begin moving ``name`` to ``dest``; False if already in flight."""
        ...


@dataclass
class MigrationRecord:
    """One executed node move."""

    t: float
    node: str
    dest: str
    pause_s: float


class Switcher:
    """Applies :class:`~repro.core.migration.MigrationPlan` objects.

    Parameters
    ----------
    graph:
        The node graph whose placements are being changed.
    lgv_host, server_host:
        The two placement targets: the robot and the one server every
        ``to_server`` move lands on.
    server_threads:
        Thread-pool width given to parallelizable nodes when they run
        on the server (the §V acceleration knob). On the LGV nodes
        always run single-threaded.
    """

    def __init__(
        self,
        graph: Graph,
        lgv_host: Host,
        server_host: Host,
        server_threads: dict[str, int] | None = None,
    ) -> None:
        self.graph = graph
        self.lgv_host = lgv_host
        self.server_host = server_host
        self.server_threads = dict(server_threads or {})
        self.records: list[MigrationRecord] = []
        #: (t, node, why) per aborted two-phase migration, and the
        #: count of requests the migrator refused (node already in
        #: flight) — both signals a driver must observe, not drop.
        self.aborted: list[tuple[float, str, str]] = []
        self.refused_requests = 0
        #: Optional two-phase migration protocol (repro.recovery).
        #: When set, ``_move`` hands state transfers to it instead of
        #: the atomic ``Graph.move_node``; the MigrationRecord lands at
        #: COMMIT time via :meth:`record_migration`.
        self.migrator: NodeMigrator | None = None
        #: Optional placement veto (repro.recovery's degraded-mode
        #: ladder): ``offload_guard(name) -> bool``; ``False`` blocks a
        #: ``to_server`` move while remote placements are distrusted.
        self.offload_guard: Callable[[str], bool] | None = None

    def apply(self, plan: MigrationPlan, reason: str = "") -> float:
        """Execute a plan; returns the total pause time incurred (s).

        ``reason`` annotates the telemetry migration events ("initial",
        "algo1", "algo2:retreat", ...).
        """
        total = 0.0
        for name in plan.to_server:
            if self.offload_guard is not None and not self.offload_guard(name):
                continue
            total += self._move(name, self.server_host, reason, server_side=True)
        for name in plan.to_robot:
            total += self._move(name, self.lgv_host, reason, server_side=False)
        return total

    def _move(
        self, name: str, dest: Host, reason: str = "", server_side: bool = False
    ) -> float:
        node = self.graph.nodes.get(name)
        if node is None:
            return 0.0
        if node.host is dest:
            # No move, but the thread-width config still applies: a
            # changed ``server_threads`` entry must reach nodes already
            # sitting on the server (previously silently skipped).
            node.threads = self.server_threads.get(name, 1) if server_side else 1
            return 0.0
        if self.migrator is not None:
            threads = self.server_threads.get(name, 1) if server_side else 1
            if not self.migrator.request(name, dest, threads=threads, reason=reason):
                # a transaction for this node is already in flight; the
                # superseded decision resurfaces at the next plan
                self.refused_requests += 1
            return 0.0
        pause = self.graph.move_node(name, dest, reason=reason)
        if server_side:
            node.threads = self.server_threads.get(name, 1)
        else:
            node.threads = 1
        self.records.append(
            MigrationRecord(self.graph.sim.now(), name, dest.name, pause)
        )
        return pause

    def record_migration(self, name: str, dest: str, pause_s: float) -> None:
        """Append a committed move (called back by a ``migrator``)."""
        self.records.append(
            MigrationRecord(self.graph.sim.now(), name, dest, pause_s)
        )

    def record_aborted_migration(self, name: str, why: str) -> None:
        """Record an aborted move (called back by a ``migrator``).

        The node is back at its source, but it *was* paused for the
        prepare/transfer window; without this callback that cost — and
        the fact the placement decision silently didn't happen — would
        vanish from the record.
        """
        self.aborted.append((self.graph.sim.now(), name, why))

    def placement(self) -> dict[str, str]:
        """Current host name of every node in the graph."""
        return {
            name: (node.host.name if node.host else "?")
            for name, node in self.graph.nodes.items()
        }

    def remote_nodes(self) -> tuple[str, ...]:
        """Names of nodes currently off the robot."""
        return tuple(
            name
            for name, node in self.graph.nodes.items()
            if node.host is not None and not node.host.on_robot
        )
