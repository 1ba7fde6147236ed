"""Two-phase stateful migration: PREPARE -> TRANSFER -> COMMIT.

The atomic ``Graph.move_node`` assumes a transfer, once started,
finishes; a server crash mid-flight would strand the node's state on
neither host. This protocol makes the move transactional:

* **PREPARE** — a control-plane round-trip reserves the destination.
  A handshake slower than ``prepare_timeout_s`` (a dead host's
  retransmission storm, an outage) fails the phase.
* **TRANSFER** — the node pauses *with buffering*, its snapshot is
  committed to the robot-side checkpoint store (the rollback
  replica), and the serialized state goes over the transport. A lost
  transfer, or one interrupted by a fault (``graph.migration_fault``),
  is retried within a bounded budget.
* **COMMIT** — a final round-trip confirms the destination holds the
  state; only then does the node's placement flip. Buffered messages
  replay in publish order on the new host.
* **ABORT** — any exhausted phase rolls back: the node is restored
  from the pre-transfer checkpoint (idempotently — aborting twice is
  a no-op), stays on the source, and replays its buffered input
  there. Nothing is lost either way; the failure mode is time.

Every phase samples the transport *at that phase's virtual time*, so
a crash scheduled between PREPARE and COMMIT is actually observed by
the phase that runs after it — there is no up-front latency oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.compute.host import Host
from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.config import RecoveryConfig
from repro.recovery.contracts import MigrationGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.context import TraceContext
    from repro.telemetry import Telemetry

#: Terminal outcomes recorded in :attr:`TwoPhaseMigrator.history`.
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass
class MigrationTicket:
    """One in-flight two-phase migration."""

    name: str
    src: Host
    dest: Host
    threads: int
    reason: str
    started_t: float
    phase: str = "prepare"
    prepare_attempts: int = 0
    transfer_attempts: int = 0
    commit_attempts: int = 0
    state_bytes: int = 0
    checkpoint: Checkpoint | None = None
    paused_at: float | None = None
    #: Causal trace context (repro.obs); set when request tracing is on.
    ctx: "TraceContext | None" = None


class TwoPhaseMigrator:
    """Executes node moves as PREPARE/TRANSFER/COMMIT transactions.

    Satisfies the :class:`repro.core.switcher.NodeMigrator` protocol;
    install on a Switcher via ``switcher.migrator = migrator``.

    Parameters
    ----------
    graph:
        The placement substrate whose placements are being changed —
        anything satisfying :class:`~repro.recovery.contracts.
        MigrationGraph` (the middleware node graph, or a
        :mod:`repro.sites` session table).
    store:
        Robot-side checkpoint store; the pre-transfer snapshot
        committed here doubles as the rollback replica.
    config:
        Timeouts and retry budgets.
    on_commit:
        ``(name, dest_name, pause_s)`` called when a move commits —
        wired to :meth:`Switcher.record_migration`.
    on_abort:
        ``(name, why)`` called when a move aborts.
    """

    def __init__(
        self,
        graph: MigrationGraph,
        store: CheckpointStore,
        config: RecoveryConfig = RecoveryConfig(),
        on_commit: Callable[[str, str, float], None] | None = None,
        on_abort: Callable[[str, str], None] | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.graph = graph
        self.store = store
        self.cfg = config
        self.on_commit = on_commit
        self.on_abort = on_abort
        self.telemetry = telemetry
        self.inflight: dict[str, MigrationTicket] = {}
        self.commits = 0
        self.aborts = 0
        #: (t, node, outcome, detail) for every terminal transition.
        self.history: list[tuple[float, str, str, str]] = []

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def request(
        self, name: str, dest: Host, threads: int = 1, reason: str = ""
    ) -> bool:
        """Begin moving ``name`` to ``dest``; False if rejected.

        A node with a move already in flight, an unknown node, or a
        no-op destination is rejected.
        """
        node = self.graph.nodes.get(name)
        if node is None or node.host is None or node.host is dest:
            return False
        if name in self.inflight:
            return False
        ticket = MigrationTicket(
            name=name,
            src=node.host,
            dest=dest,
            threads=threads,
            reason=reason,
            started_t=self.graph.sim.now(),
        )
        tel = self.telemetry
        if tel is not None and tel.requests is not None:
            ticket.ctx = tel.requests.start(
                "migration",
                name,
                ticket.started_t,
                src=ticket.src.name,
                dest=dest.name,
                reason=reason,
            )
        self.inflight[name] = ticket
        self._prepare(ticket)
        return True

    def abort(self, name: str, why: str = "cancelled") -> bool:
        """Abort an in-flight move; False if none exists (idempotent)."""
        ticket = self.inflight.get(name)
        if ticket is None:
            return False
        self._abort_rollback(ticket, why)
        return True

    def abort_for_host(self, host_name: str, why: str) -> int:
        """Abort every in-flight move touching ``host_name``; returns count."""
        touched = [
            t.name
            for t in self.inflight.values()
            if host_name in (t.src.name, t.dest.name)
        ]
        for name in touched:
            self.abort(name, why)
        return len(touched)

    # ------------------------------------------------------------------
    # PREPARE
    # ------------------------------------------------------------------
    def _prepare(self, ticket: MigrationTicket) -> None:
        if self.inflight.get(ticket.name) is not ticket:
            return  # aborted while a retry was scheduled
        now = self.graph.sim.now()
        ticket.phase = "prepare"
        ticket.prepare_attempts += 1
        rtt = self.graph.transport.rtt(
            ticket.src, ticket.dest, self.cfg.handshake_bytes, now
        )
        if rtt <= self.cfg.prepare_timeout_s:
            self._emit(ticket, "prepare", rtt)
            self._after(rtt, lambda: self._begin_transfer(ticket))
            return
        # The handshake blew the deadline: the requester spent the full
        # timeout discovering that before it can retry or give up.
        if ticket.prepare_attempts < self.cfg.max_attempts:
            self._after(
                self.cfg.prepare_timeout_s + self.cfg.retry_delay_s,
                lambda: self._prepare(ticket),
            )
        else:
            self._after(
                self.cfg.prepare_timeout_s,
                lambda: self._abort_rollback(ticket, "prepare_timeout"),
            )

    # ------------------------------------------------------------------
    # TRANSFER
    # ------------------------------------------------------------------
    def _begin_transfer(self, ticket: MigrationTicket) -> None:
        if self.inflight.get(ticket.name) is not ticket:
            return
        node = self.graph.nodes[ticket.name]
        if node.host is not ticket.src:
            self._abort_rollback(ticket, "source_moved")
            return
        ticket.phase = "transfer"
        now = self.graph.sim.now()
        node.begin_pause(buffer=True)
        ticket.paused_at = now
        # The pre-transfer snapshot is both the bytes on the wire and
        # the rollback replica: commit it before anything can fail.
        ticket.checkpoint = self.store.commit(node, node.snapshot(), now)
        ticket.state_bytes = node.state_size_bytes()
        self._transfer_attempt(ticket)

    def _transfer_attempt(self, ticket: MigrationTicket) -> None:
        if self.inflight.get(ticket.name) is not ticket:
            return
        now = self.graph.sim.now()
        ticket.transfer_attempts += 1
        latency = self.graph.transport.send(
            ticket.src, ticket.dest, ticket.state_bytes, now
        )
        if latency is not None and self.graph.migration_fault is not None:
            extra = self.graph.migration_fault(
                ticket.src, ticket.dest, latency, ticket.state_bytes, now
            )
            if extra > 0:
                # The transfer ran, was interrupted, and must restart
                # from scratch after the wasted airtime.
                self._emit(ticket, "transfer_interrupted", latency + extra)
                self._transfer_failed(ticket, delay=latency + extra)
                return
        if latency is None:
            self._transfer_failed(ticket, delay=self.cfg.retry_delay_s)
            return
        self._emit(ticket, "transfer", latency)
        self._after(latency, lambda: self._commit(ticket))

    def _transfer_failed(self, ticket: MigrationTicket, delay: float) -> None:
        if ticket.transfer_attempts < self.cfg.max_attempts:
            self._after(
                max(delay, self.cfg.retry_delay_s),
                lambda: self._transfer_attempt(ticket),
            )
        else:
            self._after(
                max(delay, self.cfg.retry_delay_s),
                lambda: self._abort_rollback(ticket, "transfer_failed"),
            )

    # ------------------------------------------------------------------
    # COMMIT
    # ------------------------------------------------------------------
    def _commit(self, ticket: MigrationTicket) -> None:
        if self.inflight.get(ticket.name) is not ticket:
            return
        now = self.graph.sim.now()
        ticket.phase = "commit"
        ticket.commit_attempts += 1
        rtt = self.graph.transport.rtt(ticket.src, ticket.dest, 64, now)
        if rtt <= self.cfg.commit_timeout_s:
            self._emit(ticket, "commit", rtt)
            self._after(rtt, lambda: self._committed(ticket))
            return
        if ticket.commit_attempts < self.cfg.max_attempts:
            self._after(
                self.cfg.commit_timeout_s + self.cfg.retry_delay_s,
                lambda: self._commit(ticket),
            )
        else:
            self._after(
                self.cfg.commit_timeout_s,
                lambda: self._abort_rollback(ticket, "commit_timeout"),
            )

    # ------------------------------------------------------------------
    # Terminal states
    # ------------------------------------------------------------------
    def _committed(self, ticket: MigrationTicket) -> None:
        if self.inflight.get(ticket.name) is not ticket:
            return
        node = self.graph.nodes[ticket.name]
        now = self.graph.sim.now()
        pause = now - ticket.paused_at if ticket.paused_at is not None else 0.0
        node.host = ticket.dest
        node.threads = ticket.threads
        self.graph._record_migration(
            ticket.name, ticket.src, ticket.dest, pause, ticket.state_bytes,
            ticket.reason or "2pc",
        )
        node.end_pause()
        del self.inflight[ticket.name]
        self.commits += 1
        self.history.append((now, ticket.name, COMMITTED, ticket.dest.name))
        self._finish_trace(ticket, now, COMMITTED)
        if self.on_commit is not None:
            self.on_commit(ticket.name, ticket.dest.name, pause)

    def _abort_rollback(self, ticket: MigrationTicket, why: str) -> None:
        if self.inflight.get(ticket.name) is not ticket:
            return  # already terminal: rollback is idempotent
        node = self.graph.nodes[ticket.name]
        now = self.graph.sim.now()
        if ticket.checkpoint is not None:
            # Restore is idempotent by Node contract; the node never
            # left the source, so this only undoes partial-transfer
            # damage (of which the model has none — belt and braces).
            node.restore(ticket.checkpoint.state)
        node.end_pause()
        del self.inflight[ticket.name]
        self.aborts += 1
        self.history.append((now, ticket.name, ABORTED, why))
        self._emit(ticket, "abort", 0.0, why=why)
        self._finish_trace(ticket, now, ABORTED, why=why)
        if self.on_abort is not None:
            self.on_abort(ticket.name, why)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _after(self, delay: float, fn: Callable[[], None]) -> None:
        if delay > 0:
            self.graph.sim.schedule_after(delay, fn, label="recovery:2pc")
        else:
            fn()

    def _emit(self, ticket: MigrationTicket, phase: str, dur: float, **extra) -> None:
        tel = self.telemetry
        if tel is None:
            return
        now = self.graph.sim.now()
        tel.emit(
            "migration_phase",
            t=now,
            track="recovery",
            node=ticket.name,
            phase=phase,
            src=ticket.src.name,
            dest=ticket.dest.name,
            dur_s=dur,
            **extra,
        )
        if tel.requests is not None and ticket.ctx is not None:
            tel.requests.segment(ticket.ctx, phase, now, now + dur, **extra)

    def _finish_trace(
        self, ticket: MigrationTicket, now: float, status: str, **extra: object
    ) -> None:
        tel = self.telemetry
        if tel is not None and tel.requests is not None and ticket.ctx is not None:
            tel.requests.finish(
                ticket.ctx,
                now,
                status=status,
                prepare_attempts=ticket.prepare_attempts,
                transfer_attempts=ticket.transfer_attempts,
                commit_attempts=ticket.commit_attempts,
                **extra,
            )
