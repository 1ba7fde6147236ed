"""Instrumentation wiring: attach a :class:`Telemetry` to the layers.

The hooks themselves live inside ``Simulator``, ``Graph`` and friends
(behind ``if self.telemetry is not None`` guards); this module owns
the metric *names* and the cached instrument handles those hot paths
use, plus the periodic flusher that samples cumulative state (energy
meters, queue depth) into gauges.

Exported metric names (see ``docs/telemetry.md`` for the full table):

==============================  =========  ==============================
name                            kind       labels
==============================  =========  ==============================
``sim_events_total``            counter    —
``sim_queue_depth``             gauge      —
``node_proc_seconds``           histogram  ``node``
``node_invocations_total``      counter    ``node``
``topic_messages_total``        counter    ``topic``
``topic_bytes_total``           counter    ``topic``
``transport_sends_total``       counter    ``topic``
``transport_latency_seconds``   histogram  ``topic``
``transport_dropped_total``     counter    ``topic``
``migrations_total``            counter    ``node``, ``dest``
``energy_joules_total``         gauge      ``host``, ``kind``
``host_cycles_total``           gauge      ``host``
``vdp_estimate_seconds``        gauge      ``which`` (local|cloud)
``recovery_mode_level``         gauge      — (0=full_offload .. 2=all_local)
``recovery_leases``             gauge      ``state`` (live|expired)
``recovery_migrations_total``   gauge      ``outcome`` (committed|aborted)
``recovery_checkpoints_total``  gauge      —
``recovery_restores_total``     gauge      ``source`` (checkpoint|fresh)
==============================  =========  ==============================
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.telemetry.hub import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.pool import WorkerPool
    from repro.compute.host import Host
    from repro.middleware.graph import Graph
    from repro.recovery.manager import RecoveryManager
    from repro.sim.kernel import Process, Simulator


class GraphInstruments:
    """Pre-created metric handles for the :class:`Graph` hot paths.

    Creating these once at attach time keeps the per-message cost to
    dict-free method calls on cached objects.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        m = telemetry.metrics
        self.proc_time = m.histogram(
            "node_proc_seconds", "modeled processing time per node callback"
        )
        self.invocations = m.counter(
            "node_invocations_total", "callback executions per node"
        )
        self.topic_messages = m.counter(
            "topic_messages_total", "messages published per topic"
        )
        self.topic_bytes = m.counter(
            "topic_bytes_total", "serialized bytes published per topic"
        )
        self.sends = m.counter(
            "transport_sends_total", "cross-host transport sends per topic"
        )
        self.send_latency = m.histogram(
            "transport_latency_seconds", "one-way delivery latency of accepted sends"
        )
        self.drops = m.counter(
            "transport_dropped_total", "cross-host sends lost or discarded"
        )
        self.migrations = m.counter(
            "migrations_total", "node migrations by destination host"
        )


def instrument_simulator(sim: Simulator, telemetry: Telemetry) -> None:
    """Attach ``telemetry`` to the kernel: event spans + events counter."""
    sim.telemetry = telemetry
    sim._tel_events = telemetry.metrics.counter(
        "sim_events_total", "discrete events fired by the kernel"
    )


def instrument_graph(graph: Graph, telemetry: Telemetry) -> None:
    """Attach ``telemetry`` to a graph (idempotent)."""
    graph.set_telemetry(telemetry)


def instrument_hosts(
    telemetry: Telemetry,
    sim: Simulator,
    hosts: Iterable[Host],
    period_s: float = 1.0,
) -> Process:
    """Start the periodic flusher sampling energy/cycles into gauges.

    Returns the flusher :class:`~repro.sim.kernel.Process`; it is also
    registered on the telemetry so ``flush_now()`` (called by the
    artifact writers) captures final totals even mid-period.
    """
    host_list = list(hosts)
    energy = telemetry.metrics.gauge(
        "energy_joules_total", "cumulative energy per host (dynamic/idle/total)"
    )
    cycles = telemetry.metrics.gauge("host_cycles_total", "cumulative cycles per host")
    depth = telemetry.metrics.gauge("sim_queue_depth", "live events in the kernel queue")

    def flush() -> None:
        now = sim.now()
        for host in host_list:
            meter = host.energy
            meter.account_idle(now)
            energy.set(meter.dynamic_energy_j, host=host.name, kind="dynamic")
            energy.set(meter.idle_energy_j, host=host.name, kind="idle")
            energy.set(meter.total_energy_j, host=host.name, kind="total")
            cycles.set(meter.total_cycles(), host=host.name)
        depth.set(sim.queue_depth)

    flush()  # gauges exist (at zero) even if the run ends before one period
    flusher = sim.every(period_s, flush, label="telemetry:flush")
    telemetry.register_flusher(flusher)
    return flusher


def instrument_pool(
    telemetry: Telemetry,
    pool: WorkerPool,
    period_s: float = 0.5,
) -> Process:
    """Periodic sampler for a :class:`repro.cloud.WorkerPool`.

    The pool already publishes its per-worker
    ``cloud_pool_queue_depth`` / ``cloud_pool_utilization`` gauges on
    every submit/complete when built with a telemetry object; this
    flusher adds the *time-driven* samples a dashboard wants between
    requests — a worker whose tenants all went quiet still reports its
    idleness — plus the host-occupancy view (``cloud_host_occupancy``:
    time-averaged claimed threads).
    """
    occ = telemetry.metrics.gauge(
        "cloud_host_occupancy", "time-averaged claimed threads per pool host"
    )

    def flush() -> None:
        now = pool.sim.now()
        pool._sample_gauges()
        for w in pool.workers:
            occ.set(w.host.mean_occupancy(now), worker=w.host.name)

    flush()
    flusher = pool.sim.every(period_s, flush, label="telemetry:pool")
    telemetry.register_flusher(flusher)
    return flusher


def instrument_recovery(
    telemetry: Telemetry,
    manager: RecoveryManager,
    period_s: float = 1.0,
) -> Process:
    """Periodic sampler for a :class:`repro.recovery.manager.RecoveryManager`.

    The recovery layer already emits discrete events (``lease_expired``,
    ``migration_phase``, ``recovery_mode``) when built with a telemetry
    object; this flusher adds the continuously-sampled view — current
    ladder rung, live/expired lease counts, cumulative 2PC outcomes —
    so dashboards see the degraded interval, not just its edges.
    """
    from repro.recovery.manager import MODES

    m = telemetry.metrics
    mode = m.gauge("recovery_mode_level", "degraded-mode ladder rung (0..2)")
    leases = m.gauge("recovery_leases", "supervised leases by state")
    migrations = m.gauge("recovery_migrations_total", "2PC outcomes to date")
    checkpoints = m.gauge("recovery_checkpoints_total", "committed checkpoints")
    restores = m.gauge("recovery_restores_total", "crash restorations by source")

    def flush() -> None:
        held = list(manager.supervisor.leases.values())
        mode.set(MODES.index(manager.mode))
        leases.set(sum(1 for lease in held if not lease.expired), state="live")
        leases.set(sum(1 for lease in held if lease.expired), state="expired")
        migrations.set(manager.migrator.commits, outcome="committed")
        migrations.set(manager.migrator.aborts, outcome="aborted")
        checkpoints.set(manager.store.commits)
        restores.set(manager.restored_from_checkpoint, source="checkpoint")
        restores.set(manager.restored_fresh, source="fresh")

    flush()
    flusher = manager.graph.sim.every(period_s, flush, label="telemetry:recovery")
    telemetry.register_flusher(flusher)
    return flusher


def instrument_workload(
    telemetry: Telemetry,
    sim: Simulator,
    graph: Graph,
    hosts: Iterable[Host],
    flush_period_s: float = 1.0,
) -> None:
    """One-call wiring for a built workload: clock, kernel, graph, hosts."""
    telemetry.bind_clock(sim.now)
    instrument_simulator(sim, telemetry)
    instrument_graph(graph, telemetry)
    instrument_hosts(telemetry, sim, hosts, period_s=flush_period_s)
