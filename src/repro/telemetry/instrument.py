"""Instrumentation wiring: attach a :class:`Telemetry` to the layers.

The hooks themselves live inside ``Simulator``, ``Graph`` and friends
(behind ``if self.telemetry is not None`` guards); this module owns
the metric *names* and the cached instrument handles those hot paths
use, plus the one periodic flusher (:func:`instrument_hosts`) that
samples cumulative state (energy meters, queue depth) into gauges.

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
==============================  =========  ==============================
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.telemetry.hub import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compute.host import Host
    from repro.middleware.graph import Graph
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
