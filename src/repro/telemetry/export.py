"""Trace/metrics artifact helpers: schema validation and run reports.

The Chrome trace-event *JSON object format* this package emits is the
one Perfetto and ``chrome://tracing`` load: a top-level object with a
``traceEvents`` array whose entries carry ``name``/``ph``/``ts``/
``pid``/``tid`` (plus ``dur`` for ``ph="X"`` complete events).
:func:`validate_chrome_trace` checks exactly that contract, so tests
and the CLI can assert a written trace will actually open.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.tables import Table, format_seconds
from repro.telemetry.hub import Telemetry

#: Event phases this exporter produces.
_KNOWN_PHASES = {"X", "i", "M", "C", "B", "E"}


def validate_chrome_trace(obj: Any) -> list[str]:
    """Return schema problems of a parsed trace (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    # An empty traceEvents array is valid — an uninstrumented (or
    # span-free) run produces exactly that, and Perfetto loads it.
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph == "X" and "dur" not in ev:
            problems.append(f"event {i}: complete event missing 'dur'")
        ts = ev.get("ts")
        if ts is not None and not isinstance(ts, (int, float)):
            problems.append(f"event {i}: 'ts' must be a number")
    return problems


def summary_tables(telemetry: Telemetry) -> list[Table]:
    """Run-report tables: node times, topics, transport, migrations, energy."""
    tables: list[Table] = []
    snap = telemetry.metrics.snapshot()

    proc = snap.get("node_proc_seconds")
    if proc and proc["series"]:
        t = Table(
            title="per-node processing time",
            columns=["node", "count", "mean", "p50", "p99", "max"],
        )
        for key, s in sorted(proc["series"].items()):
            node = key.split("=", 1)[1] if "=" in key else key or "(all)"
            if s["count"] == 0:
                continue
            t.add_row(
                node,
                s["count"],
                format_seconds(s["mean"]),
                format_seconds(s["p50"]),
                format_seconds(s["p99"]),
                format_seconds(s["max"]),
            )
        tables.append(t)

    msgs = snap.get("topic_messages_total")
    byts = snap.get("topic_bytes_total")
    if msgs and msgs["values"]:
        t = Table(title="per-topic traffic", columns=["topic", "messages", "bytes"])
        for key, count in sorted(msgs["values"].items()):
            topic = key.split("=", 1)[1] if "=" in key else key
            nbytes = (byts or {"values": {}})["values"].get(key, 0.0)
            t.add_row(topic, int(count), int(nbytes))
        tables.append(t)

    lat = snap.get("transport_latency_seconds")
    drops = snap.get("transport_dropped_total")
    if lat is not None:
        t = Table(
            title="transport",
            columns=["topic", "sends", "dropped", "lat p50", "lat p99"],
        )
        sends = snap.get("transport_sends_total", {"values": {}})["values"]
        drop_values = (drops or {"values": {}})["values"]
        for key, n in sorted(sends.items()):
            topic = key.split("=", 1)[1] if "=" in key else key
            s = lat["series"].get(key)
            t.add_row(
                topic,
                int(n),
                int(drop_values.get(key, 0.0)),
                format_seconds(s["p50"]) if s and s["count"] else "-",
                format_seconds(s["p99"]) if s and s["count"] else "-",
            )
        tables.append(t)

    migrations = telemetry.events.select("migration")
    if migrations:
        t = Table(
            title="migrations", columns=["t", "node", "src", "dest", "reason", "pause"]
        )
        for ev in migrations:
            t.add_row(
                f"{ev.t:.2f}s",
                ev.get("node", "?"),
                ev.get("src", "?"),
                ev.get("dest", "?"),
                ev.get("reason", "") or "-",
                format_seconds(ev.get("pause_s", 0.0)),
            )
        tables.append(t)

    if telemetry.events.dropped:
        t = Table(
            title="event bus retention",
            columns=["retained", "dropped", "cap"],
        )
        t.add_row(
            len(telemetry.events), telemetry.events.dropped, telemetry.events.max_events
        )
        t.note = (
            "events past the cap were not retained; "
            "kind counts below undercount the run"
        )
        tables.append(t)

    energy = snap.get("energy_joules_total")
    if energy and energy["values"]:
        t = Table(title="energy", columns=["host", "dynamic J", "idle J", "total J"])
        hosts = sorted(
            {
                dict(kv.split("=", 1) for kv in key.split(","))["host"]
                for key in energy["values"]
                if "host=" in key
            }
        )
        for host in hosts:
            t.add_row(
                host,
                f"{energy['values'].get(f'host={host},kind=dynamic', 0.0):.1f}",
                f"{energy['values'].get(f'host={host},kind=idle', 0.0):.1f}",
                f"{energy['values'].get(f'host={host},kind=total', 0.0):.1f}",
            )
        tables.append(t)

    return tables


def render_report(telemetry: Telemetry) -> str:
    """The human-readable run report the ``trace`` CLI prints."""
    parts = [t.render() for t in summary_tables(telemetry)]
    parts.append(telemetry.summary().rstrip())
    return "\n\n".join(parts)
