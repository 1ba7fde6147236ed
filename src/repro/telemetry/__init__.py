"""``repro.telemetry`` — sim-time tracing, metrics, and run artifacts.

The observability layer of the reproduction (and the substrate for its
perf work): a :class:`Tracer` recording nested spans against virtual
time with Chrome-trace/Perfetto export, a metrics :class:`Registry`
(:class:`Counter` / :class:`Gauge` / :class:`Histogram` with labels),
and an :class:`EventBus` for discrete run events (migrations, VDP
samples, Algorithm 1/2 decisions) — bundled behind the nullable
:class:`Telemetry` facade threaded through ``Graph`` and the
framework. See ``docs/telemetry.md``.
"""

from repro.telemetry.events import EventBus, TelemetryEvent
from repro.telemetry.export import render_report, summary_tables, validate_chrome_trace
from repro.telemetry.hub import Telemetry
from repro.telemetry.instrument import (
    GraphInstruments,
    instrument_graph,
    instrument_hosts,
    instrument_simulator,
    instrument_workload,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    Registry,
)
from repro.telemetry.spans import Span, Tracer

__all__ = [
    "Counter",
    "EventBus",
    "Gauge",
    "GraphInstruments",
    "Histogram",
    "LabelCardinalityError",
    "Registry",
    "Span",
    "Telemetry",
    "TelemetryEvent",
    "Tracer",
    "instrument_graph",
    "instrument_hosts",
    "instrument_simulator",
    "instrument_workload",
    "render_report",
    "summary_tables",
    "validate_chrome_trace",
]
