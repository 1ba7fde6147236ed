"""``repro.obs`` — causal request tracing, kernel profiling, SLO watch.

The observability layer *above* :mod:`repro.telemetry`: where telemetry
answers "what happened" (spans, counters, events), ``repro.obs`` answers
"where did this one tick's deadline go" and "is this tenant's error
budget burning":

* :class:`TraceContext` / :class:`RequestTracer` — causal request
  tracing. Every offloaded tick (and every two-phase migration) gets a
  trace id; named segments (``serialize``, ``uplink``, ``queue_wait``,
  ``service``, ``downlink``, ``actuate``) are recorded against virtual
  time as the request crosses the robot, the radio, the pool queue and
  the worker, forming one causal tree per request. Trees export to the
  existing Chrome-trace path and feed :func:`critical_path_report`,
  which attributes each deadline miss to its dominant segment.
* :class:`KernelProfiler` — opt-in DES self-profiling: per-event-label
  wall-clock attribution, heap-churn / cancel / same-time-tie counters
  and the heaviest causal stacks (``top_stacks``). ``BENCH_kernel_profile
  .json`` is its artifact — the "before" baseline of the planned kernel
  overhaul.
* :class:`SloMonitor` — a streaming P² p95 estimator (no sample
  retention) plus per-tenant deadline-miss burn-rate windows; breaches
  are recorded as typed ``slo_breach`` events on the telemetry
  :class:`~repro.telemetry.events.EventBus`. Nothing reacts to them:
  observability never steers a run.

Everything here follows the PR 1 nullable contract: hooks cost one
``is None`` test when disabled, and a disabled run is byte-identical
to a build without this package. See ``docs/telemetry.md``.
"""

from repro.obs.analyze import critical_path_report
from repro.obs.context import IdAllocator, TraceContext
from repro.obs.profiler import KernelProfiler, aggregate_profiles
from repro.obs.slo import P2Quantile, SloMonitor, SloPolicy
from repro.obs.tracing import SEGMENT_NAMES, RequestTracer, TraceTree

__all__ = [
    "IdAllocator",
    "KernelProfiler",
    "aggregate_profiles",
    "P2Quantile",
    "RequestTracer",
    "SEGMENT_NAMES",
    "SloMonitor",
    "SloPolicy",
    "TraceContext",
    "TraceTree",
    "critical_path_report",
]
