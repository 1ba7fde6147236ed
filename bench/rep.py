"""One rep of one workload, in its own process.

Run by the harness as ``python -m bench.rep --workload W --seed S
--trace 0|1 --t-spawn T``; prints one JSON object as its last line.

Every rep records, at construction only, the instances of
:data:`TRACKED` and the moment the first ``Simulator.run`` begins --
no per-event cost. A traced rep (``--trace 1``) also installs the
:class:`~bench.layers.LayerTrace` timers and a kernel profiler per
simulator, and uninstalls them before it reports.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

from bench.layers import LAYERS, LayerTrace, Patches
from bench.workloads import WORKLOADS, quantile

#: Classes whose instances a rep keeps, as ``(module, class)``.
TRACKED = (
    ("repro.sim.kernel", "Simulator"),
    ("repro.cloud.tenants", "RobotTenant"),
    ("repro.sites.session", "TenantSession"),
    ("repro.cloud.pool", "WorkerPool"),
)


def _track(patches: Patches, seen: dict[str, list[Any]], marks: dict[str, float]) -> None:
    for module, name in TRACKED:
        cls = getattr(importlib.import_module(module), name)
        bucket = seen.setdefault(name, [])

        def make(init: Any, bucket: list[Any] = bucket) -> Any:
            def tracked(obj: Any, *args: Any, **kwargs: Any) -> None:
                init(obj, *args, **kwargs)
                bucket.append(obj)

            return tracked

        patches.wrap(cls, "__init__", make)
    from repro.sim.kernel import Simulator

    def first_run(run: Any) -> Any:
        def marked(sim: Any, *args: Any, **kwargs: Any) -> float:
            if "first_run" not in marks:
                marks["first_run_mono"] = time.monotonic()
                marks["first_run"] = time.perf_counter()
            return run(sim, *args, **kwargs)

        return marked

    patches.wrap(Simulator, "run", first_run)


def digest(doc: dict[str, Any]) -> str:
    """SHA-256 of a canonical JSON rendering of the simulated outputs."""
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def layer_report(trace: LayerTrace, profilers: list[Any]) -> dict[str, float]:
    """Every per-layer metric a traced rep measures itself."""
    out = trace.layer_metrics()
    events = sum(p.events for p in profilers)
    queue = {"pushes": 0, "cancels": 0, "pruned": 0}
    for p in profilers:
        for key, value in p.queue_counters().items():
            queue[key] += value
    sim_self_s = trace.self_s[LAYERS.index("sim")]
    c = trace.counters
    uplink = sorted(trace.samples.get("network.uplink_s", []))
    pool = sorted(trace.samples.get("cloud.pool_s", []))
    out.update(
        {
            "sim.events": float(events),
            "sim.us_per_event": 1e6 * sim_self_s / events if events else 0.0,
            "sim.queue_pushes": float(queue["pushes"]),
            "sim.queue_cancels": float(queue["cancels"]),
            "sim.queue_pruned": float(queue["pruned"]),
            "sim.fired_ratio": events / queue["pushes"] if queue["pushes"] else 0.0,
            "world.rays": c.get("world.rays", 0.0),
            "middleware.remote_sends": c.get("middleware.remote_sends", 0.0),
            "middleware.bytes": c.get("middleware.bytes", 0.0),
            "network.drops": c.get("network.drops", 0.0),
            "network.drop_ratio": (
                c.get("network.drops", 0.0) / c["network.attempts"]
                if c.get("network.attempts")
                else 0.0
            ),
            "network.uplink_ms.p50": 1e3 * quantile(uplink, 0.50),
            "network.uplink_ms.p99": 1e3 * quantile(uplink, 0.99),
            "cloud.pool_ms.p50": 1e3 * quantile(pool, 0.50),
            "cloud.pool_ms.p99": 1e3 * quantile(pool, 0.99),
            "cloud.admission_rejected": c.get("cloud.admission_rejected", 0.0),
            "obs.segments": float(trace.calls_of("RequestTracer.segment")),
            "trace.attribution_error": trace.attribution_error(),
        }
    )
    return out


def run_rep(
    workload: str, seed: int, traced: bool, smoke: bool, t_spawn: float, spans: Path | None
) -> dict[str, Any]:
    """Run the workload once and measure it; the rep's JSON record."""
    patches = Patches()
    seen: dict[str, list[Any]] = {}
    marks: dict[str, float] = {}
    _track(patches, seen, marks)
    tracking = len(patches)
    trace = None
    profilers: list[Any] = []
    from repro.sim.kernel import Simulator

    if traced:
        trace = LayerTrace()
        trace.install(patches)
        profilers = Simulator.install_default_profiling()
    timers = len(patches) - tracking
    try:
        outcome = WORKLOADS[workload](seed, smoke, seen)
        t_end = time.perf_counter()
    finally:
        if traced:
            Simulator.clear_default_profiling()
        undone = patches.undo()
    restored = all(cls.__dict__[name] is original for cls, name, original in undone)
    events = sum(sim.events_processed for sim in seen["Simulator"])
    wall_s = t_end - marks["first_run"]
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wall_s": wall_s,
        "setup_s": marks["first_run_mono"] - t_spawn,
        "events": events,
        "events_per_s": events / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest({"outputs": outcome.digest, "virtual": outcome.virtual}),
        "checks": outcome.checks,
        "virtual": outcome.virtual,
        "timers_installed": timers,
        "timers_restored": restored,
    }
    if trace is not None:
        record["layers"] = layer_report(trace, profilers)
        if spans is not None:
            trace.dump(spans)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.rep")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    record = run_rep(
        args.workload, args.seed, bool(args.trace), args.smoke, args.t_spawn, args.spans
    )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
