"""Layer attribution for the traced rep.

A layer is one ``repro`` package. :class:`LayerTrace` puts class-level
timers on the public entry points of each layer (:data:`ENTRY_POINTS`)
and keeps every span in memory as ``(id, name, parent, start, end)``.
A layer's self time is the time inside its spans minus the time of
their child spans; nested spans of the same layer add their own
exclusive time to that layer, so nothing is counted twice.

Callback time that no entry point covers goes to the layer that owns
the event label (:func:`label_layer`). The kernel reports each fired
callback's wall time through ``KernelProfiler.record``; the wrapper
around it charges the callback's wall time, less the entry-point spans
that closed inside it, to the label's layer. What remains of a
``Simulator.run`` span after all its callbacks is the kernel's own
drain cost, the self time of ``sim``.

Only time inside ``Simulator.run`` counts towards layer self times, so
the self times of all layers add up to the traced run wall; spans
outside a run (scenario construction, result post-processing) are
still counted in ``<layer>.calls`` and kept in the span dump.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections.abc import Callable
from pathlib import Path
from typing import Any

LAYERS = (
    "sim",
    "world",
    "perception",
    "planning",
    "control",
    "vehicle",
    "middleware",
    "network",
    "core",
    "cloud",
    "hybrid",
    "sites",
    "recovery",
    "obs",
    "telemetry",
)

#: ``(module, class, methods)``; the layer is the package under ``repro``.
ENTRY_POINTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("repro.sim.kernel", "Simulator", ("run",)),
    ("repro.world.lidar", "Lidar", ("scan",)),
    ("repro.perception.gmapping", "GMapping", ("process", "map_estimate")),
    ("repro.perception.amcl", "Amcl", ("predict", "update", "resample")),
    ("repro.perception.costmap", "LayeredCostmap", ("update_from_scan",)),
    ("repro.planning.global_planner", "GlobalPlanner", ("plan",)),
    ("repro.planning.frontier", "FrontierExplorer", ("next_goal",)),
    ("repro.control.dwa", "DwaPlanner", ("compute",)),
    ("repro.control.safety", "SafetyController", ("check",)),
    ("repro.control.velocity_mux", "VelocityMux", ("offer", "select")),
    ("repro.vehicle.robot", "LGV", ("step",)),
    ("repro.middleware.graph", "Graph", ("publish", "inject")),
    ("repro.network.fabric", "NetworkFabric", ("send", "rtt", "heartbeat")),
    (
        "repro.network.fabric",
        "FleetRadioNetwork",
        ("uplink_latency", "downlink_latency"),
    ),
    ("repro.core.framework", "OffloadingFramework", ("adjust",)),
    ("repro.core.switcher", "Switcher", ("apply",)),
    ("repro.cloud.pool", "WorkerPool", ("submit",)),
    ("repro.cloud.admission", "AdmissionController", ("request_admission",)),
    ("repro.hybrid.background", "FluidBackground", ("attach", "rebalance")),
    ("repro.sites.selector", "SiteSelector", ("select", "observe")),
    ("repro.sites.session", "TenantSession", ("offload_to", "degrade")),
    ("repro.recovery.protocol", "TwoPhaseMigrator", ("request", "abort")),
    ("repro.recovery.supervisor", "LeaseSupervisor", ("tick",)),
    ("repro.obs.tracing", "RequestTracer", ("start", "segment", "instant", "finish")),
    ("repro.obs.slo", "SloMonitor", ("observe",)),
    ("repro.telemetry.metrics", "Counter", ("inc",)),
    ("repro.telemetry.metrics", "Gauge", ("set", "add")),
    ("repro.telemetry.metrics", "Histogram", ("observe",)),
    ("repro.telemetry.spans", "Tracer", ("begin", "end", "complete", "instant")),
    ("repro.telemetry.events", "EventBus", ("emit",)),
)

#: Event-label prefixes and the layer that owns callbacks carrying them.
LABEL_PREFIXES: tuple[tuple[str, str], ...] = (
    ("physics", "vehicle"),
    ("tenant:", "cloud"),
    ("pool:", "cloud"),
    ("uplink:", "network"),
    ("net:", "middleware"),
    ("goal", "middleware"),
    ("geo:", "sites"),
    ("local:", "sites"),
    ("sites:", "sites"),
    ("hybrid:", "hybrid"),
    ("recovery:", "recovery"),
    ("fault:", "recovery"),
    ("framework:", "core"),
    ("profiler:", "core"),
    ("migrate:", "core"),
)

#: Middleware nodes; ``<node>:finish`` and ``<node>:<timer>`` events are
#: the node executor's machinery, so they belong to ``middleware``.
MIDDLEWARE_NODES = frozenset(
    {
        "actuator",
        "costmap_gen",
        "exploration",
        "localization",
        "path_planning",
        "path_tracking",
        "safety",
        "sensor_driver",
        "slam",
        "velocity_mux",
    }
)


def label_layer(label: str) -> str:
    """The layer owning an event label; unknown labels stay with ``sim``."""
    for prefix, layer in LABEL_PREFIXES:
        if label.startswith(prefix):
            return layer
    if label.split(":", 1)[0] in MIDDLEWARE_NODES:
        return "middleware"
    return "sim"


def _layer_of_module(module: str) -> str:
    layer = module.split(".")[1]
    if layer not in LAYERS:
        raise ValueError(f"{module} is not in a layer package")
    return layer


class Patches:
    """Class-attribute replacements, undone in reverse order.

    Only attributes defined on the class itself may be patched, so
    undoing always puts back the exact original object.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[type, str, Any]] = []

    def wrap(self, cls: type, name: str, make: Callable[[Any], Any]) -> None:
        original = cls.__dict__[name]
        if not callable(original):
            raise TypeError(f"{cls.__name__}.{name} is not a plain function")
        setattr(cls, name, make(original))
        self._undo.append((cls, name, original))

    def undo(self) -> list[tuple[type, str, Any]]:
        """Put every original back.

        Returns ``(class, name, original)`` once per patched attribute,
        with the object it had before the first patch.
        """
        first: dict[tuple[type, str], Any] = {}
        while self._undo:
            cls, name, original = self._undo.pop()
            setattr(cls, name, original)
            first[(cls, name)] = original
        return [(cls, name, original) for (cls, name), original in first.items()]

    def __len__(self) -> int:
        return len(self._undo)


# Frame slots: a frame is a list so the hot path mutates it in place.
_ID, _NAME, _START, _CHILD, _MARK, _SPAN_MARK = range(6)


class LayerTrace:
    """In-memory spans and per-layer self time for one traced rep."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_calls: list[int] = []
        self._name_ids: dict[str, int] = {}
        self.stack: list[list[Any]] = []
        self.next_id = 0
        self.span_id = array("q")
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = [0.0] * len(LAYERS)
        self.layer_calls = [0] * len(LAYERS)
        self.run_depth = 0
        #: Wall time of the outermost ``Simulator.run`` spans.
        self.run_wall = 0.0
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
            self.name_calls.append(0)
        return nid

    def calls_of(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.name_calls[nid]

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _record(self, sid: int, nid: int, parent: int, start: float, end: float) -> None:
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)

    def _close(self, frame: list[Any], end: float, is_run: bool) -> None:
        nid = frame[_NAME]
        dur = end - frame[_START]
        layer = self.name_layer[nid]
        if self.run_depth:
            self.self_s[layer] += dur - frame[_CHILD]
        if is_run:
            self.run_depth -= 1
            if not self.run_depth:
                self.run_wall += dur
        self.layer_calls[layer] += 1
        self.name_calls[nid] += 1
        stack = self.stack
        parent = -1
        if stack:
            top = stack[-1]
            top[_CHILD] += dur
            parent = top[_ID]
        self._record(frame[_ID], nid, parent, frame[_START], end)

    def timed(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        pre: Callable[[LayerTrace, tuple], tuple] | None = None,
        post: Callable[[LayerTrace, tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``pre`` may rewrite the arguments and
        ``post`` sees arguments and result (both run outside the span)."""
        nid = self.name_id(name, layer)
        is_run = name == "Simulator.run"
        clock = self.clock
        stack = self.stack
        close = self._close

        def span(*args: Any, **kwargs: Any) -> Any:
            if pre is not None:
                args = pre(self, args)
            sid = self.next_id
            self.next_id = sid + 1
            frame = [sid, nid, 0.0, 0.0, 0.0, len(self.span_id)]
            if is_run:
                self.run_depth += 1
            stack.append(frame)
            frame[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end, is_run)
            if post is not None:
                post(self, args, result)
            return result

        return functools.wraps(fn)(span)

    def event(self, label: str, wall_s: float) -> None:
        """Attribute one fired callback that took ``wall_s`` and just ended.

        Entry-point spans that closed since the previous callback of the
        enclosing frame ran inside this one: they become its children
        and their time is taken out of the label owner's share.
        """
        end = self.clock()
        name = "event:" + (label or "(unlabelled)")
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self.name_id(name, label_layer(label))
        sid = self.next_id
        self.next_id = sid + 1
        parent = -1
        children = 0.0
        if self.stack:
            top = self.stack[-1]
            parent = top[_ID]
            children = top[_CHILD] - top[_MARK]
            top[_CHILD] = top[_MARK] + wall_s
            top[_MARK] = top[_CHILD]
            parents = self.span_parent
            for i in range(top[_SPAN_MARK], len(parents)):
                if parents[i] == parent:
                    parents[i] = sid
            top[_SPAN_MARK] = len(parents) + 1
        layer = self.name_layer[nid]
        if self.run_depth:
            self.self_s[layer] += wall_s - children
        self.layer_calls[layer] += 1
        self.name_calls[nid] += 1
        self._record(sid, nid, parent, end - wall_s, end)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, patches: Patches) -> None:
        """Time every entry point and attribute kernel callbacks."""
        for module, cls_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            layer = _layer_of_module(module)
            for method in methods:
                name = f"{cls_name}.{method}"
                pre, post = PROBES.get(name, (None, None))
                patches.wrap(
                    cls,
                    method,
                    lambda fn, n=name, ly=layer, a=pre, b=post: self.timed(fn, n, ly, a, b),
                )
        from repro.obs.profiler import KernelProfiler

        def wrap_record(record: Callable[..., None]) -> Callable[..., None]:
            @functools.wraps(record)
            def attributed(
                prof: Any, label: str, t_event: float, seq: int, parent: int, wall_s: float
            ) -> None:
                record(prof, label, t_event, seq, parent, wall_s)
                self.event(label, wall_s)

            return attributed

        patches.wrap(KernelProfiler, "record", wrap_record)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.share`` and ``.calls`` for every layer, and ``trace.wall_s``.

        A layer's self time is its share times ``trace.wall_s``. It is
        not reported itself: it reads exactly 0 s on every workload that
        never enters the layer.
        """
        total = self.run_wall or 1.0
        out: dict[str, float] = {"trace.wall_s": self.run_wall}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.share"] = self.self_s[i] / total
            out[f"{layer}.calls"] = float(self.layer_calls[i])
        return out

    def attribution_error(self) -> float:
        """|sum of layer self times - run wall| / run wall."""
        if not self.run_wall:
            return 0.0
        return abs(sum(self.self_s) - self.run_wall) / self.run_wall

    def dump(self, path: Path) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        doc = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.name_layer],
            "id": self.span_id.tolist(),
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)


# ----------------------------------------------------------------------
# Probes: counts taken at the entry points, outside their spans
# ----------------------------------------------------------------------
def _lidar_scan(trace: LayerTrace, args: tuple, result: Any) -> None:
    trace.count("world.rays", result.ranges.size)


def _fabric_send(trace: LayerTrace, args: tuple, result: Any) -> None:
    _, src, dst, n_bytes = args[:4]
    if src is dst:
        return
    trace.count("middleware.remote_sends")
    trace.count("middleware.bytes", n_bytes)
    trace.count("network.attempts")
    if result is None:
        trace.count("network.drops")
    elif src.on_robot and not dst.on_robot:
        trace.sample("network.uplink_s", result)


def _radio(uplink: bool) -> Callable[[LayerTrace, tuple, Any], None]:
    def probe(trace: LayerTrace, args: tuple, result: Any) -> None:
        trace.count("network.attempts")
        if result is None:
            trace.count("network.drops")
        elif uplink:
            trace.sample("network.uplink_s", result)

    return probe


def _pool_submit(trace: LayerTrace, args: tuple) -> tuple:
    pool, req, on_complete = args

    def completed(r: Any, t: float) -> None:
        trace.sample("cloud.pool_s", t - r.arrival_at)
        on_complete(r, t)

    return (pool, req, completed)


def _admission(trace: LayerTrace, args: tuple, result: Any) -> None:
    if not result.admitted:
        trace.count("cloud.admission_rejected")


PROBES: dict[str, tuple[Any, Any]] = {
    "Lidar.scan": (None, _lidar_scan),
    "NetworkFabric.send": (None, _fabric_send),
    "FleetRadioNetwork.uplink_latency": (None, _radio(uplink=True)),
    "FleetRadioNetwork.downlink_latency": (None, _radio(uplink=False)),
    "WorkerPool.submit": (_pool_submit, None),
    "AdmissionController.request_admission": (None, _admission),
}
