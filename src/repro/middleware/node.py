"""The middleware node: the unit of computation and of migration.

A node subscribes to topics, runs timers, and charges CPU cycles for
the work its callbacks do. The graph executes at most one callback per
node at a time; while a node is busy, newer messages replace pending
ones per the keep-last QoS, which is how a slow platform naturally
drops to a lower effective processing rate (the paper's standby
effect).

Nodes are the migration granularity of Algorithm 1: the whole node
moves between hosts, callbacks and all.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.compute.executor import ParallelProfile, SERIAL_PROFILE
from repro.middleware.messages import Message
from repro.middleware.qos import KeepLast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compute.host import Host
    from repro.middleware.graph import Graph


class Node:
    """Base class for functional nodes (Localization, CostmapGen, ...).

    Subclasses override :meth:`on_start` to subscribe and create
    timers, and implement callbacks that call :meth:`charge` with the
    cycles their computation consumed and :meth:`publish` with their
    outputs.

    Attributes
    ----------
    threads:
        Thread-pool width used when the host models this node's
        processing time; set >1 only for parallelized nodes (§V).
    parallel_profile:
        How this node's work responds to threads.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.graph: "Graph | None" = None
        self.host: "Host | None" = None
        self.threads: int = 1
        self.parallel_profile: ParallelProfile = SERIAL_PROFILE
        self._subs: dict[str, tuple[Callable[[Message], None], KeepLast]] = {}
        self._pending_order: list[str] = []
        self._busy_until: float = 0.0
        self._pub_buffer: list[tuple[str, Message]] = []
        self._charged: float = 0.0
        self._paused = False
        #: While paused: ``None`` means input is dropped (mid-migration
        #: semantics — the state is in flight and deliveries would race
        #: it); a list means input buffers and replays on resume in
        #: publish order (crash containment / two-phase migration).
        self._pause_buffer: list[tuple[str, Message]] | None = None
        #: Monotone state version, bumped by every committed snapshot.
        self.state_version: int = 0
        self.processed_count = 0

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the node is added to a graph."""

    def on_migrate(self, new_host: Host) -> int:
        """Called when the node is moved; returns state size in bytes.

        Subclasses carrying big state (particle sets, costmaps) return
        its serialized size so the Switcher can charge transfer time.
        """
        return self.state_size_bytes()

    # ------------------------------------------------------------------
    # Checkpointable state (repro.recovery)
    # ------------------------------------------------------------------
    def state_size_bytes(self) -> int:
        """Serialized size of this node's mutable state (Eq. 1c input).

        Both the migration transfer and the recovery checkpoint
        shipments price their airtime from this number.
        """
        return 256

    def snapshot(self) -> object | None:
        """Return an opaque copy of the node's mutable state.

        ``None`` (the default) means the node is stateless: restoring
        it is a no-op and a fresh replica is as good as the original.
        Subclasses with real state (particle sets, costmaps, tracked
        paths) return a deep-enough copy that later mutation of the
        live node cannot corrupt the checkpoint.
        """
        return None

    def restore(self, state: object) -> None:
        """Install a state previously returned by :meth:`snapshot`.

        Must be idempotent: restoring the same checkpoint twice leaves
        the node exactly as restoring it once (rollback retries).
        """

    # ------------------------------------------------------------------
    # Pause / resume (graph + recovery machinery)
    # ------------------------------------------------------------------
    def begin_pause(self, buffer: bool = False) -> None:
        """Freeze the node. No-op if already paused (buffer preserved).

        ``buffer=True`` keeps deliveries in arrival order for replay at
        resume; ``buffer=False`` drops them (a state transfer in flight
        would race any message processed meanwhile).
        """
        if self._paused:
            return
        self._paused = True
        self._pause_buffer = [] if buffer else None

    def end_pause(self) -> None:
        """Un-freeze; replays any buffered input in publish order.

        No-op when the node was never paused.
        """
        if not self._paused:
            return
        self._paused = False
        buffered, self._pause_buffer = self._pause_buffer, None
        if buffered:
            for topic, msg in buffered:
                self._deliver(topic, msg)
        self._try_process()

    # ------------------------------------------------------------------
    # API used by subclasses inside callbacks
    # ------------------------------------------------------------------
    def subscribe(self, topic: str, callback: Callable[[Message], None], depth: int = 1) -> None:
        """Receive messages on ``topic``; keep-last-``depth`` queueing."""
        if topic in self._subs:
            raise ValueError(f"{self.name} already subscribes to {topic!r}")
        self._subs[topic] = (callback, KeepLast(depth))
        if self.graph is not None:
            self.graph.register_subscription(self, topic)

    def publish(self, topic: str, msg: Message) -> None:
        """Publish ``msg``; delivered when the current callback's modeled
        processing completes (outputs can't leave before the work is done)."""
        self._pub_buffer.append((topic, msg))

    def charge(self, cycles: float) -> None:
        """Account ``cycles`` of CPU work for the running callback."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        self._charged += cycles

    def now(self) -> float:
        """Current virtual time."""
        if self.graph is None:
            return 0.0
        return self.graph.sim.now()

    # ------------------------------------------------------------------
    # Execution machinery (driven by the graph)
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether a callback's modeled processing is still in flight."""
        return self.graph is not None and self.graph.sim.now() < self._busy_until

    @property
    def paused(self) -> bool:
        """True while the node is mid-migration (drops all input)."""
        return self._paused

    def _deliver(self, topic: str, msg: Message) -> None:
        if self._paused:
            if self._pause_buffer is not None and topic in self._subs:
                self._pause_buffer.append((topic, msg))
            return
        entry = self._subs.get(topic)
        if entry is None:
            return
        _, queue = entry
        queue.push(msg)
        if topic not in self._pending_order:
            self._pending_order.append(topic)
        self._try_process()

    def _try_process(self) -> None:
        if self.graph is None or self._paused or self.busy:
            return
        while self._pending_order:
            topic = self._pending_order[0]
            _, queue = self._subs[topic]
            if not queue:
                self._pending_order.pop(0)
                continue
            msg = queue.pop()
            if not queue:
                self._pending_order.pop(0)
            self._execute(topic, msg)
            return

    def _execute(self, trigger: str, msg: Message | None) -> None:
        assert self.graph is not None and self.host is not None
        self._charged = 0.0
        self._pub_buffer = []
        if msg is None or trigger in getattr(self, "_timer_callbacks", {}):
            self._timer_callbacks[trigger]()
        else:
            callback, _ = self._subs[trigger]
            callback(msg)
        proc = self.host.exec_time(self._charged, self.threads, self.parallel_profile)
        now = self.graph.sim.now()
        self._busy_until = now + proc
        self.host.account(self.name, self._charged, proc)
        outputs = self._pub_buffer
        self._pub_buffer = []
        self.processed_count += 1
        self.graph.notify_processed(self, trigger, self._charged, proc)

        def finish() -> None:
            for topic, out in outputs:
                assert self.graph is not None
                self.graph.publish(self, topic, out)
            self._try_process()

        if proc > 0:
            self.graph.sim.schedule_after(proc, finish, label=f"{self.name}:finish")
        else:
            finish()

    # Timers ------------------------------------------------------------
    _timer_callbacks: dict[str, Callable[[], None]]

    def create_timer(self, period: float, callback: Callable[[], None], name: str = "") -> None:
        """Run ``callback`` every ``period`` seconds of virtual time.

        Timer firings respect the node's busy state: a firing that
        lands while the node is processing is coalesced (at most one
        pending), like a ROS timer on a single-threaded executor.
        """
        if self.graph is None:
            raise RuntimeError(f"node {self.name} is not attached to a graph")
        if not hasattr(self, "_timer_callbacks"):
            self._timer_callbacks = {}
        key = name or f"__timer{len(self._timer_callbacks)}"
        self._timer_callbacks[key] = callback

        def fire() -> None:
            if self._paused:
                return
            if self.busy:
                if key not in self._pending_order:
                    self._pending_order.append(key)
                    # timers enqueue as zero-payload pending entries
                    self._subs.setdefault(key, (lambda _m: None, KeepLast(1)))
                    self._subs[key][1].push(_TIMER_TICK)
                return
            self._execute_timer(key)

        self.graph.sim.every(period, fire, label=f"{self.name}:{key}")

    def _execute_timer(self, key: str) -> None:
        self._execute(key, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = self.host.name if self.host else "unattached"
        return f"Node({self.name!r} on {where})"


class _TimerTick(Message):
    """Sentinel payload for coalesced timer firings."""


_TIMER_TICK = _TimerTick()
