"""The node graph: topic routing, hosts, and migration.

The graph is the reproduction's ROS master + transport layer. It knows
which host every node runs on; a publish fans out to subscribers, and
each delivery either happens instantly (same host) or is handed to the
:class:`Transport`, which models the wireless link — latency, loss,
kernel-buffer stalls. Moving a node between hosts (the mechanism behind
Algorithm 1 and Algorithm 2) is :meth:`Graph.move_node`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import TYPE_CHECKING, Protocol

from repro.compute.host import Host
from repro.middleware.messages import Message
from repro.middleware.node import Node
from repro.middleware.serialization import serialized_size
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry
    from repro.telemetry.instrument import GraphInstruments


class Transport(Protocol):
    """Moves bytes between hosts.

    ``send`` returns the one-way delivery latency in seconds, or
    ``None`` if the packet was lost/discarded. Implementations live in
    :mod:`repro.network`.
    """

    def send(self, src: Host, dst: Host, n_bytes: int, now: float) -> float | None:
        """Latency for ``n_bytes`` from ``src`` to ``dst``, or ``None`` if dropped."""
        ...

    def rtt(self, a: Host, b: Host, n_bytes: int, now: float) -> float:
        """Round-trip latency estimate for a small request/response pair."""
        ...


class InstantTransport:
    """Zero-latency, lossless transport — the default for unit tests."""

    def send(self, src: Host, dst: Host, n_bytes: int, now: float) -> float | None:
        return 0.0

    def rtt(self, a: Host, b: Host, n_bytes: int, now: float) -> float:
        return 0.0


ProcessedHook = Callable[[Node, str, float, float], None]


class Graph:
    """Wires nodes, topics and hosts together.

    Parameters
    ----------
    sim:
        The discrete-event simulator driving everything.
    transport:
        Cross-host byte mover; defaults to :class:`InstantTransport`.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; when attached the
        graph records per-node processing-time histograms, per-topic
        message/byte counters, transport latency/drop stats and
        migration events. ``None`` (default) costs one attribute test
        per hook site.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: Transport | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.sim = sim
        self.transport: Transport = transport or InstantTransport()
        self.nodes: dict[str, Node] = {}
        self._subs: dict[str, list[Node]] = defaultdict(list)
        self._processed_hooks: list[ProcessedHook] = []
        self._publish_hooks: list[Callable[[Node, str, Message], None]] = []
        self.migrations: list[tuple[float, str, str, str]] = []
        #: Fault-injection hook (repro.faults). When set, each state
        #: transfer calls ``migration_fault(old_host, new_host, pause,
        #: state_bytes, now)`` and adds the returned extra pause — the
        #: cost of an interrupted transfer being restarted.
        self.migration_fault: (
            Callable[[Host, Host, float, int, float], float] | None
        ) = None
        self.telemetry: "Telemetry | None" = None
        self._tel: "GraphInstruments | None" = None
        if telemetry is not None:
            self.set_telemetry(telemetry)

    def set_telemetry(self, telemetry: Telemetry) -> None:
        """Attach ``telemetry``, pre-creating the hot-path instruments."""
        from repro.telemetry.instrument import GraphInstruments

        self.telemetry = telemetry
        self._tel = GraphInstruments(telemetry)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node: Node, host: Host) -> Node:
        """Attach ``node`` to the graph on ``host`` and start it."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        node.graph = self
        node.host = host
        self.nodes[node.name] = node
        node.on_start()
        # subscriptions made before attach (rare) are registered lazily
        for topic in list(node._subs):
            if node not in self._subs[topic]:
                self._subs[topic].append(node)
        return node

    def register_subscription(self, node: Node, topic: str) -> None:
        """Record that ``node`` wants ``topic`` (called from Node.subscribe)."""
        if node not in self._subs[topic]:
            self._subs[topic].append(node)

    # ------------------------------------------------------------------
    # Pub/sub
    # ------------------------------------------------------------------
    def publish(self, src: Node, topic: str, msg: Message) -> None:
        """Fan ``msg`` out to every subscriber of ``topic``.

        Same-host deliveries are immediate; cross-host deliveries ask
        the transport for a latency (or a drop).
        """
        msg.stamp = self.sim.now()
        for hook in self._publish_hooks:
            hook(src, topic, msg)
        assert src.host is not None
        self._fanout(src, src.host, topic, msg)

    def inject(self, topic: str, msg: Message, host: Host) -> None:
        """Publish from outside any node (e.g. the physical sensor).

        ``host`` is where the data originates — the LGV for sensors —
        so cross-host subscribers still pay transport.
        """
        msg.stamp = self.sim.now()
        if self._publish_hooks:
            hook_src = _ExternalSource(host)
            for hook in self._publish_hooks:
                hook(hook_src, topic, msg)
        self._fanout(None, host, topic, msg)

    def _fanout(self, src: Node | None, src_host: Host, topic: str, msg: Message) -> None:
        """Deliver to all subscribers; shared by publish and inject."""
        tel = self._tel
        n_bytes: int | None = None
        if tel is not None:
            n_bytes = serialized_size(msg)
            tel.topic_messages.inc(topic=topic)
            tel.topic_bytes.inc(n_bytes, topic=topic)
        for sub in self._subs.get(topic, ()):  # stable order = registration order
            if sub is src:
                continue
            if sub.host is src_host:
                sub._deliver(topic, msg)
            else:
                assert sub.host is not None
                if n_bytes is None:
                    n_bytes = serialized_size(msg)
                latency = self.transport.send(src_host, sub.host, n_bytes, self.sim.now())
                if tel is not None:
                    tel.sends.inc(topic=topic)
                    if latency is None:
                        tel.drops.inc(topic=topic)
                    else:
                        tel.send_latency.observe(latency, topic=topic)
                if msg.ctx is not None and self.telemetry is not None:
                    requests = self.telemetry.requests
                    if requests is not None:
                        now = self.sim.now()
                        if latency is None:
                            requests.instant(
                                msg.ctx, "transport_lost", now,
                                topic=topic, dest=sub.host.name,
                            )
                        else:
                            requests.segment(
                                msg.ctx, "transport", now, now + latency,
                                topic=topic, src=src_host.name, dest=sub.host.name,
                            )
                if latency is None:
                    continue  # dropped
                if latency <= 0:
                    sub._deliver(topic, msg)
                else:
                    self.sim.schedule_after(
                        latency,
                        lambda s=sub, t=topic, m=msg: s._deliver(t, m),
                        label=f"net:{topic}",
                    )

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def move_node(
        self, name: str, new_host: Host, transfer: bool = True, reason: str = ""
    ) -> float:
        """Move a node to ``new_host``; returns the pause duration (s).

        During the pause the node drops input (its state is in flight).
        With ``transfer=False`` the move is instantaneous — used when a
        warm replica already exists on the target. ``reason`` annotates
        the migration event ("algo1", "algo2:retreat", ...).
        """
        node = self.nodes[name]
        assert node.host is not None
        old_host = node.host
        if old_host is new_host:
            return 0.0
        state_bytes = node.on_migrate(new_host)
        pause = 0.0
        if transfer:
            latency = self.transport.send(old_host, new_host, state_bytes, self.sim.now())
            pause = latency if latency is not None else self.transport.rtt(
                old_host, new_host, state_bytes, self.sim.now()
            )
            if self.migration_fault is not None:
                pause += self.migration_fault(
                    old_host, new_host, pause, state_bytes, self.sim.now()
                )
        self._record_migration(name, old_host, new_host, pause, state_bytes, reason)
        node.begin_pause(buffer=False)
        node.host = new_host

        if pause > 0:
            self.sim.schedule_after(pause, node.end_pause, label=f"migrate:{name}")
        else:
            node.end_pause()
        return pause

    def pause_node(self, name: str) -> None:
        """Freeze a node in place; input buffers until resumed.

        Models a crashed or unreachable process (repro.faults uses it
        for server-crash containment); the node keeps its state, and
        messages delivered meanwhile are held in arrival order and
        replayed by :meth:`resume_node` — a frozen process's queue
        survives the freeze. Pausing an already-paused node is a no-op
        (the existing buffer is preserved).
        """
        self.nodes[name].begin_pause(buffer=True)

    def resume_node(self, name: str) -> None:
        """Un-freeze a paused node, replaying buffered input in order.

        Resuming a node that was never paused is a no-op.
        """
        self.nodes[name].end_pause()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def on_processed(self, hook: ProcessedHook) -> None:
        """Register a hook(node, trigger, cycles, proc_time) after each callback."""
        self._processed_hooks.append(hook)

    def on_publish(self, hook: Callable[[Node, str, Message], None]) -> None:
        """Register a hook(src_node, topic, msg) on every publish."""
        self._publish_hooks.append(hook)

    def notify_processed(self, node: Node, trigger: str, cycles: float, proc: float) -> None:
        """Internal: fan a processed-callback event to hooks."""
        for hook in self._processed_hooks:
            hook(node, trigger, cycles, proc)
        tel = self._tel
        if tel is not None:
            tel.proc_time.observe(proc, node=node.name)
            tel.invocations.inc(node=node.name)
            assert node.host is not None
            tel.telemetry.tracer.complete(
                node.name,
                ts=self.sim.now(),
                dur=proc,
                track=f"host:{node.host.name}",
                cat="node",
                trigger=trigger,
                cycles=cycles,
            )

    def _record_migration(
        self,
        name: str,
        old_host: Host,
        new_host: Host,
        pause: float,
        state_bytes: int,
        reason: str,
    ) -> None:
        """Single path for migration bookkeeping: list + event bus."""
        now = self.sim.now()
        self.migrations.append((now, name, old_host.name, new_host.name))
        tel = self._tel
        if tel is not None:
            tel.migrations.inc(node=name, dest=new_host.name)
            tel.telemetry.emit(
                "migration",
                t=now,
                track="migrations",
                node=name,
                src=old_host.name,
                dest=new_host.name,
                pause_s=pause,
                state_bytes=state_bytes,
                reason=reason,
            )


class _ExternalSource(Node):
    """Pseudo-node standing in for out-of-graph publishers in hooks."""

    def __init__(self, host: Host) -> None:
        super().__init__("__external__")
        self.host = host
