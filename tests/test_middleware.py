"""Tests for the pub/sub middleware: nodes, graph, QoS, migration."""

import pytest

from repro.compute import EDGE_GATEWAY, Host, TURTLEBOT3_PI
from repro.middleware import (
    Graph,
    InstantTransport,
    KeepLast,
    Node,
    TwistMsg,
    serialized_size,
)
from repro.sim import Simulator


def make_graph(transport=None):
    sim = Simulator()
    graph = Graph(sim, transport)
    lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
    gw = Host("gw", EDGE_GATEWAY)
    return sim, graph, lgv, gw


class Producer(Node):
    def __init__(self, name="producer", period=0.1, cycles=0.0):
        super().__init__(name)
        self.period = period
        self.cycles = cycles

    def on_start(self):
        self.create_timer(self.period, self.tick)

    def tick(self):
        self.charge(self.cycles)
        self.publish("data", TwistMsg(v=1.0))


class Worker(Node):
    """Charges a fixed cycle cost per input message."""

    def __init__(self, name="worker", cycles=1e6):
        super().__init__(name)
        self.cycles = cycles
        self.seen = []

    def on_start(self):
        self.subscribe("data", self.on_data)

    def on_data(self, msg):
        self.charge(self.cycles)
        self.seen.append(self.now())
        self.publish("out", TwistMsg(v=2.0))


class Sink(Node):
    def __init__(self, name="sink", topic="out"):
        super().__init__(name)
        self.topic = topic
        self.got = []

    def on_start(self):
        self.subscribe(self.topic, lambda m: self.got.append((self.now(), m)))


class TestKeepLast:
    def test_depth_one_keeps_newest(self):
        q = KeepLast(1)
        q.push("a")
        q.push("b")
        assert len(q) == 1
        assert q.pop() == "b"
        assert q.dropped == 1

    def test_depth_three_fifo(self):
        q = KeepLast(3)
        for x in "abc":
            q.push(x)
        assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]

    def test_eviction_drops_oldest(self):
        q = KeepLast(2)
        for x in "abc":
            q.push(x)
        assert q.pop() == "b"

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            KeepLast(0)


class TestSerialization:
    def test_framing_overhead_added(self):
        m = TwistMsg()
        assert serialized_size(m) == m.size_bytes() + 24

    def test_twist_is_48_bytes(self):
        assert TwistMsg().size_bytes() == 48


class TestGraphBasics:
    def test_same_host_delivery(self):
        sim, graph, lgv, _ = make_graph()
        w = graph.add_node(Worker(cycles=0), lgv)
        s = graph.add_node(Sink(), lgv)
        graph.inject("data", TwistMsg(v=1.0), lgv)
        sim.run()
        assert len(w.seen) == 1 and len(s.got) == 1

    def test_duplicate_node_name_rejected(self):
        sim, graph, lgv, _ = make_graph()
        graph.add_node(Worker("x"), lgv)
        with pytest.raises(ValueError):
            graph.add_node(Worker("x"), lgv)

    def test_processing_delay_from_cycles(self):
        sim, graph, lgv, _ = make_graph()
        cycles = TURTLEBOT3_PI.freq_hz * 0.05  # 50 ms of work
        graph.add_node(Worker(cycles=cycles), lgv)
        s = graph.add_node(Sink(), lgv)
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        # output published only after modeled processing
        assert s.got[0][0] == pytest.approx(0.05)

    def test_busy_node_keeps_latest_only(self):
        sim, graph, lgv, _ = make_graph()
        cycles = TURTLEBOT3_PI.freq_hz * 1.0  # 1 s per message
        w = graph.add_node(Worker(cycles=cycles), lgv)
        # 5 messages in rapid succession while node is busy with first
        for i in range(5):
            sim.schedule_at(i * 0.01, lambda: graph.inject("data", TwistMsg(), lgv))
        sim.run()
        # first processed immediately, then exactly one queued survivor
        assert len(w.seen) == 2

    def test_timer_drives_pipeline(self):
        sim, graph, lgv, _ = make_graph()
        graph.add_node(Producer(period=0.1), lgv)
        s = graph.add_node(Sink(topic="data"), lgv)
        sim.run(until=1.0)
        assert len(s.got) == 10

    def test_energy_accounted_on_host(self):
        sim, graph, lgv, _ = make_graph()
        cycles = 1e9
        graph.add_node(Worker(cycles=cycles), lgv)
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        assert lgv.energy.per_node["worker"].cycles == pytest.approx(cycles)
        assert lgv.energy.dynamic_energy_j > 0

    def test_publish_order_stable(self):
        sim, graph, lgv, _ = make_graph()
        order = []

        class A(Node):
            def on_start(self):
                self.subscribe("data", lambda m: order.append(self.name))

        graph.add_node(A("first"), lgv)
        graph.add_node(A("second"), lgv)
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        assert order == ["first", "second"]

    def test_processed_hook_fires(self):
        sim, graph, lgv, _ = make_graph()
        events = []
        graph.on_processed(lambda node, trig, cyc, proc: events.append((node.name, trig)))
        graph.add_node(Worker(cycles=100), lgv)
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        assert events == [("worker", "data")]

    def test_negative_cycles_rejected(self):
        sim, graph, lgv, _ = make_graph()

        class Bad(Node):
            def on_start(self):
                self.subscribe("data", lambda m: self.charge(-1))

        graph.add_node(Bad("bad"), lgv)
        with pytest.raises(ValueError):
            graph.inject("data", TwistMsg(), lgv)

    def test_double_subscribe_rejected(self):
        sim, graph, lgv, _ = make_graph()

        class Dup(Node):
            def on_start(self):
                self.subscribe("x", lambda m: None)
                self.subscribe("x", lambda m: None)

        with pytest.raises(ValueError):
            graph.add_node(Dup("dup"), lgv)


class DroppyTransport(InstantTransport):
    """Drops every cross-host packet."""

    def send(self, src, dst, n_bytes, now):
        return None


class SlowTransport(InstantTransport):
    def __init__(self, latency):
        self.latency = latency

    def send(self, src, dst, n_bytes, now):
        return self.latency


class TestCrossHost:
    def test_cross_host_latency_applied(self):
        sim = Simulator()
        graph = Graph(sim, SlowTransport(0.2))
        lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        gw = Host("gw", EDGE_GATEWAY)
        w = graph.add_node(Worker(cycles=0), gw)
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        assert w.seen == [pytest.approx(0.2)]

    def test_dropped_packet_never_arrives(self):
        sim = Simulator()
        graph = Graph(sim, DroppyTransport())
        lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        gw = Host("gw", EDGE_GATEWAY)
        w = graph.add_node(Worker(), gw)
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        assert w.seen == []

    def test_same_host_ignores_transport(self):
        sim = Simulator()
        graph = Graph(sim, DroppyTransport())
        lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        w = graph.add_node(Worker(cycles=0), lgv)
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        assert len(w.seen) == 1


class TestMigration:
    def test_move_node_changes_host(self):
        sim, graph, lgv, gw = make_graph()
        w = graph.add_node(Worker(cycles=0), lgv)
        graph.move_node("worker", gw)
        sim.run()
        assert w.host is gw
        assert graph.migrations[0][1:] == ("worker", "lgv", "gw")

    def test_move_to_same_host_noop(self):
        sim, graph, lgv, _ = make_graph()
        graph.add_node(Worker(), lgv)
        assert graph.move_node("worker", lgv) == 0.0
        assert graph.migrations == []

    def test_pause_during_transfer_drops_messages(self):
        sim = Simulator()

        class SizeTransport(InstantTransport):
            # latency scales with bytes: state transfer is slow, the
            # small data message overtakes it and lands mid-pause
            def send(self, src, dst, n_bytes, now):
                return n_bytes * 0.004

        graph = Graph(sim, SizeTransport())
        lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        gw = Host("gw", EDGE_GATEWAY)
        w = graph.add_node(Worker(cycles=0), lgv)

        sim.schedule_at(0.1, lambda: graph.move_node("worker", gw))
        sim.schedule_at(0.2, lambda: graph.inject("data", TwistMsg(), lgv))
        sim.run()
        assert w.seen == []  # message arrived while paused -> dropped

    def test_pause_node_buffers_and_replays_in_publish_order(self):
        sim, graph, lgv, _ = make_graph()
        w = graph.add_node(Worker(cycles=0), lgv)
        s = graph.add_node(Sink(), lgv)
        graph.pause_node("worker")
        for v in (1.0, 2.0, 3.0):
            graph.inject("data", TwistMsg(v=v), lgv)
        sim.run()
        assert w.seen == []  # frozen: nothing processed yet
        graph.resume_node("worker")
        sim.run()
        assert len(w.seen) == 3  # every buffered message replayed, in order
        assert len(s.got) == 3

    def test_double_pause_preserves_buffer(self):
        sim, graph, lgv, _ = make_graph()
        w = graph.add_node(Worker(cycles=0), lgv)
        graph.pause_node("worker")
        graph.inject("data", TwistMsg(v=1.0), lgv)
        graph.pause_node("worker")  # no-op: must not clear the buffer
        graph.resume_node("worker")
        sim.run()
        assert len(w.seen) == 1

    def test_pause_does_not_buffer_unsubscribed_topics(self):
        sim, graph, lgv, _ = make_graph()
        w = graph.add_node(Worker(cycles=0), lgv)
        graph.pause_node("worker")
        graph.inject("data", TwistMsg(v=1.0), lgv)
        w._deliver("unrelated", TwistMsg())  # not a subscription: dropped
        assert w._pause_buffer == [("data", w._pause_buffer[0][1])]
        graph.resume_node("worker")
        sim.run()
        assert len(w.seen) == 1

    def test_resume_never_paused_is_noop(self):
        sim, graph, lgv, _ = make_graph()
        w = graph.add_node(Worker(cycles=0), lgv)
        graph.resume_node("worker")  # must not raise or disturb state
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        assert len(w.seen) == 1

    def test_migration_pause_still_drops_while_crash_pause_buffers(self):
        # move_node keeps the historical drop semantics (state in
        # flight); pause_node opts into buffering. They must not bleed
        # into each other.
        sim, graph, lgv, gw = make_graph()
        w = graph.add_node(Worker(cycles=0), lgv)
        w.begin_pause(buffer=False)
        graph.inject("data", TwistMsg(), lgv)
        w.end_pause()
        sim.run()
        assert w.seen == []  # dropped, exactly as before repro.recovery

    def test_timer_skips_while_paused(self):
        sim, graph, lgv, _ = make_graph()
        p = graph.add_node(Producer(period=0.1), lgv)
        w = graph.add_node(Worker(cycles=0), lgv)
        graph.pause_node("producer")
        sim.run(until=1.0)
        assert w.seen == []  # paused timers skip firings, none queue up
        graph.resume_node("producer")
        sim.run(until=2.0)
        assert len(w.seen) >= 5

    def test_processing_speeds_up_after_migration(self):
        sim, graph, lgv, gw = make_graph()
        cycles = 1.4e9 * 0.1  # 100 ms on the Pi
        graph.add_node(Worker(cycles=cycles), lgv)
        s = graph.add_node(Sink(), lgv)
        graph.inject("data", TwistMsg(), lgv)
        sim.run()
        t_local = s.got[0][0]
        graph.move_node("worker", gw)
        graph.inject("data", TwistMsg(), lgv)
        t0 = sim.now()
        sim.run()
        t_cloud = s.got[1][0] - t0
        assert t_cloud < t_local / 2  # 4.2 GHz vs 1.4 GHz
