"""Tests for repro.recovery: checkpoints, 2PC migration, leases, the ladder."""

import dataclasses

import pytest

from repro.compute import EDGE_GATEWAY, Host, TURTLEBOT3_PI
from repro.middleware import Graph, Node, TwistMsg
from repro.core.switcher import NodeMigrator
from repro.recovery import (
    ABORTED,
    COMMITTED,
    CheckpointStore,
    LeaseSupervisor,
    RecoveryConfig,
    TwoPhaseMigrator,
)
from repro.recovery.manager import MODES, RecoveryManager
from repro.sim import Simulator

#: Tight timeouts so every retry ladder resolves in well under a second
#: of virtual time. lease_ttl_s must exceed heartbeat_period_s.
FAST = RecoveryConfig(
    checkpoint_period_s=1.0,
    heartbeat_period_s=0.5,
    lease_ttl_s=1.2,
    prepare_timeout_s=0.1,
    commit_timeout_s=0.1,
    retry_delay_s=0.05,
    max_attempts=3,
    cooldown_s=2.0,
)


class StatefulNode(Node):
    """Minimal checkpointable node: state is the list of seen payloads."""

    def __init__(self, name="stateful"):
        super().__init__(name)
        self.values = []
        self.restores = 0

    def on_start(self):
        self.subscribe("data", self.on_data)

    def on_data(self, msg):
        self.values.append(msg.v)

    def state_size_bytes(self):
        return 1000

    def snapshot(self):
        return list(self.values)

    def restore(self, state):
        self.restores += 1
        if state is None:
            return
        self.values = list(state)


class ScriptedTransport:
    """Transport whose rtt/send pop queued results, else a default."""

    def __init__(self, rtt_default=0.0, send_default=0.0):
        self.rtt_queue = []
        self.send_queue = []
        self.rtt_default = rtt_default
        self.send_default = send_default
        self.sends = []

    def send(self, src, dst, n_bytes, now):
        self.sends.append((src.name, dst.name, n_bytes))
        return self.send_queue.pop(0) if self.send_queue else self.send_default

    def rtt(self, a, b, n_bytes, now):
        return self.rtt_queue.pop(0) if self.rtt_queue else self.rtt_default


class FakeFabric:
    """Heartbeat/send endpoints with independently toggleable health."""

    def __init__(self):
        self.beats_ok = True
        self.send_ok = True
        self.heartbeats = 0
        self.sent = []
        self.down_hosts = set()

    def heartbeat(self, src, dst, n_bytes, now):
        self.heartbeats += 1
        if not self.beats_ok or src.name in self.down_hosts:
            return None
        return 0.001

    def send(self, src, dst, n_bytes, now):
        self.sent.append((src.name, dst.name, n_bytes))
        return 0.001 if self.send_ok else None


class StubSwitcher:
    def __init__(self):
        self.server_threads = {}
        self.records = []

    def record_migration(self, name, dest, pause_s):
        self.records.append((name, dest, pause_s))


class StubController:
    def __init__(self):
        self.degraded_history = []

    def note_degraded_mode(self, now, mode):
        self.degraded_history.append((now, mode))


class FakePool:
    def __init__(self, host):
        self.host = host
        self.live = True

    def has_live_workers(self):
        return self.live

    def select_host(self, name):
        return self.host


def make_2pc(transport=None, cfg=FAST, on_commit=None, on_abort=None):
    sim = Simulator()
    tp = transport or ScriptedTransport()
    graph = Graph(sim, tp)
    lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
    gw = Host("gw", EDGE_GATEWAY)
    node = graph.add_node(StatefulNode(), lgv)
    store = CheckpointStore(cfg.max_versions)
    mig = TwoPhaseMigrator(graph, store, cfg, on_commit=on_commit, on_abort=on_abort)
    return sim, graph, tp, lgv, gw, node, mig, store


class TestRecoveryConfig:
    def test_defaults_are_valid(self):
        cfg = RecoveryConfig()
        assert cfg.lease_ttl_s > cfg.heartbeat_period_s
        assert cfg.max_attempts >= 1

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            RecoveryConfig(prepare_timeout_s=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(lease_ttl_s=-1.0)

    def test_rejects_bad_attempt_budget(self):
        with pytest.raises(ValueError):
            RecoveryConfig(max_attempts=0)
        with pytest.raises(ValueError):
            RecoveryConfig(max_versions=0)

    def test_rejects_ttl_not_exceeding_heartbeat(self):
        with pytest.raises(ValueError):
            RecoveryConfig(heartbeat_period_s=0.5, lease_ttl_s=0.5)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            RecoveryConfig(heartbeat_bytes=0)
        with pytest.raises(ValueError):
            RecoveryConfig(handshake_bytes=0)

    def test_frozen(self):
        cfg = RecoveryConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_attempts = 5


class TestCheckpointStore:
    def test_commit_bumps_node_version(self):
        store = CheckpointStore()
        node = StatefulNode()
        node.values = [1.0]
        cp = store.commit(node, node.snapshot(), 0.5)
        assert node.state_version == 1
        assert cp.version == 1 and cp.t == 0.5
        assert cp.state == [1.0]
        assert cp.state_bytes == 1000
        assert store.commits == 1

    def test_latest_returns_newest(self):
        store = CheckpointStore()
        node = StatefulNode()
        store.commit(node, [1.0], 0.0)
        store.commit(node, [1.0, 2.0], 1.0)
        latest = store.latest(node.name)
        assert latest is not None and latest.state == [1.0, 2.0]
        assert latest.version == 2

    def test_history_trimmed_to_max_versions(self):
        store = CheckpointStore(max_versions=2)
        node = StatefulNode()
        for i in range(4):
            store.commit(node, [float(i)], float(i))
        assert store.versions(node.name) == (3, 4)

    def test_restore_latest_applies_state(self):
        store = CheckpointStore()
        node = StatefulNode()
        node.values = [7.0]
        store.commit(node, node.snapshot(), 0.0)
        node.values.append(99.0)  # post-checkpoint damage
        cp = store.restore_latest(node)
        assert cp is not None
        assert node.values == [7.0]

    def test_restore_latest_without_history_is_noop(self):
        store = CheckpointStore()
        node = StatefulNode()
        node.values = [3.0]
        assert store.restore_latest(node) is None
        assert node.values == [3.0] and node.restores == 0

    def test_contains(self):
        store = CheckpointStore()
        node = StatefulNode()
        assert node.name not in store
        store.commit(node, None, 0.0)
        assert node.name in store

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            CheckpointStore(max_versions=0)


class TestNodeCheckpointHooks:
    def test_default_node_is_stateless(self):
        node = Node("plain")
        assert node.snapshot() is None
        node.restore(None)  # must not raise
        assert node.state_size_bytes() == 256

    def test_on_migrate_reports_state_size(self):
        node = StatefulNode()
        gw = Host("gw", EDGE_GATEWAY)
        assert node.on_migrate(gw) == node.state_size_bytes() == 1000

    def test_snapshot_is_isolated_from_live_mutation(self):
        node = StatefulNode()
        node.values = [1.0]
        snap = node.snapshot()
        node.values.append(2.0)
        assert snap == [1.0]

    def test_restore_is_idempotent(self):
        node = StatefulNode()
        node.values = [5.0]
        snap = node.snapshot()
        node.values = [9.0]
        node.restore(snap)
        node.restore(snap)
        assert node.values == [5.0]


class TestTwoPhaseCommit:
    def test_instant_commit_moves_node(self):
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc()
        assert mig.request("stateful", gw) is True
        sim.run()
        assert node.host is gw and not node.paused
        assert mig.commits == 1 and mig.aborts == 0
        assert not mig.inflight
        assert mig.history[-1][2:] == (COMMITTED, "gw")

    def test_threads_applied_on_commit(self):
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc()
        mig.request("stateful", gw, threads=8)
        sim.run()
        assert node.threads == 8

    def test_on_commit_callback_reports_pause(self):
        calls = []
        tp = ScriptedTransport(rtt_default=0.05, send_default=0.4)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(
            transport=tp, on_commit=lambda *a: calls.append(a)
        )
        mig.request("stateful", gw)
        sim.run()
        # paused at 0.05 (after PREPARE), committed at 0.05+0.4+0.05
        (name, dest, pause) = calls[0]
        assert name == "stateful" and dest == "gw"
        assert pause == pytest.approx(0.45)

    def test_request_rejects_unknown_node(self):
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc()
        assert mig.request("nope", gw) is False

    def test_request_rejects_same_host(self):
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc()
        assert mig.request("stateful", lgv) is False

    def test_request_rejects_duplicate_inflight(self):
        tp = ScriptedTransport(send_default=1.0)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        assert mig.request("stateful", gw) is True
        assert mig.request("stateful", gw) is False
        assert len(mig.inflight) == 1

    def test_transfer_pauses_with_buffering(self):
        tp = ScriptedTransport(send_default=1.0)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        mig.request("stateful", gw)
        assert node.paused and node._pause_buffer is not None

    def test_checkpoint_committed_before_transfer(self):
        tp = ScriptedTransport(send_default=1.0)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        node.values = [4.0]
        mig.request("stateful", gw)
        cp = store.latest("stateful")
        assert cp is not None and cp.state == [4.0]
        assert node.state_version == 1

    def test_buffered_input_replays_in_order_on_new_host(self):
        tp = ScriptedTransport(send_default=1.0)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        mig.request("stateful", gw)
        for i, t in enumerate((0.2, 0.4, 0.6)):
            sim.schedule_at(
                t, lambda v=float(i): graph.inject("data", TwistMsg(v=v), lgv)
            )
        sim.run()
        assert node.host is gw
        assert node.values == [0.0, 1.0, 2.0]

    def test_migration_recorded_on_graph(self):
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc()
        mig.request("stateful", gw, reason="algo1")
        sim.run()
        assert graph.migrations[-1][1:] == ("stateful", "lgv", "gw")

    def test_satisfies_node_migrator_protocol(self):
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc()
        assert isinstance(mig, NodeMigrator)


class TestTwoPhaseAbort:
    def test_prepare_timeout_aborts_after_bounded_retries(self):
        tp = ScriptedTransport(rtt_default=10.0)  # handshake never makes it
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        mig.request("stateful", gw)
        sim.run()
        assert mig.aborts == 1 and mig.commits == 0
        assert node.host is lgv and not node.paused
        assert mig.history[-1][2:] == (ABORTED, "prepare_timeout")

    def test_prepare_retry_then_success(self):
        tp = ScriptedTransport()
        tp.rtt_queue = [10.0]  # first handshake times out, second is fine
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        mig.request("stateful", gw)
        sim.run()
        assert mig.commits == 1 and mig.aborts == 0
        assert node.host is gw

    def test_transfer_loss_exhausts_and_rolls_back(self):
        tp = ScriptedTransport()
        tp.send_queue = [None, None, None]
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        node.values = [1.0]
        mig.request("stateful", gw)
        sim.run()
        assert mig.aborts == 1
        assert node.host is lgv and not node.paused
        assert node.values == [1.0] and node.restores >= 1
        assert mig.history[-1][2:] == (ABORTED, "transfer_failed")

    def test_transfer_loss_then_success_commits(self):
        tp = ScriptedTransport()
        tp.send_queue = [None, 0.0]
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        mig.request("stateful", gw)
        sim.run()
        assert mig.commits == 1 and node.host is gw

    def test_commit_timeout_rolls_back(self):
        tp = ScriptedTransport()
        # PREPARE succeeds; all three COMMIT round-trips blow the deadline.
        tp.rtt_queue = [0.0, 10.0, 10.0, 10.0]
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        mig.request("stateful", gw)
        sim.run()
        assert mig.aborts == 1
        assert node.host is lgv and not node.paused
        assert mig.history[-1][2:] == (ABORTED, "commit_timeout")

    def test_buffered_input_replays_on_source_after_abort(self):
        tp = ScriptedTransport()
        tp.send_queue = [None, None, None]
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        mig.request("stateful", gw)
        sim.schedule_at(0.01, lambda: graph.inject("data", TwistMsg(v=5.0), lgv))
        sim.run()
        assert node.host is lgv
        assert node.values == [5.0]

    def test_rollback_restores_pre_transfer_state(self):
        tp = ScriptedTransport(send_default=1.0)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        node.values = [1.0]
        mig.request("stateful", gw)
        node.values.append(99.0)  # partial-transfer damage
        mig.abort("stateful", "test")
        assert node.values == [1.0]

    def test_abort_is_idempotent(self):
        tp = ScriptedTransport(send_default=1.0)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        mig.request("stateful", gw)
        assert mig.abort("stateful") is True
        assert mig.abort("stateful") is False
        assert mig.aborts == 1
        sim.run()  # stale scheduled continuations must be no-ops
        assert mig.commits == 0 and node.host is lgv and not node.paused

    def test_abort_for_host_covers_both_endpoints(self):
        tp = ScriptedTransport(send_default=1.0)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        other = graph.add_node(StatefulNode("b"), lgv)
        mig.request("stateful", gw)
        mig.request("b", gw)
        assert mig.abort_for_host("gw", "lease_expired") == 2
        assert not mig.inflight and mig.aborts == 2
        assert node.host is lgv and other.host is lgv

    def test_migration_fault_interrupts_then_retry_commits(self):
        tp = ScriptedTransport(send_default=0.1)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        extras = [5.0, 0.0]  # first transfer interrupted, retry clean

        def fault(old, new, pause, state_bytes, now):
            return extras.pop(0)

        graph.migration_fault = fault
        mig.request("stateful", gw)
        sim.run()
        assert mig.commits == 1 and node.host is gw
        assert not extras  # both transfer attempts consulted the hook

    def test_on_abort_callback(self):
        calls = []
        tp = ScriptedTransport(rtt_default=10.0)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(
            transport=tp, on_abort=lambda *a: calls.append(a)
        )
        mig.request("stateful", gw)
        sim.run()
        assert calls == [("stateful", "prepare_timeout")]


def make_supervisor(cfg=FAST):
    sim = Simulator()
    fabric = FakeFabric()
    lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
    sup = LeaseSupervisor(sim, fabric, lgv, cfg)
    return sim, fabric, lgv, sup


class TestLeaseSupervisor:
    def test_grant_and_alive(self):
        sim, fabric, lgv, sup = make_supervisor()
        gw = Host("gw", EDGE_GATEWAY)
        lease = sup.grant(gw)
        assert sup.alive("gw") and not lease.expired
        assert sup.all_healthy()

    def test_ticks_renew_while_beats_arrive(self):
        sim, fabric, lgv, sup = make_supervisor()
        sup.grant(Host("gw", EDGE_GATEWAY))
        sup.start()
        sim.run(until=2.0)
        lease = sup.leases["gw"]
        assert lease.renewals >= 3 and lease.misses == 0
        assert sup.expiries == 0

    def test_silence_expires_lease_once(self):
        sim, fabric, lgv, sup = make_supervisor()
        expired = []
        sup.on_expiry(expired.append)
        sup.grant(Host("gw", EDGE_GATEWAY))
        sup.start()
        fabric.beats_ok = False
        sim.run(until=5.0)
        lease = sup.leases["gw"]
        assert lease.expired and sup.expiries == 1
        assert expired == ["gw"]  # fires once, not per missed beat
        assert lease.misses >= 3
        assert not sup.alive("gw") and not sup.all_healthy()

    def test_recovery_when_beats_resume(self):
        sim, fabric, lgv, sup = make_supervisor()
        healed = []
        sup.on_recovery(healed.append)
        sup.grant(Host("gw", EDGE_GATEWAY))
        sup.start()
        fabric.beats_ok = False
        sim.schedule_at(2.0, lambda: setattr(fabric, "beats_ok", True))
        sim.run(until=3.0)
        lease = sup.leases["gw"]
        assert not lease.expired and sup.recoveries == 1
        assert healed == ["gw"]
        # healthy_for restarts from the healing, not the original grant
        assert lease.healthy_for(sim.now()) <= 1.0

    def test_release_stops_supervision(self):
        sim, fabric, lgv, sup = make_supervisor()
        sup.grant(Host("gw", EDGE_GATEWAY))
        sup.release("gw")
        sup.start()
        sim.run(until=2.0)
        assert fabric.heartbeats == 0 and not sup.leases

    def test_per_host_failure_breaks_all_healthy(self):
        sim, fabric, lgv, sup = make_supervisor()
        sup.grant(Host("gw1", EDGE_GATEWAY))
        sup.grant(Host("gw2", EDGE_GATEWAY))
        sup.start()
        fabric.down_hosts.add("gw2")
        sim.run(until=2.0)
        assert sup.alive("gw1") and not sup.alive("gw2")
        assert not sup.all_healthy() and sup.expiries == 1

    def test_regrant_resets_renewal_clock(self):
        sim, fabric, lgv, sup = make_supervisor()
        gw = Host("gw", EDGE_GATEWAY)
        sup.grant(gw)
        sup.start()
        fabric.beats_ok = False
        sim.run(until=5.0)
        assert sup.leases["gw"].expired
        sup.grant(gw)  # fresh lease supersedes the expired one
        assert sup.alive("gw")


def make_manager(pool=None, t3=("w",), cfg=FAST, transport=None):
    sim = Simulator()
    graph = Graph(sim, transport)
    lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
    gw = Host("gw", EDGE_GATEWAY)
    node = graph.add_node(StatefulNode("w"), gw)
    fabric = FakeFabric()
    store = CheckpointStore(cfg.max_versions)
    migrator = TwoPhaseMigrator(graph, store, cfg)
    supervisor = LeaseSupervisor(sim, fabric, lgv, cfg)
    switcher = StubSwitcher()
    controller = StubController()
    manager = RecoveryManager(
        graph=graph,
        fabric=fabric,
        switcher=switcher,
        controller=controller,
        lgv_host=lgv,
        store=store,
        migrator=migrator,
        supervisor=supervisor,
        config=cfg,
        t3_nodes=t3,
        pool=pool,
    )
    return sim, graph, fabric, lgv, gw, node, manager, supervisor, store, switcher, controller


class TestRecoveryManager:
    def test_starts_in_full_offload(self):
        *_, manager, sup, store, sw, ctl = make_manager()
        assert manager.mode == MODES[0] == "full_offload"
        assert manager.offload_guard("anything")

    def test_start_grants_lease_for_remote_placement(self):
        sim, graph, fabric, lgv, gw, node, manager, sup, *_ = make_manager()
        manager.start()
        assert "gw" in sup.leases
        manager.start()  # idempotent: no second set of periodic loops
        before = sim.queue_depth
        manager.start()
        assert sim.queue_depth == before

    def test_checkpoint_daemon_ships_and_commits(self):
        sim, graph, fabric, lgv, gw, node, manager, sup, store, *_ = make_manager()
        node.values = [7.0]
        manager.start()
        sim.run(until=1.0)
        cp = store.latest("w")
        assert cp is not None and cp.state == [7.0]
        # the shipment paid fabric airtime robot-ward
        assert ("gw", "lgv", 1000) in fabric.sent

    def test_checkpoint_daemon_skips_local_and_paused(self):
        sim, graph, fabric, lgv, gw, node, manager, sup, store, *_ = make_manager()
        graph.add_node(StatefulNode("local"), lgv)
        graph.pause_node("w")
        manager.start()
        sim.run(until=1.0)
        assert store.commits == 0
        graph.resume_node("w")
        sim.run(until=2.0)
        assert store.versions("w") and "local" not in store

    def test_checkpoint_ship_failure_does_not_commit(self):
        sim, graph, fabric, lgv, gw, node, manager, sup, store, *_ = make_manager()
        fabric.send_ok = False
        manager.start()
        sim.run(until=2.5)
        assert store.commits == 0
        assert manager.checkpoint_ship_failures >= 2

    def test_lease_expiry_escalates_and_restores_from_checkpoint(self):
        sim, graph, fabric, lgv, gw, node, manager, sup, store, sw, ctl = make_manager()
        node.values = [7.0]
        manager.start()
        fabric.beats_ok = False  # heartbeats silent; checkpoint path still up
        sim.schedule_at(1.1, lambda: node.values.append(99.0))
        sim.run(until=3.0)
        assert sup.expiries == 1
        assert manager.mode == "t3_only"
        assert node.host is lgv and not node.paused
        assert node.values == [7.0]  # post-checkpoint damage rolled back
        assert manager.restored_from_checkpoint == 1
        assert sw.records[-1] == ("w", "lgv", 0.0)
        assert ctl.degraded_history and ctl.degraded_history[0][1] == "t3_only"
        assert "gw" not in sup.leases  # dead host released

    def test_restore_without_checkpoint_counts_fresh(self):
        sim, graph, fabric, lgv, gw, node, manager, sup, store, *_ = make_manager()
        manager.start()
        fabric.beats_ok = False
        fabric.send_ok = False  # no checkpoint ever reaches the robot
        sim.run(until=3.0)
        assert node.host is lgv
        assert manager.restored_fresh == 1 and manager.restored_from_checkpoint == 0

    def test_guard_in_t3_only_permits_only_t3_nodes(self):
        sim, graph, fabric, lgv, gw, node, manager, *_ = make_manager(t3=("w",))
        manager._on_lease_expired("gw")
        assert manager.mode == "t3_only"
        assert manager.offload_guard("w")
        assert not manager.offload_guard("other")

    def test_double_expiry_reaches_all_local(self):
        sim, graph, fabric, lgv, gw, node, manager, *_ = make_manager()
        manager._on_lease_expired("gw")
        manager._on_lease_expired("gw")
        assert manager.mode == "all_local"
        assert not manager.offload_guard("w")
        manager._on_lease_expired("gw")  # ladder saturates, no wraparound
        assert manager.mode == "all_local"

    def test_ladder_climbs_back_after_cooldown(self):
        sim, graph, fabric, lgv, gw, node, manager, sup, store, sw, ctl = make_manager()
        manager.start()
        fabric.beats_ok = False
        sim.run(until=2.0)
        assert manager.mode == "t3_only"
        fabric.beats_ok = True  # node is local now; no lease left to renew
        sim.run(until=6.0)
        assert manager.mode == "full_offload"
        assert [m for _, m in ctl.degraded_history] == ["t3_only", "full_offload"]

    def test_expiry_aborts_inflight_migration_to_dead_host(self):
        tp = ScriptedTransport(send_default=10.0)  # transfer never lands in time
        sim, graph, fabric, lgv, gw, node, manager, sup, store, *_ = make_manager(
            transport=tp
        )
        node.host = lgv  # start at home, migrate toward the doomed host
        assert manager.migrator.request("w", gw)
        assert "w" in manager.migrator.inflight
        manager._on_lease_expired("gw")
        assert not manager.migrator.inflight
        assert manager.migrator.aborts == 1
        assert node.host is lgv and not node.paused

    def test_restore_prefers_surviving_pool_worker(self):
        vm = Host("vm0", EDGE_GATEWAY)
        pool = FakePool(vm)
        sim, graph, fabric, lgv, gw, node, manager, sup, store, sw, _ = make_manager(
            pool=pool, t3=("w",)
        )
        sw.server_threads["w"] = 4
        manager._on_lease_expired("gw")
        assert node.host is vm
        assert node.threads == 4

    def test_restore_falls_back_home_when_pool_dead(self):
        vm = Host("vm0", EDGE_GATEWAY)
        pool = FakePool(vm)
        pool.live = False
        sim, graph, fabric, lgv, gw, node, manager, *_ = make_manager(
            pool=pool, t3=("w",)
        )
        manager._on_lease_expired("gw")
        assert node.host is lgv and node.threads == 1

    def test_restore_distrusts_worker_with_expired_lease(self):
        vm = Host("vm0", EDGE_GATEWAY)
        pool = FakePool(vm)
        sim, graph, fabric, lgv, gw, node, manager, sup, *_ = make_manager(
            pool=pool, t3=("w",)
        )
        sup.grant(vm).expired = True
        manager._on_lease_expired("gw")
        assert node.host is lgv

    def test_restore_of_non_t3_node_stays_home_in_degraded_mode(self):
        vm = Host("vm0", EDGE_GATEWAY)
        pool = FakePool(vm)
        sim, graph, fabric, lgv, gw, node, manager, *_ = make_manager(
            pool=pool, t3=()
        )
        manager._on_lease_expired("gw")
        assert manager.mode == "t3_only"
        assert node.host is lgv

    def test_buffered_input_survives_crash_and_restore(self):
        sim, graph, fabric, lgv, gw, node, manager, sup, store, *_ = make_manager()
        manager.start()
        sim.run(until=1.0)  # one checkpoint committed
        graph.pause_node("w")  # crash containment freezes the node
        graph.inject("data", TwistMsg(v=3.0), gw)
        manager._on_lease_expired("gw")
        assert node.host is lgv and not node.paused
        assert 3.0 in node.values  # frozen queue replayed on the new placement


class TestInstrumentRecovery:
    def test_manager_without_telemetry_runs_clean(self):
        sim, graph, fabric, lgv, gw, node, manager, *_ = make_manager()
        manager.start()
        sim.run(until=2.0)  # no telemetry attached anywhere; no crashes
        assert manager.mode == "full_offload"


class TestSwitcherMigratorContract:
    """Regressions for the PRO001 sweep: the Switcher must observe both
    migrator outcomes (commit *and* abort) and the refusal of request().

    Before the sweep, ``attach_recovery`` wired ``on_commit`` only — an
    aborted migration (and the pause it cost) vanished from the record —
    and ``Switcher._move`` discarded the bool from ``request()``, so a
    refused transaction looked identical to an accepted one.
    """

    def test_aborted_migration_is_recorded_on_switcher(self):
        from repro.core.switcher import Switcher

        tp = ScriptedTransport(rtt_default=10.0)  # prepare never lands
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        sw = Switcher(graph, lgv, gw)
        mig.on_abort = sw.record_aborted_migration
        sw.migrator = mig
        assert mig.request("stateful", gw)
        sim.run()
        assert mig.aborts == 1
        assert [(name, why) for _t, name, why in sw.aborted] == [
            ("stateful", "prepare_timeout")
        ]
        assert sw.records == []  # nothing committed, nothing fabricated

    def test_attach_recovery_wires_abort_callback(self):
        from types import SimpleNamespace

        from repro.core.switcher import Switcher
        from repro.recovery.manager import attach_recovery

        sim = Simulator()
        graph = Graph(sim, ScriptedTransport())
        lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        gw = Host("gw", EDGE_GATEWAY)
        graph.add_node(StatefulNode("w"), lgv)
        switcher = Switcher(graph, lgv, gw)
        framework = SimpleNamespace(
            graph=graph,
            switcher=switcher,
            controller=StubController(),
            lgv_host=lgv,
            classification=SimpleNamespace(offload_for_time=("w",)),
        )
        manager = attach_recovery(framework, FakeFabric(), config=FAST)
        assert manager.migrator.on_commit == switcher.record_migration
        assert manager.migrator.on_abort == switcher.record_aborted_migration

    def test_refused_request_is_counted_not_dropped(self):
        from repro.core.switcher import Switcher

        tp = ScriptedTransport(rtt_default=0.01, send_default=0.01)
        sim, graph, tp, lgv, gw, node, mig, store = make_2pc(transport=tp)
        sw = Switcher(graph, lgv, gw)
        sw.migrator = mig
        assert sw._move("stateful", gw) == 0.0  # async: pause lands at commit
        assert sw.refused_requests == 0
        # a second decision while the transaction is still in flight
        assert sw._move("stateful", gw) == 0.0
        assert sw.refused_requests == 1
        sim.run()
        assert mig.commits == 1  # the refusal never spawned a duplicate
