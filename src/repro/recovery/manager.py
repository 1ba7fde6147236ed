"""The RecoveryManager: ties leases, checkpoints and the ladder together.

Supervision loop (all driven by the DES kernel):

* a **checkpoint daemon** periodically snapshots every settled remote
  node and ships the state robot-ward over the fabric, paying Eq. 1c
  airtime for ``state_size_bytes``; the checkpoint commits only when
  the shipment is actually delivered — the robot never "holds" state
  it never received;
* a **lease admin tick** grants a lease for every remote placement it
  sees and, once every lease has stayed healthy for ``cooldown_s``,
  steps the degraded-mode ladder back toward full offload;
* **lease expiry** (from :class:`LeaseSupervisor` — heartbeats only,
  no oracle) escalates the ladder one rung — ``full_offload`` ->
  ``t3_only`` -> ``all_local`` — aborts any in-flight migration
  touching the dead host, and restores each node stranded there from
  its last committed checkpoint, locally on the robot.

The ladder gates the Switcher through ``offload_guard``: while
degraded, ``to_server`` moves for distrusted nodes are vetoed, which
is exactly Algorithm 2's retreat posture expressed as placement
policy rather than a one-shot migration.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.compute.host import Host
from repro.core.controller import Controller
from repro.core.switcher import Switcher
from repro.middleware.graph import Graph
from repro.network.fabric import NetworkFabric
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.config import RecoveryConfig
from repro.recovery.protocol import TwoPhaseMigrator
from repro.recovery.supervisor import LeaseSupervisor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import OffloadingFramework
    from repro.telemetry import Telemetry

#: The degraded-mode ladder, least to most conservative.
MODES = ("full_offload", "t3_only", "all_local")


class RecoveryManager:
    """Checkpoint daemon + degraded-mode ladder + crash restoration.

    Built and wired by :func:`attach_recovery`; constructing it by
    hand is for tests.
    """

    def __init__(
        self,
        graph: Graph,
        fabric: NetworkFabric,
        switcher: Switcher,
        controller: Controller,
        lgv_host: Host,
        store: CheckpointStore,
        migrator: TwoPhaseMigrator,
        supervisor: LeaseSupervisor,
        config: RecoveryConfig = RecoveryConfig(),
        t3_nodes: Sequence[str] = (),
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.graph = graph
        self.fabric = fabric
        self.switcher = switcher
        self.controller = controller
        self.lgv_host = lgv_host
        self.store = store
        self.migrator = migrator
        self.supervisor = supervisor
        self.cfg = config
        self.t3_nodes = frozenset(t3_nodes)
        self.telemetry = telemetry
        self._mode_idx = 0
        self._last_transition_t = 0.0
        self._started = False
        self.restored_from_checkpoint = 0
        self.restored_fresh = 0
        self.checkpoint_ship_failures = 0
        supervisor.on_expiry(self._on_lease_expired)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Grant initial leases and begin the periodic loops."""
        if self._started:
            return
        self._started = True
        self._lease_admin()
        self.supervisor.start()
        self.graph.sim.every(
            self.cfg.heartbeat_period_s, self._lease_admin, label="recovery:admin"
        )
        self.graph.sim.every(
            self.cfg.checkpoint_period_s,
            self._checkpoint_tick,
            label="recovery:checkpoint",
        )

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Current rung: ``full_offload``, ``t3_only`` or ``all_local``."""
        return MODES[self._mode_idx]

    def offload_guard(self, name: str) -> bool:
        """Placement veto installed on the Switcher.

        ``full_offload`` permits everything; ``t3_only`` permits only
        the VDP-critical T3 nodes (the ones worth the risk); and
        ``all_local`` permits nothing until leases stay healthy long
        enough to climb back.
        """
        if self._mode_idx == 0:
            return True
        if self._mode_idx == 1:
            return name in self.t3_nodes
        return False

    def _escalate(self, now: float) -> None:
        if self._mode_idx < len(MODES) - 1:
            self._mode_idx += 1
        self._note_mode(now)

    def _note_mode(self, now: float) -> None:
        self._last_transition_t = now
        self.controller.note_degraded_mode(now, self.mode)
        if self.telemetry is not None:
            self.telemetry.emit(
                "recovery_mode", t=now, track="recovery", mode=self.mode
            )

    # ------------------------------------------------------------------
    # Periodic loops
    # ------------------------------------------------------------------
    def _lease_admin(self) -> None:
        """Grant leases for new remote placements; climb when calm."""
        now = self.graph.sim.now()
        for _name, node in self.graph.nodes.items():
            host = node.host
            if (
                host is not None
                and not host.on_robot
                and host.name not in self.supervisor.leases
            ):
                self.supervisor.grant(host)
        if (
            self._mode_idx > 0
            and self.supervisor.all_healthy()
            and now - self._last_transition_t >= self.cfg.cooldown_s
        ):
            self._mode_idx -= 1
            self._note_mode(now)

    def _checkpoint_tick(self) -> None:
        """Snapshot settled remote nodes; commit what the robot receives."""
        now = self.graph.sim.now()
        for name, node in self.graph.nodes.items():
            host = node.host
            if host is None or host.on_robot or node.paused:
                continue
            if name in self.migrator.inflight:
                continue
            latency = self.fabric.send(
                host, self.lgv_host, node.state_size_bytes(), now
            )
            if latency is None:
                self.checkpoint_ship_failures += 1
                continue
            self.store.commit(node, node.snapshot(), now)

    # ------------------------------------------------------------------
    # Expiry handling
    # ------------------------------------------------------------------
    def _on_lease_expired(self, host_name: str) -> None:
        now = self.graph.sim.now()
        self._escalate(now)
        self.migrator.abort_for_host(host_name, "lease_expired")
        stranded = [
            name
            for name, node in self.graph.nodes.items()
            if node.host is not None and node.host.name == host_name
        ]
        for name in stranded:
            self._restore_node(name)
        # The dead host's lease has served its purpose; placements that
        # later land there get a fresh one from the admin tick.
        self.supervisor.release(host_name)
        if self.telemetry is not None:
            self.telemetry.emit(
                "recovery_restore",
                t=now,
                track="recovery",
                host=host_name,
                nodes=len(stranded),
                mode=self.mode,
            )

    def _restore_node(self, name: str) -> None:
        node = self.graph.nodes[name]
        if self.store.restore_latest(node) is not None:
            self.restored_from_checkpoint += 1
        else:
            self.restored_fresh += 1
        # The state comes from the robot-side store, not from the dead
        # host, so there is no cross-host transfer to pay for: the move
        # is a placement flip home, and the node's buffered input
        # (frozen by crash containment) replays on the robot.
        home = self.lgv_host
        self.graph.move_node(name, home, transfer=False, reason="recovery:restore")
        node.threads = 1
        self.switcher.record_migration(name, home.name, 0.0)


def attach_recovery(
    framework: OffloadingFramework,
    fabric: NetworkFabric,
    config: RecoveryConfig | None = None,
    telemetry: "Telemetry | None" = None,
) -> RecoveryManager:
    """Wire the full recovery stack onto a running framework.

    Installs the two-phase migrator and the ladder's placement guard
    on the framework's Switcher, starts lease supervision and the
    checkpoint daemon, and returns the manager. Without this call
    nothing in :mod:`repro.recovery` runs — a default (unattached)
    simulation is bit-identical to one built before the subsystem
    existed.
    """
    cfg = config or RecoveryConfig()
    graph = framework.graph
    store = CheckpointStore(cfg.max_versions)
    migrator = TwoPhaseMigrator(
        graph,
        store,
        cfg,
        on_commit=framework.switcher.record_migration,
        on_abort=framework.switcher.record_aborted_migration,
        telemetry=telemetry,
    )
    supervisor = LeaseSupervisor(
        graph.sim, fabric, framework.lgv_host, cfg, telemetry=telemetry
    )
    manager = RecoveryManager(
        graph=graph,
        fabric=fabric,
        switcher=framework.switcher,
        controller=framework.controller,
        lgv_host=framework.lgv_host,
        store=store,
        migrator=migrator,
        supervisor=supervisor,
        config=cfg,
        t3_nodes=framework.classification.offload_for_time,
        telemetry=telemetry,
    )
    framework.switcher.migrator = migrator
    framework.switcher.offload_guard = manager.offload_guard
    manager.start()
    return manager
