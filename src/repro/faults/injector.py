"""The fault injector: turns a :class:`FaultPlan` into simulator events.

``arm()`` walks the plan and schedules one injection event per fault
(plus a clearing event for finite windows) on the workload's own
simulator. Faults whose start time has already passed are applied
immediately — this matters for :class:`MigrationInterrupt` at t=0,
because the framework performs its initial migrations synchronously
before the event loop starts.

Every phase change is recorded in :attr:`FaultInjector.log` and, when
a telemetry object is available, emitted as ``fault_injected`` /
``fault_cleared`` events on the ``"faults"`` track — so traces show
exactly when the world turned hostile.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.rng import seeded_rng

from repro.compute.host import Host
from repro.faults.plan import (
    Fault,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    MigrationInterrupt,
    PacketMangling,
    ServerCrash,
    ServerSlowdown,
    SiteOutage,
    WapDeath,
)
from repro.middleware.graph import Graph
from repro.network.fabric import NetworkFabric
from repro.network.link import WirelessLink
from repro.network.udp import ChannelFault
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.pool import WorkerPool
    from repro.sites.topology import SiteTopology
    from repro.telemetry import Telemetry


class FaultInjector:
    """Arms a :class:`FaultPlan` against one concrete workload.

    Parameters
    ----------
    sim:
        The simulator whose event queue carries the fault events.
    plan:
        The declarative plan to realize.
    link, fabric, graph:
        The network/middleware objects carrying the injection points.
        Each is optional: a fault whose injection point is missing
        (e.g. a ``LinkOutage`` with no fabric) fails loudly at
        :meth:`arm` time instead of silently doing nothing.
    lgv_host:
        The robot's host (wireless-hop detection for migration faults).
    server_hosts:
        Every offload target; ``host=None`` faults apply to all of them.
    pool:
        Optional :class:`repro.cloud.WorkerPool`. A ``ServerCrash`` on
        one of its workers triggers the pool's rebalance path — every
        request the dead worker held is re-placed on the survivors —
        and a restart drains any backlog parked while everything was
        down.
    topology:
        Optional :class:`repro.sites.topology.SiteTopology`. Required
        for ``SiteOutage`` faults; also lets a ``ServerCrash`` on a
        site worker drive that site's pool rebalance path.
    telemetry:
        Optional event sink; defaults to ``sim.telemetry``.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        link: WirelessLink | None = None,
        fabric: NetworkFabric | None = None,
        graph: Graph | None = None,
        lgv_host: Host | None = None,
        server_hosts: tuple[Host, ...],
        pool: "WorkerPool | None" = None,
        topology: "SiteTopology | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.link = link
        self.fabric = fabric
        self.graph = graph
        self.lgv_host = lgv_host
        self.server_hosts = tuple(server_hosts)
        self.pool = pool
        self.topology = topology
        self.telemetry = telemetry if telemetry is not None else sim.telemetry
        #: Phase changes as ``(virtual_time, phase, fault_kind)`` with
        #: phase in {"injected", "cleared"}.
        self.log: list[tuple[float, str, str]] = []
        self._armed = False

    @classmethod
    def for_workload(
        cls, plan: FaultPlan, workload, telemetry: "Telemetry | None" = None
    ) -> FaultInjector:
        """Build an injector wired to a navigation-style workload.

        ``workload`` must expose ``sim``, ``fabric``, ``graph``,
        ``lgv_host``, ``gateway_host`` and ``cloud_host`` (the
        :class:`~repro.workloads.navigation.Workload` shape).
        """
        return cls(
            workload.sim,
            plan,
            link=workload.fabric.link,
            fabric=workload.fabric,
            graph=workload.graph,
            lgv_host=workload.lgv_host,
            server_hosts=(workload.gateway_host, workload.cloud_host),
            telemetry=telemetry,
        )

    @classmethod
    def for_pool(
        cls, plan: FaultPlan, pool, telemetry: "Telemetry | None" = None
    ) -> FaultInjector:
        """Build an injector targeting a :class:`repro.cloud.WorkerPool`.

        Server faults (``ServerCrash`` / ``ServerSlowdown``) resolve
        against the pool's worker hosts and drive its rebalance path;
        network and migration faults need injection points a bare pool
        does not have, so plans containing them are rejected at
        :meth:`arm`.
        """
        return cls(
            pool.sim,
            plan,
            server_hosts=pool.worker_hosts(),
            pool=pool,
            telemetry=telemetry,
        )

    @classmethod
    def for_sites(
        cls, plan: FaultPlan, topology, telemetry: "Telemetry | None" = None
    ) -> FaultInjector:
        """Build an injector targeting a :mod:`repro.sites` city.

        ``SiteOutage`` resolves against the topology's sites; server
        faults resolve against every site's gateway and pool workers
        (crashes on workers drive the owning pool's rebalance path).
        Single-link network faults need a specific injection point a
        multi-site city does not have, so plans containing them are
        rejected at :meth:`arm`.
        """
        hosts: list[Host] = []
        for s in topology.sites:
            hosts.append(s.gateway)
            hosts.extend(s.pool.worker_hosts())
        return cls(
            topology.sites[0].sim,
            plan,
            server_hosts=tuple(hosts),
            topology=topology,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> FaultInjector:
        """Schedule every fault in the plan; returns ``self``.

        Injections (and clears) whose time is already past are applied
        immediately, in plan order. Idempotence is not attempted:
        arming twice doubles the faults.
        """
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for f in self.plan:
            apply, clear = self._handlers(f)
            self._at(f.start, apply, f"fault:{f.kind}")
            end = getattr(f, "end", None)
            if clear is not None and end is not None and end != float("inf"):
                self._at(end, clear, f"fault:{f.kind}:clear")
        return self

    def _at(self, t: float, callback, label: str) -> None:
        if t <= self.sim.now():
            callback()
        else:
            self.sim.schedule_at(t, callback, label=label)

    def _handlers(self, f: Fault):
        """(apply, clear) callbacks for one fault."""
        if isinstance(f, LinkOutage):
            self._require(f, fabric=self.fabric)
            return self._link_outage(f)
        if isinstance(f, LinkDegradation):
            self._require(f, link=self.link, fabric=self.fabric)
            return self._link_degradation(f)
        if isinstance(f, WapDeath):
            self._require(f, link=self.link)
            return self._wap_death(f)
        if isinstance(f, ServerSlowdown):
            return self._server_slowdown(f)
        if isinstance(f, ServerCrash):
            return self._server_crash(f)
        if isinstance(f, PacketMangling):
            self._require(f, fabric=self.fabric)
            return self._packet_mangling(f)
        if isinstance(f, MigrationInterrupt):
            self._require(f, graph=self.graph, fabric=self.fabric)
            return self._migration_interrupt(f)
        if isinstance(f, SiteOutage):
            self._require(f, topology=self.topology)
            return self._site_outage(f)
        raise TypeError(f"no handler for fault {f!r}")

    def _require(self, f: Fault, **components) -> None:
        """Fail loudly when a fault's injection point was not wired."""
        missing = [name for name, c in components.items() if c is None]
        if missing:
            raise ValueError(
                f"fault {f.kind!r} needs {missing} but this injector "
                "was built without them (pool-only injector?)"
            )

    # ------------------------------------------------------------------
    # Per-fault semantics
    # ------------------------------------------------------------------
    def _link_outage(self, f: LinkOutage):
        def apply() -> None:
            self.fabric.uplink.fault_blocked = True
            self.fabric.downlink.fault_blocked = True
            self._emit("injected", f, duration=f.duration)

        def clear() -> None:
            self.fabric.uplink.fault_blocked = False
            self.fabric.downlink.fault_blocked = False
            # link-recovery event: drain packets held during the outage
            self.fabric.flush_held(self.sim.now())
            self._emit("cleared", f)

        return apply, clear

    def _link_degradation(self, f: LinkDegradation):
        def apply() -> None:
            self.link.fault_rssi_offset_db += f.rssi_offset_db
            self._emit(
                "injected", f, rssi_offset_db=f.rssi_offset_db, duration=f.duration
            )

        def clear() -> None:
            self.link.fault_rssi_offset_db -= f.rssi_offset_db
            self.fabric.flush_held(self.sim.now())
            self._emit("cleared", f)

        return apply, clear

    def _wap_death(self, f: WapDeath):
        def apply() -> None:
            self.link.fault_blocked = True
            self._emit("injected", f)

        return apply, None

    def _server_slowdown(self, f: ServerSlowdown):
        hosts = self._target_hosts(f.host)

        def apply() -> None:
            for h in hosts:
                h.derate *= f.factor
            self._emit(
                "injected",
                f,
                hosts=[h.name for h in hosts],
                factor=f.factor,
                duration=f.duration,
            )

        def clear() -> None:
            for h in hosts:
                h.derate /= f.factor
            self._emit("cleared", f, hosts=[h.name for h in hosts])

        return apply, clear

    def _server_crash(self, f: ServerCrash):
        hosts = self._target_hosts(f.host)
        frozen: list[str] = []

        def apply() -> None:
            for h in hosts:
                h.up = False
                if self.graph is not None:
                    for name, node in self.graph.nodes.items():
                        if node.host is h and not node._paused:
                            self.graph.pause_node(name)
                            frozen.append(name)
            # Pool-mediated serving: the crash triggers the rebalance
            # path — everything the dead worker held is re-placed.
            for h in hosts:
                pool = self._host_pool(h)
                if pool is not None:
                    pool.on_worker_down(h)
            self._emit(
                "injected",
                f,
                hosts=[h.name for h in hosts],
                restart_after=f.restart_after,
            )

        def restart() -> None:
            for h in hosts:
                h.up = True
            if self.graph is not None:
                for name in frozen:
                    node = self.graph.nodes.get(name)
                    # resume only what we froze and what is still stranded
                    # there — the framework may have rescued it meanwhile
                    if node is not None and node._paused and node.host in hosts:
                        self.graph.resume_node(name)
            frozen.clear()
            for h in hosts:
                pool = self._host_pool(h)
                if pool is not None:
                    pool.on_worker_up(h)
            self._emit("cleared", f, hosts=[h.name for h in hosts])

        if f.restart_after != float("inf"):
            orig_apply = apply

            def apply_with_restart() -> None:
                orig_apply()
                self.sim.schedule_after(
                    f.restart_after, restart, label=f"fault:{f.kind}:restart"
                )

            return apply_with_restart, None
        return apply, None

    def _packet_mangling(self, f: PacketMangling):
        def apply() -> None:
            self.fabric.uplink.fault = ChannelFault(
                rng=seeded_rng(f.seed),
                drop_p=f.drop_p,
                corrupt_p=f.corrupt_p,
                duplicate_p=f.duplicate_p,
            )
            self.fabric.downlink.fault = ChannelFault(
                rng=seeded_rng(f.seed + 1),
                drop_p=f.drop_p,
                corrupt_p=f.corrupt_p,
                duplicate_p=f.duplicate_p,
            )
            self._emit(
                "injected",
                f,
                drop_p=f.drop_p,
                corrupt_p=f.corrupt_p,
                duplicate_p=f.duplicate_p,
                duration=f.duration,
            )

        def clear() -> None:
            self.fabric.uplink.fault = None
            self.fabric.downlink.fault = None
            self._emit("cleared", f)

        return apply, clear

    def _migration_interrupt(self, f: MigrationInterrupt):
        def hook(
            old_host: Host, new_host: Host, pause: float, state_bytes: int, now: float
        ) -> float:
            if old_host.on_robot == new_host.on_robot or pause <= 0:
                return 0.0  # wired/local transfer: not our target
            if self.graph.migration_fault is hook:
                self.graph.migration_fault = None  # one-shot
            extra = f.at_fraction * pause + self.fabric.rtt(
                old_host, new_host, 64, now
            )
            self._emit(
                "injected",
                f,
                at_fraction=f.at_fraction,
                lost_s=f.at_fraction * pause,
                extra_s=extra,
                state_bytes=state_bytes,
            )
            return extra

        def apply() -> None:
            self.graph.migration_fault = hook

        return apply, None

    def _site_outage(self, f: SiteOutage):
        site = self.topology.site(f.site)  # KeyError for unknown sites

        def apply() -> None:
            site.radio.set_blocked(True)
            site.gateway.up = False
            for h in site.pool.worker_hosts():
                h.up = False
                site.pool.on_worker_down(h)
            self._emit("injected", f, site=f.site, duration=f.duration)

        def clear() -> None:
            site.gateway.up = True
            for h in site.pool.worker_hosts():
                h.up = True
                site.pool.on_worker_up(h)
            site.radio.set_blocked(False)
            site.radio.flush_held(self.sim.now())
            self._emit("cleared", f, site=f.site)

        return apply, clear

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _host_pool(self, h: Host) -> "WorkerPool | None":
        """The pool whose rebalance path a crash of ``h`` should drive."""
        if self.pool is not None and h in self.pool.worker_hosts():
            return self.pool
        if self.topology is not None:
            for s in self.topology.sites:
                if h in s.pool.worker_hosts():
                    return s.pool
        return None

    def _target_hosts(self, name: str | None) -> tuple[Host, ...]:
        if name is None:
            return self.server_hosts
        matches = tuple(h for h in self.server_hosts if h.name == name)
        if not matches:
            known = [h.name for h in self.server_hosts]
            raise ValueError(f"unknown server host {name!r}; have {known}")
        return matches

    def _emit(self, phase: str, fault: Fault, **fields) -> None:
        now = self.sim.now()
        self.log.append((now, phase, fault.kind))
        if self.telemetry is not None:
            self.telemetry.emit(
                f"fault_{phase}",
                t=now,
                track="faults",
                kind=fault.kind,
                start=fault.start,
                **fields,
            )
