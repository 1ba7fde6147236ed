"""Per-tenant serving sessions: the unit an inter-site handoff moves.

A :class:`TenantSession` is a :class:`~repro.cloud.tenants.TickSource`
for one driving robot: it shares the fleet tenants' tick life cycle
and says only where each tick goes. Unlike a parked fleet tenant it
owns a *placement* — which :class:`~repro.sites.topology.EdgeSite`
currently serves it — expressed as its ``host`` (the serving site's
gateway). Assigning a new gateway re-associates the tenant's radio:
detach from the old site's
:class:`~repro.network.fabric.FleetRadioNetwork`, attach to the new
one (each re-attach resumes that site's parked RNG stream, so
placement churn never desynchronizes the fading sequences).

The session implements the full
:class:`~repro.recovery.contracts.MigratableNode` surface —
``begin_pause(buffer=True)`` holds ticks issued mid-transfer,
``end_pause`` replays them in order at the *current* placement with
their original issue times (so a handoff's cost lands in the latency
record instead of vanishing), ``snapshot``/``restore`` model the
session state the transfer ships. A :class:`SessionTable` collects
sessions behind the :class:`~repro.recovery.contracts.MigrationGraph`
contract, which is what lets the unmodified
:class:`~repro.recovery.TwoPhaseMigrator` execute cross-site handoffs.

When no site covers (or admits) the tenant, the session runs in
``all_local`` mode: ticks execute on the robot's own silicon at
``local_vdp_s`` — slower, possibly past the deadline, but never
stranded.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.admission import TenantSpec
from repro.cloud.request import TickRequest
from repro.cloud.tenants import Route, TickSource, _quantile
from repro.compute.host import Host
from repro.compute.platform import TURTLEBOT3_PI
from repro.network.fabric import FleetRadioNetwork
from repro.network.link import PositionProvider
from repro.sim.kernel import Simulator
from repro.sites.topology import EdgeSite, SiteTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sites.selector import SiteSelector

#: Placement modes (the serving half of the recovery ladder).
FULL_OFFLOAD = "full_offload"
ALL_LOCAL = "all_local"


@dataclass(frozen=True)
class GeoTenantStats:
    """One driving tenant's verdict after a geo-serving run."""

    tenant: str
    ticks: int
    served: int  # offloaded completions
    local_served: int  # degraded-mode completions
    lost: int
    handoffs: int  # committed 2PC placements
    evacuations: int  # direct placements after a lease expiry
    mean_latency_s: float
    p95_latency_s: float
    deadline_miss_rate: float  # over every completion, local included
    degraded_s: float  # total time spent in all_local

    @property
    def stranded(self) -> bool:
        """Ticked but never served anywhere — the forbidden outcome."""
        return self.ticks > 0 and self.served + self.local_served == 0


class TenantSession(TickSource):
    """One mobile tenant: tick source + migratable placement.

    Parameters
    ----------
    sim, spec, topology:
        The kernel, the tenant's requested spec, and the city.
    position:
        Zero-arg callable returning the tenant's current (x, y); must
        be a pure function of virtual time for determinism.
    selector:
        Optional :class:`~repro.sites.selector.SiteSelector`; served
        ticks feed its per-site response-time EWMA.
    session_state_bytes:
        Modeled size of the serving session state (planner context,
        smoothing windows) a handoff must ship between pools.
    """

    label = "geo"

    def __init__(
        self,
        sim: Simulator,
        spec: TenantSpec,
        topology: SiteTopology,
        position: PositionProvider,
        *,
        selector: "SiteSelector | None" = None,
        phase_s: float = 0.0,
        session_state_bytes: int = 49152,
    ) -> None:
        # Geo ticks are untraced: a request tree per geo tick costs more
        # memory than the serving benchmark's bound allows until the
        # per-tick record shrinks.
        super().__init__(sim, spec, phase_s, telemetry=None)
        self.topology = topology
        self.position = position
        self.selector = selector
        self.session_state_bytes = session_state_bytes
        #: The robot end of heartbeats and (modeled) local execution.
        self.robot_host = Host(f"{spec.name}-lgv", TURTLEBOT3_PI, on_robot=True)

        # MigratableNode surface, beside ``name`` and ``threads``
        self.state_version = 0
        self._host: Host | None = None
        self._paused = False
        self._buffer: list[tuple[int, float]] | None = None

        #: The site behind :attr:`host` (None while local / unplaced).
        self.site: EdgeSite | None = None
        self.mode = ALL_LOCAL
        #: When the current degraded window opened (for cooldowns).
        self.degraded_at = 0.0
        self.degraded_windows: list[list[float | None]] = []

        # Serving record beyond the shared one
        self.local_served = 0
        self.handoffs = 0
        self.evacuations = 0
        #: (issued_at, latency | None, kind) per tick; kind is
        #: "offload" / "local" / "lost". The survival curves read this.
        self.tick_log: list[tuple[float, float | None, str]] = []

    # ------------------------------------------------------------------
    # Placement (MigratableNode: host is where the session runs)
    # ------------------------------------------------------------------
    @property
    def host(self) -> Host | None:
        return self._host

    @host.setter
    def host(self, value: Host | None) -> None:
        if value is self._host:
            return
        old_site = self.site
        self._host = value
        new_site = (
            self.topology.by_gateway(value.name) if value is not None else None
        )
        if new_site is old_site:
            return
        if old_site is not None and self.name in old_site.radio.tenants():
            old_site.radio.detach(self.name)
        self.site = new_site
        if new_site is not None:
            new_site.radio.attach(self.name, self.position)

    def begin_pause(self, buffer: bool = False) -> None:
        """Freeze tick issue; ``buffer=True`` holds ticks for replay."""
        if self._paused:
            return
        self._paused = True
        self._buffer = [] if buffer else None

    def end_pause(self) -> None:
        """Resume; buffered ticks re-issue in order at the new placement.

        Replayed ticks keep their original issue times, so the pause a
        handoff cost shows up as latency (and possibly deadline
        misses) instead of silently disappearing.
        """
        if not self._paused:
            return
        self._paused = False
        buffered, self._buffer = self._buffer, None
        if buffered:
            for seq, issued_at in buffered:
                self._issue(seq, issued_at)

    def snapshot(self) -> object | None:
        """The session state a transfer ships (progress marker)."""
        return {"seq": self.seq}

    def restore(self, state: object) -> None:
        """Rollback hook: serving counters live robot-side, so restoring
        the pre-transfer snapshot is a structural no-op (idempotent)."""

    def state_size_bytes(self) -> int:
        return self.session_state_bytes

    # ------------------------------------------------------------------
    # Mode ladder (driven by the HandoffManager)
    # ------------------------------------------------------------------
    def degrade(self) -> None:
        """Enter ``all_local``: detach the radio, open a degraded window."""
        if self.mode == ALL_LOCAL and self._host is None:
            return
        now = self.sim.now()
        self.host = None  # setter detaches the radio
        self.mode = ALL_LOCAL
        self.degraded_at = now
        self.degraded_windows.append([now, None])

    def offload_to(self, site: EdgeSite) -> None:
        """(Re-)enter ``full_offload`` on ``site``; closes any window."""
        now = self.sim.now()
        if self.mode == ALL_LOCAL and self.degraded_windows:
            window = self.degraded_windows[-1]
            if window[1] is None:
                window[1] = now
        self.mode = FULL_OFFLOAD
        self.host = site.gateway

    def degraded_s(self, horizon: float) -> float:
        """Total seconds spent degraded, open windows clipped at horizon."""
        total = 0.0
        for start, end in self.degraded_windows:
            assert start is not None
            total += (end if end is not None else horizon) - start
        return total

    # ------------------------------------------------------------------
    # Ticking: where each tick goes
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._paused:
            super()._tick()
            return
        self.seq += 1
        if self._buffer is not None:
            self._buffer.append((self.seq, self.sim.now()))

    def _route(self) -> EdgeSite | None:
        # Note: no ``site.up`` check — the tenant cannot see a site
        # die, only its radio can. Ticks into a dead site are lost
        # until the lease expires and the ladder reacts.
        if self.mode == ALL_LOCAL:
            return None
        return self.site

    def _reply_radio(self, route: Route) -> FleetRadioNetwork | None:
        # The reply rides the radio of the site the tenant is on now.
        # If the tenant has left it (degraded or mid-evacuation), the
        # reply has nowhere to go.
        site = self.site
        if site is None or self.name not in site.radio.tenants():
            return None
        return site.radio

    def _served(self, req: TickRequest, latency: float, route: Route) -> None:
        self.tick_log.append((req.issued_at, latency, "offload"))
        if self.selector is not None:
            self.selector.observe(route.name, latency)

    def _lose(self, req: TickRequest, t: float) -> None:
        super()._lose(req, t)
        self.tick_log.append((req.issued_at, None, "lost"))

    def _serve_local(self, issued_at: float) -> None:
        """Degraded tick: the robot's own silicon, at local_vdp_s."""

        def finish() -> None:
            t = self.sim.now()
            self.local_served += 1
            self.completion_times.append(t)
            self.tick_log.append((issued_at, t - issued_at, "local"))

        self.sim.schedule_after(
            self.spec.local_vdp_s, finish, label=f"local:{self.name}"
        )

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    def stats(self, horizon: float) -> GeoTenantStats:
        lats = sorted(self.latencies)
        mean = sum(lats) / len(lats) if lats else math.nan
        completions = [
            lat for _, lat, kind in self.tick_log if kind in ("offload", "local")
        ]
        misses = sum(
            1 for lat in completions if lat is not None and lat > self.spec.deadline_s
        )
        return GeoTenantStats(
            tenant=self.name,
            ticks=self.seq,
            served=self.served,
            local_served=self.local_served,
            lost=self.lost,
            handoffs=self.handoffs,
            evacuations=self.evacuations,
            mean_latency_s=mean,
            p95_latency_s=_quantile(lats, 0.95),
            deadline_miss_rate=misses / len(completions) if completions else 1.0,
            degraded_s=self.degraded_s(horizon),
        )

    def max_service_gap_s(self, horizon: float) -> float:
        """Longest interval with no completion at all (stranding probe).

        Brackets the run: the gap before the first completion and
        after the last one both count, so a tenant that dies mid-run
        shows a tail gap instead of looking healthy.
        """
        events = sorted(self.completion_times)
        edges = [0.0, *events, horizon]
        return max(b - a for a, b in zip(edges, edges[1:]))


class SessionTable:
    """Sessions behind the :class:`MigrationGraph` contract.

    This is the object handed to :class:`~repro.recovery.
    TwoPhaseMigrator` in place of a middleware graph: ``nodes`` maps
    tenant names to sessions, ``transport`` is the inter-site
    backhaul, and the migration ledger doubles as the handoff counter.
    """

    def __init__(self, sim: Simulator, transport: object) -> None:
        self.sim = sim
        self.transport = transport
        self.nodes: dict[str, TenantSession] = {}
        #: Fault hook (MigrationGraph contract); sites leave it unset.
        self.migration_fault: (
            Callable[[Host, Host, float, int, float], float] | None
        ) = None
        #: (t, tenant, src_gateway, dest_gateway, reason) per commit.
        self.migrations: list[tuple[float, str, str, str, str]] = []

    def add(self, session: TenantSession) -> TenantSession:
        if session.name in self.nodes:
            raise ValueError(f"session {session.name!r} already registered")
        self.nodes[session.name] = session
        return session

    def _record_migration(
        self,
        name: str,
        old_host: Host,
        new_host: Host,
        pause: float,
        state_bytes: int,
        reason: str,
    ) -> None:
        self.migrations.append(
            (self.sim.now(), name, old_host.name, new_host.name, reason)
        )
        self.nodes[name].handoffs += 1
