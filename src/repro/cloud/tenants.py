"""Per-robot tick sources for serving runs: one tick life cycle.

A :class:`TickSource` is *not* a full mission: it is the cloud-facing
shadow of one LGV — a periodic process that issues one offloaded tick
per control period (the 2.94 KB scan goes up, the velocity command
comes back) and records what the serving layer did to its latency.
Simulating K robots this way costs a few events per tick instead of a
whole navigation stack each, which is what makes 64-robot capacity
sweeps cheap.

Tenants differ only in where a tick goes (its :class:`Route`): a
parked fleet :class:`RobotTenant` to one fixed radio and pool, a
driving geo session (:class:`repro.sites.TenantSession`) to the site
it is on now, or to the robot itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Protocol

from repro.cloud.admission import TenantSpec
from repro.cloud.pool import WorkerPool
from repro.cloud.request import TickRequest
from repro.control.velocity_law import max_velocity_oa
from repro.sim.kernel import Process, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.fabric import FleetRadioNetwork
    from repro.obs.tracing import RequestTracer
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class TenantStats:
    """One robot's verdict after a serving run."""

    tenant: str
    threads: int  # granted width (0 for a rejected, local-only robot)
    ticks: int
    served: int
    lost: int  # uplink/downlink datagrams that never arrived
    mean_latency_s: float
    p95_latency_s: float
    deadline_miss_rate: float
    velocity_mps: float  # Eq. 2c at the p95 tick latency

    @property
    def stranded(self) -> bool:
        """True when the tenant stopped being served entirely."""
        return self.ticks > 0 and self.served == 0


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Exact empirical quantile of a sorted sample (NaN when empty)."""
    if not sorted_vals:
        return math.nan
    idx = max(0, math.ceil(q * len(sorted_vals)) - 1)
    return sorted_vals[idx]


class Route(Protocol):
    """Where a tick is served: ``pool``, over ``radio`` (``None``: no
    radio delay either way). ``name`` names the serving side."""

    @property
    def name(self) -> str: ...

    @property
    def radio(self) -> FleetRadioNetwork | None: ...

    @property
    def pool(self) -> WorkerPool: ...


class TickSource:
    """One robot's ticks, issued every period, served and recorded.

    A tick rides its route's uplink, is served by the route's pool, and
    its reply rides a downlink back; it ends served, with its latency,
    or lost. With telemetry each tick also records its latency metrics,
    SLO sample and request tree. A subclass runs this ``__init__`` from
    its own, says where ticks go (:meth:`_route`, :meth:`_reply_radio`)
    and adds its own record in :meth:`_served` and :meth:`_lose`.
    """

    #: Label prefix of the tick process's events.
    label = "tenant"

    def __init__(
        self,
        sim: Simulator,
        spec: TenantSpec,
        phase_s: float,
        telemetry: Telemetry | None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        #: Width every request runs at: the admitted width.
        self.threads = spec.threads
        self.phase_s = phase_s
        self.telemetry = telemetry
        self.seq = 0
        self.served = 0
        self.lost = 0
        self.latencies: list[float] = []
        #: Completion times of served ticks (crash-recovery evidence).
        self.completion_times: list[float] = []
        self._proc: Process | None = None

    def start(self) -> Process:
        """Begin ticking at the spec's rate, offset by the phase."""
        self._proc = self.sim.every(
            self.spec.deadline_s,
            self._tick,
            label=f"{self.label}:{self.name}",
            start_delay=self.phase_s,
        )
        return self._proc

    def stop(self) -> None:
        """Stop issuing ticks (mission over / tenant evicted)."""
        if self._proc is not None:
            self._proc.stop()

    # ------------------------------------------------------------------
    # Where a tick goes
    # ------------------------------------------------------------------
    def _route(self) -> Route | None:
        """Where the next tick goes; ``None`` serves it on the robot."""
        raise NotImplementedError

    def _serve_local(self, issued_at: float) -> None:
        """Serve a tick on the robot itself."""
        raise NotImplementedError

    def _reply_radio(self, route: Route) -> FleetRadioNetwork | None:
        """The radio a reply from ``route`` rides; ``None``: it is lost."""
        return route.radio

    def _served(self, req: TickRequest, latency: float, route: Route) -> None:
        """``req``'s reply reached the robot ``latency`` after issue."""

    # ------------------------------------------------------------------
    # One tick's life cycle
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.seq += 1
        self._issue(self.seq, self.sim.now())

    def _issue(self, seq: int, issued_at: float) -> None:
        route = self._route()
        if route is None:
            self._serve_local(issued_at)
            return
        now = self.sim.now()
        spec = self.spec
        req = TickRequest(
            tenant=self.name,
            seq=seq,
            cycles=spec.cycles,
            threads=self.threads,
            deadline_s=spec.deadline_s,
            issued_at=issued_at,
            profile=spec.profile,
        )
        obs = self._obs()
        if obs is not None:
            req.ctx = obs.start(
                "tick", self.name, now, deadline_s=spec.deadline_s, seq=seq
            )
            if req.ctx is not None:
                # Serialization is modeled as instantaneous; the
                # zero-width segment keeps the tree's segment set
                # uniform so the sum still telescopes to the latency.
                obs.segment(req.ctx, "serialize", now, now, bytes=req.payload_bytes)
        pool, radio = route.pool, route.radio
        done = partial(self._completed, route)
        if radio is None:
            pool.submit(req, done)
            return
        up = radio.uplink_latency(
            self.name, req.payload_bytes, now, ctx=req.ctx, obs=obs
        )
        if up is None:
            self._lose(req, now)
            return
        self.sim.schedule_after(
            up, lambda: pool.submit(req, done), label=f"uplink:{self.name}"
        )

    def _completed(self, route: Route, req: TickRequest, t: float) -> None:
        obs = self._obs()
        if route.radio is not None:
            radio = self._reply_radio(route)
            down = None if radio is None else radio.downlink_latency(
                self.name, req.reply_bytes, t, ctx=req.ctx, obs=obs
            )
            if down is None:
                self._lose(req, t)
                return
            t = t + down
        latency = t - req.issued_at
        self.served += 1
        self.latencies.append(latency)
        self.completion_times.append(t)
        missed = latency > req.deadline_s
        tel = self.telemetry
        if tel is not None:
            tel.metrics.histogram(
                "cloud_tick_latency_seconds",
                "end-to-end tick latency (issue to command) per tenant",
            ).observe(latency, tenant=self.name)
            if missed:
                tel.metrics.counter(
                    "cloud_tick_missed_total",
                    "served ticks that blew their deadline, per tenant",
                ).inc(tenant=self.name)
            if tel.slo is not None:
                tel.slo.observe(self.name, latency, req.deadline_s, t)
        if obs is not None and req.ctx is not None:
            # The command is applied the instant it lands (actuation is
            # not modeled); zero-width bookend mirroring serialize.
            obs.segment(req.ctx, "actuate", t, t)
            obs.finish(req.ctx, t, status="miss" if missed else "ok")
        self._served(req, latency, route)

    def _lose(self, req: TickRequest, t: float) -> None:
        """``req`` or its reply never arrived."""
        self.lost += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "cloud_tick_lost_total",
                "ticks lost to the radio (either direction), per tenant",
            ).inc(tenant=self.name)
        obs = self._obs()
        if obs is not None and req.ctx is not None:
            obs.finish(req.ctx, t, status="lost")

    def _obs(self) -> RequestTracer | None:
        tel = self.telemetry
        return tel.requests if tel is not None else None


class RobotTenant(TickSource):
    """One admitted robot streaming ticks through the pool.

    Parameters
    ----------
    sim, spec, pool:
        The simulation, the tenant's *granted* spec (threads as
        admitted, possibly downgraded), and the serving pool.
    radio:
        Optional :class:`~repro.network.fabric.FleetRadioNetwork`; when
        ``None`` ticks reach the pool instantly (pure serving studies,
        e.g. the scheduler cross-validation tests).
    phase_s:
        First-tick offset. Staggering tenants evenly across the period
        is what a real asynchronous fleet looks like; synchronized
        phases (all zero) maximize contention bursts.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: TenantSpec,
        pool: WorkerPool,
        radio: FleetRadioNetwork | None = None,
        phase_s: float = 0.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(sim, spec, phase_s, telemetry)
        self.pool = pool
        self.radio = radio

    def _route(self) -> Route:
        """Every tick goes to this tenant's own radio and pool."""
        return self

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    def stats(self) -> TenantStats:
        """Summarize the run for this tenant."""
        lats = sorted(self.latencies)
        mean = sum(lats) / len(lats) if lats else math.nan
        p95 = _quantile(lats, 0.95)
        misses = sum(1 for v in lats if v > self.spec.deadline_s)
        miss_rate = misses / len(lats) if lats else 1.0
        velocity = (
            max_velocity_oa(p95, hardware_cap=1.0) if lats else 0.0
        )
        return TenantStats(
            tenant=self.name,
            threads=self.spec.threads,
            ticks=self.seq,
            served=self.served,
            lost=self.lost,
            mean_latency_s=mean,
            p95_latency_s=p95,
            deadline_miss_rate=miss_rate,
            velocity_mps=velocity,
        )
