"""Admission control: protect admitted tenants from the next one.

The controller projects what one more tenant does to everyone's tick
latency using the same fluid contention math as
:mod:`repro.cloud.fleet` (stretch = max(1, utilization)), then
applies the paper's Eq. 2c test: offloading is only worth admitting
if the projected p95 tick latency still buys the robot more velocity
than computing locally — and only if it does not push any *already
admitted* tenant past its own deadline. When the requested thread
width fails, the controller tries downgraded widths before rejecting:
a narrower tenant demands fewer core-seconds and may still beat its
local baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.compute.executor import DWA_PROFILE, ParallelProfile
from repro.control.velocity_law import max_velocity_oa

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.pool import WorkerPool
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class TenantSpec:
    """What a robot asks the cloud for.

    ``local_vdp_s`` is the tenant's on-board tick time — the Eq. 2c
    baseline that offloading must beat to be admitted.
    """

    name: str
    cycles: float
    threads: int
    tick_rate_hz: float
    local_vdp_s: float
    profile: ParallelProfile = DWA_PROFILE

    @property
    def deadline_s(self) -> float:
        """Tick period: the result is stale once the next tick fires."""
        return 1.0 / self.tick_rate_hz


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission request."""

    tenant: str
    admitted: bool
    threads: int  # granted width (may be below the requested one)
    reason: str
    projected_p95_s: float
    projected_velocity_mps: float

    @property
    def downgraded(self) -> bool:
        """Admitted, but at a narrower width than requested."""
        return self.admitted and self.reason == "downgraded"


@dataclass
class AdmissionController:
    """Eq. 2c-driven admit / downgrade / reject gate for the pool.

    Parameters
    ----------
    pool:
        The serving pool whose capacity is being guarded.
    network_latency_s:
        One-way network latency added to every projected tick.
    p95_factor:
        Projected-p95 over projected-mean inflation (queueing burst
        margin on top of the fluid model).
    max_utilization:
        Admission headroom: projected pool utilization must stay under
        this, keeping the admitted set out of the unstable regime even
        when every tenant bursts together.
    """

    pool: "WorkerPool"
    network_latency_s: float = 0.02
    p95_factor: float = 1.25
    max_utilization: float = 0.9
    #: Extra utilization headroom granted to *surge* admissions —
    #: evacuees arriving because their previous site died
    #: (:mod:`repro.sites`). A neighbor site absorbing an outage is
    #: briefly allowed past the steady-state gate; the deadline and
    #: Eq. 2c tests still apply, so a surge admit is still worth having.
    surge_headroom: float = 0.08
    telemetry: "Telemetry | None" = None
    #: Fluid background demand (repro.hybrid), in core-seconds per
    #: second, counted alongside the admitted tenants' demand in every
    #: projection. 0.0 (the default) leaves projections unchanged.
    background_demand_cores: float = 0.0
    #: Admitted tenants at their *granted* widths.
    admitted: dict[str, TenantSpec] = field(default_factory=dict)
    decisions: list[AdmissionDecision] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Projection (the fluid model of repro.cloud.fleet)
    # ------------------------------------------------------------------
    def _capacity(self) -> float:
        """Hardware threads across live workers."""
        return float(sum(w.capacity for w in self.pool.live_workers()))

    def _iso_time(self, spec: TenantSpec, threads: int) -> float:
        """Uncontended service time at ``threads`` on a pool host."""
        host = self.pool.live_workers()[0].host
        return host.exec_time(spec.cycles, threads, spec.profile)

    def _demand(self, spec: TenantSpec, threads: int) -> float:
        """Core-seconds per second this tenant asks of the pool."""
        host = self.pool.live_workers()[0].host
        width = min(threads, host.platform.hardware_threads)
        return spec.tick_rate_hz * self._iso_time(spec, threads) * width

    def projected_utilization(self, extra: tuple[TenantSpec, int] | None = None) -> float:
        """Pool utilization with the admitted set (+ one candidate)."""
        demand = sum(
            self._demand(s, s.threads) for s in self.admitted.values()
        )
        demand += self.background_demand_cores
        if extra is not None:
            demand += self._demand(extra[0], extra[1])
        cap = self._capacity()
        return demand / cap if cap > 0 else float("inf")

    def projected_p95(self, spec: TenantSpec, threads: int, util: float) -> float:
        """Projected p95 tick latency for ``spec`` at ``threads``."""
        stretch = max(1.0, util)
        mean = self._iso_time(spec, threads) * stretch + 2.0 * self.network_latency_s
        return mean * self.p95_factor

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    def request_admission(
        self, spec: TenantSpec, *, surge: bool = False
    ) -> AdmissionDecision:
        """Admit at the requested width, a downgraded one, or reject.

        ``surge=True`` marks an evacuation admit (the tenant's previous
        serving site just died): the utilization gate relaxes by
        :attr:`surge_headroom` so a healthy neighbor can absorb the
        refugee load, while the per-tenant deadline and Eq. 2c tests
        stay as strict as ever.
        """
        if not self.pool.live_workers():
            return self._decide(spec, False, spec.threads, "no live workers",
                                float("inf"), 0.0)
        limit = self.max_utilization + (self.surge_headroom if surge else 0.0)
        v_local = max_velocity_oa(spec.local_vdp_s, hardware_cap=1.0)
        for threads in self._width_ladder(spec.threads):
            util = self.projected_utilization((spec, threads))
            if util > limit:
                continue
            p95 = self.projected_p95(spec, threads, util)
            v = max_velocity_oa(p95, hardware_cap=1.0)
            if p95 > spec.deadline_s or v <= v_local:
                continue
            if not self._protects_admitted(util):
                continue
            reason = "admitted" if threads == spec.threads else "downgraded"
            self.admitted[spec.name] = TenantSpec(
                spec.name, spec.cycles, threads, spec.tick_rate_hz,
                spec.local_vdp_s, spec.profile,
            )
            return self._decide(spec, True, threads, reason, p95, v)
        util = self.projected_utilization((spec, 1))
        p95 = self.projected_p95(spec, 1, util)
        return self._decide(
            spec, False, spec.threads,
            "would push p95 past deadline / below local baseline",
            p95, max_velocity_oa(p95, hardware_cap=1.0),
        )

    def release(self, name: str) -> None:
        """A tenant left the pool; its demand stops counting."""
        self.admitted.pop(name, None)

    def _width_ladder(self, requested: int) -> list[int]:
        """Requested width, then halvings down to 1 (the downgrades)."""
        ladder = [requested]
        w = requested
        while w > 1:
            w //= 2
            ladder.append(w)
        return ladder

    def _protects_admitted(self, util: float) -> bool:
        """No already-admitted tenant may be pushed past its deadline
        at ``util``, the pool utilization with the candidate counted."""
        for s in self.admitted.values():
            if self.projected_p95(s, s.threads, util) > s.deadline_s:
                return False
        return True

    def _decide(
        self,
        spec: TenantSpec,
        admitted: bool,
        threads: int,
        reason: str,
        p95: float,
        v: float,
    ) -> AdmissionDecision:
        d = AdmissionDecision(spec.name, admitted, threads, reason, p95, v)
        self.decisions.append(d)
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "cloud_admission_total", "admission decisions by outcome"
            ).inc(outcome=reason if admitted else "rejected")
            self.telemetry.emit(
                "admission_decision",
                t=self.pool.sim.now(),
                track="cloud",
                tenant=spec.name,
                admitted=admitted,
                threads=threads,
                reason=reason,
                projected_p95_s=p95,
            )
        return d
