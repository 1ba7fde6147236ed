"""SLO monitoring: streaming quantiles + deadline-miss burn rates.

The monitor watches every served tick (``observe``) and keeps, per
tenant:

* **P² quantile estimators** — the classic Jain & Chlamtac (1985)
  five-marker algorithm: p50/p95/p99 of tick latency in O(1) memory,
  no sample retention (a 64-robot fleet at 5 Hz would otherwise retain
  hundreds of thousands of floats per quantile);
* a **burn-rate window** — deadline misses over served ticks across a
  sliding window, held as ~10 coarse time buckets (O(1) memory again).

When a tenant's burn rate crosses the policy threshold the monitor
records a typed ``slo_breach`` event on the telemetry
:class:`~repro.telemetry.events.EventBus` (and ``slo_recovered`` when
it re-arms) and appends it to :attr:`SloMonitor.breaches`. Breaches are
a record for the report, not a signal: nothing in the serving layer
reacts to them, so a monitored run computes what an unmonitored one
does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry


class P2Quantile:
    """Streaming quantile via the P² algorithm (no sample retention).

    Five markers track the running quantile; until five observations
    arrive the exact small-sample quantile is returned. Accuracy is
    within a few percent for the smooth latency distributions the
    serving layer produces, at five floats of state.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, x: float) -> None:
        """Feed one observation."""
        self.count += 1
        if self.count <= 5:
            self._initial.append(x)
            if self.count == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                q = self.q
                self._desired = [
                    1.0,
                    1.0 + 2.0 * q,
                    1.0 + 4.0 * q,
                    3.0 + 2.0 * q,
                    5.0,
                ]
            return
        h, n, d = self._heights, self._positions, self._desired
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            d[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = d[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                s = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(i, s)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, s)
                n[i] += s

    def _parabolic(self, i: int, s: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + s / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + s) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - s) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, s: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(s)
        return h[i] + s * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate (NaN before the first observation)."""
        if self.count == 0:
            return math.nan
        if self.count <= 5:
            vals = sorted(self._initial)
            idx = max(0, math.ceil(self.q * len(vals)) - 1)
            return vals[idx]
        return self._heights[2]


@dataclass(frozen=True)
class SloPolicy:
    """When a tenant's deadline-miss burn rate counts as a breach."""

    #: Sliding-window length the burn rate is computed over.
    window_s: float = 5.0
    #: Miss fraction over the window that fires ``slo_breach``.
    burn_threshold: float = 0.1
    #: Served ticks the window must hold before it can breach.
    min_samples: int = 20
    #: Latency quantiles tracked per tenant (P², streaming).
    quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
    #: A breached tenant re-arms when burn drops below
    #: ``burn_threshold * rearm_factor`` (hysteresis against flapping).
    rearm_factor: float = 0.5


@dataclass(frozen=True)
class SloBreach:
    """One breach (or recovery) the monitor recorded."""

    t: float
    tenant: str
    kind: str  # "slo_breach" | "slo_recovered"
    burn_rate: float
    window_s: float
    p95_s: float


class _TenantSlo:
    """Per-tenant streaming state."""

    __slots__ = ("estimators", "buckets", "breached")

    def __init__(self, policy: SloPolicy) -> None:
        self.estimators = {q: P2Quantile(q) for q in policy.quantiles}
        #: (bucket_start_t, served, missed) ring, ~10 buckets a window.
        self.buckets: deque[list[float]] = deque()
        self.breached = False


@dataclass
class SloMonitor:
    """Watches tick outcomes and emits breach events on the bus.

    Attach to a :class:`~repro.telemetry.Telemetry` via
    ``telemetry.enable_slo()``; :class:`~repro.cloud.RobotTenant`
    feeds it automatically from each completion.
    """

    telemetry: "Telemetry"
    policy: SloPolicy = field(default_factory=SloPolicy)
    #: Every breach/recovery, in order (typed view of the bus events).
    breaches: list[SloBreach] = field(default_factory=list)
    _tenants: dict[str, _TenantSlo] = field(default_factory=dict)

    def observe(
        self, tenant: str, latency_s: float, deadline_s: float, t: float
    ) -> SloBreach | None:
        """Feed one served tick; returns the breach/recovery if any."""
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantSlo(self.policy)
        for est in state.estimators.values():
            est.observe(latency_s)
        missed = latency_s > deadline_s
        self._bucket(state, t, missed)
        served, miss_count = self._window_totals(state, t)
        if served < self.policy.min_samples:
            return None
        burn = miss_count / served
        if not state.breached and burn > self.policy.burn_threshold:
            state.breached = True
            return self._record(state, "slo_breach", tenant, burn, t)
        if state.breached and burn <= (
            self.policy.burn_threshold * self.policy.rearm_factor
        ):
            state.breached = False
            return self._record(state, "slo_recovered", tenant, burn, t)
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def quantile(self, tenant: str, q: float) -> float:
        """Current latency quantile estimate for ``tenant`` (NaN if unseen)."""
        state = self._tenants.get(tenant)
        if state is None or q not in state.estimators:
            return math.nan
        return state.estimators[q].value()

    def burn_rate(self, tenant: str, t: float) -> float:
        """Miss fraction over the current window (NaN with no ticks)."""
        state = self._tenants.get(tenant)
        if state is None:
            return math.nan
        served, missed = self._window_totals(state, t)
        return missed / served if served else math.nan

    def tenants(self) -> tuple[str, ...]:
        """Tenants observed so far, first-seen order."""
        return tuple(self._tenants)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bucket(self, state: _TenantSlo, t: float, missed: bool) -> None:
        width = self.policy.window_s / 10.0
        start = math.floor(t / width) * width
        if not state.buckets or state.buckets[-1][0] != start:
            state.buckets.append([start, 0.0, 0.0])
        state.buckets[-1][1] += 1.0
        if missed:
            state.buckets[-1][2] += 1.0
        horizon = t - self.policy.window_s
        while state.buckets and state.buckets[0][0] + width <= horizon:
            state.buckets.popleft()

    def _window_totals(self, state: _TenantSlo, t: float) -> tuple[int, int]:
        horizon = t - self.policy.window_s
        served = missed = 0.0
        for start, n, m in state.buckets:
            if start + self.policy.window_s / 10.0 > horizon:
                served += n
                missed += m
        return int(served), int(missed)

    def _record(
        self, state: _TenantSlo, kind: str, tenant: str, burn: float, t: float
    ) -> SloBreach:
        p95 = state.estimators.get(0.95)
        breach = SloBreach(
            t=t,
            tenant=tenant,
            kind=kind,
            burn_rate=burn,
            window_s=self.policy.window_s,
            p95_s=p95.value() if p95 is not None else math.nan,
        )
        self.breaches.append(breach)
        fields: dict[str, Any] = {
            "tenant": breach.tenant,
            "burn_rate": breach.burn_rate,
            "window_s": breach.window_s,
            "p95_s": breach.p95_s,
            "threshold": self.policy.burn_threshold,
        }
        self.telemetry.emit(kind, t=t, track="slo", **fields)
        return breach
