"""The fluid half of a hybrid run: N−K tenants as continuous demand.

A :class:`FluidBackground` represents a large population of identical
background tenants by the *rate* at which they claim server cores —
``admitted × tick_rate × t_iso × width`` core-seconds per second, the
quantity :mod:`repro.cloud.fleet` reasons about — instead of by
per-tenant DES events. The demand is imposed on the
:class:`~repro.cloud.pool.WorkerPool` (stretching focal service per
the processor-sharing fluid limit) and on the
:class:`~repro.cloud.admission.AdmissionController` (counted in every
projection), so utilization and admission signals all see the full
fleet at the cost of O(1) state.

**Calibration loop.** The fluid rate is only as good as its ``t_iso``.
A periodic process compares the pool's *observed* contention-free
service seconds (host derates and batching amortization included)
against the execution model's prediction for the same completions and
re-scales the imposed demand by their ratio — the focal tenants'
real DES service times continuously correct the background model, as
the ISSUE's calibration-loop design calls for. Optionally the demand
carries a bounded deterministic jitter (drawn from
:func:`repro.sim.rng.seeded_rng`) to model background-load
fluctuation without sacrificing reproducibility.

A background of **zero tenants is inert**: no demand is imposed, no
re-calibration process is scheduled, and the run's event stream is
byte-identical to a plain fleet run (pinned in ``tests/test_hybrid.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.cloud.admission import AdmissionController, TenantSpec
from repro.cloud.fleet import FleetServerModel
from repro.cloud.pool import WorkerPool
from repro.hybrid.admission import BackgroundAdmission, admit_background
from repro.sim.kernel import Process, Simulator
from repro.sim.rng import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

#: Completions the pool must have seen before the observed/predicted
#: ratio is trusted over the execution model's prior.
_MIN_CALIBRATION_SAMPLES = 8


class FluidBackground:
    """N identical background tenants as calibrated fluid demand.

    Parameters
    ----------
    sim, pool:
        The simulation and the pool the demand is imposed on.
    spec:
        The background tenant archetype (same spec the focal tenants
        use in a homogeneous fleet).
    n_tenants:
        Population size (N−K). Zero imposes nothing and schedules
        nothing.
    controller:
        When given, the population passes through the Eq. 2c gate via
        :func:`repro.hybrid.admission.admit_background` (bit-equal to
        sequential admission) and its demand joins the controller's
        projections. ``None`` admits everyone at the requested width
        (the admit-all policy).
    model:
        Optional :class:`~repro.cloud.fleet.FleetServerModel`,
        typically built by
        :func:`~repro.hybrid.experiment.calibrate_fleet_model`: its
        fitted ``t_iso`` *seeds* the calibration ratio (instead of
        starting at the analytical prior of 1.0) before the periodic
        re-fit takes over.
    recalibrate_every_s:
        Period of the re-calibration process; ``0`` disables it.
    jitter:
        Fractional demand fluctuation per re-calibration, drawn
        uniformly from ``[-jitter, +jitter]`` with a generator seeded
        from ``seed`` — deterministic across runs.
    pools, controllers:
        Optional multi-pool mode (a :mod:`repro.sites` city): the
        admitted demand is split across ``pools`` proportional to each
        pool's live capacity, and each pool's share is mirrored into
        the matching entry of ``controllers`` (``None`` entries
        allowed). ``pool`` must be ``pools[0]`` — it stays the
        reference for admission width and fluid projections. With one
        pool (or ``pools`` omitted) every code path is identical to
        the single-pool build. Capacity changes (a site outage or
        restore) re-split on the next re-calibration tick, or
        immediately via :meth:`rebalance`.
    """

    def __init__(
        self,
        sim: Simulator,
        pool: WorkerPool,
        spec: TenantSpec,
        n_tenants: int,
        controller: AdmissionController | None = None,
        model: FleetServerModel | None = None,
        recalibrate_every_s: float = 1.0,
        jitter: float = 0.0,
        seed: int = 0,
        telemetry: "Telemetry | None" = None,
        pools: "Sequence[WorkerPool] | None" = None,
        controllers: "Sequence[AdmissionController | None] | None" = None,
    ) -> None:
        if n_tenants < 0:
            raise ValueError(f"n_tenants must be non-negative, got {n_tenants}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.sim = sim
        self.pool = pool
        self.spec = spec
        self.n_tenants = n_tenants
        self.controller = controller
        self.pools: tuple[WorkerPool, ...] = (
            tuple(pools) if pools is not None else (pool,)
        )
        if not self.pools or self.pools[0] is not pool:
            raise ValueError("pools[0] must be the primary pool")
        self.controllers: tuple[AdmissionController | None, ...] = (
            tuple(controllers)
            if controllers is not None
            else (controller,) + (None,) * (len(self.pools) - 1)
        )
        if len(self.controllers) != len(self.pools):
            raise ValueError(
                f"controllers length {len(self.controllers)} != "
                f"pools length {len(self.pools)}"
            )
        self.recalibrate_every_s = recalibrate_every_s
        self.jitter = jitter
        self.telemetry = telemetry
        self._rng = seeded_rng(seed) if jitter > 0.0 else None
        #: The gate's ruling, set by :meth:`attach`.
        self.admission: BackgroundAdmission | None = None
        #: Admitted demand at the model's prior t_iso (cal_ratio 1.0).
        self.base_demand_cores = 0.0
        #: Observed/predicted service-time ratio from the last
        #: re-calibration. Seeded from the DES-fitted model when one is
        #: given; re-fit from live completions thereafter.
        self.cal_ratio = 1.0
        if model is not None and model.calibrated_t_iso_s is not None:
            analytic = FleetServerModel(
                server=model.server,
                vdp_cycles=model.vdp_cycles,
                threads=model.threads,
                tick_rate_hz=model.tick_rate_hz,
                network_latency_s=model.network_latency_s,
                profile=model.profile,
            ).t_iso_s()
            if analytic > 0:
                self.cal_ratio = model.calibrated_t_iso_s / analytic
        self._last_demand = 0.0
        self._proc: Process | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> BackgroundAdmission:
        """Admit the population, impose its demand, start calibrating."""
        if self.controller is not None:
            result = admit_background(
                self.controller, self.spec, self.n_tenants
            )
        else:
            result = self._admit_all()
        self.admission = result
        self.base_demand_cores = result.demand_cores
        if self.n_tenants == 0:
            return result  # inert: no demand, no process, no events
        self._impose(self.base_demand_cores * self.cal_ratio)
        if self.recalibrate_every_s > 0:
            self._proc = self.sim.every(
                self.recalibrate_every_s,
                self._recalibrate,
                label="hybrid:recalibrate",
            )
        return result

    def detach(self) -> None:
        """Stop calibrating and withdraw the demand."""
        if self._proc is not None:
            self._proc.stop()
            self._proc = None
        if self.n_tenants > 0:
            self._impose(0.0)

    def _admit_all(self) -> BackgroundAdmission:
        """The admit-all policy: everyone in at the requested width."""
        n = self.n_tenants
        if n == 0:
            return BackgroundAdmission(0, self.spec.threads, 0, 0, (), 0.0)
        host = self.pool.workers[0].host
        width = min(self.spec.threads, host.platform.hardware_threads)
        t_iso = host.exec_time(
            self.spec.cycles, self.spec.threads, self.spec.profile
        )
        demand = n * self.spec.tick_rate_hz * t_iso * width
        return BackgroundAdmission(
            n, self.spec.threads, n, 0, ((self.spec.threads, n),), demand
        )

    # ------------------------------------------------------------------
    # Calibration loop
    # ------------------------------------------------------------------
    def _impose(self, cores: float) -> None:
        self._last_demand = cores
        if len(self.pools) == 1:
            self.pool.set_background_demand(cores)
            if self.controller is not None:
                self.controller.background_demand_cores = cores
            return
        # Multi-pool: split proportional to live capacity, so a dead
        # site's share flows to the survivors instead of evaporating.
        caps = [p.total_capacity() for p in self.pools]
        total = sum(caps)
        for p, ctl, cap in zip(self.pools, self.controllers, caps):
            share = cores * cap / total if total > 0 else 0.0
            p.set_background_demand(share)
            if ctl is not None:
                ctl.background_demand_cores = share

    def rebalance(self) -> None:
        """Re-split the imposed demand now (after a capacity change)."""
        if self.n_tenants > 0:
            self._impose(self._last_demand)

    def _recalibrate(self) -> None:
        """Re-fit the fluid rate from observed DES service times."""
        obs_s, pred_s, n = 0.0, 0.0, 0
        for p in self.pools:
            o, pr, k = p.observed_iso_stats()
            obs_s += o
            pred_s += pr
            n += k
        if n >= _MIN_CALIBRATION_SAMPLES and pred_s > 0:
            self.cal_ratio = obs_s / pred_s
        demand = self.base_demand_cores * self.cal_ratio
        if self._rng is not None:
            demand *= 1.0 + self.jitter * float(self._rng.uniform(-1.0, 1.0))
        self._impose(demand)
        if self.telemetry is not None:
            self.telemetry.emit(
                "hybrid_recalibrated",
                t=self.sim.now(),
                track="hybrid",
                cal_ratio=self.cal_ratio,
                demand_cores=demand,
                samples=n,
            )

    # ------------------------------------------------------------------
    # Fluid projections (the background's own service quality)
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Pool utilization with everything counted (fluid included)."""
        return self.pool.utilization(self.sim.now())

    def p95_s(self, network_latency_s: float | None = None) -> float:
        """Projected p95 tick latency of one background tenant.

        The same fluid projection the admission gate uses: calibrated
        ``t_iso`` stretched by total utilization, plus the network
        round trip, inflated by the controller's p95 factor. This is
        the background half of a hybrid run's ``deadline_ok`` verdict
        (the focal half is measured, not projected).
        """
        ctl = self.controller
        if network_latency_s is None:
            network_latency_s = ctl.network_latency_s if ctl else 0.02
        p95_factor = ctl.p95_factor if ctl else 1.25
        host = self.pool.workers[0].host
        t_iso = (
            host.exec_time(
                self.spec.cycles, self.spec.threads, self.spec.profile
            )
            * self.cal_ratio
        )
        stretch = max(1.0, self.utilization())
        return (t_iso * stretch + 2.0 * network_latency_s) * p95_factor

    def deadline_ok(self) -> bool:
        """Whether the fluid population itself is meeting its deadline."""
        if self.n_tenants == 0 or (
            self.admission is not None and self.admission.admitted == 0
        ):
            return True
        return self.p95_s() <= self.spec.deadline_s
