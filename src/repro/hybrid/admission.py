"""Aggregate admission for a fluid tenant population.

A hybrid run (:mod:`repro.hybrid`) asks the *same*
:class:`~repro.cloud.admission.AdmissionController` gate the focal
tenants face to rule on the N−K background tenants — but calling
``request_admission`` a hundred thousand times, each re-summing the
whole admitted dict, would be O(N²). :func:`admit_background` runs the
sequential decision loop in O(N) instead, and — because every
background tenant is an identical copy of one spec — produces *bit for
bit* the decisions sequential admission would have produced:

* the running demand total starts from the same left-fold sum over the
  controller's admitted dict that ``projected_utilization`` computes,
  and grows by one ``+=`` per admission in the same order, so every
  candidate sees the exact float the sequential path would have seen;
* once one tenant is rejected at every width of the downgrade ladder,
  every later identical tenant faces the same (unchanged) demand total
  and fails identically — the loop short-circuits.

The admitted population is never entered into ``controller.admitted``
(that dict stays per-name, for focal tenants); its demand is carried
in aggregate via ``controller.background_demand_cores`` and the pool's
fluid background load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.admission import AdmissionController, TenantSpec
from repro.control.velocity_law import max_velocity_oa


@dataclass(frozen=True)
class BackgroundAdmission:
    """The gate's aggregate ruling on N identical background tenants."""

    requested: int
    requested_threads: int
    admitted: int
    rejected: int
    #: ``(width, count)`` pairs, widest first: how many background
    #: tenants were granted each thread width.
    by_width: tuple[tuple[int, int], ...]
    #: Core-seconds per second the admitted population demands (the
    #: pool's fluid background load, before re-calibration scaling).
    demand_cores: float

    @property
    def downgraded(self) -> int:
        """Admitted below the requested width."""
        return sum(
            c for w, c in self.by_width if w < self.requested_threads
        )


def admit_background(
    controller: AdmissionController, spec: TenantSpec, n: int
) -> BackgroundAdmission:
    """Rule on ``n`` identical copies of ``spec``, sequentially-exact.

    Equivalent to ``n`` consecutive ``request_admission`` calls on
    copies of ``spec`` (same admit/downgrade/reject outcomes, same
    float comparisons), but O(n) and without flooding the controller's
    decision log. See the module docstring for why the equivalence is
    exact.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return BackgroundAdmission(0, spec.threads, 0, 0, (), 0.0)
    if not controller.pool.live_workers():
        return BackgroundAdmission(n, spec.threads, 0, n, (), 0.0)

    cap = controller._capacity()
    # Same left-fold the controller's projected_utilization computes.
    running = (
        sum(
            controller._demand(s, s.threads)
            for s in controller.admitted.values()
        )
        + controller.background_demand_cores
    )
    v_local = max_velocity_oa(spec.local_vdp_s, hardware_cap=1.0)
    ladder = controller._width_ladder(spec.threads)
    by_width: dict[int, int] = {}
    bg_demand = 0.0
    admitted = 0
    for _ in range(n):
        granted: int | None = None
        for threads in ladder:
            d = controller._demand(spec, threads)
            util = (running + d) / cap
            if util > controller.max_utilization:
                continue
            p95 = controller.projected_p95(spec, threads, util)
            v = max_velocity_oa(p95, hardware_cap=1.0)
            if p95 > spec.deadline_s or v <= v_local:
                continue
            if not _protects(controller, spec, util, by_width):
                continue
            granted = threads
            break
        if granted is None:
            # Identical tenants against an unchanged demand total fail
            # identically: everyone left is rejected.
            break
        admitted += 1
        by_width[granted] = by_width.get(granted, 0) + 1
        d = controller._demand(spec, granted)
        running += d
        bg_demand += d
    result = BackgroundAdmission(
        requested=n,
        requested_threads=spec.threads,
        admitted=admitted,
        rejected=n - admitted,
        by_width=tuple(sorted(by_width.items(), reverse=True)),
        demand_cores=bg_demand,
    )
    if controller.telemetry is not None:
        controller.telemetry.emit(
            "background_admission",
            t=controller.pool.sim.now(),
            track="hybrid",
            requested=n,
            admitted=admitted,
            rejected=result.rejected,
            downgraded=result.downgraded,
            demand_cores=bg_demand,
        )
    return result


def _protects(
    controller: AdmissionController,
    spec: TenantSpec,
    util: float,
    by_width: dict[int, int],
) -> bool:
    """No admitted tenant — focal or background — past its deadline.

    The focal tenants face the controller's own check; the background
    population is identical per width, so one representative check per
    granted width covers everyone.
    """
    if not controller._protects_admitted(util):
        return False
    for threads in by_width:
        if controller.projected_p95(spec, threads, util) > spec.deadline_s:
            return False
    return True
