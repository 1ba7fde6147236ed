"""Geo-distributed serving: the urban coverage-map mission.

The fleet experiments park robots around one serving pool; §VIII-E's
cost argument, pushed city-scale, needs the opposite: *driving*
vehicles crossing between several small edge sites, each with its own
pool, admission gate and radio footprint. This experiment sends a
fleet of low-cost ground vehicles around the perimeter of
:func:`~repro.sites.topology.triangle_city` — a three-site metro — and
measures whether :mod:`repro.sites`' serving plane keeps them alive:

* **baseline** — overlapping coverage: every site transition should be
  a committed 2PC handoff (pause ~tens of ms), no lease expiries.
* **site_outage** — one site is killed mid-run
  (:class:`~repro.faults.SiteOutage`): every affected tenant must
  either evacuate to a covering neighbor within a bounded number of
  lease periods or enter the degraded ladder — and nobody may be
  stranded (the ``no_stranded`` verdict checks the longest
  per-tenant service gap against ``gap_bound_s``).
* **dead_zone** — shrunk coverage with genuine dead zones mid-edge:
  the degrade -> serve-local -> re-offload ladder, at every edge, for
  every vehicle.

The artifact commits deadline-survival curves (per 10 s bin, the
fraction of issued ticks that completed within deadline), handoff
pause statistics, and the full ladder census per cell. Everything is
a pure function of ``seed``; ``duplicate_completions`` must be zero
in every cell (exactly-once serving across handoffs, evacuations and
replays).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.cloud.admission import TenantSpec
from repro.compute.platform import CLOUD_SERVER, TURTLEBOT3_PI
from repro.faults import FaultInjector, FaultPlan, SiteOutage
from repro.hybrid import FluidBackground
from repro.hybrid.experiment import _jsonable
from repro.recovery.config import RecoveryConfig
from repro.sim.kernel import Simulator
from repro.sites import (
    HandoffManager,
    SessionTable,
    SiteBackhaul,
    SiteSelector,
    TenantSession,
)
from repro.sites.session import GeoTenantStats
from repro.sites.topology import triangle_city

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

#: Default VDP workload, matching the fleet experiments.
_VDP_CYCLES = 1.4e9
_TICK_RATE_HZ = 5.0
_THREADS = 4

#: Survival-curve bin width (s).
_BIN_S = 10.0


def _perimeter_loop(
    side_m: float,
) -> tuple[tuple[tuple[float, float], ...], float]:
    """The triangle's vertices (A -> B -> C) and its perimeter length."""
    height = side_m * math.sqrt(3.0) / 2.0
    vertices = ((0.0, 0.0), (side_m, 0.0), (side_m / 2.0, height))
    return vertices, 3.0 * side_m


def _position_on_loop(
    vertices: tuple[tuple[float, float], ...],
    perimeter: float,
    arc: float,
) -> tuple[float, float]:
    """Point at arc-length ``arc`` along the closed A->B->C->A loop."""
    arc %= perimeter
    side = perimeter / 3.0
    i = min(2, int(arc // side))
    frac = (arc - i * side) / side
    (x0, y0), (x1, y1) = vertices[i], vertices[(i + 1) % 3]
    return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))


@dataclass(frozen=True)
class GeoCellResult:
    """One cell of the geo-resilience matrix."""

    cell: str
    coverage_radius_m: float
    outage_site: str | None
    handoffs: int  # committed 2PC placements
    evacuations: int  # direct placements after lease expiry
    degradations: int  # entries into all_local
    reoffloads: int  # degraded -> full_offload returns
    lease_expiries: int
    commits: int  # migrator ledger
    aborts: int
    duplicate_completions: int  # must be 0: exactly-once serving
    mean_handoff_pause_s: float
    max_handoff_pause_s: float
    max_service_gap_s: float  # worst tenant's longest serving gap
    no_stranded: bool
    #: (bin_start_s, survival fraction | None) deadline-survival curve.
    survival: tuple[tuple[float, float | None], ...]
    tenants: tuple[GeoTenantStats, ...]


@dataclass(frozen=True)
class GeoResult:
    """The geo-resilience matrix over all cells."""

    robots: int
    workers_per_site: int
    sim_time_s: float
    seed: int
    side_m: float
    speed_mps: float
    scheduler: str
    balancer: str
    gap_bound_s: float
    background: int
    cells: tuple[GeoCellResult, ...]

    @property
    def resilient(self) -> bool:
        """The headline verdict: nobody stranded, nothing served twice."""
        return all(
            c.no_stranded and c.duplicate_completions == 0 for c in self.cells
        )

    def cell(self, name: str) -> GeoCellResult:
        for c in self.cells:
            if c.cell == name:
                return c
        raise KeyError(f"no cell named {name!r}")

    # ------------------------------------------------------------------
    # Rendering / artifact
    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [
            f"Geo-distributed serving: {self.robots} vehicles at "
            f"{self.speed_mps} m/s on a {self.side_m:.0f} m triangle, "
            f"3 sites x {self.workers_per_site} {CLOUD_SERVER.name} workers"
            + (f", {self.background} fluid background" if self.background else ""),
            f"{'cell':<12}{'handoff':>8}{'evac':>6}{'degr':>6}{'reoff':>6}"
            f"{'expiry':>7}{'abort':>6}{'dup':>5}{'pause_ms':>10}"
            f"{'max_gap_s':>10}{'ok':>4}",
        ]
        for c in self.cells:
            pause = (
                f"{1e3 * c.mean_handoff_pause_s:.1f}"
                if c.handoffs
                else "-"
            )
            lines.append(
                f"{c.cell:<12}{c.handoffs:>8}{c.evacuations:>6}"
                f"{c.degradations:>6}{c.reoffloads:>6}{c.lease_expiries:>7}"
                f"{c.aborts:>6}{c.duplicate_completions:>5}{pause:>10}"
                f"{c.max_service_gap_s:>10.2f}"
                f"{'y' if c.no_stranded else 'N':>4}"
            )
        lines.append(
            "-> "
            + (
                "resilient: no tenant stranded, zero duplicate completions"
                if self.resilient
                else "RESILIENCE VIOLATED (stranded tenant or duplicate completion)"
            )
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "meta": {
                "robots": self.robots,
                "workers_per_site": self.workers_per_site,
                "sim_time_s": self.sim_time_s,
                "seed": self.seed,
                "side_m": self.side_m,
                "speed_mps": self.speed_mps,
                "scheduler": self.scheduler,
                "balancer": self.balancer,
                "gap_bound_s": self.gap_bound_s,
                "background": self.background,
                "server": CLOUD_SERVER.name,
            },
            "resilient": self.resilient,
            "cells": [
                {
                    "cell": c.cell,
                    "coverage_radius_m": c.coverage_radius_m,
                    "outage_site": c.outage_site,
                    "handoffs": c.handoffs,
                    "evacuations": c.evacuations,
                    "degradations": c.degradations,
                    "reoffloads": c.reoffloads,
                    "lease_expiries": c.lease_expiries,
                    "commits": c.commits,
                    "aborts": c.aborts,
                    "duplicate_completions": c.duplicate_completions,
                    "mean_handoff_pause_s": _jsonable(c.mean_handoff_pause_s),
                    "max_handoff_pause_s": _jsonable(c.max_handoff_pause_s),
                    "max_service_gap_s": c.max_service_gap_s,
                    "no_stranded": c.no_stranded,
                    "survival": [
                        {"t": t, "fraction": _jsonable(f)}
                        for t, f in c.survival
                    ],
                    "tenants": [
                        _jsonable({**asdict(t), "stranded": t.stranded})
                        for t in c.tenants
                    ],
                }
                for c in self.cells
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, so equal runs are bit-identical."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
        return path


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------
def _survival_curve(
    sessions: list[TenantSession], sim_time_s: float
) -> tuple[tuple[float, float | None], ...]:
    """Deadline-survival per time bin across the whole fleet."""
    n_bins = int(math.ceil(sim_time_s / _BIN_S))
    issued = [0] * n_bins
    survived = [0] * n_bins
    for s in sessions:
        deadline = s.spec.deadline_s
        for issued_at, latency, _ in s.tick_log:
            b = min(n_bins - 1, int(issued_at // _BIN_S))
            issued[b] += 1
            if latency is not None and latency <= deadline:
                survived[b] += 1
    return tuple(
        (i * _BIN_S, survived[i] / issued[i] if issued[i] else None)
        for i in range(n_bins)
    )


def _run_cell(
    cell: str,
    *,
    robots: int,
    sim_time_s: float,
    seed: int,
    side_m: float,
    speed_mps: float,
    coverage_radius_m: float,
    outage_site: str | None,
    workers_per_site: int,
    scheduler: str,
    balancer: str,
    background: int,
    gap_bound_s: float,
    config: RecoveryConfig,
    telemetry: "Telemetry | None",
) -> GeoCellResult:
    sim = Simulator()
    topology = triangle_city(
        sim,
        side_m=side_m,
        coverage_radius_m=coverage_radius_m,
        n_workers=workers_per_site,
        scheduler=scheduler,
        balancer=balancer,
        seed=seed,
        telemetry=telemetry,
    )
    table = SessionTable(sim, SiteBackhaul(topology))
    selector = SiteSelector(topology)
    manager = HandoffManager(
        sim, topology, selector, table, config=config, telemetry=telemetry
    )
    manager.start()

    local_vdp_s = _VDP_CYCLES / TURTLEBOT3_PI.effective_hz
    vertices, perimeter = _perimeter_loop(side_m)

    def make_position(offset: float):
        def position() -> tuple[float, float]:
            return _position_on_loop(
                vertices, perimeter, offset + speed_mps * sim.now()
            )

        return position

    sessions: list[TenantSession] = []
    deadline_s = 1.0 / _TICK_RATE_HZ
    for i in range(robots):
        spec = TenantSpec(
            name=f"veh{i:02d}",
            cycles=_VDP_CYCLES,
            threads=_THREADS,
            tick_rate_hz=_TICK_RATE_HZ,
            local_vdp_s=local_vdp_s,
        )
        session = TenantSession(
            sim,
            spec,
            topology,
            make_position(i * perimeter / robots),
            selector=selector,
            phase_s=i * deadline_s / robots,
        )
        manager.add(session)
        session.start()
        sessions.append(session)

    fluid = None
    if background > 0:
        bg_spec = TenantSpec(
            name="bg",
            cycles=_VDP_CYCLES,
            threads=_THREADS,
            tick_rate_hz=_TICK_RATE_HZ,
            local_vdp_s=local_vdp_s,
        )
        fluid = FluidBackground(
            sim,
            topology.sites[0].pool,
            bg_spec,
            background,
            controller=topology.sites[0].controller,
            pools=[s.pool for s in topology.sites],
            controllers=[s.controller for s in topology.sites],
            seed=seed,
            telemetry=telemetry,
        )
        fluid.attach()

    if outage_site is not None:
        plan = FaultPlan(
            (
                SiteOutage(
                    start=sim_time_s / 3.0,
                    duration=sim_time_s / 3.0,
                    site=outage_site,
                ),
            )
        )
        FaultInjector.for_sites(plan, topology, telemetry=telemetry).arm()

    sim.run(until=sim_time_s)

    stats = tuple(s.stats(sim_time_s) for s in sessions)
    gaps = [s.max_service_gap_s(sim_time_s) for s in sessions]
    pauses = manager.handoff_pauses_s
    return GeoCellResult(
        cell=cell,
        coverage_radius_m=coverage_radius_m,
        outage_site=outage_site,
        handoffs=manager.handoffs,
        evacuations=manager.evacuations,
        degradations=manager.degradations,
        reoffloads=manager.reoffloads,
        lease_expiries=manager.lease_expiries,
        commits=manager.migrator.commits,
        aborts=manager.migrator.aborts,
        duplicate_completions=sum(
            s.pool.duplicate_completions for s in topology.sites
        ),
        mean_handoff_pause_s=(
            sum(pauses) / len(pauses) if pauses else math.nan
        ),
        max_handoff_pause_s=max(pauses) if pauses else math.nan,
        max_service_gap_s=max(gaps),
        no_stranded=all(not t.stranded for t in stats)
        and max(gaps) <= gap_bound_s,
        survival=_survival_curve(sessions, sim_time_s),
        tenants=stats,
    )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def run_geo(
    robots: int = 6,
    sim_time_s: float = 90.0,
    seed: int = 0,
    side_m: float = 50.0,
    speed_mps: float = 1.5,
    workers_per_site: int = 2,
    scheduler: str = "edf",
    balancer: str = "least-loaded",
    background: int = 0,
    gap_bound_s: float = 5.0,
    cells: tuple[str, ...] = ("baseline", "site_outage", "dead_zone"),
    config: RecoveryConfig | None = None,
    telemetry: "Telemetry | None" = None,
) -> GeoResult:
    """Run the geo-resilience matrix; pure function of its arguments.

    ``gap_bound_s`` is the stranding bound: with the default
    :class:`~repro.recovery.RecoveryConfig` a site death costs at most
    ``lease_ttl_s`` of silence plus a couple of handoff-check periods
    plus one local tick before service resumes somewhere — 5 s bounds
    that with margin while still catching a genuinely stuck tenant.
    """
    if config is None:
        config = RecoveryConfig()
    cell_params: dict[str, tuple[float, str | None]] = {
        # (coverage radius, outage site)
        "baseline": (0.6 * side_m, None),
        "site_outage": (0.6 * side_m, "siteB"),
        "dead_zone": (0.32 * side_m, None),
    }
    results = []
    for cell in cells:
        if cell not in cell_params:
            raise KeyError(
                f"unknown geo cell {cell!r}; have {sorted(cell_params)}"
            )
        coverage, outage = cell_params[cell]
        results.append(
            _run_cell(
                cell,
                robots=robots,
                sim_time_s=sim_time_s,
                seed=seed,
                side_m=side_m,
                speed_mps=speed_mps,
                coverage_radius_m=coverage,
                outage_site=outage,
                workers_per_site=workers_per_site,
                scheduler=scheduler,
                balancer=balancer,
                background=background,
                gap_bound_s=gap_bound_s,
                config=config,
                telemetry=telemetry,
            )
        )
    return GeoResult(
        robots=robots,
        workers_per_site=workers_per_site,
        sim_time_s=sim_time_s,
        seed=seed,
        side_m=side_m,
        speed_mps=speed_mps,
        scheduler=scheduler,
        balancer=balancer,
        gap_bound_s=gap_bound_s,
        background=background,
        cells=tuple(results),
    )
