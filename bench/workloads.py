"""The four benchmark workloads, run inside one rep's child process.

Each workload function takes the seed, whether this is a ``--smoke``
run with shortened horizons, and ``seen`` -- the instances of the
tracked classes built so far (see :data:`bench.rep.TRACKED`), which is
how the per-tick latencies of tenants built inside the serving entry
points are read back. It returns an :class:`Outcome`: the simulated
outputs to digest, the virtual metrics, and the correctness checks
that failed.

Only public entry points are called: ``launch_exploration``,
``launch_navigation``, ``serve_fleet_point``, ``serve_hybrid_point``
and ``run_geo``.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

#: Fig. 13 deployment every mission runs under.
DEPLOYMENT = "gateway +8T"
#: Virtual seconds of the exploration mission one rep runs. A whole
#: mission lasts 72-90 s depending on the seed; a fixed horizon keeps
#: one rep's work the same size for every seed.
EXPLORE_HORIZON_S = 20.0
NAVIGATE_TIMEOUT_S = 400.0
SERVE_HORIZON_S = 30.0
GEO_HORIZON_S = 120.0
#: ``--smoke`` horizons, long enough for every layer to run once.
SMOKE_HORIZON_S = 3.0
SMOKE_GEO_HORIZON_S = 6.0

VDP_CYCLES = 1.4e9
TICK_RATE_HZ = 5.0
WIRED_LATENCY_S = 0.02

#: Virtual metrics every workload reports (0 where a workload has no
#: such quantity), all reported as per-layer metrics.
VIRTUAL_METRICS = (
    "vehicle.mission_time_s",
    "vehicle.mission_energy_j",
    "core.adjusts",
    "core.migrations",
    "perception.slam_scans",
    "perception.slam_resamples",
    "perception.amcl_updates",
    "cloud.ticks",
    "cloud.tick_p50_ms",
    "cloud.tick_p99_ms",
    "cloud.deadline_miss_ratio",
    "cloud.capacity_tenants",
    "cloud.duplicate_completions",
    "sites.handoffs",
    "sites.commits",
    "sites.aborts",
    "obs.trees",
)


@dataclass
class Outcome:
    """What one rep simulated, and whether it was right."""

    digest: dict[str, Any]
    virtual: dict[str, float] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.checks.append(what)


def quantile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank quantile of a sorted sample; 0 when empty."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _virtual(values: dict[str, float]) -> dict[str, float]:
    """Every virtual metric, 0 unless ``values`` gives it."""
    unknown = set(values) - set(VIRTUAL_METRICS)
    if unknown:
        raise KeyError(f"undeclared virtual metrics {sorted(unknown)}")
    out = dict.fromkeys(VIRTUAL_METRICS, 0.0)
    out.update((k, float(v)) for k, v in values.items())
    return out


# ----------------------------------------------------------------------
# Missions
# ----------------------------------------------------------------------
def _mission(launch: Callable[..., Any], seed: int, timeout_s: float) -> tuple[Any, Any, Any]:
    from repro.experiments._missions import DEPLOYMENTS

    dep = next(d for d in DEPLOYMENTS if d.label == DEPLOYMENT)
    w, fw, runner = launch(dep, seed=seed, timeout_s=timeout_s)
    return w, fw, runner.run()


def _mission_digest(w: Any, fw: Any, m: Any) -> dict[str, Any]:
    return {
        "success": m.success,
        "reason": m.reason,
        "completion_time_s": m.completion_time_s,
        "energy": m.energy.as_dict(),
        "distance_m": m.distance_m,
        "collisions": m.collisions,
        "cycles": m.cycle_breakdown,
        "placement": m.final_placement,
        "adjustments": [(e.t, e.action, e.velocity_cap) for e in fw.events],
        "pose": [w.lgv.pose.x, w.lgv.pose.y, w.lgv.pose.theta],
        "events": w.sim.events_processed,
    }


def explore(seed: int, smoke: bool, seen: dict[str, list[Any]]) -> Outcome:
    """The SLAM write path: exploration without a map, fixed horizon."""
    from repro.experiments._missions import launch_exploration

    horizon = SMOKE_HORIZON_S if smoke else EXPLORE_HORIZON_S
    w, fw, m = _mission(launch_exploration, seed, horizon)
    slam = w.nodes["slam"].slam
    out = Outcome(
        digest=_mission_digest(w, fw, m),
        virtual=_virtual(
            {
                "vehicle.mission_time_s": m.completion_time_s,
                "vehicle.mission_energy_j": m.total_energy_j,
                "core.adjusts": len(fw.events),
                "core.migrations": len(fw.switcher.records),
                "perception.slam_scans": slam.scans_processed,
                "perception.slam_resamples": slam.resamples,
            }
        ),
    )
    out.check(m.reason in ("timeout", "explored"), f"mission ended early: {m.reason}")
    out.check(m.collisions == 0, f"{m.collisions} collisions")
    out.check(slam.scans_processed > 0, "SLAM processed no scan")
    return out


def navigate(seed: int, smoke: bool, seen: dict[str, list[Any]]) -> Outcome:
    """The perception read path: navigation with AMCL on a known map."""
    from repro.experiments._missions import launch_navigation

    timeout = SMOKE_HORIZON_S if smoke else NAVIGATE_TIMEOUT_S
    w, fw, m = _mission(launch_navigation, seed, timeout)
    amcl = w.nodes["localization"].amcl
    out = Outcome(
        digest=_mission_digest(w, fw, m),
        virtual=_virtual(
            {
                "vehicle.mission_time_s": m.completion_time_s,
                "vehicle.mission_energy_j": m.total_energy_j,
                "core.adjusts": len(fw.events),
                "core.migrations": len(fw.switcher.records),
                "perception.amcl_updates": amcl.updates,
            }
        ),
    )
    out.check(smoke or m.success, f"mission failed: {m.reason}")
    out.check(m.collisions == 0, f"{m.collisions} collisions")
    out.check(amcl.updates > 0, "AMCL made no update")
    return out


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def _tracked_cell(
    seen: dict[str, list[Any]], run: Callable[[], Any]
) -> tuple[Any, list[float], int]:
    """Run one cell; return its result, and the latencies and lost ticks
    of every tenant the cell built."""
    robots, sessions = seen["RobotTenant"], seen["TenantSession"]
    r0, s0 = len(robots), len(sessions)
    result = run()
    lats: list[float] = []
    lost = 0
    for t in robots[r0:]:
        lats.extend(t.latencies)
        lost += t.lost
    for s in sessions[s0:]:
        for _, latency, _ in s.tick_log:
            if latency is None:
                lost += 1
            else:
                lats.append(latency)
    return result, lats, lost


def _serve(seed: int, smoke: bool, seen: dict[str, list[Any]], observed: bool) -> Outcome:
    """Four serving cells with no perception at all.

    The tenants are an open loop: every one ticks at 5 Hz whether or not
    its earlier ticks completed, and a tick's latency runs from its
    scheduled issue time. Tick latencies are pooled over the
    admission-controlled tenants of cells a, c and d.
    """
    from repro.compute.platform import TURTLEBOT3_PI
    from repro.experiments.fleet_scale import serve_fleet_point
    from repro.experiments.geo import run_geo
    from repro.hybrid.experiment import serve_hybrid_point
    from repro.telemetry import Telemetry

    horizon = SMOKE_HORIZON_S if smoke else SERVE_HORIZON_S
    geo_horizon = SMOKE_GEO_HORIZON_S if smoke else GEO_HORIZON_S
    local_vdp_s = VDP_CYCLES / TURTLEBOT3_PI.effective_hz
    telemetries: list[Any] = []

    def telemetry() -> Any:
        if not observed:
            return None
        tel = Telemetry()
        tel.enable_obs(seed=seed)
        tel.enable_slo()
        telemetries.append(tel)
        return tel

    def fleet(admission: bool) -> Any:
        return serve_fleet_point(
            24, 2, "edf", "least-loaded", admission, horizon, TICK_RATE_HZ,
            VDP_CYCLES, 8, local_vdp_s, WIRED_LATENCY_S, seed, True, telemetry(),
        )

    def hybrid() -> Any:
        return serve_hybrid_point(
            10_000, 8, 2, "ps", "least-loaded", True, horizon, TICK_RATE_HZ,
            VDP_CYCLES, 8, local_vdp_s, WIRED_LATENCY_S, seed, True, telemetry(),
        )

    def geo_outage() -> Any:
        return run_geo(
            cells=("site_outage",), sim_time_s=geo_horizon, seed=seed, telemetry=telemetry()
        )

    a, lats_a, lost_a = _tracked_cell(seen, lambda: fleet(admission=True))
    b = fleet(admission=False)
    c, lats_c, lost_c = _tracked_cell(seen, hybrid)
    geo, lats_d, lost_d = _tracked_cell(seen, geo_outage)
    d = geo.cells[0]
    lats = sorted(lats_a + lats_c + lats_d)
    lost = lost_a + lost_c + lost_d

    late = sum(1 for v in lats if v > 1.0 / TICK_RATE_HZ)
    duplicates = sum(p.duplicate_completions for p in seen["WorkerPool"])
    geo_ticks = sum(t.ticks for t in d.tenants)
    out = Outcome(
        digest={
            "fleet_admission": dataclasses.asdict(a),
            "fleet_admit_all": dataclasses.asdict(b),
            "hybrid": dataclasses.asdict(c),
            "geo": geo.to_dict(),
            "events": sum(s.events_processed for s in seen["Simulator"]),
        },
        virtual=_virtual(
            {
                "cloud.ticks": a.ticks + b.ticks + c.ticks + geo_ticks,
                "cloud.tick_p50_ms": 1e3 * quantile(lats, 0.50),
                "cloud.tick_p99_ms": 1e3 * quantile(lats, 0.99),
                "cloud.deadline_miss_ratio": (late + lost) / max(1, len(lats) + lost),
                "cloud.capacity_tenants": a.admitted + c.admitted,
                "cloud.duplicate_completions": duplicates,
                "sites.handoffs": d.handoffs,
                "sites.commits": d.commits,
                "sites.aborts": d.aborts,
                "obs.trees": sum(len(t.requests) for t in telemetries),
            }
        ),
    )
    for name, cell in (("a", a), ("b", b), ("c", c)):
        stranded = [t.tenant for t in cell.tenants if t.stranded]
        out.check(not stranded, f"cell {name}: stranded tenants {stranded}")
    out.check(d.no_stranded, "cell d: a tenant was stranded")
    out.check(duplicates == 0, f"{duplicates} duplicate completions")
    out.check(a.deadline_ok, "cell a: an admitted tenant's p95 missed its deadline")
    out.check(c.deadline_ok, "cell c: an admitted tenant's p95 missed its deadline")
    out.check(bool(lats), "no tick was served")
    return out


def serve(seed: int, smoke: bool, seen: dict[str, list[Any]]) -> Outcome:
    """Fleet, hybrid and geo serving with observability off."""
    return _serve(seed, smoke, seen, observed=False)


def serve_traced(seed: int, smoke: bool, seen: dict[str, list[Any]]) -> Outcome:
    """The same cells with telemetry, request traces and SLO monitoring."""
    return _serve(seed, smoke, seen, observed=True)


WORKLOADS: dict[str, Callable[[int, bool, dict[str, list[Any]]], Outcome]] = {
    "explore": explore,
    "navigate": navigate,
    "serve": serve,
    "serve_traced": serve_traced,
}
