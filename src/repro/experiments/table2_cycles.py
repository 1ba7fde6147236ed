"""Table II: per-node cycle breakdown and ECN identification.

Runs a short local mission of each workload category (with / without a
map), harvests each node's accumulated reference cycles from the
host's energy meter, and classifies ECNs exactly as §IV-A does. The
paper's headline from this table: CostmapGen + Path Tracking are the
with-map ECNs; SLAM joins them without a map.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import Table
from repro.core.bottleneck import NodeClassification, classify_nodes
from repro.core.framework import FrameworkConfig, OffloadingFramework
from repro.telemetry import Telemetry
from repro.workloads.missions import MissionRunner
from repro.workloads.navigation import Workload, build_exploration, build_navigation
from repro.world.geometry import Pose2D
from repro.world.maps import box_world

#: Profiling runs offload every pipeline node to the gateway so nothing
#: saturates: each node then executes at its natural trigger rate and
#: the cycle totals reflect the workload's *demand* (what Table II
#: reports), not the Pi's achievable throughput. Reference cycles are
#: platform-independent, so the breakdown is the same workload either way.
_PROFILE_CONFIG = FrameworkConfig(
    initial_placement="all_server",
    enable_realtime_adjustment=False,
    enable_fine_grained_migration=False,
    server_threads=1,
)

#: Pipeline nodes reported in Table II (infrastructure nodes excluded).
REPORTED = (
    "localization",
    "slam",
    "costmap_gen",
    "path_planning",
    "exploration",
    "path_tracking",
    "velocity_mux",
)


@dataclass
class Table2Result:
    """Table II reproduction output."""

    table: Table
    with_map: dict[str, float]
    without_map: dict[str, float]
    with_map_classification: NodeClassification
    without_map_classification: NodeClassification

    def render(self) -> str:
        """Plain-text table."""
        return self.table.render()


def _profile(w: Workload, duration_s: float) -> dict[str, float]:
    fw = OffloadingFramework(
        w.graph, w.lgv, w.lgv_host, w.gateway_host, (2.0, 2.0), {}, _PROFILE_CONFIG
    )
    runner = MissionRunner(w, framework=fw, timeout_s=duration_s)
    runner.run()
    return {k: v for k, v in runner._merged_cycles().items() if k in REPORTED}


def run_table2(
    duration_s: float = 40.0, seed: int = 0, telemetry: Telemetry | None = None
) -> Table2Result:
    """Regenerate Table II by profiling both workload categories.

    ``duration_s`` caps each profiling mission; shares converge within
    tens of seconds because the pipeline is periodic.
    """
    nav = _profile(
        build_navigation(
            box_world(10.0), Pose2D(2, 2, 0.7), Pose2D(8, 8, 0), seed=seed,
            wap_xy=(2.0, 2.0), telemetry=telemetry,
        ),
        duration_s,
    )
    exp = _profile(
        build_exploration(
            box_world(8.0), Pose2D(2, 2, 0.5), seed=seed, wap_xy=(2.0, 2.0),
            telemetry=telemetry,
        ),
        duration_s,
    )
    cls_nav = classify_nodes(nav)
    cls_exp = classify_nodes(exp)

    t = Table(
        title="Table II — Cycle breakdown of each work node (reference gigacycles)",
        columns=["Workload"] + [n for n in REPORTED] + ["ECNs"],
        note="shares in parentheses; ECN threshold = 10% of workload cycles",
    )

    def fmt_row(label: str, cycles: dict[str, float], cls: NodeClassification) -> list:
        total = sum(cycles.values())
        row: list = [label]
        for n in REPORTED:
            c = cycles.get(n)
            if c is None:
                row.append("-")
            else:
                row.append(f"{c / 1e9:.3f} ({c / total:.0%})")
        row.append(", ".join(cls.ecns))
        return row

    t.rows.append(fmt_row("With a Map", nav, cls_nav))
    t.rows.append(fmt_row("Without a Map", exp, cls_exp))
    return Table2Result(
        table=t,
        with_map=nav,
        without_map=exp,
        with_map_classification=cls_nav,
        without_map_classification=cls_exp,
    )
