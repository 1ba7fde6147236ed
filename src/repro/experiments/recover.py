"""Chaos-recovery experiment (``repro recover``).

Runs the navigation mission with the full :mod:`repro.recovery` stack
attached — two-phase migration, checkpoint shipping, lease
supervision, degraded-mode ladder — under the recovery-focused fault
cells, plus a fault-free control run. The result records what the
subsystem actually did (lease expiries, rollbacks, checkpoint
restores, ladder transitions), and serializes to canonical JSON so a
seeded run is byte-identical — the determinism contract the
``recovery-smoke`` CI job checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.experiments._missions import DEPLOYMENTS, launch_navigation
from repro.experiments.chaos import RECOVERY_SCENARIOS, SCENARIOS
from repro.faults import FaultInjector, FaultPlan
from repro.recovery import RecoveryConfig
from repro.recovery.manager import attach_recovery
from repro.telemetry import Telemetry

#: Experiment cells: the fault-free control, then the recovery cells.
CELLS: tuple[str, ...] = ("no_fault",) + RECOVERY_SCENARIOS


@dataclass(frozen=True)
class RecoveryCell:
    """One mission with recovery attached, under one fault plan."""

    scenario: str
    success: bool
    reason: str
    time_s: float
    distance_m: float
    lease_expiries: int
    lease_recoveries: int
    checkpoints: int
    checkpoint_ship_failures: int
    restored_from_checkpoint: int
    restored_fresh: int
    migrations_committed: int
    migrations_aborted: int
    final_mode: str
    ladder: tuple[tuple[float, str], ...]


@dataclass(frozen=True)
class RecoveryResult:
    """The full chaos-recovery run."""

    cells: tuple[RecoveryCell, ...]

    def cell(self, scenario: str) -> RecoveryCell:
        """Look up one cell by scenario name."""
        for c in self.cells:
            if c.scenario == scenario:
                return c
        raise KeyError(f"no cell for {scenario!r}")

    @property
    def all_complete(self) -> bool:
        """Every mission completed, faulted or not."""
        return all(c.success for c in self.cells)

    def render(self) -> str:
        """Plain-text summary table."""
        lines = [
            "Chaos recovery: navigation mission (gateway +8T), repro.recovery attached",
            f"{'scenario':<24}{'outcome':<22}{'time_s':>8}{'expiry':>7}"
            f"{'commit':>7}{'abort':>7}{'restore':>8}  mode",
        ]
        for c in self.cells:
            outcome = "completed" if c.success else f"FAILED ({c.reason})"
            restores = c.restored_from_checkpoint + c.restored_fresh
            lines.append(
                f"{c.scenario:<24}{outcome:<22}{c.time_s:>8.1f}"
                f"{c.lease_expiries:>7d}{c.migrations_committed:>7d}"
                f"{c.migrations_aborted:>7d}{restores:>8d}  {c.final_mode}"
            )
        verdict = (
            "recovery preserved every mission"
            if self.all_complete
            else "A RECOVERY CELL FAILED ITS MISSION"
        )
        lines.append(f"-> {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "meta": {
                "deployment": "gateway+8T",
                "cells": list(c.scenario for c in self.cells),
            },
            "cells": {
                c.scenario: {
                    "success": c.success,
                    "reason": c.reason,
                    "time_s": c.time_s,
                    "distance_m": c.distance_m,
                    "lease_expiries": c.lease_expiries,
                    "lease_recoveries": c.lease_recoveries,
                    "checkpoints": c.checkpoints,
                    "checkpoint_ship_failures": c.checkpoint_ship_failures,
                    "restored_from_checkpoint": c.restored_from_checkpoint,
                    "restored_fresh": c.restored_fresh,
                    "migrations_committed": c.migrations_committed,
                    "migrations_aborted": c.migrations_aborted,
                    "final_mode": c.final_mode,
                    "ladder": [[t, mode] for t, mode in c.ladder],
                }
                for c in self.cells
            },
            "all_complete": self.all_complete,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, so equal runs are bit-identical."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
        return path


def _one_cell(
    scenario: str,
    plan: FaultPlan | None,
    timeout_s: float,
    config: RecoveryConfig,
    telemetry: Telemetry | None,
) -> RecoveryCell:
    w, fw, runner = launch_navigation(
        DEPLOYMENTS[2], timeout_s=timeout_s, telemetry=telemetry
    )
    manager = attach_recovery(fw, w.fabric, config=config, telemetry=telemetry)
    if plan is not None:
        FaultInjector.for_workload(plan, w, telemetry=telemetry).arm()
    res = runner.run()
    return RecoveryCell(
        scenario=scenario,
        success=res.success,
        reason=res.reason,
        time_s=res.completion_time_s,
        distance_m=res.distance_m,
        lease_expiries=manager.supervisor.expiries,
        lease_recoveries=manager.supervisor.recoveries,
        checkpoints=manager.store.commits,
        checkpoint_ship_failures=manager.checkpoint_ship_failures,
        restored_from_checkpoint=manager.restored_from_checkpoint,
        restored_fresh=manager.restored_fresh,
        migrations_committed=manager.migrator.commits,
        migrations_aborted=manager.migrator.aborts,
        final_mode=manager.mode,
        ladder=tuple(fw.controller.degraded_history),
    )


def run_recovery(
    scenarios: tuple[str, ...] | None = None,
    timeout_s: float = 300.0,
    config: RecoveryConfig | None = None,
    telemetry: Telemetry | None = None,
) -> RecoveryResult:
    """Run the chaos-recovery cells; ``scenarios=None`` means all.

    Each cell is a fresh seeded mission, so the whole result is a pure
    function of the code and the (default) seed.
    """
    names = tuple(scenarios) if scenarios is not None else CELLS
    unknown = [n for n in names if n != "no_fault" and n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {unknown}; have {list(CELLS)}")
    cfg = config or RecoveryConfig()
    cells = tuple(
        _one_cell(
            name,
            None if name == "no_fault" else SCENARIOS[name],
            timeout_s,
            cfg,
            telemetry,
        )
        for name in names
    )
    return RecoveryResult(cells=cells)
