"""``python -m bench compare BASE.json CHANGE.json``: the pairing rule.

Both files are ledgers written by ``python -m bench run --out``. Run
the parent commit and the change in alternation, each appending to its
own ledger; the i-th untraced run of a workload in one ledger pairs
with the i-th in the other.

For every workload and end-to-end metric the change counts as better
only with at least :data:`MIN_PAIRS` pairs, a win in at least nine
tenths of them (ties count for neither side), and a median gap wider
than the parent's own spread (the distance between its quartiles). It
is worse when its median is worse than the parent's by more than the
metric's bound. Where the parent's spread is wider than the bound, the
metric is unresolved unless every change run reads better than every
parent run.

Simulated results are deterministic, so the seeds whose digest of the
simulated outputs differs between the two ledgers are listed: any
difference there is a change in what the program computes.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _runs(path: Path) -> dict[str, list[dict[str, Any]]]:
    by_workload: dict[str, list[dict[str, Any]]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if not run["trace"] and not run["smoke"] and run["end_to_end"]:
            by_workload.setdefault(run["workload"], []).append(run)
    for runs in by_workload.values():
        runs.sort(key=lambda r: r["started_unix"])
    return by_workload


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The pairing rule for one metric on one workload."""
    n = len(base)
    if n < MIN_PAIRS:
        return f"unresolved ({n} pairs, need {MIN_PAIRS})"
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if (b - c) * sign > 0)
    med_b = statistics.median(base)
    gain = (med_b - statistics.median(change)) * sign
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    if wins >= WIN_SHARE * n and gain > spread:
        return f"better (won {wins}/{n})"
    if -gain > bound * abs(med_b):
        return f"worse (beyond the {bound:.0%} bound)"
    if spread > bound * abs(med_b):
        worst_change = max(c * sign for c in change)
        best_base = min(b * sign for b in base)
        if worst_change >= best_base:
            return "unresolved (parent spread exceeds the bound)"
    return f"no regression (won {wins}/{n})"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _digests(runs: list[dict[str, Any]]) -> dict[int, str]:
    """Seed -> digest of the simulated outputs (every ok rep agrees)."""
    return {
        run["seed"]: rep["digest"]
        for run in runs
        for rep in run["reps"]
        if rep["ok"]
    }


def compare(base_path: Path, change_path: Path, spec: dict[str, Any]) -> int:
    """Print one row per workload and metric; 1 if anything got worse."""
    base, change = _runs(base_path), _runs(change_path)
    worse = False
    for workload in sorted(set(base) & set(change)):
        n = min(len(base[workload]), len(change[workload]))
        pairs = list(zip(base[workload][:n], change[workload][:n]))
        first = [b["started_unix"] < c["started_unix"] for b, c in pairs]
        alternating = all(x != y for x, y in zip(first, first[1:]))
        print(
            f"== {workload}: {n} pairs, "
            f"{'alternating' if alternating else 'NOT alternating'} which side ran first =="
        )
        b_dig, c_dig = _digests(base[workload]), _digests(change[workload])
        moved = sorted(s for s in set(b_dig) & set(c_dig) if b_dig[s] != c_dig[s])
        if moved:
            print(f"  simulated outputs changed on seeds {moved}")
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [p[0]["end_to_end"][name] for p in pairs]
            c = [p[1]["end_to_end"][name] for p in pairs]
            if not b:
                continue
            b1, b2, b3 = _quartiles(b)
            c1, c2, c3 = _quartiles(c)
            v = verdict(b, c, m["better"], m["bound"])
            worse = worse or v.startswith("worse")
            print(
                f"  {workload:<13} {name:<13} base {b2:.6g} [{b1:.6g}, {b3:.6g}] "
                f"change {c2:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}  "
                f"ratio {c2 / b2:.3f} of base {b2:.6g} {m['unit']}  -> {v}"
            )
    return 1 if worse else 0
