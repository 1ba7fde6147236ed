"""Hybrid-vs-full-DES fidelity: how much truth does the fluid trade?

For every fleet size N in the sweep the same serving configuration is
run twice — once as pure DES (every tenant a :class:`RobotTenant`) and
once hybrid (K = min(8, N) focal tenants in DES, the other N−K as
calibrated :class:`~repro.hybrid.FluidBackground` demand) — and the
two answers are compared on the questions the hybrid mode exists to
ask at N=10^5:

* **admitted capacity**: how many tenants the Eq. 2c gate lets in
  (the knee of the capacity curve is where this saturates);
* **focal p95**: the worst p95 tick latency over the *same* first-K
  tenants in both runs (focal tenants keep the phases they would have
  in the full fleet, so burst alignment matches).

The committed artifact is ``BENCH_hybrid_fidelity.json``. The sweep is
pure DES — no wall-clock, no unseeded randomness — so the numbers are
bit-reproducible; only the N=10^5 wall-time probe varies by machine
and is reported unguarded. Running under ``HYBRID_FIDELITY_GUARD=1``
(the CI ``hybrid-smoke`` job) compares fresh numbers against the
committed ones instead of rewriting the file.

Config notes: one worker and the ``ps`` scheduler — processor sharing
is the discipline the fluid stretch model mirrors exactly (demand
enters the shared rate), and the validated default of
``repro fleet --hybrid``. Under FIFO/EDF the fluid cannot represent
head-of-line blocking and fidelity degrades; that limit is documented
in docs/hybrid.md rather than papered over here.

Run:  pytest benchmarks/test_hybrid_fidelity.py -s
"""

import json
import math
import os
import platform
import sys
import time
from pathlib import Path

from repro.cloud.fleet import FleetServerModel
from repro.compute.platform import CLOUD_SERVER, TURTLEBOT3_PI
from repro.experiments.fleet_scale import serve_fleet_point
from repro.hybrid import serve_hybrid_point
from repro.hybrid.experiment import calibrate_fleet_model

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hybrid_fidelity.json"

#: Fleet sizes swept in both full-DES and hybrid mode.
N_SWEEP = (4, 8, 12, 16, 24, 32, 48, 64)
#: The acceptance bar: hybrid focal p95 within 15% of full DES, and
#: the admitted-capacity knee in the same place.
MAX_REL_ERR = 0.15
#: Guard slack on re-checked errors: the sweep is deterministic, so
#: this only absorbs float printing, not behaviour drift.
GUARD_EPS = 1e-6

WORKERS = 1
SCHEDULER = "ps"
SIM_TIME_S = 8.0
TICK_RATE_HZ = 5.0
VDP_CYCLES = 1.4e9
THREADS = 8
WIRED_LATENCY_S = 0.02
SEED = 0
SCALE_N = 100_000


def _focal_p95(outcome, k: int) -> float:
    """Worst p95 over the first-k tenants that served ticks."""
    names = {f"robot{i:02d}" for i in range(k)}
    p95s = [
        t.p95_latency_s
        for t in outcome.tenants
        if t.tenant in names and t.served > 0
    ]
    return max(p95s) if p95s else math.nan


def _sweep_point(n: int, model: FleetServerModel) -> dict:
    local_vdp_s = VDP_CYCLES / TURTLEBOT3_PI.effective_hz
    k = min(8, n)
    common = (
        SIM_TIME_S, TICK_RATE_HZ, VDP_CYCLES, THREADS,
        local_vdp_s, WIRED_LATENCY_S, SEED, True, None,
    )
    full = serve_fleet_point(
        n, WORKERS, SCHEDULER, "least-loaded", True, *common
    )
    hybrid = serve_hybrid_point(
        n, k, WORKERS, SCHEDULER, "least-loaded", True, *common, model=model
    )
    full_p95 = _focal_p95(full, k)
    hyb_p95 = hybrid.worst_focal_p95_s
    rel_err = abs(hyb_p95 - full_p95) / full_p95
    return {
        "n": n,
        "focal": k,
        "full_admitted": full.admitted,
        "hybrid_admitted": hybrid.admitted,
        "full_focal_p95_s": round(full_p95, 6),
        "hybrid_focal_p95_s": round(hyb_p95, 6),
        "rel_err": round(rel_err, 4),
    }


def _knee(points: list[dict], key: str) -> tuple[int, int]:
    """(saturated capacity, smallest N reaching it) for one column."""
    cap = max(p[key] for p in points)
    n_at = min(p["n"] for p in points if p[key] == cap)
    return cap, n_at


def test_hybrid_fidelity():
    guard = bool(os.environ.get("HYBRID_FIDELITY_GUARD"))

    model = calibrate_fleet_model(
        vdp_cycles=VDP_CYCLES,
        threads=THREADS,
        tick_rate_hz=TICK_RATE_HZ,
        network_latency_s=WIRED_LATENCY_S,
    )
    points = [_sweep_point(n, model) for n in N_SWEEP]

    print(
        f"{'N':>4} {'K':>3}  {'admitted full/hyb':>18}  "
        f"{'p95 full':>9} {'p95 hyb':>9} {'rel err':>8}"
    )
    for p in points:
        print(
            f"{p['n']:>4} {p['focal']:>3}  "
            f"{p['full_admitted']:>8}/{p['hybrid_admitted']:<9}  "
            f"{p['full_focal_p95_s']:>9.4f} {p['hybrid_focal_p95_s']:>9.4f} "
            f"{p['rel_err']:>8.1%}"
        )

    max_rel_err = max(p["rel_err"] for p in points)
    full_cap, full_knee_n = _knee(points, "full_admitted")
    hyb_cap, hyb_knee_n = _knee(points, "hybrid_admitted")
    admitted_match = all(
        p["full_admitted"] == p["hybrid_admitted"] for p in points
    )
    print(
        f"-> max focal p95 rel err {max_rel_err:.1%} (bound {MAX_REL_ERR:.0%}); "
        f"knee: full DES saturates at {full_cap} admitted (N={full_knee_n}), "
        f"hybrid at {hyb_cap} (N={hyb_knee_n})"
    )

    # The acceptance bars hold in every mode, guarded or not.
    assert max_rel_err <= MAX_REL_ERR, (
        f"hybrid focal p95 diverges {max_rel_err:.1%} from full DES "
        f"(bound {MAX_REL_ERR:.0%})"
    )
    assert (full_cap, full_knee_n) == (hyb_cap, hyb_knee_n), (
        f"capacity knee moved: full DES {full_cap}@N={full_knee_n}, "
        f"hybrid {hyb_cap}@N={hyb_knee_n}"
    )

    if guard:
        committed = json.loads(RESULT_PATH.read_text())
        for fresh, old in zip(points, committed["points"]):
            assert fresh["n"] == old["n"]
            assert fresh["full_admitted"] == old["full_admitted"], (
                f"N={fresh['n']}: full-DES admitted changed "
                f"{old['full_admitted']} -> {fresh['full_admitted']} — "
                "recommit BENCH_hybrid_fidelity.json if intentional"
            )
            assert fresh["hybrid_admitted"] == old["hybrid_admitted"], (
                f"N={fresh['n']}: hybrid admitted changed "
                f"{old['hybrid_admitted']} -> {fresh['hybrid_admitted']}"
            )
            assert abs(fresh["rel_err"] - old["rel_err"]) <= GUARD_EPS, (
                f"N={fresh['n']}: fidelity drifted — rel err "
                f"{old['rel_err']} -> {fresh['rel_err']} (the sweep is "
                "deterministic; any change is a behaviour change)"
            )
        print(f"guard: all {len(points)} points match the committed artifact")
        return

    # Unguarded runs also time the headline scale point (machine-
    # dependent, reported for honesty, never guarded).
    local_vdp_s = VDP_CYCLES / TURTLEBOT3_PI.effective_hz
    t0 = time.perf_counter()
    scale = serve_hybrid_point(
        SCALE_N, 8, WORKERS, SCHEDULER, "least-loaded", True,
        SIM_TIME_S, TICK_RATE_HZ, VDP_CYCLES, THREADS,
        local_vdp_s, WIRED_LATENCY_S, SEED, True, None, model=model,
    )
    wall_s = time.perf_counter() - t0
    print(
        f"-> scale probe: N={SCALE_N} ({scale.admitted} admitted, "
        f"util {scale.utilization:.2f}) in {wall_s:.2f} s wall"
    )

    result = {
        "benchmark": "hybrid_fidelity",
        "config": {
            "workers": WORKERS,
            "scheduler": SCHEDULER,
            "sim_time_s": SIM_TIME_S,
            "tick_rate_hz": TICK_RATE_HZ,
            "threads": THREADS,
            "wired_latency_s": WIRED_LATENCY_S,
            "seed": SEED,
            "server": CLOUD_SERVER.name,
            "calibrated_t_iso_s": model.calibrated_t_iso_s,
        },
        "points": points,
        "max_rel_err": max_rel_err,
        "max_rel_err_bound": MAX_REL_ERR,
        "admitted_match_everywhere": admitted_match,
        "knee": {"admitted": full_cap, "n": full_knee_n},
        "scale_probe": {
            "n": SCALE_N,
            "focal": 8,
            "admitted": scale.admitted,
            "bg_admitted": scale.bg_admitted,
            "utilization": round(scale.utilization, 4),
            "wall_s": round(wall_s, 2),
        },
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"-> {RESULT_PATH.name}")
