"""Fleet-capacity benchmark: the repro.cloud serving layer at scale.

Regenerates the capacity curve — K robots vs a fixed worker pool,
admission control vs admit-all — and commits the result as
``BENCH_fleet_capacity.json`` at the repo root. The parameters put the
fleet past the pool's knee (one 24-thread cloud server saturates near
11 robots at 8-wide ticks), so the run demonstrates the acceptance
claim: with K above capacity the admit-all baseline blows tick
deadlines while every tenant the admission controller let in keeps
its p95 under the deadline and its Eq. 2c velocity above the local
baseline.
"""

from pathlib import Path

from benchmarks.conftest import render
from repro.control.velocity_law import max_velocity_oa
from repro.experiments.fleet_scale import run_fleet

ROBOTS = 14
WORKERS = 1
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet_capacity.json"


def test_fleet_capacity(benchmark):
    result = benchmark.pedantic(
        run_fleet,
        kwargs={"robots": ROBOTS, "workers": WORKERS},
        rounds=1,
        iterations=1,
    )
    render(result)
    RESULT_PATH.write_text(result.to_json(), encoding="utf-8")
    print(f"\n[capacity curve written to {RESULT_PATH}]")

    # determinism: the artifact is a pure function of the seed
    again = run_fleet(robots=ROBOTS, workers=WORKERS)
    assert again.to_json() == result.to_json()

    # identity: K=1 on a dedicated FIFO worker is the fig13 tick
    assert result.identity.exact

    # the fleet really is past capacity, and admit-all pays for it
    assert result.capacity_admit_all < ROBOTS
    overload = result.point(ROBOTS)
    assert not overload.admit_all.deadline_ok

    # ... while admission control protects everyone it admitted
    assert result.admission_always_protects
    deadline = 1.0 / result.tick_rate_hz
    v_local = max_velocity_oa(result.local_vdp_s, hardware_cap=1.0)
    for stats in overload.admission.tenants:
        if stats.threads == 0:
            continue  # rejected: runs locally, unharmed
        assert stats.served > 0
        assert stats.p95_latency_s <= deadline
        assert stats.velocity_mps > v_local
    # and the gate actually had to act at this fleet size
    assert overload.admission.rejected >= 1
    assert overload.admission.downgraded >= 1
