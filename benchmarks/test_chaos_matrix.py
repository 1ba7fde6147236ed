"""Chaos-matrix benchmark: every single-fault scenario, adaptive vs static.

Asserts the PR's robustness thesis end to end: the adaptive framework
(Algorithms 1 + 2) completes the mission under *every* fault in the
taxonomy, while the static always-offloaded policy is stranded by a
permanent data-plane outage — commands stop arriving, the watchdog
parks the vehicle, and the TCP control channel's healthy latency
statistics never tell it why (the Fig. 7 asymmetry, weaponized).
"""

from benchmarks.conftest import render
from repro.experiments.chaos import run_chaos


def test_chaos_matrix(benchmark):
    """Regenerate the full fault matrix."""
    result = benchmark.pedantic(run_chaos, rounds=1, iterations=1)
    render(result)

    # the headline: no single fault defeats the adaptive framework
    assert result.adaptive_all_complete

    # the contrast: the static policy never recovers from a permanent
    # outage — it times out having covered less ground
    static = result.run("link_outage", "static")
    adaptive = result.run("link_outage", "adaptive")
    assert not static.success and static.reason == "timeout"
    assert adaptive.success
    assert static.distance_m < adaptive.distance_m

    # the adaptive survivor actually used Algorithm 2, not luck
    assert adaptive.retreats >= 1

    # the fleet-scale cell: a pool worker crash is absorbed by the
    # rebalance path — no tenant stranded, requests re-placed
    pool_cell = result.run("pool_worker_crash")
    assert pool_cell.success
    assert pool_cell.retreats >= 1  # at least one request rebalanced

    # the recovery cells (repro.recovery attached): a crash landing
    # between PREPARE and COMMIT of the initial two-phase transfer,
    # and a link outage that outlives the lease TTL, must both end in
    # a completed mission — state rolled back or restored from
    # checkpoints, never lost
    handshake = result.run("crash_during_handshake")
    assert handshake.success
    assert handshake.retreats >= 1  # at least one checkpoint restoration

    outage = result.run("lease_expiry_in_outage")
    assert outage.success
    assert outage.retreats >= 1
