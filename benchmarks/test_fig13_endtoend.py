"""Figure 13 benchmark: end-to-end energy breakdown + completion time.

The paper's headline numbers: offloading reduces total energy by
1.61x (nav) / 2.12x (exploration) and completion time by 2.53x (nav) /
1.6x (exploration). Our simulated testbed reproduces the *shape*
(documented deltas in EXPERIMENTS.md):

* both metrics improve under every offloaded deployment;
* the embedded-computer bar shrinks by an order of magnitude while the
  motor bar stays comparatively flat;
* wireless energy stays negligible (small uplink payloads);
* exploration gains more energy-wise, navigation more time-wise.
"""


from benchmarks.conftest import render
from repro.experiments.fig13_endtoend import run_fig13
from repro.experiments._missions import DEPLOYMENTS


def test_fig13_endtoend(benchmark):
    """Run the full Fig. 13 mission matrix (the long benchmark)."""
    result = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    render(result)

    for workload in ("navigation", "exploration"):
        base = result.results[(workload, "local (no offload)")]
        assert base.success, f"local {workload} failed: {base.reason}"
        for dep in DEPLOYMENTS[1:]:
            m = result.results[(workload, dep.label)]
            assert m.success, f"{dep.label} {workload} failed: {m.reason}"
            # offloading reduces both energy and time
            assert m.total_energy_j < base.total_energy_j
            assert m.completion_time_s < base.completion_time_s
            # the embedded computer bar collapses...
            assert m.energy.embedded_computer_j < 0.3 * base.energy.embedded_computer_j
            # ...while motor energy stays within ~3x (distance-dominated)
            ratio = base.energy.motor_j / max(m.energy.motor_j, 1e-9)
            assert ratio < 3.0
            # wireless energy stays a negligible slice
            assert m.energy.wireless_j < 0.05 * m.total_energy_j

    # navigation gains more time; exploration starts from a worse
    # local baseline because SLAM burns the board (paper §VIII-D)
    nav_t = result.reduction("navigation", "gateway +8T", "time")
    exp_t = result.reduction("exploration", "gateway +8T", "time")
    assert nav_t > exp_t
    assert nav_t > 2.0
    assert exp_t > 1.2
