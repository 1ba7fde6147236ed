"""Benchmarks for the §IX/§X extensions.

Not paper figures — these quantify the future-work directions the
paper sketches, against the same models the main benchmarks use.
"""


from repro.analysis.tables import Table
from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY
from repro.cloud.fleet import FleetServerModel, size_fleet
from repro.extensions import (
    DvfsPolicy,
    GeneticOffloadPlanner,
    PlacementGenome,
    VisionLocalizationModel,
    optimal_frequency,
    vision_safe_velocity,
)


def test_ext_dvfs_sweep(benchmark):
    """Energy-vs-frequency curve for the local VDP (Eq. 1c's knob)."""
    pol = DvfsPolicy()

    def run():
        return optimal_frequency(pol, 0.4e9, 2.2e9, n_grid=120)

    best = benchmark(run)
    t = Table("Extension — DVFS operating points", ["f (GHz)", "VDP (s)", "v (m/s)", "T (s)", "E (J)"])
    for f in (0.4e9, best.freq_hz, 1.4e9, 2.2e9):
        p = pol.evaluate(f)
        t.add_row(round(f / 1e9, 2), round(p.vdp_time_s, 2), round(p.velocity_mps, 3),
                  round(p.mission_time_s, 1), round(p.energy_j, 1))
    print()
    print(t.render())
    assert 0.4e9 < best.freq_hz < 2.2e9  # interior optimum


def test_ext_genetic_vs_algorithm1(benchmark):
    """The GA baseline converges to Algorithm 1's T3 choice — until the
    network moves, which only the adaptive system notices."""
    cycles = {
        "localization": 0.18e9, "costmap_gen": 0.43e9, "path_planning": 0.03e9,
        "path_tracking": 0.95e9, "velocity_mux": 0.02e6,
    }
    planner = GeneticOffloadPlanner(node_cycles=cycles, server=EDGE_GATEWAY)
    best, cost = benchmark.pedantic(planner.plan, kwargs={"seed": 1}, rounds=1, iterations=1)
    print()
    print(f"GA plan: offload {best.to_server()}  (T={cost.time_s:.0f}s, E={cost.energy_j:.0f}J)")
    # converges to offloading the T3 (VDP ECN) nodes, like Algorithm 1
    assert best.offloaded["path_tracking"] and best.offloaded["costmap_gen"]
    # but the static plan inverts under a degraded network
    degraded = GeneticOffloadPlanner(node_cycles=cycles, server=EDGE_GATEWAY,
                                     network_latency_s=1.5)
    all_local = PlacementGenome({n: False for n in degraded.movable})
    assert degraded.predict(best).time_s > degraded.predict(all_local).time_s


def test_ext_fleet_sizing(benchmark):
    """How many LGVs one server carries before offloading stops paying."""
    def run():
        return {
            "gateway 8T": size_fleet(FleetServerModel(server=EDGE_GATEWAY, threads=8)),
            "cloud 8T": size_fleet(FleetServerModel(server=CLOUD_SERVER, threads=8)),
        }

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"max fleet per server: {sizes}")
    assert sizes["cloud 8T"] >= sizes["gateway 8T"] >= 1


def test_ext_vision_speed_constraint(benchmark):
    """Vision-based LGVs cap below laser ones at low perception latency."""
    m = VisionLocalizationModel(frame_rate_hz=15.0, flow_scale_m=0.03)

    def run():
        return [vision_safe_velocity(tp, m) for tp in (0.02, 0.1, 0.5, 1.0, 2.0)]

    vs = benchmark(run)
    print()
    print("vision-safe velocity vs perception latency:",
          [round(v, 3) for v in vs])
    assert vs == sorted(vs, reverse=True)
    assert vs[0] <= m.max_tracking_velocity() + 1e-9
