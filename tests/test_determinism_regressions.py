"""Seed → byte-identical regression tests for the DET002 sweep fixes.

Each test pins one site the ``repro lint`` pass flagged (direct
``numpy.random.default_rng`` construction, now routed through
``repro.sim.rng``): two runs from the same seed must produce identical
results, serialized to the byte.
"""

from __future__ import annotations

import json

from repro.experiments._missions import DEPLOYMENTS, launch_navigation
from repro.network.fabric import FleetRadioNetwork
from repro.network.link import WirelessLink
from repro.network.signal import WapSite
from repro.network.tcp import ReliableChannel
from repro.sim import seeded_rng


def _canon(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, default=repr).encode()


class TestWorkloadRngRouting:
    """workloads/navigation.py builds its RNGs via sim.rng."""

    def test_navigation_mission_bytes_identical(self):
        summaries = []
        for _ in range(2):
            _, fw, runner = launch_navigation(DEPLOYMENTS[2], timeout_s=120.0)
            res = runner.run()
            summaries.append(
                _canon(
                    {
                        "success": res.success,
                        "t": res.completion_time_s,
                        "energy": res.total_energy_j,
                        "distance": res.distance_m,
                        "cycles": sorted(res.cycle_breakdown.items()),
                        "velocities": [
                            (p.t, p.v_real, p.v_max) for p in res.velocity_trace
                        ],
                    }
                )
            )
        assert summaries[0] == summaries[1]


class TestLinkRngRouting:
    """network/link.py default rng + tcp.py jitter are seed-stable."""

    def test_default_link_rngs_identical_streams(self):
        wap = WapSite(x=0.0, y=0.0)
        a = WirelessLink(wap, lambda: (1.0, 1.0))
        b = WirelessLink(wap, lambda: (1.0, 1.0))
        assert [a.rng.random() for _ in range(16)] == [
            b.rng.random() for _ in range(16)
        ]

    def test_reliable_channel_jitter_stream_stable(self):
        wap = WapSite(x=0.0, y=0.0)

        def draws() -> list[float]:
            link = WirelessLink(wap, lambda: (1.0, 1.0), seeded_rng(3))
            chan = ReliableChannel(link, jitter_frac=0.5, jitter_seed=7)
            return [chan._jittered(chan.backoff_s(i)) for i in range(8)]

        assert draws() == draws()


class TestFabricRngRouting:
    """network/fabric.py derives per-tenant radio streams reproducibly."""

    def test_fleet_radio_attach_identical(self):
        waps = [WapSite(x=0.0, y=0.0), WapSite(x=10.0, y=0.0)]

        def sample(seed: int) -> bytes:
            fabric = FleetRadioNetwork(waps, seed=seed)
            link = fabric.attach("tenant-7", (2.0, 3.0))
            return _canon([link.rng.random() for _ in range(16)])

        assert sample(5) == sample(5)
        assert sample(5) != sample(6)


class TestPerceptionRngRouting:
    """perception defaults construct their generators through sim.rng."""

    def test_amcl_default_rng_stable(self):
        from repro.perception.amcl import Amcl
        from repro.world.grid import OccupancyGrid

        grid = OccupancyGrid.empty(20, 20, resolution=0.25)

        def particles() -> bytes:
            amcl = Amcl(grid)
            return _canon(amcl.particles.tolist())

        assert particles() == particles()

    def test_gmapping_default_rng_stable(self):
        from repro.perception.gmapping import GMapping, GMappingConfig

        def streams() -> bytes:
            g = GMapping(GMappingConfig(n_particles=4, rows=40, cols=40))
            return _canon([rng.random() for rng in g.rngs])

        assert streams() == streams()
