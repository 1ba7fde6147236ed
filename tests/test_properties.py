"""Property-based tests: cross-module invariants under hypothesis.

These complement the per-module suites with the algebraic guarantees
the system's correctness rests on: conservation (packets, energy),
monotonicity (costs, velocities) and determinism.
"""


import pytest
from hypothesis import given, settings, strategies as st

from repro.compute.executor import ExecutionModel, SLAM_PROFILE
from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY, TURTLEBOT3_PI
from repro.control.velocity_law import max_velocity_oa
from repro.core.bottleneck import classify_nodes, NodeClass
from repro.core.model import energy_compute, energy_motor, energy_transmission
from repro.network.link import WirelessLink
from repro.network.signal import PathLossModel, WapSite, link_quality, phy_rate
from repro.network.udp import UdpChannel
from repro.sim import Simulator
from repro.sim.rng import seeded_rng
from repro.vehicle.kinematics import DiffDriveState, step_diff_drive
from repro.world.geometry import Pose2D, angle_diff


class TestConservation:
    @given(st.lists(st.floats(0.2, 30.0), min_size=1, max_size=80), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_udp_packet_conservation(self, distances, seed):
        """sent == delivered + dropped_air + dropped_buffer + still-held."""
        pos = [distances[0], 0.0]
        link = WirelessLink(WapSite(0, 0), lambda: (pos[0], pos[1]), seeded_rng(seed))
        udp = UdpChannel(link)
        for i, d in enumerate(distances):
            pos[0] = d
            udp.send(500, i * 0.2)
        s = udp.stats
        assert s.sent == s.delivered + s.dropped_air + s.dropped_buffer + udp.held_packets

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_battery_never_negative(self, draws):
        from repro.vehicle import Battery

        b = Battery(0.01)
        for d in draws:
            b.draw(d * 10)
        assert 0.0 <= b.remaining_j <= b.capacity_j
        assert 0.0 <= b.state_of_charge <= 1.0


class TestMonotonicity:
    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=50)
    def test_velocity_law_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert max_velocity_oa(hi) <= max_velocity_oa(lo) + 1e-12

    @given(st.floats(0.1, 100.0), st.floats(0.1, 100.0))
    @settings(max_examples=50)
    def test_rssi_monotone_in_distance(self, a, b):
        lo, hi = sorted((a, b))
        m = PathLossModel()
        assert m.rssi(hi) <= m.rssi(lo)

    @given(st.floats(-110, -30), st.floats(-110, -30))
    @settings(max_examples=50)
    def test_quality_and_rate_monotone_in_rssi(self, a, b):
        lo, hi = sorted((a, b))
        assert link_quality(lo) <= link_quality(hi)
        assert phy_rate(lo) <= phy_rate(hi)

    @given(st.floats(1e6, 1e11), st.floats(1e6, 1e11), st.integers(1, 24))
    @settings(max_examples=50)
    def test_exec_time_monotone_in_cycles(self, c1, c2, threads):
        lo, hi = sorted((c1, c2))
        m = ExecutionModel(CLOUD_SERVER)
        assert m.exec_time(lo, threads, SLAM_PROFILE) <= m.exec_time(hi, threads, SLAM_PROFILE)

    @given(st.floats(1e6, 1e12))
    @settings(max_examples=30)
    def test_faster_platform_never_slower(self, cycles):
        t_pi = TURTLEBOT3_PI.serial_time(cycles)
        t_gw = EDGE_GATEWAY.serial_time(cycles)
        assert t_gw < t_pi


class TestEnergyAlgebra:
    @given(st.floats(0, 1e12), st.floats(0, 1e12))
    @settings(max_examples=40)
    def test_compute_energy_additive(self, c1, c2):
        k, f = 2e-27, 1.4e9
        total = energy_compute(k, c1 + c2, f)
        parts = energy_compute(k, c1, f) + energy_compute(k, c2, f)
        assert total == pytest.approx(parts, rel=1e-12)

    @given(st.floats(0, 1e7), st.floats(0, 1e7), st.floats(1e6, 1e8))
    @settings(max_examples=40)
    def test_transmission_energy_additive(self, d1, d2, rate):
        total = energy_transmission(1.2, d1 + d2, rate)
        parts = energy_transmission(1.2, d1, rate) + energy_transmission(1.2, d2, rate)
        assert total == pytest.approx(parts, rel=1e-12)

    @given(st.floats(0, 1), st.floats(0, 100), st.floats(0, 100))
    @settings(max_examples=40)
    def test_motor_energy_additive_in_time(self, v, t1, t2):
        e = energy_motor(0.5, 1.0, v, 0.0, 0.6, t1 + t2)
        parts = energy_motor(0.5, 1.0, v, 0.0, 0.6, t1) + energy_motor(0.5, 1.0, v, 0.0, 0.6, t2)
        assert e == pytest.approx(parts, rel=1e-9, abs=1e-9)


class TestKinematicsProperties:
    @given(
        st.floats(-1, 1), st.floats(-2.8, 2.8),
        st.floats(-1, 1), st.floats(-2.8, 2.8),
        st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_substepping_consistency(self, v0, w0, cmd_v, cmd_w, n):
        """Integrating one dt or n sub-dts lands within numerical slop.

        (Exact when velocities have converged to the command; bounded
        drift during the slew phase.)"""
        s = DiffDriveState(Pose2D(), v=cmd_v, w=cmd_w)  # already at command
        dt = 0.2
        one = step_diff_drive(s, cmd_v, cmd_w, dt)
        many = s
        for _ in range(n):
            many = step_diff_drive(many, cmd_v, cmd_w, dt / n)
        assert one.pose.distance_to(many.pose) < 1e-9
        assert abs(angle_diff(one.pose.theta, many.pose.theta)) < 1e-9

    @given(st.floats(-0.5, 0.5), st.floats(-2, 2), st.floats(0.01, 0.5))
    @settings(max_examples=40)
    def test_speed_never_exceeds_command_envelope(self, cmd_v, cmd_w, dt):
        s = DiffDriveState(Pose2D())
        for _ in range(10):
            s = step_diff_drive(s, cmd_v, cmd_w, dt)
        assert abs(s.v) <= abs(cmd_v) + 1e-9
        assert abs(s.w) <= abs(cmd_w) + 1e-9


class TestSimulatorProperties:
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_event_execution_time_ordered(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda t=t: fired.append(sim.now()))
        sim.run()
        assert fired == sorted(fired)
        assert sim.now() == max(times)

    @given(
        st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(0, 20)), min_size=1, max_size=8)
    )
    @settings(max_examples=30, deadline=None)
    def test_periodic_fire_counts(self, procs):
        sim = Simulator()
        counters = []
        horizon = 10.0
        for period, _ in procs:
            c = [0]
            counters.append(c)
            sim.every(period, lambda c=c: c.__setitem__(0, c[0] + 1))
        sim.run(until=horizon)
        for (period, _), c in zip(procs, counters):
            # fp accumulation may push the last firing just past the
            # horizon (or just inside it): exact count +/- 1
            assert abs(c[0] - horizon / period) <= 1.0


class TestClassificationProperties:
    @given(
        st.dictionaries(
            st.sampled_from(
                ["localization", "slam", "costmap_gen", "path_planning",
                 "exploration", "path_tracking", "velocity_mux"]
            ),
            st.floats(0, 1e12),
            min_size=1,
        )
    )
    @settings(max_examples=50)
    def test_every_node_gets_exactly_one_class(self, cycles):
        cls = classify_nodes(cycles)
        assert set(cls.classes) == set(cycles)
        # the four sets partition the node set
        all_nodes = sum((list(cls.nodes_in(c)) for c in NodeClass), [])
        assert sorted(all_nodes) == sorted(cycles)

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.floats(0, 1e12), min_size=1))
    @settings(max_examples=50)
    def test_offload_sets_disjoint_from_pinned(self, cycles):
        cls = classify_nodes(cycles)
        assert "velocity_mux" not in cls.offload_for_energy
        assert set(cls.offload_for_time) <= set(cls.offload_for_energy)
