"""Tests for the wireless network: signal, link, UDP pathology, monitors, fabric."""

import math

import numpy as np
import pytest

from repro.compute import CLOUD_SERVER, EDGE_GATEWAY, Host, TURTLEBOT3_PI
from repro.network import (
    BandwidthMonitor,
    NetworkFabric,
    PathLossModel,
    ReliableChannel,
    RttMonitor,
    SignalDirectionEstimator,
    UdpChannel,
    WapSite,
    WirelessLink,
    link_quality,
)
from repro.network.signal import phy_rate
from repro.network.udp import ChannelFault
from repro.sim.rng import seeded_rng


def make_link(xy=(1.0, 0.0), seed=0, **kw):
    pos = list(xy)
    wap = WapSite(0.0, 0.0)
    link = WirelessLink(wap, lambda: (pos[0], pos[1]), seeded_rng(seed), **kw)
    return link, pos


class TestSignal:
    def test_rssi_monotone_decreasing(self):
        m = PathLossModel()
        assert m.rssi(1.0) > m.rssi(5.0) > m.rssi(20.0)

    def test_rssi_floor_distance(self):
        m = PathLossModel()
        assert m.rssi(0.0) == m.rssi(0.05)  # clamped below 0.1 m

    def test_shadow_fading_reproducible(self):
        m = PathLossModel(shadow_sigma_db=3.0)
        a = m.rssi(5.0, seeded_rng(1))
        b = m.rssi(5.0, seeded_rng(1))
        assert a == b

    def test_link_quality_saturates(self):
        assert link_quality(-40.0) > 0.99
        assert link_quality(-100.0) < 0.01
        assert 0.4 < link_quality(-76.0) < 0.6  # the knee

    def test_phy_rate_ladder(self):
        assert phy_rate(-50) == 54e6
        assert phy_rate(-70) == 12e6
        assert phy_rate(-90) == 0.0

    def test_wap_distance(self):
        w = WapSite(1.0, 1.0)
        assert w.distance_to(4.0, 5.0) == pytest.approx(5.0)


class TestWirelessLink:
    def test_airtime_scales_with_bytes(self):
        link, _ = make_link((1.0, 0.0))
        st = link.state()
        assert link.airtime(2000, st) == pytest.approx(2 * link.airtime(1000, st))

    def test_airtime_infinite_out_of_range(self):
        link, _ = make_link((500.0, 0.0))
        assert link.airtime(100) == float("inf")

    def test_tx_energy_eq1b(self):
        # E = P_trans * D / R_uplink
        link, _ = make_link((1.0, 0.0))
        st = link.state()
        expected = link.tx_power_w * 8 * 1000 / st.rate_bps
        assert link.tx_energy(1000, st) == pytest.approx(expected)

    def test_quality_degrades_with_distance(self):
        link, pos = make_link((1.0, 0.0))
        near = link.state().quality
        pos[0] = 20.0
        far = link.state().quality
        assert near > 0.9 > far


class TestUdpChannel:
    def test_good_signal_delivers(self):
        link, _ = make_link((1.0, 0.0))
        udp = UdpChannel(link)
        results = [udp.send(1000, i * 0.2) for i in range(50)]
        assert all(r is not None for r in results)
        assert udp.stats.loss_rate == 0.0

    def test_weak_signal_blocks_then_discards(self):
        # Fig. 7: first K packets buffered, the rest discarded
        link, pos = make_link((14.0, 0.0))  # inside the blocked zone
        udp = UdpChannel(link, kernel_buffer_packets=2)
        results = [udp.send(500, i * 0.2) for i in range(5)]
        assert all(r is None for r in results)
        assert udp.held_packets == 2
        assert udp.stats.dropped_buffer == 3

    def test_buffer_flushes_on_recovery(self):
        link, pos = make_link((14.0, 0.0), seed=3)
        udp = UdpChannel(link, kernel_buffer_packets=2)
        udp.send(500, 0.0)
        udp.send(500, 0.2)
        assert udp.held_packets == 2
        pos[0] = 1.0  # robot returns near the WAP
        udp.send(500, 5.0)
        assert udp.held_packets == 0
        # flushed packets recorded with their (large) held latency
        assert any(lat > 4.0 for lat in udp.stats.latencies)

    def test_latency_misleading_bandwidth_honest(self):
        """The paper's §VI argument: in the weak zone, delivered-packet
        latency still looks fine while delivery *rate* collapses."""
        link, pos = make_link((12.5, 0.0), seed=7)  # lossy but not blocked
        udp = UdpChannel(link)
        n = 200
        delivered = [udp.send(500, i * 0.2) for i in range(n)]
        got = [d for d in delivered if d is not None]
        assert udp.stats.loss_rate > 0.2  # heavy loss...
        assert float(np.median(got)) < 0.05  # ...but survivors are fast

    def test_stats_bytes(self):
        link, _ = make_link((1.0, 0.0))
        udp = UdpChannel(link)
        udp.send(1234, 0.0)
        assert udp.stats.bytes_sent == 1234
        assert udp.stats.bytes_delivered == 1234

    def test_flush_charges_held_time_to_latency_not_arrival(self):
        # Bugfix regression: a flushed packet leaves the driver at flush
        # time, so it arrives at now + transit. The held interval
        # belongs only in the latency *sample* — before the fix the
        # arrival time paid it a second time.
        link, pos = make_link((14.0, 0.0), seed=3)
        udp = UdpChannel(link, kernel_buffer_packets=2)
        udp.send(500, 0.0)
        udp.send(500, 0.2)
        pos[0] = 1.0  # signal recovers
        udp.send(500, 5.0)
        flushed = [
            (lat, arr)
            for lat, arr in zip(udp.stats.latencies, udp.stats.delivery_times)
            if lat > 4.0
        ]
        assert flushed  # at least one held packet made it out
        for lat, arr in flushed:
            # arrival = flush time + airtime, NOT flush time + held + airtime
            assert 5.0 <= arr < 5.1

    def test_explicit_flush_drains_without_a_send(self):
        # Bugfix regression: held packets must go out on a link-recovery
        # event even if the application never sends again.
        link, pos = make_link((14.0, 0.0), seed=3)
        udp = UdpChannel(link, kernel_buffer_packets=2)
        udp.send(500, 0.0)
        udp.send(500, 0.2)
        assert udp.flush(1.0) == 0  # still blocked: a no-op
        assert udp.held_packets == 2
        pos[0] = 1.0
        assert udp.flush(5.0) == 2
        assert udp.held_packets == 0
        assert udp.stats.delivered + udp.stats.dropped_air == 2

    def test_fault_blocked_overrides_good_signal(self):
        link, _ = make_link((1.0, 0.0))
        udp = UdpChannel(link, kernel_buffer_packets=4)
        udp.fault_blocked = True
        assert not udp.transmitting(link.state())
        assert udp.send(500, 0.0) is None
        assert udp.held_packets == 1
        udp.fault_blocked = False
        assert udp.flush(0.5) == 1

    def test_channel_fault_drop_counted(self):
        link, _ = make_link((1.0, 0.0))
        udp = UdpChannel(link)
        udp.fault = ChannelFault(seeded_rng(5), drop_p=1.0)
        assert udp.send(500, 0.0) is None
        assert udp.stats.dropped_fault == 1

    def test_channel_fault_duplicate_is_idempotent(self):
        link, _ = make_link((1.0, 0.0))
        udp = UdpChannel(link)
        udp.fault = ChannelFault(seeded_rng(5), duplicate_p=1.0)
        lat = udp.send(500, 0.0)
        assert lat is not None
        assert udp.stats.duplicated == 1
        assert udp.stats.delivered == 1  # the copy is not double-counted


class TestReliableChannel:
    def test_always_returns_latency(self):
        link, _ = make_link((14.0, 0.0), seed=2)
        ch = ReliableChannel(link)
        lat = ch.send(500, 0.0)
        assert lat > 0 and math.isfinite(lat)

    def test_retries_add_latency(self):
        good_link, _ = make_link((1.0, 0.0), seed=1)
        bad_link, _ = make_link((16.0, 0.0), seed=1)
        good = ReliableChannel(good_link).send(500, 0.0)
        bad = ReliableChannel(bad_link).send(500, 0.0)
        assert bad > good

    def test_invalid_retries(self):
        link, _ = make_link()
        with pytest.raises(ValueError):
            ReliableChannel(link, max_retries=-1)


class TestMonitors:
    def test_bandwidth_window(self):
        m = BandwidthMonitor(window_s=1.0)
        for t in [0.1, 0.3, 0.5, 0.7, 0.9]:
            m.record(t)
        assert m.rate(1.0) == 5.0
        assert m.rate(1.9) == 1.0  # only t=0.9 remains

    def test_bandwidth_warmup_not_diluted(self):
        # Bugfix regression: before one full window has elapsed the
        # denominator is the observable time, not the window span —
        # else a healthy stream reads artificially slow at start-up.
        m = BandwidthMonitor(window_s=1.0)
        for t in [0.1, 0.2, 0.3]:
            m.record(t)
        assert m.rate(0.4) == pytest.approx(3 / 0.4)

    def test_bandwidth_rate_at_t0_is_zero(self):
        m = BandwidthMonitor(window_s=1.0)
        assert m.rate(0.0) == 0.0

    def test_bandwidth_warmup_respects_t0(self):
        # A monitor born mid-mission clamps to time since *its* birth.
        m = BandwidthMonitor(window_s=1.0, t0=10.0)
        m.record(10.2)
        assert m.rate(10.5) == pytest.approx(2.0)

    def test_bandwidth_rejects_time_travel(self):
        m = BandwidthMonitor()
        m.record(1.0)
        with pytest.raises(ValueError):
            m.record(0.5)

    def test_rtt_percentiles(self):
        m = RttMonitor()
        for v in [0.01] * 99 + [1.0]:
            m.record(v)
        assert m.percentile(50) == pytest.approx(0.01)
        assert m.worst() == 1.0
        assert m.mean() > 0.01

    def test_rtt_empty_is_nan(self):
        m = RttMonitor()
        assert math.isnan(m.mean()) and math.isnan(m.percentile(99))

    def test_direction_away_negative(self):
        d = SignalDirectionEstimator((0.0, 0.0))
        for i, x in enumerate([1.0, 2.0, 3.0, 4.0]):
            d.record(float(i), x, 0.0)
        assert d.direction() < 0
        assert not d.approaching()

    def test_direction_toward_positive(self):
        d = SignalDirectionEstimator((0.0, 0.0))
        for i, x in enumerate([4.0, 3.0, 2.0, 1.0]):
            d.record(float(i), x, 0.0)
        assert d.direction() > 0
        assert d.approaching()

    def test_direction_unknown_is_zero(self):
        d = SignalDirectionEstimator((0.0, 0.0))
        assert d.direction() == 0.0


class TestNetworkFabric:
    def setup_method(self):
        self.energy = []
        self.link, self.pos = make_link((1.0, 0.0))
        self.fabric = NetworkFabric(
            self.link,
            wired_latency={"gw": 0.0005, "cloud": 0.02},
            energy_sink=self.energy.append,
        )
        self.lgv = Host("lgv", TURTLEBOT3_PI, on_robot=True)
        self.gw = Host("gw", EDGE_GATEWAY)
        self.cloud = Host("cloud", CLOUD_SERVER)

    def test_same_host_free(self):
        assert self.fabric.send(self.lgv, self.lgv, 100, 0.0) == 0.0

    def test_uplink_charges_energy(self):
        lat = self.fabric.send(self.lgv, self.gw, 1000, 0.0)
        assert lat is not None and lat > 0
        assert len(self.energy) == 1 and self.energy[0] > 0

    def test_downlink_free_for_robot(self):
        lat = self.fabric.send(self.gw, self.lgv, 1000, 0.0)
        assert lat is not None
        assert self.energy == []

    def test_cloud_farther_than_gateway(self):
        lat_gw = self.fabric.send(self.lgv, self.gw, 100, 0.0)
        lat_cloud = self.fabric.send(self.lgv, self.cloud, 100, 0.0)
        assert lat_cloud > lat_gw

    def test_server_to_server_wired_only(self):
        lat = self.fabric.send(self.gw, self.cloud, 100, 0.0)
        assert lat == pytest.approx(0.0205)

    def test_rtt_positive(self):
        assert self.fabric.rtt(self.lgv, self.cloud, 100, 0.0) > 0.04

    def test_no_energy_when_driver_blocked(self):
        self.pos[0] = 14.0  # blocked zone
        before = len(self.energy)
        res = self.fabric.send(self.lgv, self.gw, 1000, 0.0)
        assert res is None
        assert len(self.energy) == before  # no airtime, no energy


class TestReliableChannelExhaustion:
    """Satellite coverage: the retry budget's exact arithmetic."""

    def test_retry_exhaustion_formula(self):
        # out of range: rate 0, every attempt fails, backoff caps at 2^5
        link, _ = make_link((500.0, 0.0))
        ch = ReliableChannel(link, rto_s=0.1, max_retries=7)
        lat = ch.send(500, 0.0)
        backoff = sum(0.1 * 2 ** min(a, 5) for a in range(8))  # 12.7
        assert lat == pytest.approx(backoff + 0.1)
        assert ch.retransmissions == 8  # max_retries + 1 attempts burned

    def test_default_budget_exhaustion(self):
        link, _ = make_link((500.0, 0.0))
        ch = ReliableChannel(link)  # rto 0.2, max_retries 12
        lat = ch.send(500, 0.0)
        expected = 0.2 * (sum(2 ** min(a, 5) for a in range(13)) + 1)
        assert lat == pytest.approx(expected)
        assert math.isfinite(lat)

    def test_zero_retries_gives_up_after_one_attempt(self):
        link, _ = make_link((500.0, 0.0))
        ch = ReliableChannel(link, rto_s=0.3, max_retries=0)
        assert ch.send(500, 0.0) == pytest.approx(0.3 + 0.3)
        assert ch.retransmissions == 1

    def test_latency_grows_with_loss_rate(self):
        # quality ~1.0 at 3 m, ~0.8 at 11 m, ~0.6 at 13 m: the mean
        # reliable-send latency must climb with the loss rate
        means = []
        for d in (3.0, 11.0, 13.0):
            link, _ = make_link((d, 0.0), seed=7)
            ch = ReliableChannel(link)
            lats = [ch.send(500, i * 0.1) for i in range(200)]
            means.append(sum(lats) / len(lats))
        assert means[0] < means[1] < means[2]

    def test_out_of_range_counts_every_attempt(self):
        link, _ = make_link((500.0, 0.0))
        ch = ReliableChannel(link, max_retries=3)
        ch.send(100, 0.0)
        ch.send(100, 1.0)
        assert ch.retransmissions == 8  # 2 sends x (3 + 1) attempts


class TestReliableChannelBackoff:
    """Satellite coverage: capped exponential backoff + seeded jitter."""

    def test_schedule_is_capped_exponential(self):
        link, _ = make_link()
        ch = ReliableChannel(link, rto_s=0.1, backoff_factor=2.0, max_backoff_s=0.4)
        assert ch.backoff_schedule(5) == pytest.approx((0.1, 0.2, 0.4, 0.4, 0.4))

    def test_default_schedule_matches_legacy_formula(self):
        # The pre-backoff-parameter implementation used rto * 2^min(a, 5);
        # the defaults must reproduce it exactly (byte-identity contract).
        link, _ = make_link()
        ch = ReliableChannel(link, rto_s=0.2)
        legacy = tuple(0.2 * 2 ** min(a, 5) for a in range(13))
        assert ch.backoff_schedule() == pytest.approx(legacy)

    def test_custom_factor_changes_growth(self):
        link, _ = make_link()
        ch = ReliableChannel(link, rto_s=0.1, backoff_factor=3.0, max_backoff_s=10.0)
        assert ch.backoff_s(0) == pytest.approx(0.1)
        assert ch.backoff_s(2) == pytest.approx(0.9)

    def test_exhaustion_uses_configured_cap(self):
        link, _ = make_link((500.0, 0.0))
        ch = ReliableChannel(link, rto_s=0.1, max_retries=4, max_backoff_s=0.2)
        lat = ch.send(500, 0.0)
        # backoffs 0.1 + 0.2 + 0.2 + 0.2 + 0.2, plus the final rto
        assert lat == pytest.approx(0.9 + 0.1)

    def test_jitter_disabled_by_default_is_exact(self):
        link, _ = make_link((500.0, 0.0))
        a = ReliableChannel(link, rto_s=0.1, max_retries=6).send(500, 0.0)
        b = ReliableChannel(link, rto_s=0.1, max_retries=6).send(500, 0.0)
        assert a == b  # no RNG consumed, bitwise-equal totals

    def test_jitter_reproducible_for_same_seed(self):
        lats = []
        for _ in range(2):
            link, _ = make_link((500.0, 0.0))
            ch = ReliableChannel(
                link, rto_s=0.1, max_retries=6, jitter_frac=0.3, jitter_seed=42
            )
            lats.append(ch.send(500, 0.0))
        assert lats[0] == lats[1]

    def test_jitter_seed_changes_latency(self):
        def exhaust(seed):
            link, _ = make_link((500.0, 0.0))
            ch = ReliableChannel(
                link, rto_s=0.1, max_retries=6, jitter_frac=0.3, jitter_seed=seed
            )
            return ch.send(500, 0.0)

        assert exhaust(1) != exhaust(2)

    def test_jitter_bounded_by_fraction(self):
        link, _ = make_link((500.0, 0.0))
        ch = ReliableChannel(
            link, rto_s=0.1, max_retries=6, jitter_frac=0.3, jitter_seed=0
        )
        lat = ch.send(500, 0.0)
        clean = sum(ch.backoff_s(a) for a in range(7)) + 0.1
        assert 0.7 * clean <= lat <= 1.3 * clean

    def test_invalid_backoff_parameters(self):
        link, _ = make_link()
        with pytest.raises(ValueError):
            ReliableChannel(link, backoff_factor=0.5)
        with pytest.raises(ValueError):
            ReliableChannel(link, jitter_frac=1.0)
        with pytest.raises(ValueError):
            ReliableChannel(link, jitter_frac=-0.1)
        with pytest.raises(ValueError):
            ReliableChannel(link, rto_s=0.2, max_backoff_s=0.1)


class TestFleetRadioNetwork:
    def _net(self, **kw):
        from repro.network import FleetRadioNetwork

        waps = (WapSite(0.0, 0.0), WapSite(40.0, 0.0))
        return FleetRadioNetwork(waps, **kw)

    def test_needs_a_wap(self):
        from repro.network import FleetRadioNetwork

        with pytest.raises(ValueError):
            FleetRadioNetwork(())

    def test_attach_picks_nearest_wap(self):
        net = self._net()
        near0 = net.attach("r0", (2.0, 1.0))
        near1 = net.attach("r1", (38.0, 1.0))
        assert near0.wap is net.waps[0]
        assert near1.wap is net.waps[1]

    def test_attach_twice_rejected(self):
        net = self._net()
        net.attach("r0", (2.0, 1.0))
        with pytest.raises(ValueError):
            net.attach("r0", (3.0, 1.0))

    def test_latency_includes_wired_hop(self):
        net = self._net(wired_latency_s=0.02)
        net.attach("r0", (2.0, 1.0))
        up = net.uplink_latency("r0", 1000, 0.0)
        assert up is not None and up > 0.02

    def test_per_tenant_streams_independent_and_seeded(self):
        a = self._net(seed=5)
        b = self._net(seed=5)
        for net in (a, b):
            net.attach("r0", (2.0, 1.0))
            net.attach("r1", (2.0, 1.0))
        lat_a = [a.uplink_latency("r0", 500, i * 0.1) for i in range(20)]
        lat_b = [b.uplink_latency("r0", 500, i * 0.1) for i in range(20)]
        assert lat_a == lat_b  # same seed -> bit-identical
        lat_other = [a.uplink_latency("r1", 500, i * 0.1) for i in range(20)]
        assert lat_other != lat_a  # distinct per-tenant streams

    def test_tenants_in_attach_order(self):
        net = self._net()
        net.attach("r1", (2.0, 1.0))
        net.attach("r0", (2.0, 1.0))
        assert net.tenants() == ("r1", "r0")

    def test_flush_held_drains_all_tenants(self):
        net = self._net()
        net.attach("r0", (14.0, 0.0))  # blocked zone: sends are held
        assert net.uplink_latency("r0", 500, 0.0) is None
        assert net.flush_held(1.0) >= 0

    def test_position_provider_tracks_motion(self):
        # A driving tenant's bandwidth must follow its position, not
        # freeze at the attach-time location.
        net = self._net()
        pos = [2.0, 0.0]
        link = net.attach("r0", lambda: (pos[0], pos[1]))
        near = link.state()
        pos[0] = 14.0  # drive toward the unstable fringe
        far = link.state()
        assert far.distance_m > near.distance_m
        assert far.rate_bps < near.rate_bps

    def test_detach_then_reattach_resumes_stream(self):
        # detach + re-attach at the same WAP must replay the exact
        # fading sequence an uninterrupted association would have.
        a = self._net(seed=3)
        b = self._net(seed=3)
        a.attach("r0", (2.0, 1.0))
        b.attach("r0", (2.0, 1.0))
        uninterrupted = [a.uplink_latency("r0", 500, i * 0.1) for i in range(24)]
        first = [b.uplink_latency("r0", 500, i * 0.1) for i in range(12)]
        b.detach("r0")
        assert "r0" not in b.tenants()
        b.attach("r0", (2.0, 1.0))
        rest = [b.uplink_latency("r0", 500, (12 + i) * 0.1) for i in range(12)]
        assert first + rest == uninterrupted

    def test_detach_unknown_raises(self):
        net = self._net()
        with pytest.raises(KeyError):
            net.detach("ghost")

    def test_reassociate_follows_the_tenant(self):
        net = self._net()
        pos = [2.0, 0.0]
        link = net.attach("r0", lambda: (pos[0], pos[1]))
        assert link.wap is net.waps[0]
        pos[0] = 38.0
        net.reassociate("r0")
        assert link.wap is net.waps[1]
        # RNG stream untouched by the re-association
        rng_before = link.rng
        net.reassociate("r0")
        assert link.rng is rng_before

    @staticmethod
    def _far_deliveries(waps):
        """Datagrams delivered beyond x = 20 m on a 2 -> 28 m drive that
        re-picks the nearest WAP before each of its 120 sends."""
        from repro.network import FleetRadioNetwork

        net = FleetRadioNetwork(waps, seed=1)
        pos = [2.0, 0.0]
        net.attach("r0", lambda: (pos[0], pos[1]))
        far = 0
        for i, x in enumerate(np.linspace(2, 28, 120)):
            pos[0] = float(x)
            net.reassociate("r0")
            if net.uplink_latency("r0", 500, i * 0.2) is not None and x > 20:
                far += 1
        return far

    def test_roaming_keeps_the_far_end_covered(self):
        """§X's prior-work robustness: a second WAP to roam to serves the
        far end of the drive, which one WAP leaves a dead zone."""
        assert self._far_deliveries((WapSite(0.0, 0.0), WapSite(30.0, 0.0))) > 10
        assert self._far_deliveries((WapSite(0.0, 0.0),)) == 0

    def test_set_blocked_covers_future_attaches(self):
        net = self._net()
        net.attach("r0", (2.0, 1.0))
        net.set_blocked(True)
        assert net.link("r0").fault_blocked
        late = net.attach("r1", (2.0, 1.0))
        assert late.fault_blocked
        net.set_blocked(False)
        assert not net.link("r0").fault_blocked
        assert not late.fault_blocked
