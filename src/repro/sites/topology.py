"""Edge-site topology: serving sites with coverage areas, and the
wired metro backhaul between them.

An :class:`EdgeSite` bundles everything one serving location owns: its
WAPs (and therefore its radio propagation footprint), a gateway host
that terminates the site's control plane, a :class:`~repro.cloud.pool.
WorkerPool` of serving VMs and the site's own Eq. 2c
:class:`~repro.cloud.admission.AdmissionController`. A
:class:`SiteTopology` is the city: the registry the selector and the
handoff machinery query for coverage and health.

:class:`SiteBackhaul` is the wired fabric between site gateways — the
transport inter-site 2PC handoffs ride. Like
:class:`~repro.network.fabric.NetworkFabric`, a dead endpoint drops
datagrams (``send`` -> ``None``) and makes reliable round-trips burn
the full retransmission budget (``rtt`` -> a timeout-blowing constant),
so the migration protocol *observes* a site outage at whichever phase
runs after it instead of consulting an oracle.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.cloud import make_balancer, make_scheduler
from repro.cloud.admission import AdmissionController
from repro.cloud.pool import WorkerPool
from repro.compute.host import Host
from repro.compute.platform import CLOUD_SERVER, EDGE_GATEWAY, PlatformSpec
from repro.network.fabric import FleetRadioNetwork
from repro.network.signal import PathLossModel, WapSite
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.batching import BatchPolicy
    from repro.telemetry import Telemetry


def coverage_path_loss(coverage_radius_m: float) -> PathLossModel:
    """A path-loss model whose link-quality knee sits at the coverage edge.

    The default :class:`~repro.network.signal.PathLossModel` knees at
    ~14 m regardless of a site's declared coverage. Scaling transmit
    power so RSSI crosses the -76 dBm quality knee exactly at
    ``coverage_radius_m`` makes "covered" mean "usable radio": solid
    well inside the radius, unstable at the fringe, and dead only at
    ~1.7x the radius (where the MCS ladder bottoms out). A lease
    therefore survives a little *past* the coverage edge — long enough
    for a 2PC handoff to run inside an overlap region instead of
    every site transition going through lease expiry.
    """
    base = PathLossModel()
    tx = (
        -76.0
        + base.ref_loss_db
        + 10.0 * base.exponent * math.log10(coverage_radius_m)
    )
    return PathLossModel(tx_power_dbm=tx)


class EdgeSite:
    """One serving site: WAPs + gateway + pool + admission gate.

    Parameters
    ----------
    sim, name:
        The simulator and the site's (unique) name; hosts are named
        ``{name}-gw`` and ``{name}-vm{i}``.
    center:
        Site coordinates; WAPs sit at ``center + offset`` for each
        entry of ``wap_offsets``.
    coverage_radius_m:
        The OpenCDA-style coverage threshold: the site serves a tenant
        only while the tenant is within this distance of one of the
        site's WAPs.
    wired_latency_s:
        One-way WAP -> pool latency, also this site's share of any
        backhaul path.
    seed:
        Fleet-radio base seed; the site derives its own stream from it
        and its name, so per-site radios are independent but the whole
        city is a pure function of ``seed``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        center: tuple[float, float],
        *,
        coverage_radius_m: float = 16.0,
        wired_latency_s: float = 0.004,
        n_workers: int = 2,
        wap_offsets: Sequence[tuple[float, float]] = ((0.0, 0.0),),
        scheduler: str = "edf",
        balancer: str = "least-loaded",
        seed: int = 0,
        worker_platform: PlatformSpec = CLOUD_SERVER,
        telemetry: "Telemetry | None" = None,
        batching: "BatchPolicy | None" = None,
    ) -> None:
        if coverage_radius_m <= 0:
            raise ValueError(
                f"coverage_radius_m must be > 0, got {coverage_radius_m}"
            )
        self.sim = sim
        self.name = name
        self.x, self.y = center
        self.coverage_radius_m = coverage_radius_m
        self.wired_latency_s = wired_latency_s
        model = coverage_path_loss(coverage_radius_m)
        self.waps = tuple(
            WapSite(self.x + dx, self.y + dy, model) for dx, dy in wap_offsets
        )
        self.radio = FleetRadioNetwork(
            self.waps,
            wired_latency_s=wired_latency_s,
            seed=(seed * 1000003 + zlib.crc32(name.encode())) % 2**31,
        )
        self.gateway = Host(f"{name}-gw", EDGE_GATEWAY)
        hosts = [Host(f"{name}-vm{i}", worker_platform) for i in range(n_workers)]
        self.pool = WorkerPool(
            sim,
            hosts,
            make_scheduler(scheduler),
            make_balancer(balancer),
            telemetry=telemetry,
            batching=batching,
        )
        self.controller = AdmissionController(
            self.pool, network_latency_s=wired_latency_s, telemetry=telemetry
        )

    # ------------------------------------------------------------------
    # Geometry / health
    # ------------------------------------------------------------------
    def distance_to(self, xy: tuple[float, float]) -> float:
        """Distance from ``xy`` to the site's nearest WAP."""
        return min(w.distance_to(*xy) for w in self.waps)

    def covers(self, xy: tuple[float, float]) -> bool:
        """Whether ``xy`` is inside the site's coverage threshold."""
        return self.distance_to(xy) <= self.coverage_radius_m

    @property
    def up(self) -> bool:
        """Site health: gateway reachable and at least one worker live."""
        return self.gateway.up and self.pool.has_live_workers()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EdgeSite({self.name!r}, ({self.x}, {self.y}), "
            f"r={self.coverage_radius_m}, workers={len(self.pool.workers)})"
        )


class SiteTopology:
    """The city: every serving site, with coverage and health lookups."""

    def __init__(self, sites: Sequence[EdgeSite]) -> None:
        if not sites:
            raise ValueError("a SiteTopology needs at least one site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {names}")
        self.sites = tuple(sites)
        self._by_name = {s.name: s for s in self.sites}
        self._by_gateway = {s.gateway.name: s for s in self.sites}

    def site(self, name: str) -> EdgeSite:
        """The site called ``name`` (KeyError for unknown names)."""
        return self._by_name[name]

    def by_gateway(self, host_name: str) -> EdgeSite | None:
        """The site whose gateway host is ``host_name``, if any."""
        return self._by_gateway.get(host_name)

    def gateways(self) -> tuple[Host, ...]:
        """Every site's gateway host, in site order."""
        return tuple(s.gateway for s in self.sites)

    def covering(self, xy: tuple[float, float]) -> list[EdgeSite]:
        """Healthy sites covering ``xy``, nearest first (OpenCDA sort).

        Distance ties break on the site name, so the ordering — and
        everything downstream of it — is deterministic.
        """
        return sorted(
            (s for s in self.sites if s.up and s.covers(xy)),
            key=lambda s: (s.distance_to(xy), s.name),
        )

    def nearest(self, xy: tuple[float, float]) -> EdgeSite:
        """The nearest site regardless of coverage or health."""
        return min(self.sites, key=lambda s: (s.distance_to(xy), s.name))


class SiteBackhaul:
    """Wired metro fabric between site gateways (the 2PC transport).

    Parameters
    ----------
    topology:
        Site registry; each endpoint's site contributes its
        ``wired_latency_s`` to the path.
    base_latency_s:
        Metro-core crossing latency added to every inter-site path.
    bandwidth_bps:
        Serialization rate for bulk payloads (session-state transfers).
    dead_rtt_s:
        What a reliable round-trip to a dead gateway costs — the full
        retransmission budget, far beyond any phase timeout, mirroring
        :meth:`repro.network.fabric.NetworkFabric.reliable_send`.
    """

    def __init__(
        self,
        topology: SiteTopology,
        base_latency_s: float = 0.003,
        bandwidth_bps: float = 200e6,
        dead_rtt_s: float = 48.0,
    ) -> None:
        self.topology = topology
        self.base_latency_s = base_latency_s
        self.bandwidth_bps = bandwidth_bps
        self.dead_rtt_s = dead_rtt_s

    def _one_way(self, src: Host, dst: Host, n_bytes: int) -> float:
        lat = self.base_latency_s + 8.0 * n_bytes / self.bandwidth_bps
        for h in (src, dst):
            site = self.topology.by_gateway(h.name)
            if site is not None:
                lat += site.wired_latency_s
        return lat

    def send(self, src: Host, dst: Host, n_bytes: int, now: float) -> float | None:
        """Datagram latency gateway-to-gateway; None if an end is dead."""
        if src is dst:
            return 0.0
        if not src.up or not dst.up:
            return None
        return self._one_way(src, dst, n_bytes)

    def rtt(self, a: Host, b: Host, n_bytes: int, now: float) -> float:
        """Reliable round trip; a dead endpoint burns the retry budget."""
        if a is b:
            return 0.0
        if not a.up or not b.up:
            return self.dead_rtt_s
        return self._one_way(a, b, n_bytes) + self._one_way(b, a, 64)


def triangle_city(
    sim: Simulator,
    *,
    side_m: float = 50.0,
    coverage_radius_m: float = 16.0,
    n_workers: int = 2,
    scheduler: str = "edf",
    balancer: str = "least-loaded",
    seed: int = 0,
    telemetry: "Telemetry | None" = None,
    batching: "BatchPolicy | None" = None,
) -> SiteTopology:
    """Three sites on a triangle — the geo experiment's standard city.

    Sites sit at the vertices; the circuit along the edges passes
    through each site's footprint and, between footprints, through
    genuine dead zones (no site covers mid-edge when
    ``coverage_radius_m < side_m / 2``).
    """
    height = side_m * math.sqrt(3.0) / 2.0
    centers = {
        "siteA": (0.0, 0.0),
        "siteB": (side_m, 0.0),
        "siteC": (side_m / 2.0, height),
    }
    sites = [
        EdgeSite(
            sim,
            name,
            center,
            coverage_radius_m=coverage_radius_m,
            n_workers=n_workers,
            scheduler=scheduler,
            balancer=balancer,
            seed=seed,
            telemetry=telemetry,
            batching=batching,
        )
        for name, center in centers.items()
    ]
    return SiteTopology(sites)
