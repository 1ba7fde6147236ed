"""The analytic fleet model: several LGVs sharing one offload server.

§II notes LGVs operate "in a group"; §VIII-E closes by arguing for
saving "financial cost and resource usage on the cloud servers". This
model quantifies the server side: N robots each stream their ECN work
to one server — how many can it carry before it saturates or their VDP
makespans (and hence Eq. 2c velocities) degrade below the local
baseline?

Contention model: each robot's offloaded ticks need ``threads`` cores
for ``exec_time`` seconds at ``tick_rate``; when the aggregate
requested core-seconds exceed the machine, every request stretches by
the utilization factor (processor-sharing).

This closed-form curve is the *analytical companion* to the
event-driven serving layer in this package, whose processor-sharing
:class:`~repro.cloud.pool.PoolWorker` realizes the same discipline
tick by tick — the DES is the ground truth, and ``tests/test_cloud.py``
cross-validates this model against it in the stable region (and
checks the saturation knee past it). The admission gate
(:mod:`repro.cloud.admission`) projects with the same stretch formula,
and :func:`repro.hybrid.experiment.calibrate_fleet_model` fits the
model's service time from a DES run. For the runnable fleet experiment
see ``python -m repro fleet`` and
:func:`repro.experiments.fleet_scale.run_fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compute.executor import DWA_PROFILE, ExecutionModel, ParallelProfile
from repro.compute.platform import CLOUD_SERVER, PlatformSpec, TURTLEBOT3_PI
from repro.control.velocity_law import max_velocity_oa


@dataclass(frozen=True)
class FleetPoint:
    """Predicted per-robot service under N-robot contention."""

    n_robots: int
    utilization: float
    vdp_time_s: float
    velocity_mps: float
    beats_local: bool


@dataclass
class FleetServerModel:
    """One server shared by a fleet of identical LGVs.

    Parameters
    ----------
    server:
        The shared platform.
    vdp_cycles:
        Per-tick offloaded VDP cycles per robot.
    threads:
        Thread-pool width each robot's ticks use.
    tick_rate_hz:
        Per-robot offloaded tick rate.
    network_latency_s:
        One-way latency added to each tick's makespan.
    """

    server: PlatformSpec = CLOUD_SERVER
    vdp_cycles: float = 1.4e9
    threads: int = 8
    tick_rate_hz: float = 5.0
    network_latency_s: float = 0.02
    profile: ParallelProfile = DWA_PROFILE
    #: Measured per-tick service time (s) from a DES calibration run,
    #: used instead of the platform-constant prediction when set. This
    #: is what :func:`repro.hybrid.experiment.calibrate_fleet_model`
    #: fills in and what :class:`repro.hybrid.background.FluidBackground`
    #: re-fits during a hybrid run (absorbing derates and batching
    #: amortization the closed form cannot know about). ``None`` keeps
    #: the analytical value.
    calibrated_t_iso_s: float | None = None

    def t_iso_s(self) -> float:
        """Contention-free per-tick service time the model reasons with."""
        if self.calibrated_t_iso_s is not None:
            return self.calibrated_t_iso_s
        return ExecutionModel(self.server).exec_time(
            self.vdp_cycles, self.threads, self.profile
        )

    def service_time(self, n_robots: int) -> FleetPoint:
        """Per-robot VDP makespan with ``n_robots`` sharing the server."""
        if n_robots < 1:
            raise ValueError("n_robots must be >= 1")
        t_iso = self.t_iso_s()
        # core-seconds demanded per second of wall time
        cores_demanded = n_robots * self.tick_rate_hz * t_iso * min(
            self.threads, self.server.hardware_threads
        )
        utilization = cores_demanded / self.server.hardware_threads
        stretch = max(1.0, utilization)
        vdp = t_iso * stretch + 2.0 * self.network_latency_s
        v = max_velocity_oa(vdp, hardware_cap=1.0)
        v_local = max_velocity_oa(
            self.vdp_cycles / TURTLEBOT3_PI.effective_hz, hardware_cap=1.0
        )
        return FleetPoint(
            n_robots=n_robots,
            utilization=utilization,
            vdp_time_s=vdp,
            velocity_mps=v,
            beats_local=v > v_local,
        )

    def sweep(self, max_robots: int = 64) -> list[FleetPoint]:
        """Service curve for 1..max_robots."""
        return [self.service_time(n) for n in range(1, max_robots + 1)]


def size_fleet(model: FleetServerModel, max_robots: int = 256) -> int:
    """Largest fleet the server carries while offloading beats local.

    A fleet counts only while the server is not oversubscribed
    (utilization <= 1): past that an open-loop pool has no steady
    state, since its backlog grows without bound. Returns 0 when even a
    single robot gains nothing (e.g. terrible network latency).
    """
    best = 0
    for n in range(1, max_robots + 1):
        p = model.service_time(n)
        if p.utilization > 1.0 or not p.beats_local:
            break
        best = n
    return best
