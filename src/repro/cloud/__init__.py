"""``repro.cloud`` — the multi-tenant cloud serving layer.

The fleet-scale shape the paper's §VIII-E points at: many LGVs
streaming ECN/VDP ticks into a shared :class:`WorkerPool` behind a
:class:`LoadBalancer`, served under a pluggable per-worker
:class:`Scheduler` (FIFO / EDF / processor sharing) and guarded by an
Eq. 2c-driven :class:`AdmissionController`. Pool membership is fixed at
construction; only crash/restore faults take a worker out of service
and bring it back. See ``docs/cloud.md`` and ``python -m repro fleet``.
"""

from repro.cloud.admission import (
    AdmissionController,
    AdmissionDecision,
    TenantSpec,
)
from repro.cloud.batching import BatchKey, BatchPolicy, batch_key
from repro.cloud.balancer import (
    BALANCER_NAMES,
    LeastLoadedBalancer,
    LoadBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.cloud.pool import PoolWorker, WorkerPool
from repro.cloud.request import TickRequest
from repro.cloud.scheduler import (
    SCHEDULER_NAMES,
    EdfScheduler,
    FifoScheduler,
    ProcessorSharingScheduler,
    Scheduler,
    make_scheduler,
)
from repro.cloud.tenants import RobotTenant, TenantStats

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BALANCER_NAMES",
    "BatchKey",
    "BatchPolicy",
    "EdfScheduler",
    "FifoScheduler",
    "LeastLoadedBalancer",
    "LoadBalancer",
    "PoolWorker",
    "ProcessorSharingScheduler",
    "RobotTenant",
    "RoundRobinBalancer",
    "SCHEDULER_NAMES",
    "Scheduler",
    "TenantSpec",
    "TenantStats",
    "TickRequest",
    "WorkerPool",
    "batch_key",
    "make_balancer",
    "make_scheduler",
]
