"""Stateful migration, lease supervision and crash recovery.

The subsystem has four cooperating parts:

* :mod:`~repro.recovery.checkpoint` — robot-side versioned store of
  node state snapshots;
* :mod:`~repro.recovery.protocol` — the two-phase migration
  transaction (PREPARE -> TRANSFER -> COMMIT, with ABORT/rollback)
  that replaces the atomic ``Graph.move_node`` path;
* :mod:`~repro.recovery.supervisor` — lease/heartbeat failure
  detection from observable datagrams only;
* :mod:`~repro.recovery.manager` — the degraded-mode ladder and
  checkpoint-restore orchestration, wired on via
  :func:`~repro.recovery.manager.attach_recovery`.

The manager drives the offloading framework, so it is imported from
its module and not re-exported here: :mod:`repro.sites` uses the other
parts without loading :mod:`repro.core`. Nothing here runs unless
:func:`~repro.recovery.manager.attach_recovery` (or manual wiring) is
called: an unattached simulation is bit-identical to one built before
this package existed. See ``docs/recovery.md``.
"""

from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.config import RecoveryConfig
from repro.recovery.protocol import (
    ABORTED,
    COMMITTED,
    MigrationTicket,
    TwoPhaseMigrator,
)
from repro.recovery.supervisor import Lease, LeaseSupervisor

__all__ = [
    "ABORTED",
    "COMMITTED",
    "Checkpoint",
    "CheckpointStore",
    "Lease",
    "LeaseSupervisor",
    "MigrationTicket",
    "RecoveryConfig",
    "TwoPhaseMigrator",
]
