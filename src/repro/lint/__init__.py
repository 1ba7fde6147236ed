"""Static analysis for simulation determinism and sim-safety.

Every headline artifact of this reproduction (fig9/fig13 tables, the
fleet and recovery ``cmp`` smoke jobs, replayable fault plans) rests on
one invariant: *a mission is a pure function of its seed*. Code under
``src/repro`` must therefore never read wall-clock time, draw unseeded
randomness, or let order-unstable iteration reach simulator state or
serialized output. ``repro.lint`` turns that convention into a
machine-checked gate: one per-file pass (stdlib :mod:`ast`, no
third-party dependencies) whose flow-sensitive checkers share a
per-function CFG (:mod:`repro.lint.cfg`), run via
``python -m repro lint``.

Checker codes
-------------

========  ==========================================================
DET001    wall-clock reads (``time.time``/``perf_counter``/…)
DET002    global ``random`` module or direct ``numpy.random`` use
DET003    iteration over sets / object-identity dict keys
DET004    ambient entropy (``os.environ``/``os.urandom``/``uuid4``)
RES001    acquire may escape a CFG path without its paired release
PRO001    2PC phase method exits without advance/abort/finalize
SIM001    reentrant ``Simulator.run`` from an event callback
SIM002    float ``==``/``!=`` on sim-time or energy quantities
SIM003    mutable default arguments
SIM004    unguarded calls through a nullable telemetry handle
SIM005    slot-reused event handle misuse (repush/stale time/seq)
LNT001    stale or reasonless ``# lint: ok`` suppression
========  ==========================================================

Suppressions: append ``# lint: ok(CODE): reason`` to the offending
line, or declare ``# lint: file-ok(CODE): reason`` anywhere in the
file. LNT001 requires the reason and flags suppressions that no longer
fire; ``repro lint --fix-suppressions`` rewrites those away. See
``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.lint.cache import LintCache
from repro.lint.cfg import CFG, build_cfg
from repro.lint.determinism import (
    AmbientEntropyChecker,
    OrderStableIterChecker,
    RandomnessChecker,
    WallClockChecker,
)
from repro.lint.engine import (
    ALL_CHECKERS,
    DEFAULT_ALLOWLIST,
    KNOWN_CODES,
    LintRun,
    lint_source,
    run_lint,
)
from repro.lint.lifecycle import EventLifecycleChecker
from repro.lint.protocol import ProtocolFSMChecker
from repro.lint.resources import ResourcePairingChecker
from repro.lint.simsafety import (
    FloatEqChecker,
    MutableDefaultChecker,
    ReentrantRunChecker,
    TelemetryGuardChecker,
)
from repro.lint.suppress import SuppressionIndex, fix_suppressions
from repro.lint.violations import Violation

__all__ = [
    "ALL_CHECKERS",
    "CFG",
    "DEFAULT_ALLOWLIST",
    "KNOWN_CODES",
    "AmbientEntropyChecker",
    "EventLifecycleChecker",
    "FloatEqChecker",
    "LintCache",
    "LintRun",
    "MutableDefaultChecker",
    "OrderStableIterChecker",
    "ProtocolFSMChecker",
    "RandomnessChecker",
    "ReentrantRunChecker",
    "ResourcePairingChecker",
    "SuppressionIndex",
    "TelemetryGuardChecker",
    "Violation",
    "WallClockChecker",
    "build_cfg",
    "fix_suppressions",
    "lint_source",
    "run_lint",
]
