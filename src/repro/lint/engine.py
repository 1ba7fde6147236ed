"""Run the checkers over files and trees: one per-file pass.

Every checker (``ALL_CHECKERS``) sees one module at a time, so a file's
raw findings depend only on its bytes and on which checkers ran, and
are cacheable by content hash (:mod:`repro.lint.cache`).

Suppressions and the allowlist are always applied live: the allowlist
first (an allowlisted finding never marks a suppression as "used"),
then inline suppressions, whose usage ledger feeds LNT001 (stale or
reasonless suppressions).
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from fnmatch import fnmatch
from pathlib import Path

from repro.lint.base import Checker, collect_aliases
from repro.lint.cache import LintCache
from repro.lint.determinism import (
    AmbientEntropyChecker,
    OrderStableIterChecker,
    RandomnessChecker,
    WallClockChecker,
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
from repro.lint.suppress import SuppressionIndex
from repro.lint.violations import Violation

#: Every per-file checker, in code order.
ALL_CHECKERS: tuple[type[Checker], ...] = (
    WallClockChecker,
    RandomnessChecker,
    OrderStableIterChecker,
    AmbientEntropyChecker,
    ProtocolFSMChecker,
    ResourcePairingChecker,
    ReentrantRunChecker,
    FloatEqChecker,
    MutableDefaultChecker,
    TelemetryGuardChecker,
    EventLifecycleChecker,
)

#: Every code ``--select`` accepts: the checkers' plus LNT001, which
#: is computed from the run itself.
KNOWN_CODES = frozenset(c.code for c in ALL_CHECKERS) | {"LNT001"}

#: Path-glob -> codes exempted there. These are the *structural*
#: exemptions — places whose whole purpose is the thing the rule bans.
#: One-off sites use inline ``# lint: ok(CODE): reason`` instead.
DEFAULT_ALLOWLIST: tuple[tuple[str, tuple[str, ...]], ...] = (
    # the one sanctioned construction site for numpy generators
    ("*/repro/sim/rng.py", ("DET002",)),
    # telemetry holds the wall-clock fallback for untraced spans and
    # calls its own (non-nullable) surfaces internally
    ("*/repro/telemetry/*", ("DET001", "SIM004")),
    # CLI progress timing is operator-facing wall time by design
    ("*/repro/cli.py", ("DET001",)),
    # the kernel self-profiler measures the host, not the simulation,
    # and the obs layer mirrors telemetry's internal-surface pattern
    ("*/repro/obs/*", ("DET001", "SIM004")),
    # benchmarks measure real compute on real cores
    ("*benchmarks/*", ("DET001", "DET002")),
    # the kernel/event modules *implement* the slot-reuse lifecycle the
    # rule protects; their repush sites are the definition, not misuse
    ("*/repro/sim/kernel.py", ("SIM005",)),
    ("*/repro/sim/events.py", ("SIM005",)),
    # lint's own docstrings/regexes spell out suppression syntax, which
    # the textual parser cannot tell from real suppressions
    ("*/repro/lint/*", ("LNT001",)),
)


def allowed_codes(path: str, allowlist: Sequence[tuple[str, Sequence[str]]]) -> frozenset[str]:
    """Codes exempted for ``path`` under ``allowlist``."""
    posix = Path(path).as_posix()
    out: set[str] = set()
    for pattern, codes in allowlist:
        if fnmatch(posix, pattern):
            out.update(codes)
    return frozenset(out)


def _checkers(select: Sequence[str] | None) -> list[type[Checker]]:
    """The checkers ``select`` names, in code order (all when None)."""
    if select is None:
        return list(ALL_CHECKERS)
    wanted = frozenset(select)
    return [c for c in ALL_CHECKERS if c.code in wanted]


def _analyze(
    source: str, path: str, checkers: Sequence[type[Checker]]
) -> list[Violation]:
    """Raw per-file results: the pre-suppression violations."""
    tree = ast.parse(source, filename=path)
    aliases = collect_aliases(tree)
    found: set[Violation] = set()
    for cls in checkers:
        found.update(cls(path, tree, aliases).run())
    return sorted(found)


class FileState:
    """One file's source, raw findings, suppressions and exemptions."""

    __slots__ = ("path", "source", "raw", "suppressions", "exempt")

    def __init__(
        self,
        path: str,
        source: str,
        raw: list[Violation],
        allowlist: Sequence[tuple[str, Sequence[str]]],
    ) -> None:
        self.path = path
        self.source = source
        self.raw = raw
        self.suppressions = SuppressionIndex(source)
        self.exempt = allowed_codes(path, allowlist)


class LintRun:
    """A finished run: the findings plus everything needed to act on them.

    ``checked`` holds the codes that ran, plus ``"*"`` when every
    checker did: the codes whose suppressions this run can judge stale.
    """

    def __init__(
        self,
        violations: list[Violation],
        files: list[FileState],
        cache: LintCache | None,
        checked: frozenset[str],
    ) -> None:
        self.violations = violations
        self.files = files
        self.cache = cache
        self.checked = checked


def lint_source(
    source: str,
    path: str = "<string>",
    select: Sequence[str] | None = None,
) -> list[Violation]:
    """Lint a source string with the checkers ``select`` names.

    Suppressions apply; the allowlist and LNT001 do not. This is the
    unit-test surface for individual rules.
    """
    raw = _analyze(source, path, _checkers(select))
    suppressions = SuppressionIndex(source)
    return [v for v in raw if not suppressions.is_suppressed(v.code, v.line)]


def _collect_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def run_lint(
    paths: Sequence[str | Path],
    allowlist: Sequence[tuple[str, Sequence[str]]] = DEFAULT_ALLOWLIST,
    select: Sequence[str] | None = None,
    cache_dir: str | Path | None = None,
) -> LintRun:
    """Lint files and/or directory trees; output order is stable.

    ``select`` limits the run to the named codes (LNT001 included);
    ``cache_dir`` enables the content-hash cache.
    """
    per_file = _checkers(select)
    per_file_codes = frozenset(c.code for c in per_file)
    checked = per_file_codes | ({"*"} if len(per_file) == len(ALL_CHECKERS) else set())
    run_stale = select is None or "LNT001" in select

    cache = LintCache(cache_dir) if cache_dir is not None else None
    states: list[FileState] = []
    for f in _collect_files(paths):
        posix = f.as_posix()
        source = f.read_text()
        if cache is None:
            raw = _analyze(source, posix, per_file)
        else:
            key = cache.key(source.encode(), per_file_codes)
            hit = cache.load(key)
            if hit is None:
                hit = _analyze(source, posix, per_file)
                cache.store(key, hit)
            raw = hit
        states.append(FileState(posix, source, raw, allowlist))

    violations: list[Violation] = []
    for fs in states:
        violations.extend(
            v
            for v in fs.raw
            if v.code not in fs.exempt
            and not fs.suppressions.is_suppressed(v.code, v.line)
        )

    if run_stale:
        for fs in states:
            if "LNT001" in fs.exempt:
                continue
            for entry in fs.suppressions.stale_entries(checked):
                unused = sorted(entry.unused_codes())
                violations.append(
                    Violation(
                        path=fs.path,
                        line=entry.lineno,
                        col=entry.span[0],
                        code="LNT001",
                        message=(
                            "stale suppression: "
                            + ", ".join(unused)
                            + " no longer suppress anything here; remove or "
                            "narrow (repro lint --fix-suppressions)"
                        ),
                    )
                )
            for entry in fs.suppressions.entries:
                if entry.reason is None:
                    violations.append(
                        Violation(
                            path=fs.path,
                            line=entry.lineno,
                            col=entry.span[0],
                            code="LNT001",
                            message=(
                                "suppression without a reason; write "
                                "`# lint: ok(CODE): why this is legitimate`"
                            ),
                        )
                    )

    return LintRun(sorted(set(violations)), states, cache, checked)
