"""Incremental lint cache: per-file results keyed by content hash.

A file's *raw* analysis — its pre-suppression violations — depends
only on its bytes and on which checkers ran. It is JSON, so the engine
persists it under ``.lint-cache/`` keyed by
``sha256(schema | checker codes | file bytes)`` and re-parses only the
files that changed since the last run. Everything contextual —
suppression filtering, the allowlist, LNT001 — is recomputed live,
which is what keeps a warm full-repo run well inside the CI runtime
budget.

Bump :data:`SCHEMA` whenever a checker's behaviour changes; stale
entries are simply never read again (the directory is disposable —
``rm -rf .lint-cache`` is always safe).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from pathlib import Path

from repro.lint.violations import Violation

#: Cache format / checker-behaviour version; bump to invalidate everything.
SCHEMA = 1


class LintCache:
    """Content-addressed store of per-file lint results."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: Observability counters for the CLI's cache summary line.
        self.hits = 0
        self.misses = 0

    def key(self, source: bytes, codes: Iterable[str]) -> str:
        h = hashlib.sha256()
        h.update(f"lint-cache:{SCHEMA}:".encode())
        h.update(",".join(sorted(codes)).encode())
        h.update(b":")
        h.update(source)
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> list[Violation] | None:
        """Cached raw violations, or None."""
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        try:
            violations = [Violation(**v) for v in payload["violations"]]
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return violations

    def store(self, key: str, violations: list[Violation]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"violations": [v.to_json() for v in violations]}
        tmp = self._path(key).with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(payload))
            tmp.replace(self._path(key))
        except OSError:
            # a read-only tree degrades to cold runs, never to failure
            pass
