"""``python -m repro lint`` — the command-line face of the pass.

Exit status is 0 when clean, 1 when violations were found, 2 on usage
or parse errors — so CI can gate on it directly. The cache under
``.lint-cache/`` is on by default (``--no-cache`` for a cold run), and
``--fix-suppressions`` rewrites stale ``# lint: ok(...)`` comments in
place.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.engine import KNOWN_CODES, run_lint
from repro.lint.suppress import fix_suppressions


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Determinism & sim-safety static analysis for sim code.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directory trees to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated checker codes to run (default: all)",
    )
    parser.add_argument(
        "--fix-suppressions",
        action="store_true",
        help="rewrite stale `# lint: ok(...)` comments in place (LNT001)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-hash result cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=".lint-cache",
        help="cache directory (default: .lint-cache)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)

    select = None
    if args.select:
        select = sorted({c.strip() for c in args.select.split(",") if c.strip()})
        unknown = set(select) - KNOWN_CODES
        if unknown:
            print(
                f"unknown checker code(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(KNOWN_CODES))})",
                file=sys.stderr,
            )
            return 2

    cache_dir = None if args.no_cache else args.cache_dir
    try:
        run = run_lint(args.paths, select=select, cache_dir=cache_dir)
    except (OSError, SyntaxError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.fix_suppressions:
        fixed = 0
        for fs in run.files:
            stale = [
                e
                for e in fs.suppressions.stale_entries(run.checked)
                if "LNT001" not in fs.exempt
            ]
            if stale:
                Path(fs.path).write_text(fix_suppressions(fs.source, stale))
                fixed += len(stale)
        print(
            f"repro lint: rewrote {fixed} stale suppression"
            f"{'s' if fixed != 1 else ''}",
            file=sys.stderr,
        )
        return 0

    if args.format == "json":
        print(json.dumps([v.to_json() for v in run.violations], indent=2))
    else:
        for v in run.violations:
            print(v.render())
        n = len(run.violations)
        summary = (
            f"repro lint: {n} violation{'s' if n != 1 else ''} found"
            if n
            else "repro lint: clean"
        )
        if run.cache is not None:
            summary += f" ({run.cache.hits} cached, {run.cache.misses} analyzed)"
        print(summary, file=sys.stderr)
    return 1 if run.violations else 0
