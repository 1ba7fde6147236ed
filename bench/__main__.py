"""Command line: ``python -m bench run ...`` and ``python -m bench compare ...``.

    python -m bench run --workload explore --seed 0 --seconds 25 --trace 0
    python -m bench run --seed 1 --trace 1          # all four workloads
    python -m bench compare base.json change.json

``run`` prints every metric with its unit and the sample count, and as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones). Each run is appended to the ledger
``--out``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import compare, harness
from bench.workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    spec = harness.load_spec()

    run = sub.add_parser("run", help="measure one workload or all of them")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=spec["run_seconds"])
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument(
        "--smoke", action="store_true", help="shortened horizons (for tests)"
    )
    run.add_argument(
        "--out", type=Path, default=harness.RUNS_DIR / "runs.json",
        help="ledger the run is appended to",
    )

    cmp = sub.add_parser("compare", help="parent ledger against change ledger")
    cmp.add_argument("base", type=Path)
    cmp.add_argument("change", type=Path)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.compare(args.base, args.change, spec)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    return harness.run(
        workloads, args.seed, args.seconds, bool(args.trace), args.smoke, args.out
    )


if __name__ == "__main__":
    sys.exit(main())
