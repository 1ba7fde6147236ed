"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro list
    python -m repro table1 table2 fig11
    python -m repro all            # everything (the Fig. 13 matrix is slow)
    python -m repro fig12 --trace-out fig12_trace.json
    python -m repro trace fig9 --trace-out /tmp/t.json --metrics-out /tmp/m.json
    python -m repro fleet --robots 16 --workers 2 --scheduler edf --fleet-out cap.json
    python -m repro fleet --hybrid --tenants 100000 --focal 16 --fleet-out hybrid.json

Each artifact prints its regenerated table or ASCII chart. With
``--trace-out`` / ``--metrics-out`` (or the ``trace`` command, which
implies both) the run is instrumented: a Chrome trace-event JSON —
loadable at https://ui.perfetto.dev — and a metrics snapshot are
written, and a telemetry report is printed after the artifact output.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable

from repro.cloud import SCHEDULER_NAMES
from repro.experiments.ablations import (
    run_ablation_migration_granularity,
    run_ablation_netqual_metric,
    run_ablation_velocity_adaptation,
)
from repro.experiments.chaos import run_chaos
from repro.experiments.fig7_udp import run_fig7
from repro.experiments.fig9_ecn import run_fig9
from repro.experiments.fig10_vdp import run_fig10
from repro.experiments.fig11_network import run_fig11
from repro.experiments.fig12_velocity import run_fig12
from repro.experiments.fig13_endtoend import run_fig13
from repro.experiments.fig14_adaptivity import run_fig14
from repro.experiments.fleet_scale import run_fleet
from repro.experiments.geo import run_geo
from repro.experiments.recover import run_recovery
from repro.experiments.table1_power import run_table1
from repro.experiments.table2_cycles import run_table2
from repro.experiments.table3_platforms import run_table3
from repro.telemetry import Telemetry, render_report

#: Artifact name -> (runner, description). Every runner accepts an
#: optional ``telemetry=`` sink.
ARTIFACTS: dict[str, tuple[Callable[..., object], str]] = {
    "table1": (run_table1, "component power budgets (input data)"),
    "table2": (run_table2, "cycle breakdown + ECN identification (~3 s)"),
    "table3": (run_table3, "platform specifications"),
    "fig7": (run_fig7, "UDP kernel-buffer discard trace"),
    "fig9": (run_fig9, "ECN (SLAM) acceleration sweep"),
    "fig10": (run_fig10, "VDP acceleration sweep"),
    "fig11": (run_fig11, "network robustness A->C->A drive"),
    "fig12": (run_fig12, "max velocity under five deployments (~3 s)"),
    "fig13": (run_fig13, "end-to-end energy & time matrix (slow, ~30 s)"),
    "fig14": (run_fig14, "max-vs-real velocity gap"),
    "chaos": (run_chaos, "single-fault chaos matrix, adaptive vs static (~10 s)"),
    "recover": (run_recovery, "chaos-recovery cells with repro.recovery attached (~2 s)"),
    "fleet": (run_fleet, "fleet capacity curve: admission control vs admit-all"),
    "geo": (run_geo, "geo-distributed multi-site serving with mobility handoff (~1 s)"),
    "ablation-netqual": (run_ablation_netqual_metric, "Algorithm 2 vs latency threshold"),
    "ablation-granularity": (run_ablation_migration_granularity, "fine-grained vs whole offload"),
    "ablation-velocity": (run_ablation_velocity_adaptation, "Eq. 2c on/off"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the IPDPS'21 LGV offloading paper.",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        help="artifact names (see 'list'), or 'all', or 'list'; "
        "prefix with 'trace' to force instrumented runs",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON (open in Perfetto) and enable telemetry",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a metrics snapshot JSON and enable telemetry",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="record causal request traces and print the critical-path "
        "report (which segment each deadline miss spent its budget in)",
    )
    parser.add_argument(
        "--kernel-profile-out",
        metavar="PATH",
        default=None,
        help="profile the DES kernel (wall time per event label, heap "
        "churn, causal stacks) and write the merged JSON profile",
    )
    fleet = parser.add_argument_group("fleet", "options for the 'fleet' artifact")
    fleet.add_argument(
        "--robots",
        type=int,
        default=24,
        metavar="K",
        help="fleet sizes to sweep (1..K) for 'fleet' (default: 24)",
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="pool workers serving the fleet (default: 2)",
    )
    fleet.add_argument(
        "--scheduler",
        choices=SCHEDULER_NAMES,
        default=None,
        help="per-worker serving discipline for 'fleet' and the 'geo' site "
        "pools (default: edf; --hybrid and --geo-background N>0 accept only "
        "ps, the validated fluid-background config, and default to it)",
    )
    fleet.add_argument(
        "--seed",
        type=int,
        default=0,
        help="radio randomness seed for 'fleet' (default: 0)",
    )
    fleet.add_argument(
        "--fleet-out",
        metavar="PATH",
        default=None,
        help="write the fleet capacity curve (or hybrid result) as canonical JSON",
    )
    fleet.add_argument(
        "--hybrid",
        action="store_true",
        help="hybrid fluid/DES mode: --focal tenants in full DES, the "
        "rest as calibrated fluid background (see docs/hybrid.md)",
    )
    fleet.add_argument(
        "--tenants",
        type=int,
        default=10_000,
        metavar="N",
        help="total fleet size for --hybrid (default: 10000)",
    )
    fleet.add_argument(
        "--focal",
        type=int,
        default=8,
        metavar="K",
        help="focal tenants simulated in full DES for --hybrid (default: 8)",
    )
    fleet.add_argument(
        "--bg-jitter",
        type=float,
        default=0.0,
        metavar="F",
        help="fractional fluid-demand fluctuation per re-calibration, "
        "seeded from --seed (default: 0, no jitter)",
    )
    fleet.add_argument(
        "--batch-size",
        type=int,
        default=0,
        metavar="B",
        help="worker-side batching: coalesce up to B compatible requests "
        "per execution (default: 0, batching off)",
    )
    fleet.add_argument(
        "--batch-wait-ms",
        type=float,
        default=20.0,
        metavar="MS",
        help="max staging wait for a batch's first request (default: 20)",
    )
    fleet.add_argument(
        "--batch-amortization",
        type=float,
        default=0.25,
        metavar="A",
        help="marginal cost fraction of each extra batched request "
        "(default: 0.25)",
    )
    geo = parser.add_argument_group("geo", "options for the 'geo' artifact")
    geo.add_argument(
        "--geo-out",
        metavar="PATH",
        default=None,
        help="write the geo-resilience matrix as canonical JSON",
    )
    geo.add_argument(
        "--geo-robots",
        type=int,
        default=6,
        metavar="K",
        help="vehicles looping the triangle city (default: 6)",
    )
    geo.add_argument(
        "--geo-background",
        type=int,
        default=0,
        metavar="N",
        help="fluid background tenants split across the site pools "
        "(default: 0, off; N>0 needs --scheduler ps, its default)",
    )
    recover = parser.add_argument_group("recover", "options for the 'recover' artifact")
    recover.add_argument(
        "--recover-out",
        metavar="PATH",
        default=None,
        help="write the chaos-recovery result as canonical JSON",
    )
    fig9 = parser.add_argument_group("fig9", "options for the 'fig9' artifact")
    fig9.add_argument(
        "--fig9-out",
        metavar="PATH",
        default=None,
        help="write the fig9 sweep as canonical JSON (determinism harness)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)

    names = list(args.artifacts)
    trace_mode = False
    if names and names[0] == "trace":
        trace_mode = True
        names = names[1:]
        if not names:
            print("'trace' needs at least one artifact name — try 'list'", file=sys.stderr)
            return 2
    if "list" in names:
        width = max(len(n) for n in ARTIFACTS)
        for name, (_, desc) in ARTIFACTS.items():
            print(f"  {name:<{width}}  {desc}")
        return 0
    if "all" in names:
        names = list(ARTIFACTS)

    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)} — try 'list'", file=sys.stderr)
        return 2
    # the fluid/DES coupling is only validated under processor sharing;
    # FIFO/EDF lose fidelity (docs/hybrid.md)
    fluid = (("--hybrid", args.hybrid), ("--geo-background", args.geo_background > 0))
    for flag, on in fluid:
        if on and args.scheduler not in (None, "ps"):
            print(
                f"{flag} is validated only with --scheduler ps, not {args.scheduler!r}",
                file=sys.stderr,
            )
            return 2

    tel: Telemetry | None = None
    if trace_mode or args.trace_out or args.metrics_out or args.critical_path:
        tel = Telemetry()
    if tel is not None and (trace_mode or args.critical_path):
        # Instrumented runs carry the obs layer: causal request traces
        # (one tree per tick) plus the streaming SLO monitor.
        tel.enable_obs(seed=args.seed)
        tel.enable_slo()

    profilers = None
    if args.kernel_profile_out:
        from repro.sim.kernel import Simulator

        profilers = Simulator.install_default_profiling()

    batching = None
    if args.batch_size >= 1:
        from repro.cloud import BatchPolicy

        batching = BatchPolicy(
            max_size=args.batch_size,
            max_wait_s=args.batch_wait_ms / 1000.0,
            amortization=args.batch_amortization,
        )

    for name in names:
        runner, _ = ARTIFACTS[name]
        kwargs: dict[str, object] = {}
        if name == "fleet" and args.hybrid:
            from repro.hybrid import run_fleet_hybrid

            runner = run_fleet_hybrid
            kwargs = {
                "tenants": args.tenants,
                "focal": args.focal,
                "workers": args.workers,
                "scheduler": args.scheduler or "ps",
                "seed": args.seed,
                "jitter": args.bg_jitter,
                "batching": batching,
            }
        elif name == "fleet":
            kwargs = {
                "robots": args.robots,
                "workers": args.workers,
                "scheduler": args.scheduler or "edf",
                "seed": args.seed,
                "batching": batching,
            }
        elif name == "geo":
            default = "ps" if args.geo_background > 0 else "edf"
            kwargs = {
                "robots": args.geo_robots,
                "seed": args.seed,
                "scheduler": args.scheduler or default,
                "background": args.geo_background,
            }
        if tel is not None:
            kwargs["telemetry"] = tel
        print(f"\n######## {name} ########")
        t0 = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - t0
        print(result.render())
        print(f"[{name} regenerated in {elapsed:.1f} s]")
        if name == "fleet" and args.fleet_out:
            p = result.write_json(args.fleet_out)
            print(f"[fleet capacity JSON written to {p}]")
        if name == "recover" and args.recover_out:
            p = result.write_json(args.recover_out)
            print(f"[chaos-recovery JSON written to {p}]")
        if name == "geo" and args.geo_out:
            p = result.write_json(args.geo_out)
            print(f"[geo-resilience JSON written to {p}]")
        if name == "fig9" and args.fig9_out:
            p = result.write_json(args.fig9_out)
            print(f"[fig9 sweep JSON written to {p}]")

    if profilers is not None:
        from repro.obs.profiler import aggregate_profiles
        from repro.sim.kernel import Simulator

        Simulator.clear_default_profiling()
        import json

        profile = aggregate_profiles(profilers)
        with open(args.kernel_profile_out, "w") as f:
            json.dump(profile, f, indent=1, sort_keys=True)
        print(
            f"[kernel profile written to {args.kernel_profile_out} — "
            f"{profile['simulators']} simulator(s), {profile['events']} events, "
            f"{profile['wall_us_per_event']:.1f} us/event]"
        )

    if tel is not None and args.critical_path:
        from repro.obs.analyze import critical_path_report

        print()
        print("######## critical path ########")
        if tel.requests is None or len(tel.requests) == 0:
            print(
                "no request traces recorded — nothing crossed an "
                "obs-instrumented path in this run"
            )
        else:
            print(critical_path_report(tel.requests))

    if tel is not None:
        trace_out = args.trace_out or (f"{'_'.join(names)}_trace.json" if trace_mode else None)
        metrics_out = args.metrics_out or (
            f"{'_'.join(names)}_metrics.json" if trace_mode else None
        )
        if trace_out:
            p = tel.write_trace(trace_out)
            print(f"[trace written to {p} — open in https://ui.perfetto.dev]")
        if metrics_out:
            p = tel.write_metrics(metrics_out)
            print(f"[metrics written to {p}]")
        print()
        print(render_report(tel))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
