"""``python -m bench run``: reps in fresh child processes, one at a time.

A run of one workload spawns reps (``python -m bench.rep``) until its
time budget is spent, alternating ``PYTHONHASHSEED=0`` and ``1``.
Without ``--trace 1`` every rep is untraced; with it, reps alternate
traced and untraced so ``trace.overhead`` compares the two within the
run. An end-to-end metric is the mean of the better half of the
untraced reps (:func:`better_half_mean`); a per-layer metric is the
median over the traced reps.

A rep fails when it crashes, when one of its workload's checks fails,
when its digest of the simulated outputs differs from the other reps',
when it leaves a timer installed (or an untraced rep installs one), or
when its layer self times do not add up to its traced run wall.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUNS_DIR = ROOT / ".bench_runs"
#: Every rep must end well inside the 180 s a whole run may take.
RUN_DEADLINE_S = 170.0
#: Largest gap allowed between the summed layer self times and the run wall.
MAX_ATTRIBUTION_ERROR = 0.02


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def _spawn(
    workload: str, seed: int, traced: bool, hashseed: int, smoke: bool, timeout_s: float
) -> dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "bench.rep",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--spans", str(RUNS_DIR / f"spans-{workload}-seed{seed}.json.gz")]
    cmd += ["--t-spawn", repr(time.monotonic())]
    failed = {"workload": workload, "traced": traced, "hashseed": hashseed, "ok": False}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return failed | {"error": f"timed out after {timeout_s:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return failed | {"error": tail[0]}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return failed | {"error": "unparsable rep output"}
    return record | {"hashseed": hashseed, "ok": True}


def _judge(reps: list[dict[str, Any]]) -> None:
    """Mark each rep ``ok`` or give the reason it failed."""
    digests = Counter(r["digest"] for r in reps if r["ok"])
    reference = digests.most_common(1)[0][0] if digests else None
    for r in reps:
        if not r["ok"]:
            continue
        problems = list(r["checks"])
        if r["digest"] != reference:
            problems.append("simulated outputs differ from the other reps")
        if not r["timers_restored"]:
            problems.append("a timer was left installed")
        if not r["traced"] and r["timers_installed"]:
            problems.append("an untraced rep installed timers")
        if r["traced"] and r["layers"]["trace.attribution_error"] > MAX_ATTRIBUTION_ERROR:
            problems.append("layer self times do not add up to the run wall")
        if problems:
            r["ok"] = False
            r["error"] = "; ".join(problems)


def measure(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> list[dict[str, Any]]:
    """Reps of one workload until ``seconds`` is spent (at least two)."""
    RUNS_DIR.mkdir(exist_ok=True)
    reps: list[dict[str, Any]] = []
    took: dict[bool, float] = {}
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 0
        t0 = time.monotonic()
        timeout = max(10.0, RUN_DEADLINE_S - (t0 - start))
        reps.append(_spawn(workload, seed, traced, len(reps) % 2, smoke, timeout))
        took[traced] = time.monotonic() - t0
        if len(reps) < 2:
            continue
        following = trace and len(reps) % 2 == 0
        if time.monotonic() - start + took.get(following, took[traced]) > seconds:
            break
    _judge(reps)
    return reps


def better_half_mean(values: list[float], better: str) -> float:
    """Mean of the better half of the reps (at least one).

    Interference from other tenants of the host only ever slows a rep
    down, in bursts; the better half of a run's reps is what the code
    costs. Across seeds it moves by about 5% from run to run where the
    median moves by up to 10%.
    """
    ordered = sorted(values, reverse=better == "higher")
    return statistics.mean(ordered[: max(1, len(ordered) // 2)])


def _median(reps: list[dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def summarize(
    reps: list[dict[str, Any]], spec: dict[str, Any]
) -> tuple[dict[str, float], dict[str, float]]:
    """(end-to-end, per-layer) values; a dict is empty without its reps."""
    plain = [r for r in reps if r["ok"] and not r["traced"]]
    traced = [r for r in reps if r["ok"] and r["traced"]]
    e2e: dict[str, float] = {}
    if plain:
        e2e = {
            m["name"]: better_half_mean([r[m["name"]] for r in plain], m["better"])
            for m in spec["end_to_end"]
        }
    layers: dict[str, float] = {}
    if traced:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead":
                continue
            layers[name] = statistics.median(
                r["layers"][name] if name in r["layers"] else r["virtual"][name]
                for r in traced
            )
        if plain:
            layers["trace.overhead"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0
    return e2e, layers


def _print_run(
    workload: str, seed: int, reps: list[dict[str, Any]], metrics: dict[str, tuple[float, str, str]]
) -> None:
    print(f"== {workload} (seed {seed}, {len(reps)} reps) ==")
    for i, r in enumerate(reps, 1):
        kind = "traced  " if r["traced"] else "untraced"
        if r["ok"] or "wall_s" in r:
            line = (
                f"  rep {i:>2} PYTHONHASHSEED={r['hashseed']} {kind} "
                f"wall {r['wall_s']:.3f} s  setup {r['setup_s']:.3f} s  "
                f"events {r['events']}"
            )
        else:
            line = f"  rep {i:>2} PYTHONHASHSEED={r['hashseed']} {kind}"
        print(line + ("  ok" if r["ok"] else f"  FAILED: {r['error']}"))
    width = max((len(n) for n in metrics), default=0)
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} ({how})")


def _append_ledger(path: Path, record: dict[str, Any]) -> None:
    ledger = {"runs": []}
    if path.exists():
        ledger = json.loads(path.read_text())
    ledger["runs"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=1) + "\n")


def run(
    workloads: list[str], seed: int, seconds: float, trace: bool, smoke: bool, out: Path
) -> int:
    """Measure each workload; print every metric; append the runs to ``out``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        started = time.time()
        reps = measure(workload, seed, seconds, trace, smoke)
        e2e, layers = summarize(reps, spec)
        reported = layers if trace else e2e
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        if len(reported) < len(declared):
            _print_run(workload, seed, reps, {})
            print(f"{workload}: too few reps succeeded to report every metric", file=sys.stderr)
            return 1
        n_plain = sum(1 for r in reps if r["ok"] and not r["traced"])
        n_traced = sum(1 for r in reps if r["ok"] and r["traced"])
        half = f"mean of the better {max(1, n_plain // 2)} of {n_plain} reps"
        shown = {n: (v, units[n], half) for n, v in e2e.items()}
        shown.update({n: (v, units[n], f"median of {n_traced}") for n, v in layers.items()})
        _print_run(workload, seed, reps, shown)
        failed = sum(1 for r in reps if not r["ok"])
        result["attempted"] += len(reps)
        result["failed"] += failed
        result["correct"] = result["correct"] and failed == 0
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, value in reported.items():
            result["metrics"][prefix + name] = {"value": value, "unit": units[name]}
        _append_ledger(
            out,
            {
                "workload": workload,
                "seed": seed,
                "seconds": seconds,
                "trace": trace,
                "smoke": smoke,
                "started_unix": started,
                "end_to_end": e2e,
                "per_layer": layers,
                "attempted": len(reps),
                "failed": failed,
                "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
            },
        )
    print(json.dumps(result))
    return 0
