"""Kernel throughput benchmark: tuple-heap kernel vs the old heap.

Measures the current kernel against the *frozen pre-overhaul kernel*
(``benchmarks/_legacy_kernel.py`` — dataclass events, binary heap,
``peek``/``pop`` double prune) in the same process, so every headline
number is a **machine-independent speedup ratio**: both sides see the
same interpreter, the same cache state, and (interleaved best-of-N
sampling) the same machine noise.

Workloads, chosen to span the scheduling patterns the repository
actually runs:

* ``cascade`` — one self-rescheduling chain (pop one event, push its
  successor); the minimal kernel loop, dominated by push/pop overhead.
* ``periodic`` — 50 periodic processes (``sim.every`` on the new
  kernel, hand-rolled closures on the legacy one, which predates
  ``Process`` slot reuse); the fleet tick pattern.
* ``churn`` — every tick cancels a pending 10 s timeout and schedules
  a fresh one: the watchdog/lease pattern that motivated the overhaul
  (lazy-pruned dead entries are where the old heap drowned). This is
  the **headline** workload: it must stay >= 2x.
* ``fanout`` — 600 rounds of 50 same-time children; the broadcast
  pattern (middleware delivery, telemetry flush).
* ``queue_depth_1024`` — the bare data structures under a hold model
  (pop one, push one, 1024 pending): scheduler cost with the
  ``Simulator`` loop and callback overhead factored out entirely.

The results are committed as ``BENCH_kernel_throughput.json``. Running
under ``KERNEL_BENCH_GUARD=1`` (the CI ``kernel-bench`` job) compares
fresh ratios against the committed ones instead of rewriting the file,
and fails if any workload regresses below ``0.85 x`` its committed
speedup. End-to-end (macro) timing is not measured here: it lives in
``python -m bench``, which times whole missions and serving runs and
attributes their wall time to layers.

Run:  pytest benchmarks/test_kernel_throughput.py -s
"""

import json
import os
import platform
import random
import sys
import time
from pathlib import Path

from benchmarks._legacy_kernel import LegacyEventQueue, LegacySimulator
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel_throughput.json"
#: A workload may drop to this fraction of its committed speedup
#: before the CI guard fails the build.
GUARD_TOLERANCE = 0.85
#: The cancel/re-arm churn pattern is the overhaul's headline claim.
MIN_CHURN_SPEEDUP = 2.0

REPS = 5


# ---------------------------------------------------------------------------
# Workloads (each returns the number of events fired so rates compare)
# ---------------------------------------------------------------------------

def _cascade(sim_cls, n=30_000):
    sim = sim_cls()
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule_at(sim.now() + 1.0, tick)

    sim.schedule_at(0.0, tick)
    sim.run()
    return n


def _periodic_new(n_proc=50, until=60.0):
    sim = Simulator()
    for i in range(n_proc):
        sim.every(0.05 + 0.001 * i, lambda: None, label=f"p{i}")
    sim.run(until=until)
    return sim.events_processed


def _periodic_legacy(n_proc=50, until=60.0):
    sim = LegacySimulator()

    def make(period, label):
        def tick():
            sim.schedule_after(period, tick, label)

        return tick

    for i in range(n_proc):
        p = 0.05 + 0.001 * i
        sim.schedule_after(p, make(p, f"p{i}"), f"p{i}")
    sim.run(until=until)
    return sim.events_processed


def _churn(sim_cls, n=20_000):
    sim = sim_cls()
    state = {"timeout": None, "left": n}

    def tick():
        state["left"] -= 1
        if state["timeout"] is not None:
            sim.cancel(state["timeout"])
        state["timeout"] = sim.schedule_after(10.0, lambda: None, "timeout")
        if state["left"]:
            sim.schedule_after(0.01, tick, "tick")

    sim.schedule_after(0.01, tick, "tick")
    sim.run()
    return n


def _fanout(sim_cls, rounds=600, width=50):
    sim = sim_cls()
    state = {"left": rounds}

    def child():
        pass

    def parent():
        state["left"] -= 1
        t = sim.now() + 1.0
        for _ in range(width):
            sim.schedule_at(t, child)
        if state["left"]:
            sim.schedule_at(t, parent)

    sim.schedule_at(0.0, parent)
    sim.run()
    return rounds * (width + 1)


def _queue_hold(q_cls, depth=1024, n_ops=30_000, seed=7):
    """Bare queue ops under a hold model; returns (ops, seconds)."""
    rng = random.Random(seed)
    q = q_cls()
    now = 0.0

    def cb():
        pass

    for _ in range(depth):
        q.push(now + rng.random() * 5.0, cb)
    t0 = time.perf_counter()
    for _ in range(n_ops):
        ev = q.pop()
        now = ev.time
        q.push(now + rng.random() * 5.0, cb)
    return 2 * n_ops, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Interleaved sampling
# ---------------------------------------------------------------------------

def _compare(legacy_fn, new_fn, reps=REPS):
    """Best-of-``reps`` events/s for both sides, sampled back to back."""
    legacy_fn()
    new_fn()  # warm-up outside the timed region
    best_legacy = best_new = 0.0
    ev_legacy = ev_new = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        ev_legacy = legacy_fn()
        best_legacy = max(best_legacy, ev_legacy / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        ev_new = new_fn()
        best_new = max(best_new, ev_new / (time.perf_counter() - t0))
    return {
        "events_legacy": ev_legacy,
        "events_new": ev_new,
        "legacy_ev_s": round(best_legacy, 1),
        "new_ev_s": round(best_new, 1),
        "speedup": round(best_new / best_legacy, 3),
    }


def _compare_queues(reps=REPS):
    best_legacy = best_new = 0.0
    ops = 0
    _queue_hold(LegacyEventQueue)
    _queue_hold(EventQueue)
    for _ in range(reps):
        ops, dt = _queue_hold(LegacyEventQueue)
        best_legacy = max(best_legacy, ops / dt)
        ops, dt = _queue_hold(EventQueue)
        best_new = max(best_new, ops / dt)
    return {
        "ops": ops,
        "legacy_ev_s": round(best_legacy, 1),
        "new_ev_s": round(best_new, 1),
        "speedup": round(best_new / best_legacy, 3),
    }


def test_kernel_throughput():
    guard = bool(os.environ.get("KERNEL_BENCH_GUARD"))

    workloads = {
        "cascade": _compare(lambda: _cascade(LegacySimulator), lambda: _cascade(Simulator)),
        "periodic": _compare(_periodic_legacy, _periodic_new),
        "churn": _compare(lambda: _churn(LegacySimulator), lambda: _churn(Simulator)),
        "fanout": _compare(lambda: _fanout(LegacySimulator), lambda: _fanout(Simulator)),
        "queue_depth_1024": _compare_queues(),
    }

    for name, w in workloads.items():
        print(
            f"{name:>18}: legacy {w['legacy_ev_s']:>9.0f} ev/s   "
            f"new {w['new_ev_s']:>9.0f} ev/s   speedup {w['speedup']:.2f}x"
        )

    if guard:
        committed = json.loads(RESULT_PATH.read_text())["workloads"]
        for name, w in workloads.items():
            floor = committed[name]["speedup"] * GUARD_TOLERANCE
            assert w["speedup"] >= floor, (
                f"kernel regression: workload {name!r} speedup {w['speedup']:.2f}x "
                f"fell below {floor:.2f}x "
                f"(committed {committed[name]['speedup']:.2f}x, "
                f"tolerance {GUARD_TOLERANCE})"
            )
        print(f"guard: all {len(workloads)} workloads within "
              f"{GUARD_TOLERANCE}x of committed speedups")
        return

    result = {
        "benchmark": "kernel_throughput",
        "baseline": (
            "pre-overhaul heap kernel, frozen verbatim in "
            "benchmarks/_legacy_kernel.py (dataclass(order=True) events, "
            "binary heap, peek/pop double prune)"
        ),
        "reps_best_of": REPS,
        "workloads": workloads,
        "guard_tolerance": GUARD_TOLERANCE,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"-> {RESULT_PATH.name}")

    assert workloads["churn"]["speedup"] >= MIN_CHURN_SPEEDUP, (
        f"headline cancel/re-arm workload is only "
        f"{workloads['churn']['speedup']:.2f}x the legacy kernel "
        f"(need >= {MIN_CHURN_SPEEDUP}x)"
    )
    for name, w in workloads.items():
        assert w["speedup"] > 1.0, (
            f"workload {name!r} is slower than the legacy kernel "
            f"({w['speedup']:.2f}x)"
        )
