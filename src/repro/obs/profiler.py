"""The DES kernel self-profiler: where does wall-clock go per event?

Opt-in (``profiler.attach(sim)``); when attached, every fired event is
timed with a real clock and attributed to its *label* — the same label
scheduling sites already pass for traces — so a profile of a mission
run says "X ms in ``net:scan`` deliveries, Y ms in ``pool:...``
completions" without touching any scheduling site. On top of the
per-label attribution the profiler counts the kernel's own churn:

* scheduler traffic (pushes, lazy-cancellations, dead-entry prunes)
  from the :class:`~repro.sim.events.EventQueue` counters;
* same-time ties — events firing at an identical virtual time, the
  population the ordering auditor worries about and a tie-break
  optimization would target;
* causal stacks — each event's :attr:`~repro.sim.events.Event.parent`
  chain, collapsed into ``root;...;leaf`` keys with a count and wall
  time each (the profile JSON's ``top_stacks``), showing which
  *scheduling chains* dominate, not just which labels.

Its JSON artifact (``BENCH_kernel_profile.json``) is the "before"
baseline the ROADMAP's kernel-overhaul item will be measured against.

This module reads ``time.perf_counter`` by design — it measures the
host, not the simulation — and is exempted from the DET001 wall-clock
lint for exactly that reason. Virtual-time determinism is untouched:
the profiler never schedules, samples RNG, or perturbs event order.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


#: Longest parent chain rendered into a collapsed stack.
MAX_STACK_DEPTH = 12
#: Bound on the seq -> (label, parent) map; beyond it new events still
#: profile by label, but their stacks collapse to the leaf.
MAX_STACK_ENTRIES = 1_000_000


class _LabelStat:
    """Accumulated wall time for one event label."""

    __slots__ = ("count", "wall_s")

    def __init__(self) -> None:
        self.count = 0
        self.wall_s = 0.0


class KernelProfiler:
    """Per-event-label wall-clock attribution for one simulator.

    Parameters
    ----------
    clock:
        Wall-clock source (``time.perf_counter``); injectable for
        tests.

    Causal stacks cost one dict insert per event plus the parent map,
    which :data:`MAX_STACK_ENTRIES` bounds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.events = 0
        self.ties = 0
        self.wall_s = 0.0
        self.labels: dict[str, _LabelStat] = {}
        #: Collapsed stack ("root;...;leaf") -> [count, wall_s].
        self.stacks: dict[str, list[float]] = {}
        self._parents: dict[int, tuple[str, int]] = {}
        self._last_time: float | None = None
        self._sim: Simulator | None = None
        self._queue_base: tuple[int, int, int] = (0, 0, 0)
        self._t_attach: float = 0.0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> "KernelProfiler":
        """Install on ``sim``; profiling starts with the next event."""
        sim.profiler = self
        self._sim = sim
        q = sim.queue
        self._queue_base = (q.pushes, q.cancels, q.pruned)
        self._t_attach = self.clock()
        return self

    def detach(self) -> None:
        """Stop profiling ``sim`` (accumulated data is kept)."""
        if self._sim is not None and self._sim.profiler is self:
            self._sim.profiler = None

    # ------------------------------------------------------------------
    # The hot-path hook (called by Simulator._fire in a profiled run)
    # ------------------------------------------------------------------
    def record(
        self, label: str, t_event: float, seq: int, parent: int, wall_s: float
    ) -> None:
        """Attribute one fired event's wall time.

        Takes scalars, not the :class:`~repro.sim.events.Event` handle:
        under slot reuse the callback may have recycled the event by
        the time the kernel records its timing, so the kernel snapshots
        ``label``/``time``/``seq``/``parent`` before firing.
        """
        label = label or "(unlabelled)"
        stat = self.labels.get(label)
        if stat is None:
            stat = self.labels[label] = _LabelStat()
        stat.count += 1
        stat.wall_s += wall_s
        self.events += 1
        self.wall_s += wall_s
        if t_event == self._last_time:  # lint: ok(SIM002): tie counting is the point
            self.ties += 1
        self._last_time = t_event
        if len(self._parents) < MAX_STACK_ENTRIES:
            self._parents[seq] = (label, parent)
        stack = self._stack_of(label, parent)
        entry = self.stacks.get(stack)
        if entry is None:
            self.stacks[stack] = [1, wall_s]
        else:
            entry[0] += 1
            entry[1] += wall_s

    def _stack_of(self, leaf: str, parent_seq: int) -> str:
        frames = [leaf]
        seq = parent_seq
        while seq != -1 and len(frames) < MAX_STACK_DEPTH:
            got = self._parents.get(seq)
            if got is None:
                break
            frames.append(got[0])
            seq = got[1]
        frames.reverse()
        return ";".join(frames)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def queue_counters(self) -> dict[str, int]:
        """Scheduler churn since attach: pushes, cancels, dead prunes."""
        if self._sim is None:
            return {"pushes": 0, "cancels": 0, "pruned": 0}
        q = self._sim.queue
        p0, c0, d0 = self._queue_base
        return {
            "pushes": q.pushes - p0,
            "cancels": q.cancels - c0,
            "pruned": q.pruned - d0,
        }

    def snapshot(self, top: int = 40) -> dict[str, Any]:
        """JSON-ready profile: totals, per-label wall, churn, stacks."""
        by_label = sorted(
            self.labels.items(), key=lambda kv: kv[1].wall_s, reverse=True
        )
        by_stack = sorted(
            self.stacks.items(), key=lambda kv: kv[1][1], reverse=True
        )
        total = self.wall_s or 1.0
        return {
            "events": self.events,
            "wall_s": self.wall_s,
            "wall_us_per_event": (
                self.wall_s / self.events * 1e6 if self.events else 0.0
            ),
            "same_time_ties": self.ties,
            "tie_fraction": self.ties / self.events if self.events else 0.0,
            "queue": self.queue_counters(),
            "labels": {
                label: {
                    "count": s.count,
                    "wall_s": s.wall_s,
                    "share": s.wall_s / total,
                }
                for label, s in by_label[:top]
            },
            "top_stacks": {
                stack: {"count": int(n), "wall_s": w}
                for stack, (n, w) in by_stack[:top]
            },
        }

    def write_json(self, path: str | Path, top: int = 40) -> Path:
        """Write :meth:`snapshot` as indented JSON."""
        p = Path(path)
        p.write_text(json.dumps(self.snapshot(top), indent=1, sort_keys=True))
        return p


def aggregate_profiles(
    profilers: Sequence[KernelProfiler], top: int = 40
) -> dict[str, Any]:
    """Merge profiles from many simulators into one snapshot dict.

    Experiment runners construct a fresh simulator per sweep point;
    ``Simulator.install_default_profiling`` hands back one profiler per
    simulator, and this folds them into a single label/stack/churn
    profile (plus a ``simulators`` count) for the JSON artifact.
    """
    merged = KernelProfiler()
    queue = {"pushes": 0, "cancels": 0, "pruned": 0}
    for p in profilers:
        merged.events += p.events
        merged.ties += p.ties
        merged.wall_s += p.wall_s
        for label, s in p.labels.items():
            stat = merged.labels.get(label)
            if stat is None:
                stat = merged.labels[label] = _LabelStat()
            stat.count += s.count
            stat.wall_s += s.wall_s
        for stack, (n, w) in p.stacks.items():
            entry = merged.stacks.get(stack)
            if entry is None:
                merged.stacks[stack] = [n, w]
            else:
                entry[0] += n
                entry[1] += w
        for key, val in p.queue_counters().items():
            queue[key] += val
    snap = merged.snapshot(top)
    snap["queue"] = queue
    snap["simulators"] = len(profilers)
    return snap
