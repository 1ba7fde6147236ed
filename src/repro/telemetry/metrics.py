"""The metrics registry: counters, gauges, histograms with labels.

Prometheus-flavoured but process-local and dependency-free. Every
instrument belongs to a :class:`Registry`; ``snapshot()`` returns a
plain-dict view that serializes straight to JSON, and
``render_text()`` produces a human-readable dump for run reports.

Instruments support labels (``counter.inc(topic="scan")``); a
*cardinality guard* caps the number of distinct label sets per
instrument so an unbounded label (say, a message id) fails fast
instead of silently eating memory.

A series is stored under its canonical key (sorted ``k=v`` pairs, the
key ``snapshot()`` reports). A write first looks its labels up as
spelled, ``tuple(labels.items())``, in a per-instrument map of
all-string spellings already seen, so the hot path neither sorts nor
joins; only a new spelling builds the canonical key.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable
from dataclasses import dataclass

#: Default histogram bucket upper bounds (seconds-flavoured, exponential).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5,
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    2.5e-3,
    5e-3,
    1e-2,
    2.5e-2,
    5e-2,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class LabelCardinalityError(ValueError):
    """Raised when an instrument exceeds its label-set budget."""


def _label_key(labels: dict[str, str]) -> str:
    """Canonical string key for one label set ('' for unlabelled)."""
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class _Instrument:
    """Shared label-children machinery."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "", max_label_sets: int = 256) -> None:
        self.name = name
        self.help = help
        self.max_label_sets = max_label_sets
        self._children: dict[str, object] = {}
        #: ``tuple(labels.items())`` -> child, for all-string spellings
        #: only: ``1``, ``1.0`` and ``True`` compare equal but key
        #: different series, while a ``str`` equals only a ``str``.
        self._spellings: dict[tuple[tuple[str, str], ...], object] = {}

    def _new_child(self) -> object:
        return [0.0]

    def _child(self, labels: dict[str, str]) -> object:
        """The labelled child, created on first use (guarded)."""
        spelling = tuple(labels.items())
        child = self._spellings.get(spelling)
        if child is not None:
            return child
        key = _label_key({k: str(v) for k, v in spelling})
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.max_label_sets:
                raise LabelCardinalityError(
                    f"{self.kind} {self.name!r}: refusing new label set "
                    f"{key or '(unlabelled)'!r} — already tracking "
                    f"{len(self._children)} label sets (budget "
                    f"{self.max_label_sets}); an unbounded label value "
                    f"(an id, a sequence number, a timestamp) is the "
                    f"usual culprit"
                )
            child = self._new_child()
            self._children[key] = child
        if all(type(v) is str for _, v in spelling):
            self._spellings[spelling] = child
        return child

    def _find(self, labels: dict[str, str]) -> object | None:
        """The labelled child, or ``None`` if never written."""
        return self._children.get(_label_key({k: str(v) for k, v in labels.items()}))

    def label_sets(self) -> list[str]:
        """Canonical keys of every label set seen so far."""
        return list(self._children)


class Counter(_Instrument):
    """A monotonically increasing sum."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled child."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self._child(labels)[0] += amount  # type: ignore[index]

    def value(self, **labels: str) -> float:
        """Current value of the labelled child (0.0 if never touched)."""
        child = self._find(labels)
        return child[0] if child is not None else 0.0  # type: ignore[index]

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(c[0] for c in self._children.values())  # type: ignore[index]

    def snapshot(self) -> dict:
        """JSON-ready view."""
        return {
            "type": "counter",
            "help": self.help,
            "values": {k: c[0] for k, c in self._children.items()},  # type: ignore[index]
        }


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, joules-so-far)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled child to ``value``."""
        self._child(labels)[0] = float(value)  # type: ignore[index]

    def add(self, delta: float, **labels: str) -> None:
        """Add ``delta`` (either sign) to the labelled child."""
        self._child(labels)[0] += delta  # type: ignore[index]

    def cell(self, **labels: str) -> list[float]:
        """The labelled child's storage, created at 0.0 on first use.

        A one-element list: ``cell[0] = float(v)`` is ``set(v, **labels)``
        without the label lookup, for a writer that samples the same
        series over and over.
        """
        return self._child(labels)  # type: ignore[return-value]

    def value(self, **labels: str) -> float:
        """Current value of the labelled child (0.0 if never set)."""
        child = self._find(labels)
        return child[0] if child is not None else 0.0  # type: ignore[index]

    def snapshot(self) -> dict:
        """JSON-ready view."""
        return {
            "type": "gauge",
            "help": self.help,
            "values": {k: c[0] for k, c in self._children.items()},  # type: ignore[index]
        }


@dataclass
class _HistChild:
    """Accumulated state of one labelled histogram series."""

    bucket_counts: list[int]
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf


class Histogram(_Instrument):
    """Fixed-bucket histogram with quantile estimation.

    ``buckets`` are upper bounds in increasing order; an implicit
    +inf bucket catches the tail. Quantiles interpolate linearly
    inside the winning bucket — the standard Prometheus
    ``histogram_quantile`` math — and are exact at the recorded
    min/max endpoints.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        max_label_sets: int = 256,
    ) -> None:
        super().__init__(name, help, max_label_sets)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be a non-empty increasing sequence")
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation."""
        if value != value:  # NaN guard
            raise ValueError("cannot observe NaN")
        child: _HistChild = self._child(labels)  # type: ignore[assignment]
        idx = bisect_left(self.buckets, value)
        child.bucket_counts[idx] += 1
        child.count += 1
        child.sum += value
        child.min = min(child.min, value)
        child.max = max(child.max, value)

    def _new_child(self) -> _HistChild:
        return _HistChild(bucket_counts=[0] * (len(self.buckets) + 1))

    def _get(self, labels: dict[str, str]) -> _HistChild | None:
        return self._find(labels)  # type: ignore[return-value]

    def count(self, **labels: str) -> int:
        """Observation count for one label set."""
        child = self._get(labels)
        return child.count if child else 0

    def mean(self, **labels: str) -> float:
        """Mean of observations; NaN when empty."""
        child = self._get(labels)
        if not child or child.count == 0:
            return math.nan
        return child.sum / child.count

    def quantile(self, q: float, **labels: str) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); NaN when empty.

        Linear interpolation within the winning bucket, clamped to the
        observed min/max so q=0 and q=1 are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        child = self._get(labels)
        if not child or child.count == 0:
            return math.nan
        if q == 0.0:
            return child.min
        if q == 1.0:
            return child.max
        rank = q * child.count
        cum = 0.0
        for i, n in enumerate(child.bucket_counts):
            if n == 0:
                continue
            if cum + n >= rank:
                lo = self.buckets[i - 1] if i > 0 else min(child.min, self.buckets[0])
                hi = self.buckets[i] if i < len(self.buckets) else child.max
                lo = max(lo, child.min)
                hi = min(hi, child.max) if hi != math.inf else child.max
                if hi <= lo:
                    return hi
                frac = (rank - cum) / n
                return lo + frac * (hi - lo)
            cum += n
        return child.max

    def snapshot(self) -> dict:
        """JSON-ready view with count/sum/min/max/p50/p90/p99 per series."""
        series = {}
        for key, child in self._children.items():
            assert isinstance(child, _HistChild)
            labels = dict(kv.split("=", 1) for kv in key.split(",")) if key else {}
            series[key] = {
                "count": child.count,
                "sum": child.sum,
                "min": None if child.count == 0 else child.min,
                "max": None if child.count == 0 else child.max,
                "mean": None if child.count == 0 else child.sum / child.count,
                "p50": _nan_to_none(self.quantile(0.5, **labels)),
                "p90": _nan_to_none(self.quantile(0.9, **labels)),
                "p99": _nan_to_none(self.quantile(0.99, **labels)),
                "buckets": [
                    [b, n]
                    for b, n in zip((*self.buckets, math.inf), child.bucket_counts)
                ],
            }
        return {"type": "histogram", "help": self.help, "series": series}


def _nan_to_none(v: float) -> float | None:
    return None if v != v else v


class Registry:
    """Process-wide instrument store.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for
    an existing name returns the existing instrument (and raises if the
    kinds clash), so any module can grab a handle without coordination.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(
        self, name: str, kind: type[_Instrument], factory: Callable[[], _Instrument]
    ) -> _Instrument:
        inst = self._instruments.get(name)
        if inst is not None:
            if not isinstance(inst, kind):
                raise ValueError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"not {kind.kind}"
                )
            return inst
        inst = factory()
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, help: str = "", max_label_sets: int = 256) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(
            name, Counter, lambda: Counter(name, help, max_label_sets)
        )  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", max_label_sets: int = 256) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(
            name, Gauge, lambda: Gauge(name, help, max_label_sets)
        )  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        max_label_sets: int = 256,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, help, buckets, max_label_sets)
        )  # type: ignore[return-value]

    def get(self, name: str) -> _Instrument | None:
        """Look up an instrument without creating it."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """JSON-ready view of every instrument."""
        return {name: self._instruments[name].snapshot() for name in self.names()}

    def render_text(self) -> str:
        """Human-readable metrics dump (for run reports and debugging)."""
        lines: list[str] = []
        for name in self.names():
            inst = self._instruments[name]
            snap = inst.snapshot()
            lines.append(f"# {name} ({snap['type']}) {inst.help}".rstrip())
            if snap["type"] in ("counter", "gauge"):
                for key, value in sorted(snap["values"].items()):
                    label = f"{{{key}}}" if key else ""
                    lines.append(f"{name}{label} {value:g}")
            else:
                for key, s in sorted(snap["series"].items()):
                    label = f"{{{key}}}" if key else ""
                    if s["count"] == 0:
                        lines.append(f"{name}{label} count=0")
                        continue
                    lines.append(
                        f"{name}{label} count={s['count']} mean={s['mean']:.6g} "
                        f"p50={s['p50']:.6g} p99={s['p99']:.6g} max={s['max']:.6g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
