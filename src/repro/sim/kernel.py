"""The discrete-event simulator.

The :class:`Simulator` owns the clock and the event queue. Components
schedule callbacks at absolute or relative virtual times; :meth:`run`
drains the queue in time order. A :class:`Process` is a light wrapper
for periodic activities (sensor polling, control loops, monitors).

The drain loop is the hottest code in the repository — every simulated
message, tick and timer passes through it — so :meth:`Simulator.run`
carries an inlined fast path for the common configuration (no
telemetry, no profiler, no auditor): the queue head is resolved once
per event (dead entries are skipped exactly once, not re-pruned by
``peek``/``pop`` pairs), same-time events are fired as a batch under a
single clock advance, and periodic :class:`Process` ticks re-arm by
recycling their fired event through
:meth:`~repro.sim.events.EventQueue.repush` instead of paying an
allocation plus cancel churn per period. See ``docs/kernel.md`` for
the scheduler data structure and the event lifecycle contract.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any, ClassVar

from repro.sim.audit import OrderingAuditor
from repro.sim.clock import SimClock
from repro.sim.events import FIRED, Event, EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiler import KernelProfiler
    from repro.telemetry import Telemetry
    from repro.telemetry.metrics import Counter as MetricCounter


class _FiredRef:
    """Scalar snapshot of a fired event, taken before its callback runs.

    The ordering auditor compares consecutive fired events, but a
    periodic callback may recycle its own event object (slot reuse),
    mutating ``time``/``seq`` in place — so the kernel hands the
    auditor an immutable snapshot instead of the live handle.
    """

    __slots__ = ("time", "seq", "label", "callback", "parent")

    def __init__(self, ev: Event) -> None:
        self.time = ev.time
        self.seq = ev.seq
        self.label = ev.label
        self.callback = ev.callback
        self.parent = ev.parent


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    ``telemetry`` is normally attached via
    :func:`repro.telemetry.instrument.instrument_simulator`; when set,
    every fired event is recorded as a span on the ``"kernel"`` track
    and counted in ``sim_events_total``. When ``None`` (the default)
    the only cost is one attribute test per event.

    :meth:`enable_ordering_audit` attaches an
    :class:`~repro.sim.audit.OrderingAuditor` that watches same-time
    event ties for ambiguous resolution order (see
    :mod:`repro.sim.audit`); :meth:`install_default_audit` does so for
    every simulator built afterwards. Off by default — the audited hot
    path pays one extra comparison per event.
    """

    #: When set (via :meth:`install_default_audit`), every subsequently
    #: constructed simulator self-registers an auditor here. Lets test
    #: harnesses audit experiment runners that build their simulators
    #: internally.
    _default_audit_registry: ClassVar[list[OrderingAuditor] | None] = None

    #: Same idea for the kernel self-profiler: when set (via
    #: :meth:`install_default_profiling`), every new simulator attaches
    #: a fresh :class:`~repro.obs.profiler.KernelProfiler` and registers
    #: it here — how ``--kernel-profile-out`` profiles experiment
    #: runners that construct simulators internally.
    _default_profiler_registry: ClassVar["list[KernelProfiler] | None"] = None

    #: Current virtual time in seconds. Bound directly to the clock's
    #: ``now`` in ``__init__`` so the single hottest query in the
    #: repository costs one call frame instead of two.
    now: Callable[[], float]

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = SimClock(start_time)
        self.now = self.clock.now
        self.queue = EventQueue()
        self._stopped = False
        self._processed = 0
        self.telemetry: Telemetry | None = None
        self._tel_events: MetricCounter | None = None  # cached sim_events_total counter
        #: Opt-in wall-clock self-profiler (repro.obs.KernelProfiler
        #: installs itself here via ``attach``); ``None`` costs one
        #: attribute test per event.
        self.profiler: KernelProfiler | None = None
        self._firing_seq = -1  # seq of the event whose callback is running
        self._in_event = False  # reentrancy guard for run()/step()
        self.auditor: OrderingAuditor | None = None
        self._last_fired: _FiredRef | None = None
        registry = Simulator._default_audit_registry
        if registry is not None:
            registry.append(self.enable_ordering_audit())
        prof_registry = Simulator._default_profiler_registry
        if prof_registry is not None:
            from repro.obs.profiler import KernelProfiler as _KernelProfiler

            prof_registry.append(_KernelProfiler().attach(self))

    # ------------------------------------------------------------------
    # Ordering audit
    # ------------------------------------------------------------------
    def enable_ordering_audit(self) -> OrderingAuditor:
        """Attach (or return the existing) ordering auditor.

        Observation starts with the next popped event; enabling
        mid-run audits the remainder of the mission.
        """
        if self.auditor is None:
            self.auditor = OrderingAuditor()
        return self.auditor

    @classmethod
    def install_default_audit(cls) -> list[OrderingAuditor]:
        """Audit every simulator constructed from now on.

        Returns the live registry the auditors accumulate into. Pair
        with :meth:`clear_default_audit` (use try/finally in tests).
        """
        registry: list[OrderingAuditor] = []
        cls._default_audit_registry = registry
        return registry

    @classmethod
    def clear_default_audit(cls) -> None:
        """Stop auditing newly constructed simulators."""
        cls._default_audit_registry = None

    # ------------------------------------------------------------------
    # Kernel self-profiling
    # ------------------------------------------------------------------
    @classmethod
    def install_default_profiling(cls) -> "list[KernelProfiler]":
        """Profile every simulator constructed from now on.

        Returns the live registry the profilers accumulate into
        (aggregate with :func:`repro.obs.profiler.aggregate_profiles`).
        Pair with :meth:`clear_default_profiling` (try/finally).
        """
        registry: "list[KernelProfiler]" = []
        cls._default_profiler_registry = registry
        return registry

    @classmethod
    def clear_default_profiling(cls) -> None:
        """Stop profiling newly constructed simulators."""
        cls._default_profiler_registry = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, t: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual time ``t``.

        ``t`` earlier than now raises ``ValueError``.
        """
        if t < self.clock._now:
            raise ValueError(f"cannot schedule in the past: {t} < {self.now()}")
        return self.queue.push(t, callback, label, parent=self._firing_seq)

    def schedule_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.queue.push(
            self.clock._now + delay, callback, label, parent=self._firing_seq
        )

    def reschedule_after(self, event: Event, delay: float) -> Event:
        """Re-arm a fired event ``delay`` seconds from now (slot reuse).

        The periodic-tick fast path: when ``event`` has fired on this
        simulator, its slot is recycled with a fresh sequence number —
        no allocation, no cancel churn — producing the identical
        ``(time, seq)`` order a fresh :meth:`schedule_after` would.
        Any other lifecycle state falls back to a plain push of the
        event's callback, so callers never have to special-case
        ``fire_now``/``set_period`` interleavings.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        queue = self.queue
        if event.state == FIRED and event.owner is queue:
            return queue.repush(
                event, self.clock._now + delay, parent=self._firing_seq
            )
        return queue.push(
            self.clock._now + delay, event.callback, event.label, parent=self._firing_seq
        )

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.

        Safe in every lifecycle state — cancelling an event that has
        already fired (or was already cancelled) is a no-op. Passing
        an event that belongs to a *different* simulator's queue
        raises ``ValueError``: sequence numbers are namespaced per
        queue, so honouring a foreign handle could corrupt accounting
        or (before the lifecycle states existed) kill an unrelated
        event.
        """
        self.queue.cancel(event)

    def every(
        self,
        period: float,
        callback: Callable[[], Any],
        label: str = "",
        start_delay: float | None = None,
        on_error: str = "raise",
    ) -> Process:
        """Run ``callback`` every ``period`` seconds until stopped.

        Returns a :class:`Process` handle whose :meth:`Process.stop`
        cancels future firings. ``on_error`` selects the crash policy
        for a raising callback (see :class:`Process`).
        """
        return Process(
            self, period, callback, label=label, start_delay=start_delay, on_error=on_error
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event. Returns ``False`` if queue empty.

        Raises ``RuntimeError`` when called from inside a firing event
        callback — re-entering the drain loop would fire events out of
        order (statically checked as SIM001 by ``repro.lint``).
        """
        if self._in_event:
            raise RuntimeError(
                "Simulator.step/run called reentrantly from an event callback; "
                "schedule follow-up events instead"
            )
        if not self.queue:
            return False
        ev = self.queue.pop()
        self.clock.advance_to(ev.time)
        self._fire(ev)
        return True

    def _fire(self, ev: Event) -> None:
        """Fire one popped event with full instrumentation.

        Only :meth:`step` and instrumented runs (auditor, profiler or
        telemetry attached) come here; an uninstrumented :meth:`run`
        inlines its own fast path. Snapshot scalars
        (label/time/seq/parent) are taken *before* the callback runs: a
        periodic callback may recycle ``ev`` through
        :meth:`reschedule_after`, mutating the handle in place.
        """
        auditor = self.auditor
        if auditor is not None:
            last = self._last_fired
            if (
                last is not None
                and ev.time == last.time  # lint: ok(SIM002): exact tie detection is the point
                and ev.parent != last.seq
            ):
                auditor.observe(last, ev)
            self._last_fired = _FiredRef(ev)
        label = ev.label
        t_event = ev.time
        seq = ev.seq
        parent = ev.parent
        self._firing_seq = seq
        self._in_event = True
        prof = self.profiler
        t_fire = prof.clock() if prof is not None else 0.0
        try:
            tel = self.telemetry
            if tel is None:
                ev.callback()
            else:
                span = tel.tracer.begin(label or "event", track="kernel")
                try:
                    ev.callback()
                finally:
                    tel.tracer.end(span)
                if self._tel_events is not None:
                    self._tel_events.inc()
        finally:
            self._in_event = False
            self._firing_seq = -1
            if prof is not None:
                prof.record(label, t_event, seq, parent, prof.clock() - t_fire)
        self._processed += 1

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain events until the queue empties, ``until`` is reached,
        or ``max_events`` have fired. Returns the final virtual time.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the last event fired earlier, so integrals
        over [0, until] are well-defined. ``max_events`` is counted off
        :attr:`events_processed` — the same tally :meth:`step`
        maintains — so the two can never drift apart.

        Raises ``RuntimeError`` when called from inside a firing event
        callback (see :meth:`step`).
        """
        if self._in_event:
            raise RuntimeError(
                "Simulator.step/run called reentrantly from an event callback; "
                "schedule follow-up events instead"
            )
        self._stopped = False
        limit = None if max_events is None else self._processed + max_events
        clock = self.clock
        pop_due = self.queue.pop_due
        while not self._stopped:
            if limit is not None and self._processed >= limit:
                break
            ev = pop_due(until)
            if ev is None:
                break
            t = ev.time
            if (
                self.telemetry is None
                and self.profiler is None
                and self.auditor is None
            ):
                # Inlined fast path: ``pop_due`` resolves the head once
                # (no ``peek``/``pop`` double scan), the clock only
                # advances on a time change (same-time events fire as
                # one batch, and ``t > _now`` makes a plain store
                # safe), and the instrumentation branches of
                # :meth:`_fire` are skipped wholesale.
                if t > clock._now:
                    clock._now = t
                self._firing_seq = ev.seq
                self._in_event = True
                try:
                    ev.callback()
                finally:
                    self._in_event = False
                    self._firing_seq = -1
                self._processed += 1
            else:
                clock.advance_to(t)
                self._fire(ev)
        if until is not None and until > clock._now:
            clock.advance_to(until)
        return clock._now

    def stop(self) -> None:
        """Request :meth:`run` to return after the current event."""
        self._stopped = True

    @property
    def events_processed(self) -> int:
        """Total events fired since construction."""
        return self._processed

    @property
    def queue_depth(self) -> int:
        """Live (non-cancelled) events currently scheduled."""
        return len(self.queue)


#: Valid :class:`Process` error policies.
ON_ERROR_POLICIES = ("raise", "stop", "keep")


class Process:
    """A periodic activity driven by the simulator.

    The first firing happens ``start_delay`` seconds after creation
    (default: one full period). The callback may call :meth:`stop` to
    end the process from within.

    ``on_error`` decides what a raising callback does to the run:

    * ``"raise"`` (default) — the process stops cleanly, then the
      exception propagates out of :meth:`Simulator.run`;
    * ``"stop"`` — the error is recorded in :attr:`errors` and the
      process stops; the simulation keeps running;
    * ``"keep"`` — the error is recorded and the process keeps its
      periodic schedule (degrade, never crash).

    Contained errors are mirrored as ``process_error`` telemetry
    events when the simulator carries a telemetry object.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        label: str = "",
        start_delay: float | None = None,
        on_error: str = "raise",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
            )
        self.sim = sim
        self.period = float(period)
        self.callback = callback
        self.label = label or getattr(callback, "__name__", "process")
        self.on_error = on_error
        #: Contained callback errors as ``(virtual_time, exception)``.
        self.errors: list[tuple[float, Exception]] = []
        self._event: Event | None = None
        self._running = True
        self.fire_count = 0
        #: Virtual time the period is anchored to: the last firing, or
        #: (before the first one) the creation time.
        self._anchor = sim.now()
        delay = self.period if start_delay is None else start_delay
        self._event = sim.schedule_after(delay, self._fire, label=self.label)

    def _fire(self) -> None:
        if not self._running:
            return
        # Detach the handle of the firing event so stop()/set_period()
        # from inside the callback see no pending firing; keep it for
        # the slot-reuse re-arm below (fire_now arrives with the
        # pending event already cancelled, so ``spent`` is None there).
        spent = self._event
        self._event = None
        self.fire_count += 1
        self._anchor = self.sim.clock._now
        try:
            self.callback()
        except Exception as exc:
            self._contain(exc)
            if self.on_error == "raise":
                raise
        if self._running and self._event is None:
            if spent is not None:
                self._event = self.sim.reschedule_after(spent, self.period)
            else:
                self._event = self.sim.schedule_after(
                    self.period, self._fire, label=self.label
                )

    def _contain(self, exc: Exception) -> None:
        """Record a callback error and apply the on-error policy."""
        self.errors.append((self.sim.now(), exc))
        if self.on_error != "keep":
            # leave a consistent carcass: no pending event, not running —
            # previously a raising callback left ``running`` True with no
            # firing ever scheduled again (half-torn-down)
            self._running = False
            if self._event is not None:
                self.sim.cancel(self._event)
                self._event = None
        tel = self.sim.telemetry
        if tel is not None:
            tel.emit(
                "process_error",
                t=self.sim.now(),
                track="kernel",
                process=self.label,
                error=repr(exc),
                policy=self.on_error,
            )

    def set_period(self, period: float) -> None:
        """Change the firing period, rescheduling the *pending* firing.

        The next firing moves to ``max(now, last_firing + period)`` —
        shrinking the period of an adaptive monitor loop takes effect
        immediately instead of one stale interval later, and growing it
        defers the already-scheduled firing. Subsequent firings follow
        the new period as usual.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = float(period)
        if self._running and self._event is not None:
            self.sim.cancel(self._event)
            target = max(self.sim.now(), self._anchor + self.period)
            self._event = self.sim.schedule_at(target, self._fire, label=self.label)

    def fire_now(self) -> None:
        """Fire the callback immediately and restart the period from now.

        Used by the telemetry flusher to capture final gauge values at
        export time; counts as a normal firing (``fire_count`` grows,
        the next periodic firing lands one full period later).
        """
        if not self._running:
            raise RuntimeError(f"process {self.label!r} is stopped")
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None
        self._fire()

    def stop(self) -> None:
        """Stop the process; pending firing is cancelled."""
        self._running = False
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    @property
    def running(self) -> bool:
        """Whether the process will fire again."""
        return self._running
