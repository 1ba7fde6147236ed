"""The worker pool: N hosts serving the fleet's tick stream.

A :class:`WorkerPool` owns one :class:`PoolWorker` per server
:class:`~repro.compute.host.Host`, routes incoming
:class:`~repro.cloud.request.TickRequest`\\ s through its
:class:`~repro.cloud.balancer.LoadBalancer`, and survives worker
crashes by re-placing every request the dead worker was holding
(active, queued and staged) on the survivors — the rebalance path
:mod:`repro.faults` drives through ``ServerCrash`` faults. The worker
set is fixed when the pool is built: a crashed worker stays a member
and serves again once its host restarts.

Each worker serves under the discipline of its
:class:`~repro.cloud.scheduler.Scheduler`: queueing (FIFO / EDF,
requests hold cores exclusively) or processor sharing (everything
runs, overload stretches everyone — the DES realization of
:mod:`repro.cloud.fleet`).

Two opt-in extensions ride on the same worker machinery, both inert
(byte-identical event streams) unless enabled:

* **batching** (:mod:`repro.cloud.batching`) — a worker coalesces
  compatible requests in a short staging window and executes each
  batch as one job with amortized per-request cost;
* **fluid background load** (:mod:`repro.hybrid`) — a calibrated
  analytical tenant population imposes continuous core demand on the
  workers, stretching service (PS rate / queueing durations) and
  driving the pool's utilization and admission signals without
  per-tenant DES events.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.cloud.balancer import LoadBalancer
from repro.cloud.batching import BatchKey, BatchPolicy, batch_key
from repro.cloud.request import TickRequest
from repro.cloud.scheduler import Scheduler
from repro.compute.host import Host
from repro.sim.events import Event
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

#: Completion callback: ``(request, finish_time)`` in virtual seconds.
CompletionFn = Callable[[TickRequest, float], None]

#: Remaining-work epsilon (s) below which a shared job counts as done.
_PS_EPS = 1e-9


class _Member:
    """One request riding in a (possibly batched) job."""

    __slots__ = ("req", "on_complete", "enqueued_at")

    def __init__(
        self, req: TickRequest, on_complete: CompletionFn, enqueued_at: float
    ) -> None:
        self.req = req
        self.on_complete = on_complete
        self.enqueued_at = enqueued_at


class _Job:
    """One unit of execution on a worker: a single request or a batch.

    Every member of a batch shares the job's fate — they start
    together, finish together, and are evicted together. ``iso_s`` is
    the contention-free duration of the job (amortized across the
    batch, including any host derate) — the observed-service signal
    the hybrid layer re-calibrates its fluid model from.
    """

    __slots__ = (
        "members", "width", "started_at", "event", "remaining_s",
        "iso_s",
    )

    def __init__(self, members: list[_Member], width: int) -> None:
        self.members = members
        self.width = width
        self.started_at = 0.0
        self.event: Event | None = None  # queueing-mode completion event
        self.remaining_s = 0.0  # PS-mode contention-free work left
        self.iso_s = 0.0  # contention-free duration (calibration signal)

    @property
    def size(self) -> int:
        return len(self.members)


class _Stage:
    """A per-shape staging buffer collecting one batch."""

    __slots__ = ("members", "timer", "t_first", "min_deadline")

    def __init__(self) -> None:
        self.members: list[_Member] = []
        self.timer: Event | None = None
        self.t_first = 0.0
        self.min_deadline = float("inf")


class PoolWorker:
    """One serving host plus its request queue and discipline."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        scheduler: Scheduler,
        telemetry: "Telemetry | None" = None,
        batching: BatchPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.scheduler = scheduler
        self.telemetry = telemetry
        self.batching = batching
        self.capacity = host.platform.hardware_threads
        #: Queueing-mode heap of ``(policy key, arrival seq, job)``: the
        #: seq breaks key ties in arrival order, so jobs never compare.
        self._queue: list[tuple[float, int, _Job]] = []
        self._arrivals = 0
        #: Running jobs in start order (a dict for O(1) removal).
        self._active: dict[_Job, None] = {}
        #: Running totals of the jobs above and of staged riders, so the
        #: load signals cost O(1) however deep the backlog.
        self._active_width = self._active_size = 0
        self._queued_width = self._queued_size = 0
        self._staged = 0
        #: Batching staging buffers, one per compatible request shape.
        self._stages: dict[BatchKey, _Stage] = {}
        # processor-sharing bookkeeping
        self._ps_last_t = sim.now()
        self._ps_event: Event | None = None
        #: Requests completed by this worker (capacity accounting).
        self.served = 0
        #: Batches executed and requests they carried (occupancy stats).
        self.batches = 0
        self.batched_requests = 0
        #: Fluid background demand (repro.hybrid), in continuously
        #: claimed hardware threads. Stretches service but never
        #: occupies queue slots — the fluid analog of N-K tenants'
        #: duty-cycled core usage.
        self.background_load = 0.0
        #: Observed contention-free service seconds and the model's
        #: prediction for the same completions (single-request, no
        #: derate, no batching) — the hybrid calibration signal: their
        #: ratio captures derates and batching amortization.
        self.obs_iso_s = 0.0
        self.obs_pred_s = 0.0
        self.obs_requests = 0

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        """Mirrors the host's fault state."""
        return self.host.up

    def queue_depth(self) -> int:
        """Requests waiting, staged batches included (0 under PS)."""
        return self._queued_size + self._staged

    def inflight(self) -> int:
        """Requests currently executing."""
        return self._active_size

    def load(self) -> float:
        """Thread demand (running + queued + fluid) over capacity.

        Exceeds 1.0 when overcommitted — under processor sharing that
        is exactly the analytical model's utilization > 1 regime. The
        fluid background's continuous demand counts here so balancers
        see the hybrid population.
        """
        demand = self._active_width + self._queued_width + self.background_load
        return demand / self.capacity

    # ------------------------------------------------------------------
    # Fluid background (repro.hybrid)
    # ------------------------------------------------------------------
    def set_background(self, cores: float) -> None:
        """Impose ``cores`` of continuous fluid demand on this worker.

        Under processor sharing the in-flight jobs' progress is
        credited at the old rate first, then the share timer re-plans
        at the new one. Under queueing, already-running jobs keep the
        duration they started with; the new demand stretches jobs
        started from now on. A no-op when the demand is unchanged, so
        zero-background runs stay byte-identical.
        """
        if cores < 0:
            raise ValueError(f"background cores must be non-negative, got {cores}")
        if cores == self.background_load:
            return
        now = self.sim.now()
        if self.scheduler.sharing:
            self._ps_advance(now)
            self.background_load = cores
            if self._active:
                self._ps_reschedule(now)
        else:
            self.background_load = cores

    def _stretch(self, width_demand: float) -> float:
        """Fluid contention factor for ``width_demand`` running threads."""
        demand = width_demand + self.background_load
        if demand <= self.capacity:
            return 1.0
        return demand / self.capacity

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, req: TickRequest, on_complete: CompletionFn) -> None:
        """Accept one request under this worker's discipline."""
        now = self.sim.now()
        if self.batching is not None:
            self._stage_submit(req, on_complete, now)
            return
        width = min(req.threads, self.capacity)
        self._admit(_Job([_Member(req, on_complete, now)], width))

    def _admit(self, job: _Job) -> None:
        """Hand one (possibly batched) job to the discipline."""
        if self.scheduler.sharing:
            self._ps_admit(job)
        else:
            key = min(self.scheduler.key(m.req) for m in job.members)
            heapq.heappush(self._queue, (key, self._arrivals, job))
            self._arrivals += 1
            self._queued_width += job.width
            self._queued_size += job.size
            self._dispatch()

    # -- batching (staging window) -------------------------------------
    def _stage_submit(
        self, req: TickRequest, on_complete: CompletionFn, now: float
    ) -> None:
        """Park one request in its shape's staging buffer.

        The buffer flushes on whichever bound trips first: size
        (``max_size`` riders), wait (``max_wait_s`` after the first
        rider), or deadline (waiting out the window would leave a
        rider less than ``deadline_guard_s`` of slack).
        """
        pol = self.batching
        assert pol is not None
        key = batch_key(req)
        stage = self._stages.get(key)
        if stage is None:
            stage = _Stage()
            self._stages[key] = stage
        member = _Member(req, on_complete, now)
        stage.members.append(member)
        self._staged += 1
        if req.absolute_deadline < stage.min_deadline:
            stage.min_deadline = req.absolute_deadline
        size = len(stage.members)
        if size >= pol.max_size:
            self._flush_stage(key)
            return
        t_first = stage.t_first if size > 1 else now
        iso = self.host.exec_time(req.cycles, req.threads, req.profile)
        est_done = t_first + pol.max_wait_s + pol.duration(iso, size)
        if est_done + pol.deadline_guard_s > stage.min_deadline:
            self._flush_stage(key)
            return
        if size == 1:
            stage.t_first = now
            stage.timer = self.sim.schedule_after(
                pol.max_wait_s,
                lambda: self._flush_stage(key),
                label=f"pool:{self.host.name}:batchwait",
            )

    def _flush_stage(self, key: BatchKey) -> None:
        """Turn one staging buffer into a job and admit it."""
        stage = self._stages.pop(key, None)
        if stage is None or not stage.members:  # raced with eviction
            return
        if stage.timer is not None:
            self.sim.cancel(stage.timer)
            stage.timer = None
        self._staged -= len(stage.members)
        head = stage.members[0].req
        width = min(head.threads, self.capacity)
        job = _Job(stage.members, width)
        self.batches += 1
        self.batched_requests += job.size
        if self.telemetry is not None:
            self.telemetry.metrics.histogram(
                "cloud_batch_occupancy",
                "requests coalesced per executed batch, per worker",
            ).observe(job.size, worker=self.host.name)
        self._admit(job)

    def _trace_segment(
        self, req: TickRequest, name: str, t_start: float, t_end: float,
        **attrs: object,
    ) -> None:
        """Record one causal segment against the request's trace.

        Segments telescope: ``queue_wait`` spans enqueue -> start and
        ``service`` spans start -> finish, so a request's segment sum
        equals its pool sojourn even across crash rebalances (each
        placement contributes its own pair; eviction closes the partial
        ones at crash time).
        """
        tel = self.telemetry
        if tel is None or tel.requests is None or req.ctx is None:
            return
        tel.requests.segment(
            req.ctx, name, t_start, t_end, worker=self.host.name, **attrs
        )

    def evict_all(self) -> list[tuple[TickRequest, CompletionFn]]:
        """Cancel everything (crash); returns requests to re-place.

        Active requests lose their progress — the replacement worker
        starts them from scratch, which is what a stateless tick
        recompute costs in the real system. A batch dies as a whole:
        each member is returned exactly once (active, then queued,
        then staged) and the batch's completion event is cancelled, so
        a crash that splits a batch can never double-complete — and
        hence never double-count — any of its riders.
        """
        now = self.sim.now()
        victims: list[tuple[TickRequest, CompletionFn]] = []
        for j in self._active:
            if j.event is not None:
                self.sim.cancel(j.event)
                j.event = None
            self.host.vacate(j.width)
            for m in j.members:
                victims.append((m.req, m.on_complete))
                # Close the partial service segment at crash time so the
                # request's timeline stays gap-free across the rebalance.
                self._trace_segment(m.req, "service", j.started_at, now, evicted=True)
        for _, _, j in sorted(self._queue, key=itemgetter(1)):  # arrival order
            for m in j.members:
                victims.append((m.req, m.on_complete))
                self._trace_segment(
                    m.req, "queue_wait", m.enqueued_at, now, evicted=True
                )
        for stage in self._stages.values():
            if stage.timer is not None:
                self.sim.cancel(stage.timer)
                stage.timer = None
            for m in stage.members:
                victims.append((m.req, m.on_complete))
                self._trace_segment(
                    m.req, "queue_wait", m.enqueued_at, now, evicted=True
                )
            stage.members = []
        if self._ps_event is not None:
            self.sim.cancel(self._ps_event)
            self._ps_event = None
        self._active.clear()
        self._queue.clear()
        self._stages.clear()
        self._active_width = self._active_size = 0
        self._queued_width = self._queued_size = self._staged = 0
        self._ps_last_t = now
        return victims

    # -- queueing (FIFO / EDF) -----------------------------------------
    def _dispatch(self) -> None:
        now = self.sim.now()
        while self._queue:
            job = self._queue[0][2]
            if job.width > self.capacity - self._active_width:
                break  # policy head blocks until it fits (no backfill)
            heapq.heappop(self._queue)
            self._queued_width -= job.width
            self._queued_size -= job.size
            self._start(job, now)

    def _iso_duration(self, job: _Job) -> float:
        """Contention-free duration of one job (batch-amortized)."""
        head = job.members[0].req
        iso = self.host.exec_time(head.cycles, head.threads, head.profile)
        if self.batching is None:
            return iso
        return self.batching.duration(iso, job.size)

    def _start(self, job: _Job, now: float) -> None:
        job.started_at = now
        size = job.size
        batch_attrs = {"batch": size} if size > 1 else {}
        for m in job.members:
            self._trace_segment(
                m.req, "queue_wait", m.enqueued_at, now, **batch_attrs
            )
        job.iso_s = self._iso_duration(job)
        # Fluid background contention: running width (this job included)
        # plus the background's continuous demand, over capacity. With
        # no background this is <= 1 by the dispatch guard, so the
        # duration is exactly the isolated one.
        stretch = self._stretch(self._active_width + job.width)
        duration = job.iso_s * stretch if stretch > 1.0 else job.iso_s
        self._occupy(job)
        head = job.members[0].req
        label_key = head.tenant if size == 1 else f"batch{size}"
        job.event = self.sim.schedule_after(
            duration,
            lambda: self._finish(job),
            label=f"pool:{self.host.name}:{label_key}",
        )

    def _finish(self, job: _Job) -> None:
        now = self.sim.now()
        job.event = None
        self._vacate(job)
        self._complete_members(job, now, shared=False)
        self._dispatch()

    def _occupy(self, job: _Job) -> None:
        """Run ``job``: claim its cores and count it active."""
        self.host.occupy(job.width)
        self._active[job] = None
        self._active_width += job.width
        self._active_size += job.size

    def _vacate(self, job: _Job) -> None:
        """Stop ``job``: uncount it and give its cores back."""
        del self._active[job]
        self._active_width -= job.width
        self._active_size -= job.size
        self.host.vacate(job.width)

    def _complete_members(self, job: _Job, now: float, shared: bool) -> None:
        """Account, trace and call back every member of a finished job.

        A member whose request already completed elsewhere (a stale
        duplicate after a crash-split rebalance) is skipped entirely:
        it contributes neither to ``served`` nor to the energy or
        calibration accounting, so pool throughput metrics count each
        request exactly once.
        """
        size = job.size
        elapsed = now - job.started_at
        batch_attrs: dict[str, object] = {"batch": size} if size > 1 else {}
        if shared:
            batch_attrs["shared"] = True
        head = job.members[0].req
        self.obs_iso_s += job.iso_s
        self.obs_pred_s += size * self.host.exec_model.exec_time(
            head.cycles, head.threads, head.profile
        )
        self.obs_requests += size
        live = [m for m in job.members if not m.req.completed]
        for m in live:
            self.host.account(m.req.tenant, m.req.cycles, elapsed / size)
            self._trace_segment(
                m.req, "service", job.started_at, now,
                width=job.width, **batch_attrs,
            )
        self.served += len(live)
        for m in live:
            m.on_complete(m.req, now)

    # -- processor sharing ---------------------------------------------
    def _ps_rate(self) -> float:
        demand = self._active_width + self.background_load
        if demand <= self.capacity:
            return 1.0
        return self.capacity / demand

    def _ps_advance(self, now: float) -> None:
        """Credit progress to every shared job since the last event."""
        elapsed = now - self._ps_last_t
        if elapsed > 0 and self._active:
            rate = self._ps_rate()
            for j in self._active:
                j.remaining_s -= elapsed * rate
        self._ps_last_t = now

    def _ps_admit(self, job: _Job) -> None:
        now = self.sim.now()
        self._ps_advance(now)
        job.started_at = now
        size = job.size
        batch_attrs = {"batch": size} if size > 1 else {}
        # Processor sharing admits immediately: queue_wait spans only
        # any batching stage wait (zero-width when unbatched).
        for m in job.members:
            self._trace_segment(
                m.req, "queue_wait", m.enqueued_at, now, **batch_attrs
            )
        job.iso_s = self._iso_duration(job)
        job.remaining_s = job.iso_s
        self._occupy(job)
        self._ps_reschedule(now)

    def _ps_reschedule(self, now: float, spent: Event | None = None) -> None:
        if self._ps_event is not None:
            self.sim.cancel(self._ps_event)
            self._ps_event = None
        if not self._active:
            return
        rate = self._ps_rate()
        soonest = min(j.remaining_s for j in self._active)
        delay = max(0.0, soonest / rate)
        if spent is not None:
            # Share-tick fast path: recycle the timer that just fired
            # instead of allocating a fresh event per PS re-plan.
            self._ps_event = self.sim.reschedule_after(spent, delay)
        else:
            self._ps_event = self.sim.schedule_after(
                delay, self._ps_complete, label=f"pool:{self.host.name}:share"
            )

    def _ps_complete(self) -> None:
        now = self.sim.now()
        spent = self._ps_event  # the share timer firing right now
        self._ps_event = None
        self._ps_advance(now)
        done = [j for j in self._active if j.remaining_s <= _PS_EPS]
        for job in done:
            self._vacate(job)
            self._complete_members(job, now, shared=True)
        self._ps_reschedule(now, spent=spent)


class WorkerPool:
    """The multi-tenant serving layer: balancer + workers + rebalance.

    Parameters
    ----------
    sim:
        The simulator all serving events run on.
    hosts:
        Server hosts (one worker each).
    scheduler:
        Per-worker discipline, shared policy object across workers for
        round-robin state-free policies (FIFO/EDF/PS are stateless).
    balancer:
        Request -> worker routing policy.
    telemetry:
        Optional metrics/events sink; per-tenant labels throughout.
    batching:
        Optional :class:`~repro.cloud.batching.BatchPolicy` applied by
        every worker. ``None`` (default) keeps the unbatched path —
        byte-identical to pre-batching behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        hosts: Iterable[Host],
        scheduler: Scheduler,
        balancer: LoadBalancer,
        telemetry: "Telemetry | None" = None,
        batching: BatchPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.balancer = balancer
        self.telemetry = telemetry
        self.workers: list[PoolWorker] = []
        #: Requests parked while no worker was up, re-placed on recovery.
        self._stranded: list[tuple[TickRequest, CompletionFn]] = []
        #: Totals for result reporting without telemetry.
        self.submitted = 0
        self.completed = 0
        self.rebalanced = 0
        #: Stale completions suppressed by the exactly-once guard (a
        #: request completing again after a crash-split rebalance).
        self.duplicate_completions = 0
        #: Total fluid background demand (repro.hybrid), in cores,
        #: spread evenly across live workers.
        self.background_demand_cores = 0.0
        self._instruments = None
        if telemetry is not None:
            m = telemetry.metrics
            self._instruments = (
                m.counter(
                    "cloud_requests_total",
                    "pool requests by tenant and outcome",
                ),
                m.histogram(
                    "cloud_service_seconds",
                    "pool-side sojourn (arrival to completion) per tenant",
                ),
                m.gauge("cloud_pool_queue_depth", "queued requests per worker"),
                m.gauge(
                    "cloud_pool_utilization",
                    "thread demand over capacity per worker",
                ),
                m.gauge("cloud_pool_workers", "live workers in the pool"),
                m.counter(
                    "cloud_rebalanced_total",
                    "requests re-placed after a worker crash/retire",
                ),
            )
        for h in hosts:
            self.workers.append(
                PoolWorker(sim, h, scheduler, telemetry, batching)
            )
            self._emit("pool_worker_added", worker=h.name)
        if not self.workers:
            raise ValueError("a WorkerPool needs at least one host")
        self._sample_gauges()

    def worker_hosts(self) -> tuple[Host, ...]:
        """Hosts in the pool (fault-injection targets)."""
        return tuple(w.host for w in self.workers)

    # ------------------------------------------------------------------
    # Fluid background (repro.hybrid)
    # ------------------------------------------------------------------
    def set_background_demand(self, cores: float) -> None:
        """Impose a fluid tenant population's demand on the pool.

        ``cores`` is the population's continuous core demand (its
        core-seconds per second), spread evenly across live workers.
        Setting 0 clears it. The demand shows up in every
        load signal — :meth:`PoolWorker.load`, :meth:`utilization`,
        the telemetry gauges — and stretches service per the fluid
        model, but occupies no queue slots and costs no DES events.
        """
        if cores < 0:
            raise ValueError(f"background cores must be non-negative, got {cores}")
        self.background_demand_cores = cores
        self._spread_background()
        self._sample_gauges()

    def _spread_background(self) -> None:
        """Rebalance the fluid demand over the current live workers."""
        if self.background_demand_cores == 0.0 and not any(
            w.background_load for w in self.workers
        ):
            return  # zero-background runs: stay byte-identical
        live = self.live_workers()
        share = (
            self.background_demand_cores / len(live) if live else 0.0
        )
        for w in self.workers:
            w.set_background(share if w.host.up else 0.0)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def live_workers(self) -> list[PoolWorker]:
        """Workers whose host is up."""
        return [w for w in self.workers if w.host.up]

    def has_live_workers(self) -> bool:
        """Whether :meth:`select_host` could currently place anything.

        Recovery-restore paths branch on this instead of catching the
        ``RuntimeError`` an empty pool raises.
        """
        return bool(self.live_workers())

    def submit(self, req: TickRequest, on_complete: CompletionFn) -> None:
        """Route one request; parks it if every worker is down."""
        now = self.sim.now()
        req.arrival_at = now
        self.submitted += 1
        # Wrap exactly once here: rebalanced victims re-enter via
        # _place with the already-wrapped callback.
        self._place(req, self._wrap(on_complete))
        self._sample_gauges()

    def _place(self, req: TickRequest, on_complete: CompletionFn) -> None:
        live = self.live_workers()
        if not live:
            self._stranded.append((req, on_complete))
            self._count(req.tenant, "stranded")
            self._emit("pool_stranded", tenant=req.tenant, seq=req.seq)
            return
        worker = self.balancer.pick(live, req, self.sim.now())
        self._count(req.tenant, "placed")
        worker.submit(req, on_complete)

    def _wrap(self, on_complete: CompletionFn) -> CompletionFn:
        def done(req: TickRequest, t: float) -> None:
            if req.completed:
                # Exactly-once guard: a stale duplicate (e.g. a batch
                # split by a crash whose riders were re-served) must
                # not inflate throughput or fire the tenant twice.
                self.duplicate_completions += 1
                self._count(req.tenant, "duplicate")
                return
            req.completed = True
            self.completed += 1
            if self._instruments is not None:
                requests, service, *_ = self._instruments
                requests.inc(tenant=req.tenant, outcome="served")
                service.observe(t - req.arrival_at, tenant=req.tenant)
            self._sample_gauges()
            on_complete(req, t)

        return done

    # ------------------------------------------------------------------
    # Fault wiring (repro.faults ServerCrash -> rebalance)
    # ------------------------------------------------------------------
    def on_worker_down(self, host: Host) -> int:
        """A pool host crashed: re-place everything it held.

        Returns the number of re-placed requests. Requests land on the
        surviving workers via the normal balancer; with nothing left
        up they park until :meth:`on_worker_up`. Any fluid background
        demand migrates to the survivors with them.
        """
        w = next((w for w in self.workers if w.host is host), None)
        if w is None:
            return 0
        victims = w.evict_all()
        self._emit(
            "pool_rebalance", worker=host.name, replaced=len(victims)
        )
        self._spread_background()
        self._replace(victims, crashed=host.name)
        self._sample_gauges()
        return len(victims)

    def on_worker_up(self, host: Host) -> None:
        """A crashed pool host restarted: drain any parked backlog."""
        self._emit("pool_worker_restored", worker=host.name)
        self._spread_background()
        self._replay_stranded()
        self._sample_gauges()

    def _replace(
        self, victims: list[tuple[TickRequest, CompletionFn]], crashed: str
    ) -> None:
        for req, cb in victims:
            req.rebalances += 1
            self.rebalanced += 1
            if self._instruments is not None:
                self._instruments[5].inc(worker=crashed)
                self._count(req.tenant, "rebalanced")
            self._place(req, cb)

    def _replay_stranded(self) -> None:
        if not self._stranded or not self.live_workers():
            return
        backlog, self._stranded = self._stranded, []
        for req, cb in backlog:
            self._place(req, cb)

    # ------------------------------------------------------------------
    # Metrics / placement views
    # ------------------------------------------------------------------
    def utilization(self, now: float | None = None) -> float:
        """Mean thread demand over capacity across live workers."""
        live = self.live_workers()
        if not live:
            return 0.0
        return sum(w.load() for w in live) / len(live)

    def queue_depth(self) -> int:
        """Total queued requests across the pool."""
        return sum(w.queue_depth() for w in self.workers)

    def total_capacity(self) -> float:
        """Hardware threads across live workers (admission's ceiling)."""
        return float(sum(w.capacity for w in self.live_workers()))

    def observed_iso_stats(self) -> tuple[float, float, int]:
        """Pooled calibration signal: (observed_s, predicted_s, requests).

        Sums every worker's contention-free service seconds (derates
        and batching amortization included), the execution model's
        prediction for the same completions, and how many requests
        they cover — what :class:`repro.hybrid.FluidBackground` re-fits
        its fluid rate from.
        """
        return (
            sum(w.obs_iso_s for w in self.workers),
            sum(w.obs_pred_s for w in self.workers),
            sum(w.obs_requests for w in self.workers),
        )

    def batch_stats(self) -> tuple[int, int]:
        """(batches executed, requests they carried) across workers."""
        return (
            sum(w.batches for w in self.workers),
            sum(w.batched_requests for w in self.workers),
        )

    def select_host(self, node_name: str) -> Host:
        """Least-loaded live host, for pool-mediated node placement.

        This is the hook :class:`repro.core.switcher.Switcher` uses
        when its server side is a pool instead of a single machine:
        long-lived node migrations land on whichever worker has the
        most headroom at migration time.
        """
        live = self.live_workers()
        if not live:
            raise RuntimeError("no live worker to place on")
        return min(live, key=lambda w: (w.load(), w.host.name)).host

    def _sample_gauges(self) -> None:
        if self._instruments is None:
            return
        _, _, qd, util, nworkers, _ = self._instruments
        for w in self.workers:
            qd.set(w.queue_depth(), worker=w.host.name)
            util.set(w.load(), worker=w.host.name)
        nworkers.set(len(self.live_workers()))

    def _count(self, tenant: str, outcome: str) -> None:
        if self._instruments is not None:
            self._instruments[0].inc(tenant=tenant, outcome=outcome)

    def _emit(self, kind: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(
                kind, t=self.sim.now(), track="cloud", **fields
            )
