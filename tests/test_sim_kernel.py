"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import EventQueue, SimClock, Simulator
from repro.sim.rng import seeded_rng, split_rng


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now() == 5.0

    def test_advance(self):
        c = SimClock()
        c.advance_to(3.5)
        assert c.now() == 3.5

    def test_backwards_raises(self):
        c = SimClock(2.0)
        with pytest.raises(ValueError):
            c.advance_to(1.0)

    def test_advance_to_same_time_ok(self):
        c = SimClock(2.0)
        c.advance_to(2.0)
        assert c.now() == 2.0


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.push(3.0, lambda: fired.append("c"))
        while q:
            q.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_fifo_for_ties(self):
        q = EventQueue()
        fired = []
        for tag in "abc":
            q.push(1.0, lambda t=tag: fired.append(t))
        while q:
            q.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_cancel_skips_event(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(ev)
        assert len(q) == 1
        assert q.pop().time == 2.0

    def test_cancel_twice_is_idempotent(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(4.0, lambda: None)
        assert q.peek_time() == 4.0

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), lambda: None)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while q:
            popped.append(q.pop().time)
        assert popped == sorted(popped)


class TestSimulator:
    def test_run_advances_clock(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        end = sim.run()
        assert end == 5.0

    def test_schedule_after(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(1.0, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [1.0]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now() == 5.0  # clock lands exactly on `until`

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 10]

    def test_events_cascade(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now())
            sim.schedule_after(2.0, lambda: seen.append(sim.now()))

        sim.schedule_at(1.0, first)
        sim.run()
        assert seen == [1.0, 3.0]

    def test_deterministic_replay(self):
        def run_once():
            sim = Simulator()
            order = []
            sim.every(0.3, lambda: order.append(("a", round(sim.now(), 9))))
            sim.every(0.5, lambda: order.append(("b", round(sim.now(), 9))))
            sim.run(until=10.0)
            return order

        assert run_once() == run_once()


class TestProcess:
    def test_periodic_firing(self):
        sim = Simulator()
        count = []
        sim.every(1.0, lambda: count.append(sim.now()))
        sim.run(until=5.5)
        assert count == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_start_delay(self):
        sim = Simulator()
        count = []
        sim.every(1.0, lambda: count.append(sim.now()), start_delay=0.0)
        sim.run(until=2.5)
        assert count == [0.0, 1.0, 2.0]

    def test_stop_cancels_future(self):
        sim = Simulator()
        count = []
        proc = sim.every(1.0, lambda: count.append(1))
        sim.schedule_at(2.5, proc.stop)
        sim.run(until=10.0)
        assert len(count) == 2
        assert not proc.running

    def test_stop_from_inside_callback(self):
        sim = Simulator()
        holder = {}

        def cb():
            if holder["p"].fire_count >= 3:
                holder["p"].stop()

        holder["p"] = sim.every(1.0, cb)
        sim.run(until=100.0)
        assert holder["p"].fire_count == 3

    def test_fire_now(self):
        sim = Simulator()
        times = []
        proc = sim.every(1.0, lambda: times.append(sim.now()))
        sim.schedule_at(2.5, proc.fire_now)
        sim.run(until=5.0)
        # period restarts from the forced firing at 2.5
        assert times == [1.0, 2.0, 2.5, 3.5, 4.5]
        assert proc.fire_count == 5

    def test_fire_now_on_stopped_process_raises(self):
        sim = Simulator()
        proc = sim.every(1.0, lambda: None)
        proc.stop()
        with pytest.raises(RuntimeError):
            proc.fire_now()

    def test_queue_depth(self):
        sim = Simulator()
        assert sim.queue_depth == 0
        e1 = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.queue_depth == 2
        sim.cancel(e1)
        assert sim.queue_depth == 1
        sim.run()
        assert sim.queue_depth == 0

    def test_invalid_period_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)


class TestProcessErrors:
    """A raising callback stops its process, then propagates."""

    @staticmethod
    def _boom():
        raise RuntimeError("boom")

    def test_raise_policy_propagates_but_tears_down_cleanly(self):
        # the error escapes sim.run, but the process is left
        # consistently dead — previously ``running`` stayed True with
        # no firing ever scheduled again
        sim = Simulator()
        proc = sim.every(1.0, self._boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=5.0)
        assert not proc.running
        assert sim.queue_depth == 0
        # the simulator itself is still usable
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=5.0)


class TestRng:
    def test_seeded_rng_reproducible(self):
        a = seeded_rng(42).random(5)
        b = seeded_rng(42).random(5)
        assert (a == b).all()

    def test_split_rng_streams_differ(self):
        parent = seeded_rng(0)
        children = split_rng(parent, 4)
        draws = [c.random() for c in children]
        assert len(set(draws)) == 4

    def test_split_rng_deterministic(self):
        a = [g.random() for g in split_rng(seeded_rng(1), 3)]
        b = [g.random() for g in split_rng(seeded_rng(1), 3)]
        assert a == b

    def test_split_negative_raises(self):
        with pytest.raises(ValueError):
            split_rng(seeded_rng(0), -1)


class TestEventLifecycle:
    """The PENDING -> FIRED / CANCELLED contract added by the kernel
    overhaul: cancellation is safe in every state, recycling is only
    legal for fired events, and handles are namespaced per queue."""

    def test_cancel_after_fire_is_noop(self):
        # Regression (headline bugfix): the old queue decremented its
        # live count and parked the seq in `_dead` forever when a
        # handle was cancelled after its event had already fired.
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        fired = q.pop()
        assert fired is ev and ev.fired
        q.cancel(ev)  # must be a safe no-op
        assert ev.fired and not ev.cancelled
        assert len(q) == 1
        assert q.cancels == 0
        assert q.pop().time == 2.0
        assert len(q) == 0

    def test_cancel_after_fire_corrupts_the_legacy_queue(self):
        # The same sequence on the frozen pre-overhaul queue shows the
        # bug this PR fixes: the live count underflows by one, so the
        # queue claims to be empty while an event is still scheduled.
        from benchmarks._legacy_kernel import LegacyEventQueue

        legacy = LegacyEventQueue()
        ev = legacy.push(1.0, lambda: None)
        legacy.push(2.0, lambda: None)
        legacy.pop()
        legacy.cancel(ev)  # accounting corruption on the old queue
        assert len(legacy) == 0  # WRONG: the t=2.0 event is still live
        new = EventQueue()
        ev = new.push(1.0, lambda: None)
        new.push(2.0, lambda: None)
        new.pop()
        new.cancel(ev)
        assert len(new) == 1  # fixed queue keeps truthful accounting

    def test_cancel_then_pop_to_exhaustion(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(10)]
        for ev in handles[::2]:
            q.cancel(ev)
        times = []
        while q:
            times.append(q.pop().time)
        assert times == [1.0, 3.0, 5.0, 7.0, 9.0]
        with pytest.raises(IndexError):
            q.pop()
        # cancelling any handle of the exhausted queue stays a no-op
        for ev in handles:
            q.cancel(ev)
        assert len(q) == 0 and q.peek_time() is None

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.cancel(ev)
        q.cancel(ev)
        q.cancel(ev)
        assert q.cancels == 1 and len(q) == 0

    def test_cancel_foreign_event_rejected(self):
        q1, q2 = EventQueue(), EventQueue()
        ev = q1.push(1.0, lambda: None)
        with pytest.raises(ValueError):
            q2.cancel(ev)
        assert ev.pending and len(q1) == 1  # untouched

    def test_simulator_cancel_rejects_foreign_event(self):
        # Regression: Simulator.cancel used to forward any Event handle
        # to its queue, silently corrupting accounting when the handle
        # came from a different simulator.
        sim1, sim2 = Simulator(), Simulator()
        ev = sim1.schedule_at(1.0, lambda: None)
        sim2.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim2.cancel(ev)
        sim1.cancel(ev)  # the owner can still cancel it
        assert ev.cancelled

    def test_repush_requires_fired_state(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        with pytest.raises(ValueError):
            q.repush(ev, 2.0)  # still pending
        q.cancel(ev)
        with pytest.raises(ValueError):
            q.repush(ev, 2.0)  # cancelled
        ev2 = q.push(1.0, lambda: None)
        fired = q.pop()
        assert fired is ev2
        back = q.repush(ev2, 5.0)
        assert back is ev2 and ev2.pending and ev2.time == 5.0

    def test_repush_draws_a_fresh_seq_like_push(self):
        # Slot reuse must not perturb the (time, seq) tie order: a
        # repush consumes exactly one counter draw, like a fresh push.
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        q.pop()
        q.repush(a, 2.0)
        b = q.push(2.0, lambda: None)
        assert b.seq == a.seq + 1
        assert q.pop() is a  # same time: recycled slot kept FIFO order
        assert q.pop() is b

    def test_repush_foreign_event_rejected(self):
        q1, q2 = EventQueue(), EventQueue()
        ev = q1.push(1.0, lambda: None)
        q1.pop()
        with pytest.raises(ValueError):
            q2.repush(ev, 2.0)

    def test_queue_depth_stays_truthful_under_churn(self):
        sim = Simulator()
        watchdog = []

        def tick():
            if watchdog:
                sim.cancel(watchdog.pop())
            watchdog.append(sim.schedule_after(10.0, lambda: None))
            if sim.now() < 1.0:
                sim.schedule_after(0.1, tick)

        sim.schedule_after(0.1, tick)
        sim.run(until=2.0)
        # one live watchdog timer remains, and cancelling handles that
        # already fired (the ticks) must not disturb the depth
        assert sim.queue_depth == 1
        q = sim.queue
        assert q.pruned <= q.cancels
        assert len(q) == 1

    def test_pop_due_respects_bound(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.push(3.0, lambda: None)
        assert q.pop_due(0.5) is None
        assert len(q) == 2  # nothing consumed by a miss
        ev = q.pop_due(1.0)
        assert ev is not None and ev.time == 1.0
        assert q.pop_due(2.0) is None
        assert q.pop_due(None).time == 3.0
        assert q.pop_due() is None


class TestQueueOrder:
    """The event queue must pop in exact (time, seq) order on any
    workload of pushes, ties, pops, cancels and slot-reuse repushes."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "push_tie", "pop", "cancel", "repush"]),
                st.floats(min_value=0.0, max_value=120.0),
                st.integers(min_value=0, max_value=10_000),
                st.booleans(),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_matches_a_sorted_list_model(self, ops):
        # The model is trivially correct: the live (time, seq) pairs,
        # kept sorted, so its head is always the next event to fire.
        # ``look`` decides whether this step also peeks: a peek prunes
        # a dead head itself, so steps without one leave it for pop.
        from repro.sim.events import FIRED, PENDING

        q = EventQueue()
        model: list[tuple[float, int]] = []
        handles = []
        now = 0.0
        for op, dt, pick, look in ops:
            if op in ("push", "push_tie"):
                t = now if op == "push_tie" else now + dt
                ev = q.push(t, lambda: None)
                handles.append(ev)
                model.append((ev.time, ev.seq))
            elif op == "pop":
                if model:
                    ev = q.pop()
                    assert (ev.time, ev.seq) == model.pop(0)
                    assert ev.state == FIRED
                    now = max(now, ev.time)
                else:
                    with pytest.raises(IndexError):
                        q.pop()
            elif op == "cancel" and handles:
                ev = handles[pick % len(handles)]
                if ev.state == PENDING:
                    model.remove((ev.time, ev.seq))
                q.cancel(ev)
            elif op == "repush" and handles:
                ev = handles[pick % len(handles)]
                if ev.state == FIRED:
                    q.repush(ev, now + dt)
                    model.append((ev.time, ev.seq))
            model.sort()
            assert len(q) == len(model)
            assert bool(q) == bool(model)
            if not look:
                continue
            head = q.peek()
            if model:
                assert head is not None and (head.time, head.seq) == model[0]
                assert q.peek_time() == model[0][0]
            else:
                assert head is None and q.peek_time() is None
        while model:
            ev = q.pop()
            assert (ev.time, ev.seq) == model.pop(0)
        assert not q
        assert q.pruned <= q.cancels

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=60.0),
            min_size=1,
            max_size=80,
        )
    )
    def test_matches_the_frozen_legacy_order(self, times):
        # Same pop order as the pre-overhaul kernel (push/pop only: the
        # legacy queue predates safe cancellation semantics).
        from benchmarks._legacy_kernel import LegacyEventQueue

        q = EventQueue()
        legacy = LegacyEventQueue()
        for t in times:
            q.push(t, lambda: None)
            legacy.push(t, lambda: None)
        order_new = []
        while q:
            ev = q.pop()
            order_new.append((ev.time, ev.seq))
        order_legacy = []
        while legacy:
            ev = legacy.pop()
            order_legacy.append((ev.time, ev.seq))
        assert order_new == order_legacy
