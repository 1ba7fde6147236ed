"""Tests for the kernel ordering auditor and reentrancy guard."""

from __future__ import annotations

import pytest

from repro.sim import Simulator


def _audited() -> Simulator:
    sim = Simulator()
    sim.enable_ordering_audit()
    return sim


class TestOrderingAuditor:
    def test_disabled_by_default(self):
        sim = Simulator()
        assert sim.auditor is None

    def test_stable_ties_are_not_ambiguous(self):
        """Two periodic processes colliding keep one stable order."""
        sim = _audited()
        order: list[str] = []
        sim.every(1.0, lambda: order.append("a"), label="a")
        sim.every(1.0, lambda: order.append("b"), label="b")
        sim.run(until=5.0)
        aud = sim.auditor
        assert aud is not None
        assert aud.tie_count == 5
        assert aud.pair_counts[("a", "b")] == 5
        assert aud.ambiguities == []
        assert not aud.ambiguous

    def test_inversion_is_ambiguous(self):
        """A tied label pair that flips order within the run is flagged."""
        sim = _audited()
        sim.schedule_at(1.0, lambda: None, label="a")
        sim.schedule_at(1.0, lambda: None, label="b")
        # same pair, opposite insertion order at t=2
        sim.schedule_at(2.0, lambda: None, label="b")
        sim.schedule_at(2.0, lambda: None, label="a")
        sim.run()
        aud = sim.auditor
        assert aud is not None
        assert aud.tie_count == 2
        assert [amb.kind for amb in aud.ambiguities] == ["inversion"]
        assert aud.ambiguities[0].time == pytest.approx(2.0)
        assert "inversion" in aud.report()

    def test_same_label_distinct_callbacks_is_ambiguous(self):
        sim = _audited()
        sim.schedule_at(1.0, lambda: "x", label="tick")
        sim.schedule_at(1.0, lambda: "y", label="tick")
        sim.run()
        aud = sim.auditor
        assert aud is not None
        assert [amb.kind for amb in aud.ambiguities] == ["same-label"]

    def test_causal_child_tie_is_not_counted(self):
        """An event scheduling a same-time follow-up is causal, not a tie."""
        sim = _audited()

        def parent() -> None:
            sim.schedule_after(0.0, lambda: None, label="child")

        sim.schedule_at(1.0, parent, label="parent")
        sim.run()
        aud = sim.auditor
        assert aud is not None
        assert aud.tie_count == 0
        assert aud.ambiguities == []

    def test_different_times_never_tie(self):
        sim = _audited()
        sim.schedule_at(1.0, lambda: None, label="a")
        sim.schedule_at(2.0, lambda: None, label="b")
        sim.run()
        assert sim.auditor is not None
        assert sim.auditor.tie_count == 0

    def test_enable_mid_run(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, label="a")
        sim.schedule_at(1.0, lambda: None, label="b")
        sim.run(until=1.5)
        aud = sim.enable_ordering_audit()
        assert sim.enable_ordering_audit() is aud  # idempotent
        sim.schedule_at(2.0, lambda: None, label="a")
        sim.schedule_at(2.0, lambda: None, label="b")
        sim.run()
        assert aud.tie_count == 1

    def test_report_renders_clean_run(self):
        sim = _audited()
        sim.schedule_at(1.0, lambda: None, label="only")
        sim.run()
        assert sim.auditor is not None
        assert "no ambiguous tiebreaks" in sim.auditor.report()

    def test_install_default_audit_registry(self):
        registry = Simulator.install_default_audit()
        try:
            sim = Simulator()
            assert sim.auditor is not None
            assert sim.auditor in registry
            sim.schedule_at(1.0, lambda: None, label="a")
            sim.schedule_at(1.0, lambda: None, label="b")
            sim.run()
        finally:
            Simulator.clear_default_audit()
        assert registry[0].tie_count == 1
        assert Simulator().auditor is None  # cleared


class TestReentrancyGuard:
    def test_reentrant_run_raises(self):
        sim = Simulator()
        errors: list[Exception] = []

        def bad() -> None:
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule_at(1.0, bad)
        sim.run()
        assert len(errors) == 1
        assert "reentrantly" in str(errors[0])

    def test_reentrant_step_raises(self):
        sim = Simulator()
        with_err: list[Exception] = []

        def bad() -> None:
            try:
                sim.step()
            except RuntimeError as exc:
                with_err.append(exc)

        sim.schedule_at(1.0, bad)
        sim.schedule_at(2.0, lambda: None, label="later")
        sim.run()
        assert len(with_err) == 1

    def test_sequential_runs_still_fine(self):
        sim = Simulator()
        fired: list[float] = []
        sim.schedule_at(1.0, lambda: fired.append(sim.now()))
        sim.run(until=1.5)
        sim.schedule_at(2.0, lambda: fired.append(sim.now()))
        sim.run()
        assert fired == [1.0, 2.0]

    def test_guard_resets_after_callback_error(self):
        sim = Simulator()

        def boom() -> None:
            raise ValueError("x")

        sim.schedule_at(1.0, boom)
        with pytest.raises(ValueError):
            sim.run()
        # the guard must not be left set
        sim.schedule_at(2.0, lambda: None)
        assert sim.run() == 2.0

    def test_fire_now_inside_callback_still_allowed(self):
        """Process.fire_now is a direct call, not a kernel re-entry."""
        sim = Simulator()
        fired: list[int] = []
        proc = sim.every(1.0, lambda: fired.append(1), label="p")

        def kick() -> None:
            proc.fire_now()

        sim.schedule_at(0.5, kick)
        sim.run(until=0.6)
        assert fired == [1]


class TestEventParentTracking:
    def test_setup_events_have_no_parent(self):
        sim = Simulator()
        ev = sim.schedule_at(1.0, lambda: None)
        assert ev.parent == -1

    def test_child_records_firing_parent(self):
        sim = Simulator()
        children = []

        def parent() -> None:
            children.append(sim.schedule_after(1.0, lambda: None))

        ev = sim.schedule_at(1.0, parent)
        sim.run()
        assert children[0].parent == ev.seq
