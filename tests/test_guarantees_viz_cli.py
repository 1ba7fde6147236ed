"""Tests for guarantees (§IX lemmas), visualization, Fig. 7 trace, and the CLI."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.viz import WorldView, render_mission
from repro.cli import ARTIFACTS, main as cli_main
from repro.core.guarantees import (
    min_hysteresis_for_noise,
    offload_beneficial,
    offload_latency_budget,
    safe_underestimate_factor,
    thrash_possible,
    velocity_safety_margin,
)
from repro.experiments.fig7_udp import run_fig7
from repro.world import CellState, OccupancyGrid, Pose2D, box_world


class TestNoThrashLemma:
    @given(st.floats(0.0, 0.5), st.floats(0.1, 10.0))
    @settings(max_examples=100)
    def test_hysteresis_at_noise_bound_excludes_thrash(self, noise, rho):
        """With h = e (the lemma's bound), no true ratio admits thrash."""
        h = min_hysteresis_for_noise(noise)
        assert not thrash_possible(rho, noise, h)

    def test_insufficient_hysteresis_admits_thrash(self):
        # rho = 1, 20% noise, only 5% hysteresis: both flips reachable
        assert thrash_possible(1.0, noise=0.2, hysteresis=0.05)

    def test_invalid(self):
        with pytest.raises(ValueError):
            min_hysteresis_for_noise(1.5)
        with pytest.raises(ValueError):
            thrash_possible(0.0, 0.1, 0.1)


class TestVelocitySafety:
    @given(st.floats(0.0, 5.0))
    @settings(max_examples=60)
    def test_exact_measurement_respects_stop_distance(self, tp):
        """factor = 1 (no underestimate): distance within d, always."""
        d = velocity_safety_margin(tp, underestimate_factor=1.0)
        assert d <= 0.2 + 1e-9

    @given(st.floats(0.01, 3.0), st.floats(1.0, 5.0))
    @settings(max_examples=60)
    def test_margin_monotone_in_underestimate(self, tp, f):
        assert velocity_safety_margin(tp, f) >= velocity_safety_margin(tp, 1.0) - 1e-12

    @given(st.floats(0.05, 3.0), st.floats(0.25, 2.0))
    @settings(max_examples=60)
    def test_safe_factor_is_tight(self, tp, clearance):
        """Running exactly at the returned factor stays inside clearance."""
        f = safe_underestimate_factor(tp, clearance)
        if f in (0.0, math.inf):
            return
        assert velocity_safety_margin(tp, max(f, 1.0)) <= clearance + 1e-9

    def test_invalid(self):
        with pytest.raises(ValueError):
            velocity_safety_margin(1.0, 0.5)
        with pytest.raises(ValueError):
            safe_underestimate_factor(1.0, 0.0)


class TestLatencyBudget:
    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @settings(max_examples=100)
    def test_budget_matches_ground_truth(self, local, cloud, rtt):
        """rtt under the budget <=> offloading raises v_max (strictly,
        modulo the hardware cap saturating both sides)."""
        budget = offload_latency_budget(local, cloud)
        beneficial = offload_beneficial(local, cloud, rtt)
        if rtt < budget:
            # t_p strictly smaller -> v at least as high
            assert beneficial or math.isclose(cloud + rtt, local, abs_tol=1e-12) or (
                # both saturate the hardware cap
                local <= 0.05
            )
        if rtt > budget:
            assert not beneficial

    def test_negative_budget_means_never(self):
        assert offload_latency_budget(0.1, 0.5) < 0
        assert not offload_beneficial(0.1, 0.5, 0.0)


class TestFig7Trace:
    def test_paper_scenario(self):
        r = run_fig7()
        fates = [f.fate for f in r.fates]
        assert fates[0] == "delivered"
        assert fates[1] == "held" and fates[2] == "held"
        assert fates[3] == "discarded" and fates[4] == "discarded"
        # held packets flushed late — latency >> normal
        assert len(r.flushed_latencies_ms) >= 1
        assert min(r.flushed_latencies_ms) > 1000

    def test_render_mentions_each_packet(self):
        text = run_fig7().render()
        for i in range(1, 6):
            assert f"packet {i}" in text

    def test_invalid(self):
        with pytest.raises(ValueError):
            run_fig7(n_packets=2)
        with pytest.raises(ValueError):
            run_fig7(n_packets=5, weak_from=0)


class TestWorldView:
    def test_walls_rendered(self):
        txt = WorldView(box_world(5.0), max_cols=40).render()
        assert "#" in txt and "." in txt

    def test_unknown_blank(self):
        g = OccupancyGrid.empty(10, 10, fill=CellState.UNKNOWN)
        txt = WorldView(g, max_cols=10).render()
        assert set(txt.replace("\n", "")) == {" "}

    def test_markers_win_over_paths(self):
        g = box_world(5.0)
        txt = render_mission(
            g,
            trajectory=np.array([[1.0, 1.0], [1.2, 1.2]]),
            robot=Pose2D(1.0, 1.0, 0),
            goal=Pose2D(4.0, 4.0, 0),
            wap=(1.5, 1.5),
        )
        assert "R" in txt and "G" in txt and "W" in txt and "o" in txt

    def test_downsampling_caps_width(self):
        g = box_world(10.0, resolution=0.02)  # 500 cols
        txt = WorldView(g, max_cols=60).render()
        assert max(len(line) for line in txt.splitlines()) <= 63


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_unknown_artifact(self, capsys):
        assert cli_main(["nope"]) == 2

    def test_runs_fast_artifacts(self, capsys):
        assert cli_main(["table1", "table3", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table III" in out and "Fig. 7" in out

    def test_every_artifact_has_render(self):
        for name, (runner, desc) in ARTIFACTS.items():
            assert desc
            assert callable(runner)

    def test_trace_without_artifact_errors(self, capsys):
        assert cli_main(["trace"]) == 2

    @pytest.mark.parametrize("scheduler", ["fifo", "edf"])
    def test_hybrid_refuses_unvalidated_scheduler(self, capsys, scheduler):
        # only processor sharing is validated for the fluid/DES coupling
        assert cli_main(["fleet", "--hybrid", "--scheduler", scheduler]) == 2
        err = capsys.readouterr().err
        assert "--scheduler ps" in err and scheduler in err

    @pytest.mark.parametrize("scheduler", ["fifo", "edf"])
    def test_geo_background_refuses_unvalidated_scheduler(self, capsys, scheduler):
        argv = ["geo", "--geo-background", "50", "--scheduler", scheduler]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "--geo-background" in err and "--scheduler ps" in err
        assert scheduler in err

    def test_geo_reads_scheduler_and_defaults_background_to_ps(self, monkeypatch, capsys):
        seen = []

        class _Result:
            def render(self):
                return ""

        def fake_geo(**kwargs):
            seen.append(kwargs["scheduler"])
            return _Result()

        monkeypatch.setitem(ARTIFACTS, "geo", (fake_geo, "geo"))
        for argv in (["geo"], ["geo", "--geo-background", "50"],
                     ["geo", "--scheduler", "fifo"]):
            assert cli_main(argv) == 0
        assert seen == ["edf", "ps", "fifo"]

    def test_hybrid_defaults_to_ps(self, capsys, tmp_path):
        out_path = tmp_path / "hybrid.json"
        argv = ["fleet", "--hybrid", "--tenants", "64", "--focal", "2",
                "--fleet-out", str(out_path)]
        assert cli_main(argv) == 0
        assert "ps scheduler" in capsys.readouterr().out
        import json

        assert json.loads(out_path.read_text())["meta"]["scheduler"] == "ps"

    def test_critical_path_with_no_traces_exits_cleanly(self, capsys):
        # table3 never touches an obs-instrumented path; the report
        # must say so and exit 0, not stack-trace on an empty tracer
        assert cli_main(["table3", "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "no request traces recorded" in out

    def test_critical_path_report_on_instrumented_run(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert cli_main(
            ["fig9", "--critical-path", "--trace-out", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "######## critical path ########" in out
        assert "vdp_tick" in out
        assert "time by segment" in out
        import json

        from repro.telemetry import validate_chrome_trace

        obj = json.loads(trace.read_text())
        assert validate_chrome_trace(obj) == []
        assert any(e.get("cat") == "request" for e in obj["traceEvents"])

    def test_kernel_profile_out(self, capsys, tmp_path):
        prof = tmp_path / "prof.json"
        # --trace-out attaches telemetry, which makes fig9 run its
        # reference DES mission — the thing the profiler attributes
        assert cli_main(
            [
                "fig9",
                "--trace-out", str(tmp_path / "t.json"),
                "--kernel-profile-out", str(prof),
            ]
        ) == 0
        import json

        data = json.loads(prof.read_text())
        assert data["simulators"] >= 1
        assert data["events"] > 0
        assert data["labels"]
        assert "kernel profile written" in capsys.readouterr().out
