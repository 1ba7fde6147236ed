"""Tests for the repro.lint static-analysis pass.

Each checker gets positive (flagged), negative (clean) and suppressed
fixture snippets, plus end-to-end ``repro lint --format json`` runs
over a temp tree.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.lint import (
    KNOWN_CODES,
    SuppressionIndex,
    Violation,
    lint_source,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.determinism import AMBIENT_CALLS, WALL_CLOCK_CALLS
from repro.lint.engine import allowed_codes


def lint(code: str, only: str | None = None) -> list[Violation]:
    src = textwrap.dedent(code)
    if only is None:
        return lint_source(src, path="fixture.py")
    assert only in KNOWN_CODES, f"unknown code {only}"
    return lint_source(src, path="fixture.py", select=[only])


def codes(violations: list[Violation]) -> list[str]:
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# DET001 — wall clock
# ----------------------------------------------------------------------
class TestDet001:
    def test_time_time_flagged(self):
        vs = lint("import time\nt = time.time()\n", only="DET001")
        assert codes(vs) == ["DET001"]
        assert vs[0].line == 2

    def test_perf_counter_flagged_through_alias(self):
        vs = lint(
            "from time import perf_counter as pc\nt = pc()\n",
            only="DET001",
        )
        assert codes(vs) == ["DET001"]

    def test_datetime_now_flagged(self):
        vs = lint(
            "from datetime import datetime\nstamp = datetime.now()\n",
            only="DET001",
        )
        assert codes(vs) == ["DET001"]

    def test_date_today_flagged(self):
        vs = lint("import datetime\nd = datetime.date.today()\n", only="DET001")
        assert codes(vs) == ["DET001"]

    def test_sim_clock_clean(self):
        vs = lint("def f(sim):\n    return sim.now()\n", only="DET001")
        assert vs == []

    def test_suppressed(self):
        vs = lint(
            "import time\nt = time.time()  # lint: ok(DET001): benchmark\n",
            only="DET001",
        )
        assert vs == []


# ----------------------------------------------------------------------
# DET002 — randomness
# ----------------------------------------------------------------------
class TestDet002:
    def test_import_random_flagged(self):
        vs = lint("import random\n", only="DET002")
        assert codes(vs) == ["DET002"]

    def test_from_random_import_flagged(self):
        vs = lint("from random import choice\n", only="DET002")
        assert codes(vs) == ["DET002"]

    def test_numpy_default_rng_flagged(self):
        vs = lint(
            "import numpy as np\nrng = np.random.default_rng(0)\n",
            only="DET002",
        )
        assert codes(vs) == ["DET002"]

    def test_seeded_rng_clean(self):
        vs = lint(
            "from repro.sim.rng import seeded_rng\nrng = seeded_rng(0)\n",
            only="DET002",
        )
        assert vs == []

    def test_generator_method_calls_clean(self):
        # draws *from a generator object* are fine; construction is not
        vs = lint("def f(rng):\n    return rng.random()\n", only="DET002")
        assert vs == []

    def test_file_suppression(self):
        vs = lint(
            "# lint: file-ok(DET002): rng construction site\n"
            "import numpy as np\n"
            "a = np.random.default_rng(0)\n"
            "b = np.random.default_rng(1)\n",
            only="DET002",
        )
        assert vs == []


# ----------------------------------------------------------------------
# DET003 — order-unstable iteration
# ----------------------------------------------------------------------
class TestDet003:
    def test_for_over_set_literal_flagged(self):
        vs = lint("for x in {1, 2, 3}:\n    print(x)\n", only="DET003")
        assert codes(vs) == ["DET003"]

    def test_for_over_set_call_flagged(self):
        vs = lint("for x in set([3, 1]):\n    print(x)\n", only="DET003")
        assert codes(vs) == ["DET003"]

    def test_for_over_set_typed_name_flagged(self):
        vs = lint(
            "def f(items):\n    seen = set(items)\n    for x in seen:\n        print(x)\n",
            only="DET003",
        )
        assert codes(vs) == ["DET003"]

    def test_comprehension_over_set_flagged(self):
        vs = lint("out = [x for x in {1, 2}]\n", only="DET003")
        assert codes(vs) == ["DET003"]

    def test_sorted_set_clean(self):
        vs = lint("for x in sorted({3, 1}):\n    print(x)\n", only="DET003")
        assert vs == []

    def test_membership_use_clean(self):
        vs = lint(
            "def f(items, x):\n    seen = set(items)\n    return x in seen\n",
            only="DET003",
        )
        assert vs == []

    def test_id_dict_key_flagged(self):
        vs = lint("def f(d, obj):\n    d[id(obj)] = 1\n", only="DET003")
        assert codes(vs) == ["DET003"]

    def test_id_dict_literal_key_flagged(self):
        vs = lint("def f(obj):\n    return {id(obj): obj}\n", only="DET003")
        assert codes(vs) == ["DET003"]

    def test_suppressed(self):
        vs = lint(
            "for x in {1, 2}:  # lint: ok(DET003)\n    print(x)\n",
            only="DET003",
        )
        assert vs == []


# ----------------------------------------------------------------------
# DET004 — ambient entropy
# ----------------------------------------------------------------------
class TestDet004:
    def test_environ_read_flagged(self):
        vs = lint("import os\nv = os.environ['SEED']\n", only="DET004")
        assert codes(vs) == ["DET004"]

    def test_getenv_flagged(self):
        vs = lint("import os\nv = os.getenv('SEED')\n", only="DET004")
        assert codes(vs) == ["DET004"]

    def test_urandom_flagged(self):
        vs = lint("import os\nv = os.urandom(8)\n", only="DET004")
        assert codes(vs) == ["DET004"]

    def test_uuid4_flagged(self):
        vs = lint("import uuid\nv = uuid.uuid4()\n", only="DET004")
        assert codes(vs) == ["DET004"]

    def test_plain_os_use_clean(self):
        vs = lint("import os\np = os.path.join('a', 'b')\n", only="DET004")
        assert vs == []

    def test_suppressed(self):
        vs = lint(
            "import os\nv = os.getenv('CI')  # lint: ok(DET004): CI detection\n",
            only="DET004",
        )
        assert vs == []


# ----------------------------------------------------------------------
# DET001/002/004 together — every primitive, however it is imported
# ----------------------------------------------------------------------
ENTROPY_PRIMITIVES = sorted(
    WALL_CLOCK_CALLS
    | AMBIENT_CALLS
    | {"random.random", "numpy.random.default_rng", "secrets.token_hex"}
)

#: A sim callback reaching the primitive two calls down; the call
#: sits on line ``SINK_LINE``.
SINK_TEMPLATE = """\
{import_line}


def sink():
    return {call}()


def helper():
    return sink()


def on_tick():
    return helper()


def start(sim):
    sim.schedule_after(1.0, on_tick)
"""
SINK_LINE = 5


def import_styles(name: str) -> list[tuple[str, str]]:
    """``(import line, callee)`` pairs that each spell the call ``name``."""
    parts = name.split(".")
    # numpy.random is the only sub-package; the rest are top-level modules
    depth = 2 if name.startswith("numpy.random.") else 1
    module, attrs = ".".join(parts[:depth]), parts[depth:]
    styles = [
        (f"import {parts[0]}", name),
        (f"import {parts[0]} as x", ".".join(["x", *parts[1:]])),
        (f"from {module} import {attrs[0]}", ".".join(attrs)),
        (f"from {module} import {attrs[0]} as g", ".".join(["g", *attrs[1:]])),
    ]
    if depth == 2:
        styles.append((f"from {parts[0]} import {parts[1]}", ".".join(parts[1:])))
    return styles


@pytest.mark.parametrize("name", ENTROPY_PRIMITIVES)
def test_every_entropy_primitive_is_flagged_where_it_is_written(name):
    missed = []
    for import_line, call in import_styles(name):
        src = SINK_TEMPLATE.format(import_line=import_line, call=call)
        found = {
            v.code for v in lint_source(src, path="sink.py") if v.line == SINK_LINE
        }
        if not found & {"DET001", "DET002", "DET004"}:
            missed.append(import_line)
    assert missed == []


# ----------------------------------------------------------------------
# SIM001 — reentrant Simulator.run
# ----------------------------------------------------------------------
class TestSim001:
    def test_registered_callback_calling_run_flagged(self):
        vs = lint(
            """
            def tick(sim):
                sim.run(until=5.0)

            def setup(sim):
                sim.schedule_after(1.0, tick)
            """,
            only="SIM001",
        )
        assert codes(vs) == ["SIM001"]

    def test_lambda_callback_flagged(self):
        vs = lint(
            "def setup(sim):\n"
            "    sim.schedule_after(1.0, lambda: sim.run(until=2.0))\n",
            only="SIM001",
        )
        assert codes(vs) == ["SIM001"]

    def test_non_callback_run_clean(self):
        vs = lint(
            """
            def main(sim):
                sim.schedule_after(1.0, step_mission)
                sim.run(until=10.0)

            def step_mission():
                pass
            """,
            only="SIM001",
        )
        assert vs == []

    def test_runner_run_clean(self):
        # .run on a non-sim receiver inside a callback is fine
        vs = lint(
            """
            def tick(runner):
                runner.run()

            def setup(sim):
                sim.every(1.0, tick)
            """,
            only="SIM001",
        )
        assert vs == []

    def test_suppressed(self):
        vs = lint(
            """
            def tick(sim):
                sim.run(until=5.0)  # lint: ok(SIM001)

            def setup(sim):
                sim.schedule_after(1.0, tick)
            """,
            only="SIM001",
        )
        assert vs == []


# ----------------------------------------------------------------------
# SIM002 — float equality on quantities
# ----------------------------------------------------------------------
class TestSim002:
    def test_time_eq_flagged(self):
        vs = lint("def f(deadline, now):\n    return now == deadline\n", only="SIM002")
        assert codes(vs) == ["SIM002"]

    def test_now_call_eq_flagged(self):
        vs = lint("def f(sim, t):\n    return sim.now() == t\n", only="SIM002")
        assert codes(vs) == ["SIM002"]

    def test_energy_neq_flagged(self):
        vs = lint(
            "def f(energy_j, budget):\n    return energy_j != budget\n",
            only="SIM002",
        )
        assert codes(vs) == ["SIM002"]

    def test_inequality_clean(self):
        vs = lint("def f(deadline, now):\n    return now >= deadline\n", only="SIM002")
        assert vs == []

    def test_non_quantity_eq_clean(self):
        vs = lint("def f(name, kind):\n    return name == kind\n", only="SIM002")
        assert vs == []

    def test_none_comparison_clean(self):
        vs = lint("def f(t):\n    return t == None\n", only="SIM002")
        assert vs == []

    def test_suppressed(self):
        vs = lint(
            "def f(t0, t1):\n    return t0 == t1  # lint: ok(SIM002): exact tie\n",
            only="SIM002",
        )
        assert vs == []


# ----------------------------------------------------------------------
# SIM003 — mutable defaults
# ----------------------------------------------------------------------
class TestSim003:
    def test_list_default_flagged(self):
        vs = lint("def f(log=[]):\n    log.append(1)\n", only="SIM003")
        assert codes(vs) == ["SIM003"]

    def test_dict_default_flagged(self):
        vs = lint("def f(cache={}):\n    pass\n", only="SIM003")
        assert codes(vs) == ["SIM003"]

    def test_set_ctor_default_flagged(self):
        vs = lint("def f(seen=set()):\n    pass\n", only="SIM003")
        assert codes(vs) == ["SIM003"]

    def test_kwonly_default_flagged(self):
        vs = lint("def f(*, log=[]):\n    pass\n", only="SIM003")
        assert codes(vs) == ["SIM003"]

    def test_none_default_clean(self):
        vs = lint("def f(log=None):\n    log = [] if log is None else log\n", only="SIM003")
        assert vs == []

    def test_tuple_default_clean(self):
        vs = lint("def f(dims=(1, 2)):\n    pass\n", only="SIM003")
        assert vs == []

    def test_suppressed(self):
        vs = lint("def f(log=[]):  # lint: ok(SIM003)\n    pass\n", only="SIM003")
        assert vs == []


# ----------------------------------------------------------------------
# SIM004 — unguarded telemetry
# ----------------------------------------------------------------------
class TestSim004:
    def test_unguarded_emit_flagged(self):
        vs = lint(
            """
            class Node:
                def fire(self):
                    self.telemetry.emit("tick", t=0.0)
            """,
            only="SIM004",
        )
        assert codes(vs) == ["SIM004"]

    def test_if_not_none_guard_clean(self):
        vs = lint(
            """
            class Node:
                def fire(self):
                    if self.telemetry is not None:
                        self.telemetry.emit("tick", t=0.0)
            """,
            only="SIM004",
        )
        assert vs == []

    def test_local_alias_guard_clean(self):
        vs = lint(
            """
            class Node:
                def fire(self):
                    tel = self.telemetry
                    if tel is not None:
                        tel.metrics.counter("ticks").inc()
            """,
            only="SIM004",
        )
        assert vs == []

    def test_early_return_guard_clean(self):
        vs = lint(
            """
            class Node:
                def _emit(self, kind):
                    if self.telemetry is None:
                        return
                    self.telemetry.emit(kind, t=0.0)
            """,
            only="SIM004",
        )
        assert vs == []

    def test_boolop_guard_clean(self):
        vs = lint(
            "def f(tel):\n    tel and tel.emit('tick', t=0.0)\n",
            only="SIM004",
        )
        assert vs == []

    def test_nonnull_annotation_clean(self):
        vs = lint(
            """
            def instrument(sim, telemetry: Telemetry):
                telemetry.metrics.counter("x").inc()
            """,
            only="SIM004",
        )
        assert vs == []

    def test_unguarded_alias_flagged(self):
        vs = lint(
            """
            class Node:
                def fire(self):
                    tel = self.telemetry
                    tel.emit("tick", t=0.0)
            """,
            only="SIM004",
        )
        assert codes(vs) == ["SIM004"]

    def test_suppressed(self):
        vs = lint(
            """
            class Node:
                def fire(self):
                    self.telemetry.emit("tick", t=0.0)  # lint: ok(SIM004)
            """,
            only="SIM004",
        )
        assert vs == []


# ----------------------------------------------------------------------
# Suppression syntax
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_line_codes_parsed(self):
        idx = SuppressionIndex("x = 1  # lint: ok(DET001, SIM002): reason\n")
        assert idx.is_suppressed("DET001", 1)
        assert idx.is_suppressed("SIM002", 1)
        assert not idx.is_suppressed("DET002", 1)
        assert not idx.is_suppressed("DET001", 2)

    def test_wildcard(self):
        idx = SuppressionIndex("x = 1  # lint: ok(*)\n")
        assert idx.is_suppressed("DET001", 1)

    def test_file_level(self):
        idx = SuppressionIndex("# lint: file-ok(SIM004): internal\nx = 1\n")
        assert idx.is_suppressed("SIM004", 99)
        assert not idx.is_suppressed("DET001", 1)


# ----------------------------------------------------------------------
# Violation record + output contract
# ----------------------------------------------------------------------
class TestViolationOutput:
    def test_render_format(self):
        v = Violation(path="a/b.py", line=3, col=7, code="DET001", message="msg")
        assert v.render() == "a/b.py:3:7 DET001 msg"

    def test_positions_are_exact(self):
        vs = lint("import time\n\n\nt = time.time()\n", only="DET001")
        assert (vs[0].line, vs[0].col) == (4, 4)

    def test_sorted_stable_output(self):
        src = "import time\nb = time.time()\na = time.time()\n"
        vs = lint(src, only="DET001")
        assert [v.line for v in vs] == [2, 3]


# ----------------------------------------------------------------------
# Engine: allowlist + path walking
# ----------------------------------------------------------------------
class TestEngine:
    def test_allowlist_matching(self):
        allow = (("*/telemetry/*", ("DET001",)),)
        assert "DET001" in allowed_codes("src/repro/telemetry/spans.py", allow)
        assert allowed_codes("src/repro/sim/kernel.py", allow) == frozenset()

    def test_lint_file_applies_allowlist(self, tmp_path):
        pkg = tmp_path / "telemetry"
        pkg.mkdir()
        f = pkg / "spans.py"
        f.write_text("import time\nt = time.time()\n")
        allow = (("*/telemetry/*", ("DET001",)),)
        assert run_lint([f], allowlist=allow).violations == []
        assert codes(run_lint([f], allowlist=()).violations) == ["DET001"]

    def test_lint_paths_walks_tree_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "a.py").write_text("import random\n")
        vs = run_lint([tmp_path], allowlist=()).violations
        assert [v.code for v in vs] == ["DET002", "DET001"]
        assert vs[0].path.endswith("a.py") and vs[1].path.endswith("b.py")


# ----------------------------------------------------------------------
# End-to-end CLI
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture(autouse=True)
    def _isolate_cache(self, tmp_path, monkeypatch):
        # the CLI's default cache dir is relative; keep it off the repo
        monkeypatch.chdir(tmp_path)

    @pytest.fixture()
    def bad_tree(self, tmp_path):
        (tmp_path / "clean.py").write_text("def f(sim):\n    return sim.now()\n")
        (tmp_path / "dirty.py").write_text(
            "import time\n\ndef f(log=[]):\n    return time.time()\n"
        )
        return tmp_path

    def test_json_output_and_exit_code(self, bad_tree, capsys):
        rc = lint_main([str(bad_tree), "--format", "json"])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert {(v["code"], v["line"]) for v in out} == {("SIM003", 3), ("DET001", 4)}
        for v in out:
            assert v["path"].endswith("dirty.py")

    def test_text_output_format(self, bad_tree, capsys):
        rc = lint_main([str(bad_tree)])
        assert rc == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(":4:" in line and "DET001" in line for line in lines)

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(sim):\n    return sim.now()\n")
        assert lint_main([str(tmp_path)]) == 0
        assert lint_main([str(tmp_path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == []

    def test_select_filters_checkers(self, bad_tree):
        assert lint_main([str(bad_tree), "--select", "DET002"]) == 0
        assert lint_main([str(bad_tree), "--select", "DET001"]) == 1

    def test_unknown_select_code(self, bad_tree, capsys):
        assert lint_main([str(bad_tree), "--select", "NOPE99"]) == 2
        assert "unknown checker code" in capsys.readouterr().err

    def test_repo_cli_dispatches_lint(self, bad_tree):
        from repro.cli import main as repro_main

        assert repro_main(["lint", str(bad_tree)]) == 1


def test_repo_tree_is_clean():
    """The shipped tree must satisfy its own invariants."""
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    vs = run_lint([root]).violations
    assert vs == [], "\n".join(v.render() for v in vs)


# ----------------------------------------------------------------------
# Fixture modules for the flow-aware checkers
# ----------------------------------------------------------------------
FIXTURES = __import__("pathlib").Path(__file__).resolve().parent / "lint_fixtures"


def lint_fixture(name: str, select: list[str] | None = None) -> list[Violation]:
    return run_lint([FIXTURES / name], allowlist=(), select=select).violations


# ----------------------------------------------------------------------
# CFG builder
# ----------------------------------------------------------------------
class TestCfg:
    def _cfg(self, src: str):
        import ast

        from repro.lint.cfg import build_cfg

        tree = ast.parse(textwrap.dedent(src))
        return build_cfg(tree.body[0])

    def test_if_has_two_way_branch(self):
        cfg = self._cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        test = next(b for b in cfg.blocks if b.role == "test")
        assert sorted(k for _b, k in test.succs) == ["false", "true"]

    def test_return_reaches_exit(self):
        cfg = self._cfg("def f():\n    return 1\n")
        ret = next(b for b in cfg.stmt_blocks())
        assert any(b is cfg.exit for b, _k in ret.succs)

    def test_uncaught_raise_reaches_raise_exit(self):
        cfg = self._cfg("def f():\n    raise ValueError()\n")
        blk = cfg.stmt_blocks()[0]
        assert any(b is cfg.raise_exit for b, _k in blk.succs)

    def test_call_in_try_gets_exception_edge_to_handler(self):
        cfg = self._cfg(
            """
            def f(x):
                try:
                    x.run()
                except RuntimeError:
                    x.cleanup()
            """
        )
        handler = next(b for b in cfg.blocks if b.role == "handler")
        call = next(b for b in cfg.stmt_blocks() if b.line == 4)
        assert any(b is handler for b, _k in call.succs)

    def test_call_outside_try_has_no_exception_edge(self):
        cfg = self._cfg("def f(x):\n    x.run()\n    return 1\n")
        call = cfg.stmt_blocks()[0]
        assert all(b is not cfg.raise_exit for b, _k in call.succs)

    def test_finally_runs_on_return_path(self):
        cfg = self._cfg(
            """
            def f(x):
                try:
                    return x.run()
                finally:
                    x.cleanup()
            """
        )
        # the return statement must flow through the finally body, not
        # jump straight to the exit
        ret = next(b for b in cfg.stmt_blocks() if b.line == 4)
        assert all(b is not cfg.exit for b, _k in ret.succs)
        fin = [b for b in cfg.stmt_blocks() if b.line == 6]
        assert any(any(t is cfg.exit for t, _k in b.succs) for b in fin)

    def test_while_loop_back_edge(self):
        cfg = self._cfg(
            """
            def f(x):
                while x.more():
                    x.step()
            """
        )
        head = next(b for b in cfg.blocks if b.role == "test")
        body = next(b for b in cfg.stmt_blocks() if b.line == 4)
        assert any(t is head and k == "loop" for t, k in body.succs)


# ----------------------------------------------------------------------
# RES001 — acquire/release pairing
# ----------------------------------------------------------------------
class TestRes001:
    def test_exception_path_vacate_leak_flagged(self):
        vs = lint_fixture("res001_leak.py", select=["RES001"])
        assert codes(vs) == ["RES001"]
        assert "occupy" in vs[0].message and "vacate" in vs[0].message
        assert vs[0].line == 9  # the acquire, in run_once only

    def test_try_finally_release_is_clean(self):
        vs = lint(
            """
            def f(host, task):
                host.occupy(task)
                try:
                    return task.run()
                finally:
                    host.vacate(task)
            """,
            only="RES001",
        )
        assert vs == []

    def test_early_return_leak_flagged(self):
        vs = lint(
            """
            def f(host, task):
                host.occupy(task)
                if task.bad:
                    return None
                host.vacate(task)
            """,
            only="RES001",
        )
        assert codes(vs) == ["RES001"]

    def test_conditional_acquire_failure_path_not_required(self):
        vs = lint(
            """
            def f(ctl, spec):
                ok = ctl.request_admission(spec)
                if not ok:
                    return False
                ctl.release(spec.name)
                return True
            """,
            only="RES001",
        )
        assert vs == []

    def test_ownership_transfer_satisfies_path(self):
        vs = lint(
            """
            def f(self, host, job):
                host.occupy(job)
                if job.fast:
                    host.vacate(job)
                    return
                self._active.append(job)
            """,
            only="RES001",
        )
        assert vs == []

    def test_split_callback_protocol_not_flagged(self):
        vs = lint(
            """
            def start(self, host, job):
                host.occupy(job)
                self.schedule(job)
            """,
            only="RES001",
        )
        assert vs == []

    def test_release_only_rotation_not_flagged(self):
        # release-old-then-grant-new: the new holding is long-lived
        vs = lint(
            """
            def rotate(self, sup, dest):
                for h in list(sup.leases):
                    sup.release(h)
                sup.grant(dest)
            """,
            only="RES001",
        )
        assert vs == []


# ----------------------------------------------------------------------
# PRO001 — protocol FSM discipline
# ----------------------------------------------------------------------
class TestPro001:
    def test_phase_method_early_exit_flagged(self):
        vs = lint_fixture("pro001_missing_abort.py", select=["PRO001"])
        assert "PRO001" in codes(vs)
        exit_findings = [v for v in vs if "exit" in v.message]
        assert len(exit_findings) == 1
        assert exit_findings[0].line == 20  # the non-guard return in _prepare

    def test_ctor_with_commit_but_no_abort_flagged(self):
        vs = lint_fixture("pro001_missing_abort.py", select=["PRO001"])
        ctor = [v for v in vs if "on_abort" in v.message]
        assert len(ctor) == 1 and ctor[0].line == 36

    def test_guard_return_is_legal(self):
        vs = lint(
            """
            class M:
                def _prepare(self, t):
                    if self.inflight.get(t.name) is not t:
                        return
                    self._commit(t)
                def _commit(self, t):
                    del self.inflight[t.name]
                def _abort_rollback(self, t):
                    del self.inflight[t.name]
            """,
            only="PRO001",
        )
        assert vs == []

    def test_scheduling_next_phase_via_lambda_is_action(self):
        vs = lint(
            """
            class M:
                def _prepare(self, t):
                    self._after(0.1, lambda: self._commit(t))
                def _commit(self, t):
                    del self.inflight[t.name]
                def _abort_rollback(self, t):
                    del self.inflight[t.name]
            """,
            only="PRO001",
        )
        assert vs == []

    def test_non_protocol_class_ignored(self):
        vs = lint(
            """
            class Helper:
                def prepare_report(self):
                    return 1
                def commit_to_memory(self):
                    return 2
            """,
            only="PRO001",
        )
        assert vs == []

    def test_discarded_request_result_flagged(self):
        vs = lint(
            """
            def move(self, name, dest):
                self.migrator.request(name, dest)
            """,
            only="PRO001",
        )
        assert codes(vs) == ["PRO001"]
        assert "discarded" in vs[0].message

    def test_checked_request_result_clean(self):
        vs = lint(
            """
            def move(self, name, dest):
                if not self.migrator.request(name, dest):
                    self.refused += 1
            """,
            only="PRO001",
        )
        assert vs == []


# ----------------------------------------------------------------------
# SIM005 — event lifecycle misuse
# ----------------------------------------------------------------------
class TestSim005:
    def test_fixture_flags_all_three_misuses(self):
        vs = lint_fixture("sim005_stale_handle.py", select=["SIM005"])
        assert codes(vs) == ["SIM005", "SIM005", "SIM005"]
        msgs = " | ".join(v.message for v in vs)
        assert "no evidence" in msgs
        assert "time" in msgs
        assert "container" in msgs

    def test_repush_after_pop_is_clean(self):
        vs = lint(
            """
            def drain(queue):
                h = queue.pop()
                t = h.time
                queue.repush(h, t + 5.0)
            """,
            only="SIM005",
        )
        assert vs == []

    def test_repush_guarded_by_fired_is_clean(self):
        vs = lint(
            """
            def rearm(self, queue):
                if self.tick.fired:
                    queue.repush(self.tick, 5.0)
            """,
            only="SIM005",
        )
        assert vs == []

    def test_reschedule_after_needs_no_evidence(self):
        vs = lint(
            """
            def rearm(self, queue):
                queue.reschedule_after(self.tick, 5.0)
            """,
            only="SIM005",
        )
        assert vs == []

    def test_time_read_before_rearm_is_clean(self):
        vs = lint(
            """
            def tick(self, queue):
                h = queue.pop()
                self.last = h.time
                queue.repush(h, self.last + 1.0)
            """,
            only="SIM005",
        )
        assert vs == []

    def test_attribute_binding_of_rearm_result_is_clean(self):
        vs = lint(
            """
            def rearm(self, queue):
                self._tick = queue.reschedule_after(self._tick, 1.0)
            """,
            only="SIM005",
        )
        assert vs == []


# ----------------------------------------------------------------------
# LNT001 — stale suppressions
# ----------------------------------------------------------------------
class TestLnt001:
    def test_stale_and_reasonless_flagged_used_with_reason_clean(self):
        vs = lint_fixture("lnt001_stale.py")
        lnt = [v for v in vs if v.code == "LNT001"]
        assert len(lnt) == 2
        assert {v.line for v in lnt} == {7, 11}
        msgs = {v.line: v.message for v in lnt}
        assert "stale" in msgs[7]
        assert "reason" in msgs[11]

    def test_select_subset_does_not_false_flag(self, tmp_path):
        # a SIM002 suppression cannot be judged by a DET-only run
        (tmp_path / "m.py").write_text(
            "def f(a, b):\n    return a == b  # lint: ok(SIM002): exact ns\n"
        )
        vs = run_lint([tmp_path], allowlist=(), select=["DET001", "LNT001"]).violations
        assert vs == []

    def test_fix_suppressions_strips_stale_comment(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "m.py"
        f.write_text("def f():\n    return 1  # lint: ok(DET001): stale\n")
        assert lint_main([str(f), "--fix-suppressions", "--no-cache"]) == 0
        assert f.read_text() == "def f():\n    return 1\n"

    def test_fix_suppressions_narrows_partial(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "m.py"
        f.write_text(
            "import time\n"
            "t = time.time()  # lint: ok(DET001, SIM002): wall display\n"
        )
        assert lint_main([str(f), "--fix-suppressions", "--no-cache"]) == 0
        assert "ok(DET001): wall display" in f.read_text()
        assert "SIM002" not in f.read_text()

    def test_fix_suppressions_keeps_codes_the_selected_run_did_not_check(
        self, tmp_path, monkeypatch
    ):
        # a DET001-only run cannot judge a SIM002 suppression, so it must
        # not strip it; the next full run would then fail with SIM002
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "m.py"
        live = "def f(t0, t1):\n    return t0 == t1  # lint: ok(SIM002): exact tie\n"
        f.write_text(live)
        argv = [str(f), "--select", "DET001", "--fix-suppressions", "--no-cache"]
        assert lint_main(argv) == 0
        assert f.read_text() == live
        assert lint_main([str(f), "--no-cache"]) == 0

    def test_fix_suppressions_strips_stale_code_a_run_checked(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "m.py"
        stale = "def f(t0, t1):\n    return t0 < t1  # lint: ok(SIM002): exact tie\n"
        f.write_text(stale)
        assert lint_main([str(f), "--select", "DET001", "--fix-suppressions", "--no-cache"]) == 0
        assert f.read_text() == stale
        assert lint_main([str(f), "--fix-suppressions", "--no-cache"]) == 0
        assert f.read_text() == "def f(t0, t1):\n    return t0 < t1\n"

    def test_standalone_stale_file_ok_line_is_dropped(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "m.py"
        f.write_text("# lint: file-ok(DET001): nothing here\nx = 1\n")
        assert lint_main([str(f), "--fix-suppressions", "--no-cache"]) == 0
        assert f.read_text() == "x = 1\n"


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------
class TestLintCache:
    def test_warm_run_hits_and_matches_cold(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "m.py").write_text("import time\nt = time.time()\n")
        cache = tmp_path / "cache"
        cold = run_lint([src], allowlist=(), cache_dir=cache)
        assert cold.cache is not None and cold.cache.hits == 0
        warm = run_lint([src], allowlist=(), cache_dir=cache)
        assert warm.cache is not None and warm.cache.hits == 1
        assert warm.violations == cold.violations

    def test_edited_file_reanalyzed(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        f = src / "m.py"
        f.write_text("import time\nt = time.time()\n")
        cache = tmp_path / "cache"
        run_lint([src], allowlist=(), cache_dir=cache)
        f.write_text("x = 1\n")
        rerun = run_lint([src], allowlist=(), cache_dir=cache)
        assert rerun.violations == []
        assert rerun.cache is not None and rerun.cache.hits == 0

    def test_suppression_change_seen_despite_cache(self, tmp_path):
        # suppressions are applied live; editing one invalidates the
        # content hash anyway, but the filtered result must track it
        src = tmp_path / "src"
        src.mkdir()
        f = src / "m.py"
        f.write_text("import time\nt = time.time()\n")
        cache = tmp_path / "cache"
        assert run_lint([src], allowlist=(), cache_dir=cache).violations != []
        f.write_text("import time\nt = time.time()  # lint: ok(DET001): demo\n")
        assert run_lint([src], allowlist=(), cache_dir=cache).violations == []


# ----------------------------------------------------------------------
# Typing discipline — mirrors pyproject's disallow_untyped_defs overrides
# ----------------------------------------------------------------------
STRICT_PACKAGES = ("sim", "telemetry", "hybrid", "sites", "obs")


@pytest.mark.parametrize("pkg", STRICT_PACKAGES)
def test_strict_packages_have_fully_annotated_defs(pkg):
    """Every def in the strict-typed packages carries full annotations.

    mypy enforces this in CI (``disallow_untyped_defs``); this AST pass
    keeps the invariant testable where mypy is not installed.
    """
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "src" / "repro" / pkg
    missing: list[str] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            holes = [
                a.arg
                for i, a in enumerate(params)
                if a.annotation is None and not (i == 0 and a.arg in ("self", "cls"))
            ]
            holes += [
                "*" + a.arg
                for a in (args.vararg, args.kwarg)
                if a is not None and a.annotation is None
            ]
            if node.returns is None:
                holes.append("return")
            if holes:
                missing.append(f"{path.name}:{node.lineno} {node.name}: {holes}")
    assert missing == [], "\n".join(missing)
