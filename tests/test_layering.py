"""The package graph is one-way: each package imports only packages
below it, and a serving run never loads the robot stack.

The serving layers (``cloud``, ``hybrid``, ``sites``) run no
perception, so importing them must not pull in DWA, the costmap,
scipy or the offloading framework; the missions, in turn, must not
pay for the serving stack. Both are checked in a fresh interpreter,
because this test session has long since imported everything.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

SERVING_ENTRY_POINTS = (
    "repro.experiments.fleet_scale",
    "repro.experiments.geo",
    "repro.hybrid.experiment",
    "repro.sites.session",
    "repro.cloud.tenants",
    "repro.telemetry",
)
ROBOT_STACK = (
    "repro.perception",
    "repro.planning",
    "repro.core",
    "repro.workloads",
    "repro.extensions",
    "repro.vehicle",
    "repro.control.dwa",
)
SERVING_STACK = ("repro.cloud", "repro.hybrid", "repro.sites")


def _loaded_after(*modules):
    """``sys.modules`` of a fresh interpreter that imported ``modules``."""
    code = "".join(f"import {m}\n" for m in modules)
    code += "import sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return set(out.split())


def _within(loaded, packages):
    return sorted(
        m for m in loaded for p in packages if m == p or m.startswith(p + ".")
    )


def test_serving_loads_no_robot_stack():
    loaded = _loaded_after(*SERVING_ENTRY_POINTS)
    assert "scipy" not in loaded
    assert _within(loaded, ROBOT_STACK) == []


def test_missions_load_no_serving_stack():
    loaded = _loaded_after("repro.experiments._missions")
    assert _within(loaded, SERVING_STACK) == []


# ---------------------------------------------------------------------------
# The static graph
# ---------------------------------------------------------------------------
def _module_name(path):
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(path):
    """``repro`` modules imported when ``path`` is imported.

    Statements inside functions run later and ``if TYPE_CHECKING:``
    bodies never run, so neither counts.
    """
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found = set()

    def visit(stmts):
        for s in stmts:
            if isinstance(s, ast.Import):
                found.update(a.name for a in s.names)
            elif isinstance(s, ast.ImportFrom):
                base = s.module or ""
                if s.level:
                    anchor = package.split(".")[: len(package.split(".")) - s.level + 1]
                    base = ".".join(anchor + ([s.module] if s.module else []))
                found.add(base)
                found.update(f"{base}.{a.name}" for a in s.names)
            elif isinstance(s, ast.If):
                if not _is_type_checking(s.test):
                    visit(s.body)
                visit(s.orelse)
            elif isinstance(s, ast.Try):
                visit(s.body)
                for h in s.handlers:
                    visit(h.body)
                visit(s.orelse)
                visit(s.finalbody)
            elif isinstance(s, (ast.With, ast.ClassDef)):
                visit(s.body)

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return {m for m in found if m == "repro" or m.startswith("repro.")}


def _package(module):
    """``repro.cloud.pool`` -> ``repro.cloud``; top-level modules are
    their own node."""
    return ".".join(module.split(".")[:2])


def _find_cycle(graph):
    state = {}

    def dfs(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt) :] + [nxt]
            if nxt not in state:
                cycle = dfs(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = dfs(node, [node])
            if cycle:
                return cycle
    return None


def test_import_graph_is_layered():
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        modules[_module_name(path)] = path
    imports = {m: _module_level_imports(p) for m, p in modules.items()}
    problems = []
    if imports["repro"]:
        problems.append(f"repro/__init__.py imports {sorted(imports['repro'])}")
    graph = {}
    for module, targets in imports.items():
        if module == "repro":
            continue
        for target in targets & modules.keys():
            if target != "repro" and _package(target) != _package(module):
                graph.setdefault(_package(module), set()).add(_package(target))
    cycle = _find_cycle(graph)
    if cycle:
        problems.append("package import cycle: " + " -> ".join(cycle))
    assert problems == []
