"""SIM checkers: kernel reentrancy, float equality, defaults, telemetry guards.

Where the DET rules keep host nondeterminism out, these four keep the
simulation's own conventions honest: callbacks never re-enter the
kernel, quantities carried as floats are never compared with ``==``,
defaults are never shared mutable state, and the nullable telemetry
handle is always tested before use.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, dotted_name, receiver_text

#: Scheduling entry points whose callback argument registers sim callbacks.
_SCHEDULING_FUNCS = frozenset({"schedule_at", "schedule_after", "every", "push"})

#: Receiver names that denote the simulator kernel.
_SIM_NAMES = frozenset({"sim", "simulator", "_sim", "kernel"})


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ReentrantRunChecker(Checker):
    """SIM001 — event callbacks must not call ``Simulator.run``.

    ``run`` drains the queue; calling it from inside a firing callback
    nests the drain loop and double-fires events. The kernel also
    raises at runtime (see ``Simulator.run``); this checker catches
    the pattern before it ever runs. Heuristic: a function is a
    *callback* if its name is passed to ``schedule_at``/
    ``schedule_after``/``every``/``push`` anywhere in the module; a
    *kernel call* is ``.run(...)`` on a receiver named ``sim``/
    ``simulator``/``_sim``/``kernel``.
    """

    code = "SIM001"

    def run(self) -> list:
        callbacks: set[str] = set()
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            fname = _terminal_name(node.func)
            if fname not in _SCHEDULING_FUNCS:
                continue
            cb_args: list[ast.expr] = []
            if len(node.args) >= 2:
                cb_args.append(node.args[1])
            for kw in node.keywords:
                if kw.arg == "callback":
                    cb_args.append(kw.value)
            for cb in cb_args:
                name = _terminal_name(cb)
                if name is not None:
                    callbacks.add(name)
                elif isinstance(cb, ast.Lambda):
                    self._check_body(cb.body, context="lambda callback")
        for node in ast.walk(self.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in callbacks
            ):
                for stmt in node.body:
                    self._check_body(stmt, context=f"callback {node.name!r}")
        return self.violations

    def _check_body(self, node: ast.AST, context: str) -> None:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "run"
                and _terminal_name(sub.func.value) in _SIM_NAMES
            ):
                self.report(
                    sub,
                    f"{context} calls Simulator.run reentrantly; "
                    "schedule follow-up events instead",
                )


#: Identifier tokens that mark a value as sim-time or energy.
_QUANTITY_TOKENS = frozenset(
    {"time", "timestamp", "now", "deadline", "elapsed", "duration", "energy", "joules"}
)
_QUANTITY_EXACT = frozenset({"t", "t0", "t1", "dur", "wh"})


def _smells_like_quantity(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        return _terminal_name(node.func) == "now"
    name = _terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    if lowered in _QUANTITY_EXACT:
        return True
    return any(tok in _QUANTITY_TOKENS for tok in lowered.split("_"))


class FloatEqChecker(Checker):
    """SIM002 — no float ``==``/``!=`` on sim-time or energy quantities.

    Virtual times and energy integrals are accumulated floats; exact
    equality silently turns into "never true" after any reordering of
    arithmetic. Compare with tolerances (``math.isclose``) or
    inequalities. Heuristic: either side of the comparison is an
    identifier (or ``.now()`` call) that smells like a time/energy
    quantity.
    """

    code = "SIM002"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(isinstance(o, ast.Constant) and o.value is None for o in (lhs, rhs)):
                continue
            if _smells_like_quantity(lhs) or _smells_like_quantity(rhs):
                self.report(
                    node,
                    "float ==/!= on a sim-time/energy quantity; use "
                    "math.isclose or an inequality",
                )
                break
        self.generic_visit(node)


_MUTABLE_CTORS = frozenset({"list", "dict", "set", "collections.defaultdict", "bytearray"})


class MutableDefaultChecker(Checker):
    """SIM003 — mutable default arguments are shared across calls.

    A ``def f(log=[])`` default is evaluated once and mutated by every
    caller — cross-run state that survives between "independent"
    missions. Use ``None`` plus an in-body default, or a dataclass
    ``field(default_factory=...)``.
    """

    code = "SIM003"

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for d in defaults:
            if d is None:
                continue
            bad = isinstance(d, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp))
            if not bad and isinstance(d, ast.Call):
                bad = dotted_name(d.func, self.aliases) in _MUTABLE_CTORS
            if bad:
                self.report(
                    d,
                    "mutable default argument is shared across calls; "
                    "default to None and construct in the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def _telemetry_root(func: ast.expr) -> ast.expr | None:
    """The telemetry-handle prefix of a call chain, if any.

    For ``self.telemetry.emit`` the root is ``self.telemetry``; for
    ``tel.metrics.counter`` it is ``tel``. Returns ``None`` when the
    chain is not routed through a telemetry handle.
    """
    chain: list[ast.expr] = []
    cur = func
    while isinstance(cur, ast.Attribute):
        chain.append(cur)
        cur = cur.value
    chain.append(cur)
    # walk outward from the base: the first element that *is* the handle
    for expr in reversed(chain):
        if isinstance(expr, ast.Name) and expr.id in {"tel", "telemetry"}:
            return expr
        if isinstance(expr, ast.Attribute) and expr.attr == "telemetry":
            return expr
    return None


def _guard_key(name: str) -> str:
    """Dump form of a bare name, for guard substring matching."""
    return receiver_text(ast.parse(name, mode="eval").body)


class TelemetryGuardChecker(Checker):
    """SIM004 — calls through a nullable telemetry handle must be guarded.

    The repo-wide convention (see ``repro.telemetry.hub``) is::

        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("...").inc()

    This checker flags ``X.emit(...)`` / ``X.tracer...`` / ``X.metrics...``
    calls whose handle ``X`` is not dominated by a test of ``X``: an
    enclosing ``if``/``while`` mentioning it, a preceding early-return
    guard (``if X is None: return``), a short-circuit ``X and ...`` /
    ``... if X else ...``, or a non-optional ``Telemetry`` parameter
    annotation on the enclosing function.
    """

    code = "SIM004"

    def run(self) -> list:
        self._walk_block(self.tree.body, guards=[])
        return self.violations

    # -- statement-level traversal ------------------------------------
    def _walk_block(self, stmts: list[ast.stmt], guards: list[str]) -> None:
        guards = list(guards)
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_guards = guards + self._annotation_guards(stmt)
                self._walk_block(stmt.body, fn_guards)
            elif isinstance(stmt, ast.ClassDef):
                self._walk_block(stmt.body, guards)
            elif isinstance(stmt, (ast.If, ast.While)):
                test_text = receiver_text(stmt.test)
                self._scan_expr(stmt.test, guards)
                inner = guards + [test_text]
                self._walk_block(stmt.body, inner)
                orelse = stmt.orelse
                self._walk_block(orelse, inner)
                if stmt.body and isinstance(
                    stmt.body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
                ):
                    # early-exit guard dominates the rest of this block
                    guards.append(test_text)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, guards)
                self._walk_block(stmt.body, guards)
                self._walk_block(stmt.orelse, guards)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, guards)
                self._walk_block(stmt.body, guards)
            elif isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, guards)
                for handler in stmt.handlers:
                    self._walk_block(handler.body, guards)
                self._walk_block(stmt.orelse, guards)
                self._walk_block(stmt.finalbody, guards)
            else:
                for expr in ast.iter_child_nodes(stmt):
                    if isinstance(expr, ast.expr):
                        self._scan_expr(expr, guards)

    def _annotation_guards(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
        """Params annotated plain ``Telemetry`` are non-nullable handles."""
        out: list[str] = []
        args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        for a in args:
            ann = a.annotation
            text: str | None = None
            if isinstance(ann, ast.Name):
                text = ann.id
            elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                text = ann.value
            if text == "Telemetry":
                out.append(_guard_key(a.arg))
        return out

    # -- expression-level traversal -----------------------------------
    def _scan_expr(self, node: ast.expr, guards: list[str]) -> None:
        if isinstance(node, ast.BoolOp):
            local = list(guards)
            for value in node.values:
                self._scan_expr(value, local)
                local.append(receiver_text(value))
            return
        if isinstance(node, ast.IfExp):
            test_text = receiver_text(node.test)
            self._scan_expr(node.test, guards)
            self._scan_expr(node.body, guards + [test_text])
            self._scan_expr(node.orelse, guards + [test_text])
            return
        if isinstance(node, ast.Call):
            root = _telemetry_root(node.func)
            if root is not None and not self._is_guarded(root, guards):
                self.report(
                    node,
                    "call through nullable telemetry handle without a "
                    "None-guard; wrap in 'if tel is not None:'",
                )
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._scan_expr(child, guards)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child, guards)

    def _is_guarded(self, root: ast.expr, guards: list[str]) -> bool:
        key = receiver_text(root)
        return any(key in g for g in guards)
