"""Generic protocol-state-machine checker over function bodies.

The shm-lifecycle (ET5xx v2) and event-protocol (ET7xx) passes both ask
the same question: *does every path through this function keep a small
state machine in a legal state?* This module provides the shared path
walker so each pass only supplies its transfer function.

Semantics, chosen to stay useful on the real tree without path
explosion:

- a **frontier** (set of abstract states) flows through the statement
  list; ``If`` forks it, sequencing joins it;
- loops run their body **zero or one** time — enough to observe any
  protocol op the body contains without iterating to a fixpoint;
- a statement for which ``may_raise`` holds forks an **exceptional**
  path from the state *before* the statement's effect. Inside a
  ``try`` with handlers, those pre-states become the handler entry
  frontier and the exception is assumed caught; outside any handler,
  the pre-state is reported as an exceptional function exit;
- ``finally`` blocks run on every path out of their ``try``, including
  the exceptional ones being propagated outward;
- the frontier is deduplicated and capped, so the walk is linear in
  practice and never explodes.

States must be treated as immutable: ``step`` receives a state and
returns the successor (or a list of successors to fork).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from repro.analysis.callgraph import FuncNode

State = Hashable
StepFn = Callable[[State, ast.AST], "State | list[State]"]
MayRaiseFn = Callable[[ast.stmt], bool]


@dataclass(frozen=True)
class PathEnd:
    """One way the walked function can terminate."""

    state: State
    node: ast.AST
    #: terminated by an (assumed-uncaught) exception or explicit raise
    exceptional: bool


@dataclass
class _Ctx:
    outcomes: list[PathEnd] = field(default_factory=list)
    #: per enclosing ``try``: collected pre-raise states for its handlers
    try_stack: list[list[State]] = field(default_factory=list)
    #: per enclosing loop: states that break/continue out of the body
    loop_stack: list[list[State]] = field(default_factory=list)


def _dedupe(states: Sequence[State], cap: int) -> list[State]:
    seen: set[str] = set()
    out: list[State] = []
    for state in states:
        key = repr(state)
        if key in seen:
            continue
        seen.add(key)
        out.append(state)
        if len(out) >= cap:
            break
    return out


class ProtocolChecker:
    """Walk a function body, threading pass-defined states through it."""

    def __init__(self, step: StepFn,
                 may_raise: MayRaiseFn | None = None,
                 max_states: int = 64) -> None:
        self.step = step
        self.may_raise = may_raise or (lambda stmt: False)
        self.max_states = max_states

    def run(self, func: FuncNode, initial: State) -> list[PathEnd]:
        """Every path end (normal and exceptional) from ``initial``."""
        ctx = _Ctx()
        frontier = self._walk_block(list(func.body), [initial], ctx)
        for state in frontier:
            ctx.outcomes.append(
                PathEnd(state=state, node=func, exceptional=False))
        return ctx.outcomes

    # -- plumbing ---------------------------------------------------------

    def _apply(self, frontier: list[State], node: ast.AST) -> list[State]:
        out: list[State] = []
        for state in frontier:
            result = self.step(state, node)
            if isinstance(result, list):
                out.extend(result)
            else:
                out.append(result)
        return _dedupe(out, self.max_states)

    def _escape(self, frontier: list[State], node: ast.AST,
                ctx: _Ctx) -> None:
        """Route pre-raise states to the nearest handler or out of the
        function."""
        if ctx.try_stack:
            ctx.try_stack[-1].extend(frontier)
            return
        for state in frontier:
            ctx.outcomes.append(
                PathEnd(state=state, node=node, exceptional=True))

    def _walk_block(self, stmts: list[ast.stmt], frontier: list[State],
                    ctx: _Ctx) -> list[State]:
        for stmt in stmts:
            if not frontier:
                return []
            frontier = self._walk_stmt(stmt, frontier, ctx)
        return _dedupe(frontier, self.max_states)

    def _walk_stmt(self, stmt: ast.stmt, frontier: list[State],
                   ctx: _Ctx) -> list[State]:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                             ast.Expr, ast.Assert, ast.Delete)):
            if self.may_raise(stmt):
                self._escape(frontier, stmt, ctx)
            return self._apply(frontier, stmt)
        if isinstance(stmt, ast.Return):
            done = self._apply(frontier, stmt)
            for state in done:
                ctx.outcomes.append(
                    PathEnd(state=state, node=stmt, exceptional=False))
            return []
        if isinstance(stmt, ast.Raise):
            done = self._apply(frontier, stmt)
            if ctx.try_stack:
                ctx.try_stack[-1].extend(done)
            else:
                for state in done:
                    ctx.outcomes.append(
                        PathEnd(state=state, node=stmt, exceptional=True))
            return []
        if isinstance(stmt, (ast.Break, ast.Continue)):
            if ctx.loop_stack:
                ctx.loop_stack[-1].extend(frontier)
            return []
        if isinstance(stmt, ast.If):
            frontier = self._apply(frontier, stmt.test)
            out = self._walk_block(list(stmt.body), list(frontier), ctx)
            out += self._walk_block(list(stmt.orelse), list(frontier), ctx)
            return _dedupe(out, self.max_states)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            frontier = self._apply(frontier, header)
            ctx.loop_stack.append([])
            once = self._walk_block(list(stmt.body), list(frontier), ctx)
            broke = ctx.loop_stack.pop()
            out = list(frontier) + once + broke
            out = _dedupe(out, self.max_states)
            return self._walk_block(list(stmt.orelse), out, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                frontier = self._apply(frontier, item.context_expr)
            return self._walk_block(list(stmt.body), frontier, ctx)
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, frontier, ctx)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass)):
            return frontier
        return self._apply(frontier, stmt)

    def _walk_try(self, stmt: ast.Try, frontier: list[State],
                  ctx: _Ctx) -> list[State]:
        collector: list[State] = []
        ctx.try_stack.append(collector)
        body_exit = self._walk_block(list(stmt.body), list(frontier), ctx)
        ctx.try_stack.pop()
        raised = _dedupe(collector, self.max_states)

        out: list[State] = []
        if stmt.handlers:
            # Assume handlers catch: every pre-raise state (plus the
            # try-entry state — an exception may precede the first
            # tracked op) enters each handler; nothing propagates past.
            entry = _dedupe(list(frontier) + raised, self.max_states)
            for handler in stmt.handlers:
                out.extend(
                    self._walk_block(list(handler.body), list(entry), ctx))
            body_exit = self._walk_block(list(stmt.orelse), body_exit, ctx)
            out.extend(body_exit)
            out = self._walk_block(list(stmt.finalbody),
                                   _dedupe(out, self.max_states), ctx)
            return out
        # try/finally with no handlers: finalbody runs on the normal exit
        # and on every propagating exceptional state.
        body_exit = self._walk_block(list(stmt.orelse), body_exit, ctx)
        normal = self._walk_block(list(stmt.finalbody), body_exit, ctx)
        escaped = self._walk_block(list(stmt.finalbody), raised, ctx)
        if escaped:
            self._escape(escaped, stmt, ctx)
        return normal


def calls_in(node: ast.AST) -> list[ast.Call]:
    """Every call expression inside ``node`` (helper for step functions)."""
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)]


def stmt_may_call(stmt: ast.AST, names: frozenset[str] | set[str],
                  dotted: Callable[[ast.Call], Any]) -> bool:
    """True when any call in ``stmt`` targets one of ``names``."""
    for call in calls_in(stmt):
        target = dotted(call)
        if target is not None and (target in names
                                   or target.rsplit(".", 1)[-1] in names):
            return True
    return False
