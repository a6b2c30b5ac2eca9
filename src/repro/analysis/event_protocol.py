"""Pass 7 — flight-recorder event-protocol closure (ET701/ET702/ET703).

The static counterpart of ``tools/check_trace.py``'s lifecycle validator:
every request the recorder ``admit``-s must reach a terminal
``complete``/``reject`` event (``rebook`` re-opens it on a surviving
replica). ``check_trace.py`` proves this per run; this pass proves the
*code* cannot do otherwise:

- **ET701** — a class (or module) that emits ``admit`` but whose
  call-graph closure never emits a terminal event can only produce open
  lifecycles;
- **ET702** — path-sensitive: inside an admitting function, every path
  from the ``admit`` emit to a function exit (normal or exceptional)
  must either emit a terminal event or *hand the request off* — enqueue
  it (``.put(...)`` / an ``enqueue`` emit) or register its future — to
  the machinery that guarantees the terminal. The canonical violation is
  raising after ``admit`` without the ``reject`` emit the handler owes;
- **ET703** — a function emitting ``worker_death`` must re-book or
  reject the dead replica's orphans (the pool's recovery contract).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.callgraph import FuncNode, callee_name
from repro.analysis.findings import Finding, make_finding
from repro.analysis.protocol import ProtocolChecker

if TYPE_CHECKING:
    from repro.analysis.runner import AnalysisContext, SourceFile

TERMINAL_KINDS = frozenset({"complete", "reject", "rebook"})
#: emits that transfer the open lifecycle to downstream machinery
HANDOFF_KINDS = frozenset({"enqueue"})

#: "clean" | ("open", admit line) | "closed"
State = str | tuple[str, int]


def emit_kind(call: ast.Call) -> str | None:
    """The literal event kind of an ``<recorder>.emit("kind", ...)`` call."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "emit" and call.args):
        return None
    first = call.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def _own_body_walk(func: FuncNode) -> list[ast.AST]:
    """Nodes of a function excluding nested function/class bodies."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _emit_kinds(node: ast.AST) -> dict[str, int]:
    """Event kinds emitted anywhere under ``node`` -> first line."""
    kinds: dict[str, int] = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            kind = emit_kind(sub)
            if kind is not None and kind not in kinds:
                kinds[kind] = sub.lineno
    return kinds


class _EventPath:
    """ET702 transfer function for one admitting function."""

    def __init__(self, sf: "SourceFile") -> None:
        self.sf = sf
        self.findings: dict[int, Finding] = {}

    def step(self, state: State, node: ast.AST) -> State:
        calls = sorted(
            (c for c in ast.walk(node) if isinstance(c, ast.Call)),
            key=lambda c: (c.lineno, c.col_offset))
        for call in calls:
            kind = emit_kind(call)
            if kind == "admit" and state == "clean":
                state = ("open", call.lineno)
            elif kind in TERMINAL_KINDS or kind in HANDOFF_KINDS:
                if isinstance(state, tuple):
                    state = "closed"
            elif kind is None and callee_name(call) == "put":
                # the request entered the tracked queue: the consumer
                # side owes (and emits) the terminal event
                if isinstance(state, tuple):
                    state = "closed"
        if isinstance(node, ast.Assign) and isinstance(state, tuple):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    # futures-table registration: terminal emitted at
                    # resolution time by whoever pops the future
                    state = "closed"
        return state

    def may_raise(self, stmt: ast.stmt) -> bool:
        return any(callee_name(c) in ("put", "admit")
                   for c in ast.walk(stmt) if isinstance(c, ast.Call))

    def report_open(self, state: State, end_node: ast.AST,
                    exceptional: bool) -> None:
        if not isinstance(state, tuple):
            return
        admit_line = state[1]
        if admit_line in self.findings:
            return
        how = ("an exception escapes" if exceptional
               else "a return path exits")
        end_line = getattr(end_node, "lineno", admit_line)
        self.findings[admit_line] = make_finding(
            "ET702", self.sf.display, admit_line, 0,
            f"admit emitted here but {how} near line {end_line} without a "
            f"terminal complete/reject/rebook emit or a queue/futures "
            f"hand-off")


def _check_function_paths(sf: "SourceFile", func: FuncNode) -> list[Finding]:
    walker = _EventPath(sf)
    checker = ProtocolChecker(step=walker.step, may_raise=walker.may_raise)
    for end in checker.run(func, "clean"):
        walker.report_open(end.state, end.node, end.exceptional)
    return list(walker.findings.values())


def _closure_kinds(quals: list[str],
                   ctx: "AnalysisContext") -> dict[str, int]:
    """Emit kinds across the call-graph closure of ``quals``."""
    kinds: dict[str, int] = {}
    for qual in ctx.callgraph.reachable(quals):
        info = ctx.symbols.function(qual)
        if info is None:
            continue
        for kind, line in _emit_kinds(info.node).items():
            kinds.setdefault(kind, line)
    return kinds


def check_event_protocol(sf: "SourceFile",
                         ctx: "AnalysisContext") -> list[Finding]:
    """Run the event-protocol checks over one file."""
    findings: list[Finding] = []

    # ET702: path closure inside every admitting function (incl. nested).
    for func in (n for n in ast.walk(sf.tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
        own = _own_body_walk(func)
        admits = [n for n in own if isinstance(n, ast.Call)
                  and emit_kind(n) == "admit"]
        if admits:
            findings.extend(_check_function_paths(sf, func))

    # ET701: class-level closure — an admitting class must be able to
    # emit a terminal event somewhere in its call-graph closure.
    for stmt in sf.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        direct = _emit_kinds(stmt)
        if "admit" not in direct:
            continue
        quals = [q for q in (ctx.symbols.method_qual(stmt.name, m)
                             for m in ctx.symbols.classes[stmt.name].methods)
                 if q is not None] if stmt.name in ctx.symbols.classes else []
        closure = dict(direct)
        closure.update(_closure_kinds(quals, ctx))
        if not (TERMINAL_KINDS & set(closure)):
            findings.append(make_finding(
                "ET701", sf.display, direct["admit"], 0,
                f"class {stmt.name} emits admit but no terminal "
                f"complete/reject/rebook is reachable from any of its "
                f"methods; every admitted rid's lifecycle stays open"))

    # ET703: worker_death must be followed by re-booking (or rejection).
    for func in (n for n in ast.walk(sf.tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
        own = _emit_kinds_own(func)
        if "worker_death" not in own:
            continue
        qual = _qual_of(sf, ctx, func)
        closure = dict(own)
        if qual is not None:
            closure.update(_closure_kinds([qual], ctx))
        if "rebook" not in closure and "reject" not in closure:
            findings.append(make_finding(
                "ET703", sf.display, own["worker_death"], 0,
                "worker_death emitted without re-booking (rebook) or "
                "rejecting the dead replica's orphaned requests"))
    return findings


def _emit_kinds_own(func: FuncNode) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for node in _own_body_walk(func):
        if isinstance(node, ast.Call):
            kind = emit_kind(node)
            if kind is not None and kind not in kinds:
                kinds[kind] = node.lineno
    return kinds


def _qual_of(sf: "SourceFile", ctx: "AnalysisContext",
             func: FuncNode) -> str | None:
    """Qualname of a top-level function/method node, if indexed."""
    for qual, info in ctx.symbols.functions.items():
        if info.node is func and info.module == sf.module:
            return qual
    return None
