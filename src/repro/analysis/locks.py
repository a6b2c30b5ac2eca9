"""Pass 6 — lock-order deadlock detection (ET601/ET602).

Builds the project's **lock-acquisition order graph**: a node per lock
(``(DefiningClass, canonical_attr)``, with ``Condition(self._lock)``
attributes unified onto their underlying lock, or ``(module, name)`` for
module-level locks), and an edge ``A → B`` wherever code acquires ``B``
while holding ``A`` — directly via nested ``with`` statements, or
transitively through calls resolved by the call graph (a pool submitter
holding ``LiveServer._work`` while ``AdmissionController.admit`` takes
``AdmissionController._lock`` would be exactly such an edge).

- **ET601**: any cycle in the graph is a deadlock awaiting the right
  interleaving; the finding carries a ``file:line`` witness for every
  hop of every edge so the two conflicting call paths can be read off.
- **ET602**: a call path that re-acquires a held non-reentrant lock
  (``threading.Lock``/``Condition``) self-deadlocks with certainty.

Resolution is under-approximate (edges only exist for provably scanned
callees), so every reported cycle is backed by real code paths.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.callgraph import (
    REENTRANT_FACTORIES,
    FunctionInfo,
    SymbolTable,
    local_constructions,
    resolve_call,
)
from repro.analysis.findings import Finding, make_finding

if TYPE_CHECKING:
    from repro.analysis.runner import AnalysisContext, SourceFile

#: (owner, attr): owner is a class name or a dotted module name.
LockNode = tuple[str, str]

#: One step of a witness path: (display path, line).
Step = tuple[str, int]


def _fmt(node: LockNode) -> str:
    owner, attr = node
    return f"{owner}.{attr}"


def _fmt_steps(steps: list[Step]) -> str:
    return " -> ".join(f"{path}:{line}" for path, line in steps)


@dataclass
class _Edge:
    src: LockNode
    dst: LockNode
    #: with-stmt holding src, call hops, with-stmt acquiring dst
    witness: list[Step]


class _LockModel:
    """Per-function acquisitions plus the order graph built from them."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        #: qual -> {lock: witness steps from function entry to acquisition}
        self.acquires: dict[str, dict[LockNode, list[Step]]] = {}
        #: (held locks w/ lines, call node, callee qual, display)
        self.calls: dict[str, list[tuple[list[tuple[LockNode, Step]],
                                         ast.Call, str]]] = {}
        #: nested-with edges discovered while walking
        self.direct_edges: list[_Edge] = []
        self.reacquires: list[tuple[FunctionInfo, LockNode, Step, Step]] = []
        for qual, info in table.functions.items():
            self._scan_function(qual, info)
        self._close_acquires()

    # ---- per-function scan ----------------------------------------------

    def _lock_of(self, expr: ast.expr, info: FunctionInfo) -> LockNode | None:
        """The lock a ``with`` item acquires, or None."""
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and info.cls is not None:
            cls = self.table.classes.get(info.cls)
            if cls is not None:
                canon = cls.canonical_lock(expr.attr)
                if canon is not None:
                    return (cls.lock_owner[canon], canon)
        if isinstance(expr, ast.Name) \
                and expr.id in self.table.module_locks.get(info.module, ()):
            return (info.module, expr.id)
        return None

    def _reentrant(self, node: LockNode) -> bool:
        cls = self.table.classes.get(node[0])
        if cls is None:
            return False  # module-level locks here are all plain Locks
        kind = cls.lock_kind.get(node[1], "Lock")
        return kind in {f.rsplit(".", 1)[-1] for f in REENTRANT_FACTORIES}

    def _scan_function(self, qual: str, info: FunctionInfo) -> None:
        self.acquires.setdefault(qual, {})
        self.calls.setdefault(qual, [])
        cls = self.table.classes.get(info.cls) if info.cls else None
        local_types = local_constructions(info.node, self.table)

        def record_calls(node: ast.AST,
                         held: list[tuple[LockNode, Step]]) -> None:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)) and sub is not node:
                    continue
                if not isinstance(sub, ast.Call):
                    continue
                callee = resolve_call(sub, info.module, cls, self.table,
                                      local_types)
                if callee is not None and callee != qual:
                    self.calls[qual].append((list(held), sub, callee))

        def walk(stmts: list[ast.stmt],
                 held: list[tuple[LockNode, Step]]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    inner = list(held)
                    for item in stmt.items:
                        record_calls(item.context_expr, inner)
                        lock = self._lock_of(item.context_expr, info)
                        if lock is None:
                            continue
                        step: Step = (info.display, stmt.lineno)
                        if lock not in self.acquires[qual]:
                            self.acquires[qual][lock] = [step]
                        for h, h_step in inner:
                            if h == lock:
                                if not self._reentrant(lock):
                                    self.reacquires.append(
                                        (info, lock, h_step, step))
                            else:
                                self.direct_edges.append(_Edge(
                                    src=h, dst=lock,
                                    witness=[h_step, step]))
                        inner = inner + [(lock, step)]
                    walk(list(stmt.body), inner)
                elif isinstance(stmt, ast.If):
                    record_calls(stmt.test, held)
                    walk(list(stmt.body), held)
                    walk(list(stmt.orelse), held)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    record_calls(stmt.iter, held)
                    walk(list(stmt.body), held)
                    walk(list(stmt.orelse), held)
                elif isinstance(stmt, ast.While):
                    record_calls(stmt.test, held)
                    walk(list(stmt.body), held)
                    walk(list(stmt.orelse), held)
                elif isinstance(stmt, ast.Try):
                    walk(list(stmt.body), held)
                    for handler in stmt.handlers:
                        walk(list(handler.body), held)
                    walk(list(stmt.orelse), held)
                    walk(list(stmt.finalbody), held)
                else:
                    record_calls(stmt, held)

        walk(list(info.node.body), [])

    # ---- transitive closure ---------------------------------------------

    def _close_acquires(self) -> None:
        """Fixpoint: a function acquires what its callees acquire."""
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for qual, sites in self.calls.items():
                mine = self.acquires[qual]
                for _held, call, callee in sites:
                    info = self.table.functions[qual]
                    for lock, chain in self.acquires.get(callee, {}).items():
                        if lock not in mine:
                            mine[lock] = [(info.display,
                                           call.lineno)] + chain
                            changed = True

    # ---- the order graph -------------------------------------------------

    def edges(self) -> list[_Edge]:
        out = list(self.direct_edges)
        for qual, sites in self.calls.items():
            for held, call, callee in sites:
                info = self.table.functions[qual]
                for lock, chain in self.acquires.get(callee, {}).items():
                    hop: list[Step] = [(info.display, call.lineno)]
                    for h, h_step in held:
                        if h == lock:
                            if not self._reentrant(lock):
                                self.reacquires.append(
                                    (info, lock, h_step,
                                     (info.display, call.lineno)))
                        else:
                            out.append(_Edge(src=h, dst=lock,
                                             witness=[h_step] + hop + chain))
        return out


def _cycles(edges: list[_Edge]) -> list[list[_Edge]]:
    """Unique simple cycles of the lock-order graph, deterministically."""
    adj: dict[LockNode, dict[LockNode, _Edge]] = {}
    for edge in edges:
        adj.setdefault(edge.src, {}).setdefault(edge.dst, edge)
    found: dict[tuple[LockNode, ...], list[_Edge]] = {}

    def dfs(start: LockNode, node: LockNode, path: list[_Edge],
            seen: set[LockNode]) -> None:
        if len(path) > 6:
            return
        for nxt in sorted(adj.get(node, {})):
            edge = adj[node][nxt]
            if nxt == start and path:
                cycle = path + [edge]
                nodes = tuple(e.src for e in cycle)
                pivot = nodes.index(min(nodes))
                key = nodes[pivot:] + nodes[:pivot]
                found.setdefault(key, cycle)
            elif nxt not in seen and nxt > start:
                # only explore nodes ordered after start: each cycle is
                # then discovered exactly once, from its smallest node
                dfs(start, nxt, path + [edge], seen | {nxt})

    for start in sorted(adj):
        dfs(start, start, [], {start})
    return [found[key] for key in sorted(found)]


def _lock_findings(ctx: "AnalysisContext") -> list[Finding]:
    model = _LockModel(ctx.symbols)
    findings: list[Finding] = []
    edges = model.edges()
    for cycle in _cycles(edges):
        order = " -> ".join([_fmt(e.src) for e in cycle]
                            + [_fmt(cycle[0].src)])
        parts = [f"{_fmt(e.src)} then {_fmt(e.dst)} "
                 f"[{_fmt_steps(e.witness)}]" for e in cycle]
        anchor_path, anchor_line = cycle[0].witness[0]
        findings.append(make_finding(
            "ET601", anchor_path, anchor_line, 0,
            f"lock-order cycle {order}; witnesses: " + "; ".join(parts)))
    seen: set[tuple[str, int, LockNode]] = set()
    for info, lock, held_step, again_step in model.reacquires:
        key = (again_step[0], again_step[1], lock)
        if key in seen:
            continue
        seen.add(key)
        findings.append(make_finding(
            "ET602", again_step[0], again_step[1], 0,
            f"{_fmt(lock)} is non-reentrant and already held "
            f"(acquired at {_fmt_steps([held_step])}); this path "
            f"re-acquires it and self-deadlocks"))
    return findings


def check_lock_order(sf: "SourceFile",
                     ctx: "AnalysisContext") -> list[Finding]:
    """Project-wide ET6xx pass; computed once, reported per file."""
    if "lock_findings" not in ctx.scratch:
        ctx.scratch["lock_findings"] = _lock_findings(ctx)
    all_findings: list[Finding] = ctx.scratch["lock_findings"]
    return [f for f in all_findings if f.path == sf.display]
