"""Pass 4 — a lightweight race detector for the serving layer's shared state.

The serving contract (DESIGN.md §7/§8) is that :class:`AsyncServer` owns
one condition/lock and every mutation of its shared state — its own
attributes *and* its deliberately lock-less collaborators
(:class:`MetricsRegistry`, the serving core) — happens while holding it;
the deterministic :class:`Scheduler` is single-threaded and stays
lock-free by design. The replica pool's parent-side classes
(:class:`~repro.serving.pool.server.PoolServer`,
:class:`~repro.serving.pool.admission.AdmissionController`) each own a
lock and are covered by the same scan — the pool's submitters and slot
threads share both. This pass checks the statically checkable half of
that contract:

- a class that *owns* a lock attribute (``self._lock = threading.Lock()``,
  an ``RLock`` or a ``Condition``) must guard every ``self.*`` write and
  every mutating method call on a plain-container attribute with
  ``with self.<lock>:`` outside ``__init__`` — ET401;
- every method call made through a collaborator attribute whose class
  was scanned and owns **no** lock (``self._core.admit(...)``,
  ``self._core.metrics.fold(...)``) must be under the
  owner's lock too, whatever the method is named: an unguarded read of
  a non-thread-safe object races as well — ET402.

The pass reads the classes of the shared symbol table
(:mod:`repro.analysis.callgraph`), where a class inherits the lock and
collaborator attributes its scanned base classes assign (the live
servers share their condition and their
:class:`~repro.serving.core.ServingCore` through
:class:`~repro.serving.server.LiveServer`).

Classes without a lock attribute are skipped: they either are
single-threaded by design (Scheduler) or rely on an owner's lock, which
is exactly what ET402 checks from the owner's side.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.callgraph import ClassInfo, SymbolTable, self_attr
from repro.analysis.findings import Finding, make_finding

if TYPE_CHECKING:
    from repro.analysis.runner import AnalysisContext, SourceFile

#: Exact method names that mutate a plain container in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "discard",
    "clear", "pop", "popleft", "popitem", "update", "setdefault", "add",
    "push",
})

#: Methods whose body is construction-time and exempt from the contract.
_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _root_attr(node: ast.expr) -> str | None:
    """``X`` when ``node`` is ``self.X`` or ``self.X.Y...``, else ``None``."""
    while isinstance(node, ast.Attribute):
        attr = self_attr(node)
        if attr is not None:
            return attr
        node = node.value
    return None


class _MethodChecker(ast.NodeVisitor):
    """Walks one method body tracking ``with self.<lock>`` nesting."""

    def __init__(self, sf: "SourceFile", info: ClassInfo,
                 table: SymbolTable) -> None:
        self.sf = sf
        self.info = info
        self.table = table
        self.depth = 0
        self.findings: list[Finding] = []

    # -- lock scope tracking ------------------------------------------------

    def _holds_lock(self, stmt: ast.With) -> bool:
        for item in stmt.items:
            attr = self_attr(item.context_expr)
            if attr is not None and attr in self.info.lock_group:
                return True
        return False

    def visit_With(self, node: ast.With) -> None:
        held = self._holds_lock(node)
        self.depth += 1 if held else 0
        self.generic_visit(node)
        self.depth -= 1 if held else 0

    # -- mutation sites -----------------------------------------------------

    def _written_attrs(self, target: ast.expr) -> list[tuple[ast.expr, str]]:
        """(node, attr) pairs for every ``self.X`` a target writes."""
        out: list[tuple[ast.expr, str]] = []
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                out.extend(self._written_attrs(elt))
            return out
        node: ast.expr = target
        if isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        attr = self_attr(node)
        if attr is not None:
            out.append((node, attr))
        return out

    def _flag_write(self, node: ast.expr, attr: str) -> None:
        if self.depth > 0 or attr in self.info.lock_group:
            return
        locks = "/".join(sorted(self.info.lock_group))
        self.findings.append(make_finding(
            "ET401", self.sf.display, node.lineno, node.col_offset,
            f"self.{attr} written outside 'with self.{locks}:' in "
            f"{self.info.name}"))

    def _check_targets(self, targets: list[ast.expr]) -> None:
        for target in targets:
            for node, attr in self._written_attrs(target):
                self._flag_write(node, attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_targets(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_targets([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_targets([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_targets(list(node.targets))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self.depth == 0:
            self._check_method_call(node, func)
        self.generic_visit(node)

    def _check_method_call(self, node: ast.Call,
                           func: ast.Attribute) -> None:
        owner = _root_attr(func.value)
        if owner is None or owner in self.info.lock_group:
            return
        owner_cls = self.info.attr_classes.get(owner)
        collaborator = self.table.classes.get(owner_cls or "")
        if collaborator is not None and not collaborator.lock_group:
            locks = "/".join(sorted(self.info.lock_group))
            self.findings.append(make_finding(
                "ET402", self.sf.display, node.lineno, node.col_offset,
                f"{ast.unparse(func)}(...) called on lock-less "
                f"{owner_cls} outside 'with self.{locks}:'"))
        elif owner_cls is None and func.attr in _MUTATORS and \
                self_attr(func.value) is not None:
            # A plain container attribute (dict/list/deque/...).
            self._flag_write(func.value, owner)


def check_thread_safety(sf: "SourceFile",
                        ctx: "AnalysisContext") -> list[Finding]:
    """Run the race detector over one file's lock-owning classes."""
    findings: list[Finding] = []
    for stmt in sf.tree.body:
        info = (ctx.symbols.classes.get(stmt.name)
                if isinstance(stmt, ast.ClassDef) else None)
        if info is None or not info.lock_group:
            continue
        for name, method in info.methods.items():
            if name in _EXEMPT_METHODS:
                continue
            checker = _MethodChecker(sf, info, ctx.symbols)
            for body_stmt in method.body:
                checker.visit(body_stmt)
            findings.extend(checker.findings)
    return findings
