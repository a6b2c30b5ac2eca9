"""Pass 5b — shared-memory segment lifecycle (ET502/ET503/ET504).

A path-sensitive state machine over raw ``SharedMemory`` values:
``created/attached → (used) → closed → unlinked``. Tracked values are
locals bound from a mapping-acquiring call — a ``SharedMemory(...)``
construction or a call to a scanned helper whose return annotation says
it returns one (``_attach_untracked``). Each path through the enclosing
function (including exceptional paths, per the protocol walker's
semantics) must leave every tracked mapping **closed or escaped**:

- **ET502** — a mapped segment falls out of scope on some path without
  ``close()``/ownership transfer (the classic leak-on-branch:
  ``probe.unlink()`` raising before ``probe.close()`` runs);
- **ET503** — ``.buf`` is dereferenced after ``close()`` on some path;
- **ET504** — the same raw mapping is ``unlink()``-ed twice on one path
  (``SharedWeightStore.unlink`` is idempotent by contract; raw
  ``SharedMemory.unlink`` is not).

Ownership escapes — returning the mapping, passing it to another call,
storing it on ``self`` or in a container — end tracking: the recipient
owns the lifecycle from there.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.callgraph import FuncNode, callee_name, dotted_callee, \
    resolve_call
from repro.analysis.findings import Finding, make_finding
from repro.analysis.protocol import PathEnd, ProtocolChecker

if TYPE_CHECKING:
    from repro.analysis.runner import AnalysisContext, SourceFile

#: (mapped, unlinked, escaped, creation line)
Status = tuple[bool, bool, bool, int]
#: sorted ((var, status), ...) pairs — hashable, deterministic repr
State = tuple[tuple[str, Status], ...]

EMPTY: State = ()


def _get(state: State, var: str) -> Status | None:
    for name, status in state:
        if name == var:
            return status
    return None


def _set(state: State, var: str, status: Status | None) -> State:
    entries = {name: st for name, st in state}
    if status is None:
        entries.pop(var, None)
    else:
        entries[var] = status
    return tuple(sorted(entries.items()))


def _is_acquire(call: ast.Call, sf: "SourceFile",
                ctx: "AnalysisContext") -> bool:
    """Does this call return a fresh raw SharedMemory mapping?"""
    dotted = dotted_callee(call)
    if dotted is not None and dotted.rsplit(".", 1)[-1] == "SharedMemory":
        return True
    qual = resolve_call(call, sf.module, None, ctx.symbols)
    if qual is None and isinstance(call.func, ast.Name):
        qual = f"{sf.module}:{call.func.id}"
    info = ctx.symbols.function(qual) if qual else None
    if info is not None and info.node.returns is not None:
        return "SharedMemory" in ast.unparse(info.node.returns)
    return False


class _ShmPass:
    """One function's lifecycle walk; collects deduplicated findings."""

    def __init__(self, sf: "SourceFile", ctx: "AnalysisContext") -> None:
        self.sf = sf
        self.ctx = ctx
        self.findings: dict[tuple[str, int, str], Finding] = {}

    def _report(self, rule: str, line: int, var: str, message: str) -> None:
        key = (rule, line, var)
        if key not in self.findings:
            self.findings[key] = make_finding(
                rule, self.sf.display, line, 0, message)

    # ---- transfer function ------------------------------------------------

    def _escapes_in(self, expr: ast.expr, state: State) -> set[str]:
        """Tracked names that transfer ownership inside ``expr``."""
        out: set[str] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    inner = arg.value if isinstance(arg, ast.Starred) else arg
                    if isinstance(inner, ast.Name) \
                            and _get(state, inner.id) is not None:
                        out.add(inner.id)
            elif isinstance(sub, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
                for elt in ast.walk(sub):
                    if isinstance(elt, ast.Name) \
                            and _get(state, elt.id) is not None:
                        out.add(elt.id)
        return out

    def step(self, state: State, node: ast.AST) -> State:
        calls = sorted(
            (c for c in ast.walk(node) if isinstance(c, ast.Call)),
            key=lambda c: (c.lineno, c.col_offset))
        # Uses: .buf on a closed mapping.
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "buf" \
                    and isinstance(sub.value, ast.Name):
                status = _get(state, sub.value.id)
                if status is not None and not status[0] and not status[2]:
                    self._report(
                        "ET503", sub.lineno, sub.value.id,
                        f"'{sub.value.id}.buf' dereferenced after close() "
                        f"(mapping released at this point on some path)")
        # Lifecycle method calls and ownership escapes.
        for call in calls:
            func = call.func
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name):
                status = _get(state, func.value.id)
                if status is not None:
                    mapped, unlinked, escaped, born = status
                    if func.attr == "close":
                        state = _set(state, func.value.id,
                                     (False, unlinked, escaped, born))
                        continue
                    if func.attr == "unlink":
                        if unlinked and not escaped:
                            self._report(
                                "ET504", call.lineno, func.value.id,
                                f"'{func.value.id}' unlink()ed twice on one "
                                f"path; raw SharedMemory.unlink raises "
                                f"FileNotFoundError the second time")
                        state = _set(state, func.value.id,
                                     (mapped, True, escaped, born))
                        continue
        for var in self._escapes_in(
                node if isinstance(node, ast.expr) else _exprs_of(node),
                state):
            status = _get(state, var)
            if status is not None:
                state = _set(state, var,
                             (status[0], status[1], True, status[3]))
        # Bindings: acquisition, rename, store-to-attribute.
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if isinstance(target, ast.Name):
                if isinstance(value, ast.Call) \
                        and _is_acquire(value, self.sf, self.ctx):
                    state = _set(state, target.id,
                                 (True, False, False, node.lineno))
                elif isinstance(value, ast.Name):
                    status = _get(state, value.id)
                    if status is not None:  # rename: target takes ownership
                        state = _set(state, value.id, None)
                        state = _set(state, target.id, status)
            elif isinstance(value, ast.Name):
                status = _get(state, value.id)
                if status is not None:  # stored into attr/subscript: escapes
                    state = _set(state, value.id,
                                 (status[0], status[1], True, status[3]))
        if isinstance(node, (ast.Return, ast.Raise)):
            # `return SharedMemory(...)` / `return shm` hands ownership out.
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    status = _get(state, sub.id)
                    if status is not None:
                        state = _set(state, sub.id,
                                     (status[0], status[1], True, status[3]))
        return state

    def may_raise(self, stmt: ast.stmt) -> bool:
        for call in (c for c in ast.walk(stmt) if isinstance(c, ast.Call)):
            name = callee_name(call)
            if name == "unlink" or _is_acquire(call, self.sf, self.ctx):
                return True
        return False

    # ---- path-end check ---------------------------------------------------

    def finish(self, ends: list[PathEnd], func: FuncNode) -> None:
        for end in ends:
            state = end.state
            assert isinstance(state, tuple)
            for var, (mapped, _unlinked, escaped, born) in state:
                if mapped and not escaped:
                    how = ("an exception path" if end.exceptional
                           else "a normal return path")
                    line = getattr(end.node, "lineno", func.lineno)
                    self._report(
                        "ET502", born, var,
                        f"'{var}' (mapped at line {born}) leaks on {how} "
                        f"ending near line {line}: no close() or ownership "
                        f"transfer before scope exit")


def _exprs_of(stmt: ast.AST) -> ast.AST:
    """The value-position subtree of a statement (for escape scanning)."""
    if isinstance(stmt, ast.Assign):
        return stmt.value
    if isinstance(stmt, (ast.Expr, ast.Return)) and stmt.value is not None:
        return stmt.value
    return stmt


def _functions(tree: ast.Module) -> list[FuncNode]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def check_shm_lifecycle(sf: "SourceFile",
                        ctx: "AnalysisContext") -> list[Finding]:
    """Run the segment-lifecycle state machine over one file."""
    findings: list[Finding] = []
    for func in _functions(sf.tree):
        has_acquire = any(
            isinstance(c, ast.Call) and _is_acquire(c, sf, ctx)
            for c in ast.walk(func))
        if not has_acquire:
            continue
        shm_pass = _ShmPass(sf, ctx)
        checker = ProtocolChecker(step=shm_pass.step,
                                  may_raise=shm_pass.may_raise)
        ends = checker.run(func, EMPTY)
        shm_pass.finish(ends, func)
        findings.extend(shm_pass.findings.values())
    return findings
