"""Project-wide symbol table and call resolution for the lock-order pass.

The lock-order invariant is *interprocedural*: a lock taken inside a
callee counts as taken at the call site. This module builds what the
pass needs to follow such calls:

- :class:`SymbolTable` — every function, class, method, per-class lock
  attributes (with ``Condition(self._lock)`` unified into one lock
  group), collaborator attribute types from ``__init__`` construction,
  module-level locks and instances, and per-module import aliases. A
  class also holds the locks and collaborators of its scanned bases, and
  each lock is owned by the class that defines it;
- :func:`resolve_call` — the scanned function a call provably targets
  (``self.m()``, ``self.attr.m()`` through the attribute's constructed
  class, bare names through imports, ``var.m()`` through a local
  single-constructor assignment).

It also holds the AST-name helpers the passes share
(:func:`callee_name`, :func:`dotted_callee`, :func:`self_attr`,
:func:`import_aliases`).

Resolution is deliberately *under*-approximate: a call resolves only
when the callee is provably a scanned function, so the pass reports no
speculative findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.analysis.runner import SourceFile

#: Constructors whose result makes an attribute (or module global) a lock.
LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "Lock", "RLock", "Condition",
})

#: Lock factories that produce *re-entrant* primitives (safe to re-acquire).
REENTRANT_FACTORIES = frozenset({"threading.RLock", "RLock"})

FuncNode = ast.FunctionDef | ast.AsyncFunctionDef


def callee_name(call: ast.Call) -> str | None:
    """Terminal name of a call's callee (``f`` for both ``f()`` and ``m.f()``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_callee(call: ast.Call) -> str | None:
    """Full dotted callee path (``np.random.default_rng``), or ``None``."""
    parts: list[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.expr) -> str | None:
    """``X`` when ``node`` is ``self.X``, else ``None``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


@dataclass
class ClassInfo:
    """Everything the passes need to know about one scanned class."""

    name: str
    module: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FuncNode] = field(default_factory=dict)
    #: lock attr -> canonical group representative (Condition-over-lock
    #: attributes share their underlying lock's group)
    lock_group: dict[str, str] = field(default_factory=dict)
    #: canonical lock attr -> factory kind ("Lock"/"RLock"/"Condition")
    lock_kind: dict[str, str] = field(default_factory=dict)
    #: canonical lock attr -> the class defining it (self, or a base)
    lock_owner: dict[str, str] = field(default_factory=dict)
    #: attribute name -> class name it was constructed from
    attr_classes: dict[str, str] = field(default_factory=dict)

    def canonical_lock(self, attr: str) -> str | None:
        """Group representative for a lock attribute, or ``None``."""
        return self.lock_group.get(attr)


@dataclass(frozen=True)
class FunctionInfo:
    """One scanned function or method, keyed in the table by qualname
    (``"module:func"`` or ``"module:Class.method"``)."""

    module: str
    display: str
    cls: str | None
    node: FuncNode


def _classify_class(cls: ast.ClassDef, module: str) -> ClassInfo:
    bases = [b.id if isinstance(b, ast.Name) else b.attr
             for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))]
    info = ClassInfo(name=cls.name, module=module, bases=bases)
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = stmt
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        ctor = dotted_callee(value)
        if ctor is None:
            continue
        for target in node.targets:
            attr = self_attr(target)
            if attr is None:
                continue
            if ctor in LOCK_FACTORIES:
                info.lock_kind[attr] = ctor.rsplit(".", 1)[-1]
                # Condition(self._lock) shares the wrapped lock: union the
                # groups so "holding _not_full" == "holding _lock".
                wrapped = None
                if value.args:
                    wrapped = self_attr(value.args[0])
                info.lock_group[attr] = wrapped if wrapped is not None \
                    else attr
            elif "." not in ctor:
                info.attr_classes[attr] = ctor
    # Collapse group chains (A -> B -> B) and default unknown wraps to self.
    for attr in list(info.lock_group):
        root = info.lock_group[attr]
        seen = {attr}
        while root in info.lock_group and info.lock_group[root] != root \
                and root not in seen:
            seen.add(root)
            root = info.lock_group[root]
        info.lock_group[attr] = root
        info.lock_kind.setdefault(root, info.lock_kind.get(attr, "Lock"))
        info.lock_owner[root] = info.name
    return info


def _inherit(table: "SymbolTable", name: str,
             seen: frozenset[str] = frozenset()) -> None:
    """Merge scanned bases' locks and collaborators into class ``name``.

    A lock defined by a base stays owned by it, so a base method and a
    subclass method that take ``self._lock`` acquire one lock node.
    """
    info = table.classes[name]
    seen = seen | {name}
    for base in info.bases:
        parent = table.classes.get(base)
        if parent is None or base in seen:
            continue
        _inherit(table, base, seen)
        for attr, root in parent.lock_group.items():
            info.lock_group.setdefault(attr, root)
        info.lock_owner.update(parent.lock_owner)
        for attr, owner in parent.attr_classes.items():
            info.attr_classes.setdefault(attr, owner)


@dataclass
class SymbolTable:
    """Cross-file symbol index the lock-order pass resolves calls in."""

    #: class name -> info (class names are unique across the repo)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: "module:qualpath" -> info
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: module -> local name -> dotted import target
    imports: dict[str, dict[str, str]] = field(default_factory=dict)
    #: module -> names of module-level lock globals
    module_locks: dict[str, set[str]] = field(default_factory=dict)
    #: module -> module-level ``NAME = ClassName(...)`` instance globals
    instances: dict[str, dict[str, str]] = field(default_factory=dict)

    def method_qual(self, cls: str, method: str) -> str | None:
        """Qualname of ``cls.method`` when both are scanned."""
        info = self.classes.get(cls)
        if info is None or method not in info.methods:
            return None
        return f"{info.module}:{cls}.{method}"


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted import path they are bound to."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def build_symbols(files: Iterable["SourceFile"]) -> SymbolTable:
    """Index every class, function, import, and module-level lock."""
    table = SymbolTable()
    for sf in files:
        table.imports[sf.module] = import_aliases(sf.tree)
        locks: set[str] = set()
        instances: dict[str, str] = {}
        for stmt in sf.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{sf.module}:{stmt.name}"
                table.functions[qual] = FunctionInfo(
                    module=sf.module, display=sf.display, cls=None,
                    node=stmt)
            elif isinstance(stmt, ast.ClassDef):
                info = _classify_class(stmt, sf.module)
                table.classes[stmt.name] = info
                for mname, mnode in info.methods.items():
                    qual = f"{sf.module}:{stmt.name}.{mname}"
                    table.functions[qual] = FunctionInfo(
                        module=sf.module, display=sf.display,
                        cls=stmt.name, node=mnode)
            elif isinstance(stmt, ast.Assign) \
                    and isinstance(stmt.value, ast.Call):
                ctor = dotted_callee(stmt.value)
                if ctor in LOCK_FACTORIES:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            locks.add(target.id)
                elif ctor is not None and "." not in ctor:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            instances[target.id] = ctor
        if locks:
            table.module_locks[sf.module] = locks
        if instances:
            table.instances[sf.module] = instances
    for name in table.classes:
        _inherit(table, name)
    return table


def local_constructions(func: FuncNode,
                        table: SymbolTable) -> dict[str, str]:
    """``{var: ClassName}`` for locals bound to one scanned constructor."""
    out: dict[str, str] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) \
                or not isinstance(node.value, ast.Call):
            continue
        func_expr = node.value.func
        if isinstance(func_expr, ast.Name) and func_expr.id in table.classes:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = func_expr.id
    return out


def resolve_call(call: ast.Call, module: str, cls: ClassInfo | None,
                 table: SymbolTable,
                 local_types: dict[str, str] | None = None) -> str | None:
    """Qualname of the scanned function a call provably targets, or None."""
    func = call.func
    local_types = local_types or {}
    if isinstance(func, ast.Name):
        # Bare name: same-module function, or an imported scanned one.
        qual = f"{module}:{func.id}"
        if qual in table.functions:
            return qual
        target = table.imports.get(module, {}).get(func.id)
        if target and "." in target:
            mod, _, name = target.rpartition(".")
            qual = f"{mod}:{name}"
            if qual in table.functions:
                return qual
        return None
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    method = func.attr
    if isinstance(base, ast.Name):
        if base.id == "self" and cls is not None:
            qual = table.method_qual(cls.name, method)
            if qual is not None:
                return qual
            return None
        owner = local_types.get(base.id)
        if owner is not None:
            return table.method_qual(owner, method)
        # Class-level call on a scanned class (classmethod/staticmethod).
        if base.id in table.classes:
            return table.method_qual(base.id, method)
        # Module-level instance global of this module.
        owner = table.instances.get(module, {}).get(base.id)
        if owner is not None:
            return table.method_qual(owner, method)
        # Module alias: `from repro import x` / `import repro.x as y`.
        target = table.imports.get(module, {}).get(base.id)
        if target is not None:
            qual = f"{target}:{method}"
            if qual in table.functions:
                return qual
            src_mod, _, obj = target.rpartition(".")
            if obj in table.classes and table.classes[obj].module == src_mod:
                return table.method_qual(obj, method)
            owner = table.instances.get(src_mod, {}).get(obj)
            if owner is not None:
                return table.method_qual(owner, method)
        return None
    # self.<attr>.method() through the attribute's constructed class.
    attr = self_attr(base)
    if attr is not None and cls is not None:
        owner = cls.attr_classes.get(attr)
        if owner is not None:
            return table.method_qual(owner, method)
    return None
