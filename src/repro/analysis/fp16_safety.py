"""Pass 2 — FP16 numerical safety: the Section 3.3 scaling-reorder rule.

Pure-FP16 ``Q·Kᵀ`` overflows for most entries (Fig. 4) unless the
``1/√d_k`` scaling moves *before* the product or the accumulator widens to
FP32. This pass encodes that invariant at the emulation API's call sites:

- ``fp16_matmul(a, b)`` with a pure-FP16 accumulator must pre-scale its
  left operand — ET201;
- ``attention_scores_overflow(...)`` / ``overflow_heatmap(...)`` with a
  literal ``scale_first=False`` and an FP16 accumulator is the overflow
  regime — ET202 (the overflow *study* itself carries inline suppressions:
  measuring the bad regime is its purpose);
- ``to_fp16(x @ y)`` casts a raw product with no scaling anywhere — ET203.

"Pre-scaled" is flow-sensitive in v2, not just syntactic: a ``*``/``/``
expression counts, and so does a **local previously assigned** one
(``qs = q * scale`` … ``fp16_matmul(qs, k)``) — chains of such
assignments included — and a call to a one-return helper, resolved
through the call graph, whose returned expression is itself pre-scaled.
Call sites whose accumulate/scale_first arguments are runtime values are
skipped: the pass only reports what it can prove from the source.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable

from repro.analysis.callgraph import FuncNode, callee_name, keyword_arg, \
    resolve_call
from repro.analysis.findings import Finding, make_finding

if TYPE_CHECKING:
    from repro.analysis.runner import AnalysisContext, SourceFile

#: Maps a call to the scanned function it provably targets, or ``None``.
HelperLookup = Callable[[ast.Call], FuncNode | None]

#: ``scale_first`` / ``accumulate`` positional slots per checked callee.
_SCALE_FIRST_POS = {"attention_scores_overflow": 3, "overflow_heatmap": 2}
_ACCUMULATE_POS = {"fp16_matmul": 2, "attention_scores_overflow": 4,
                   "overflow_heatmap": 3}


def _literal_str(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _literal_bool(node: ast.expr | None) -> bool | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    return None


def _accumulate_mode(call: ast.Call, callee: str) -> str | None:
    """The call's accumulate mode: a literal, the default, or ``None`` (unknown)."""
    expr = keyword_arg(call, "accumulate", _ACCUMULATE_POS[callee])
    if expr is None:
        return "fp16"  # the parameter's default
    return _literal_str(expr)


def _single_return(func: FuncNode) -> ast.expr | None:
    """The returned expression of a function with exactly one ``return``."""
    returns = [node for node in ast.walk(func)
               if isinstance(node, ast.Return) and node.value is not None]
    return returns[0].value if len(returns) == 1 else None


def _is_prescaled(node: ast.expr, scaled: frozenset[str] = frozenset(),
                  helper_of: HelperLookup | None = None) -> bool:
    """Whether an operand expression provably applies a scale factor."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return True
    if isinstance(node, ast.Name) and node.id in scaled:
        return True
    if isinstance(node, ast.Call):  # e.g. np.asarray(q * scale)
        if any(_is_prescaled(arg, scaled, helper_of) for arg in node.args
               if not isinstance(arg, ast.Starred)):
            return True
        # One interprocedural level: prescale() helpers whose single
        # return expression is itself visibly scaled.
        helper = helper_of(node) if helper_of is not None else None
        if helper is not None:
            returned = _single_return(helper)
            if returned is not None:
                return _is_prescaled(returned,
                                     frozenset(_scaled_locals(helper)))
    return False


def _scope_nodes(scope: ast.AST) -> list[ast.AST]:
    """Nodes of a scope excluding nested function/class bodies."""
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _scaled_locals(scope: ast.AST,
                   helper_of: HelperLookup | None = None) -> dict[str, int]:
    """``{name: line}`` for locals bound to pre-scaled expressions.

    Processed in line order so assignment chains (``a = q * s; b = a``)
    propagate; a name scaled then rebound to something unscaled drops
    out, keeping the set must-scaled.
    """
    assigns = sorted(
        (n for n in _scope_nodes(scope) if isinstance(n, ast.Assign)
         and len(n.targets) == 1 and isinstance(n.targets[0], ast.Name)),
        key=lambda n: n.lineno)
    scaled: dict[str, int] = {}
    for assign in assigns:
        name = assign.targets[0].id  # type: ignore[union-attr]
        known = frozenset(n for n, line in scaled.items()
                          if line < assign.lineno)
        if _is_prescaled(assign.value, known, helper_of):
            scaled[name] = assign.lineno
        else:
            scaled.pop(name, None)
    return scaled


def check_fp16_safety(sf: "SourceFile",
                      ctx: "AnalysisContext") -> list[Finding]:
    """Run the FP16-safety checks over one file."""

    def helper_of(call: ast.Call) -> FuncNode | None:
        qual = resolve_call(call, sf.module, None, ctx.symbols)
        info = ctx.symbols.function(qual) if qual is not None else None
        return info.node if info is not None else None

    findings: list[Finding] = []
    scopes: list[ast.AST] = [sf.tree]
    scopes.extend(n for n in ast.walk(sf.tree)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)))
    for scope in scopes:
        scaled_lines = _scaled_locals(scope, helper_of)
        for node in _scope_nodes(scope):
            if not isinstance(node, ast.Call):
                continue
            # Only names scaled strictly before the use count as scaled.
            scaled = frozenset(n for n, line in scaled_lines.items()
                               if line < node.lineno)
            callee = callee_name(node)
            if callee == "fp16_matmul":
                findings.extend(
                    _check_fp16_matmul(sf, node, scaled, helper_of))
            elif callee in ("attention_scores_overflow", "overflow_heatmap"):
                findings.extend(_check_scores_call(sf, node, callee))
            elif callee == "to_fp16":
                findings.extend(
                    _check_fp16_cast(sf, node, scaled, helper_of))
    return findings


def _check_fp16_matmul(sf: "SourceFile", node: ast.Call,
                       scaled: frozenset[str],
                       helper_of: HelperLookup) -> list[Finding]:
    if _accumulate_mode(node, "fp16_matmul") != "fp16" or not node.args:
        return []
    left = node.args[0]
    if isinstance(left, ast.Starred) \
            or _is_prescaled(left, scaled, helper_of):
        return []
    return [make_finding(
        "ET201", sf.display, node.lineno, node.col_offset,
        "pure-FP16 matmul whose left operand is not pre-scaled; partial "
        "sums can leave the ±65504 range")]


def _check_scores_call(sf: "SourceFile", node: ast.Call,
                       callee: str) -> list[Finding]:
    scale_first = _literal_bool(
        keyword_arg(node, "scale_first", _SCALE_FIRST_POS[callee]))
    if scale_first is not False:
        return []
    if _accumulate_mode(node, callee) != "fp16":
        return []
    return [make_finding(
        "ET202", sf.display, node.lineno, node.col_offset,
        f"{callee} with scale_first=False in pure FP16 reproduces the "
        f"Fig. 4 overflow regime")]


def _check_fp16_cast(sf: "SourceFile", node: ast.Call,
                     scaled: frozenset[str],
                     helper_of: HelperLookup) -> list[Finding]:
    if len(node.args) != 1:
        return []
    arg = node.args[0]
    if not (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.MatMult)):
        return []
    if _is_prescaled(arg.left, scaled, helper_of) \
            or _is_prescaled(arg.right, scaled, helper_of):
        return []
    return [make_finding(
        "ET203", sf.display, node.lineno, node.col_offset,
        "matmul product cast to FP16 without scaling either operand")]
