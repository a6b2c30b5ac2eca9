"""Pass 3 — determinism of the byte-identical trace/artifact paths.

PR 2's contract is that a seeded run produces byte-identical traces and
metrics artifacts. Three things silently break it:

- **wall-clock reads** (``time.time()``, ``time.monotonic()``,
  ``datetime.now()``, …) anywhere virtual time should flow — ET301. The
  thread-backed :class:`~repro.serving.server.AsyncServer` is the one
  designated timing boundary and carries inline suppressions.
- **unseeded randomness** (``np.random.default_rng()`` with no seed, the
  legacy ``np.random.*`` module-level functions, stdlib ``random.*``) —
  ET302, enforced across the whole package: any draw not derived from an
  explicit seed makes artifacts unreproducible.
- **set iteration into output** — ET303: set order varies with
  ``PYTHONHASHSEED``, so a ``for``/``join``/``list`` over a set must wrap
  it in ``sorted(...)``.

ET301/ET303 apply to the hot-path packages (``runtime``, ``obs``,
``serving``, ``gpu``, ``eval``); ET302 applies everywhere.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.callgraph import callee_name, import_aliases
from repro.analysis.findings import Finding, make_finding

if TYPE_CHECKING:
    from repro.analysis.runner import AnalysisContext, SourceFile

#: repro.<subpackage> prefixes whose output feeds the trace guarantee.
HOT_PATH_SCOPES = ("runtime", "obs", "serving", "gpu", "eval")

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
    # Formatting/conversion reads that default to "now" / local clock
    # state — these leak wall time into artifacts just as surely as a
    # direct time.time() (the flight recorder's byte-identity depends on
    # no obs module reaching any of them).
    "time.localtime", "time.gmtime", "time.strftime", "time.ctime",
    "time.asctime", "datetime.datetime.fromtimestamp",
    "datetime.date.fromtimestamp",
})

_NP_LEGACY_RNG = frozenset({
    "rand", "randn", "random", "random_sample", "ranf", "randint",
    "random_integers", "choice", "shuffle", "permutation", "normal",
    "standard_normal", "uniform", "poisson", "exponential", "binomial",
    "seed", "get_state", "set_state",
})

_STDLIB_RNG = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "seed", "getrandbits", "randbytes",
})


def _resolved_path(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Dotted callee path with its leading alias expanded."""
    parts: list[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    head = aliases.get(parts[0])
    if head is not None:
        parts[0] = head
    return ".".join(parts)


def in_hot_path(module: str) -> bool:
    """Whether ET301/ET303 apply to this module.

    Standalone files (test fixtures, scripts outside the package) are
    always in scope; ``repro.*`` modules only when under a hot-path
    subpackage.
    """
    if not module.startswith("repro."):
        return True
    parts = module.split(".")
    return len(parts) > 1 and parts[1] in HOT_PATH_SCOPES


def check_determinism(sf: "SourceFile",
                      ctx: "AnalysisContext") -> list[Finding]:
    """Run the determinism checks over one file."""
    findings: list[Finding] = []
    aliases = import_aliases(sf.tree)
    hot = in_hot_path(sf.module)
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Call):
            path = _resolved_path(node, aliases)
            if path is not None:
                if hot and path in _WALL_CLOCK:
                    findings.append(make_finding(
                        "ET301", sf.display, node.lineno, node.col_offset,
                        f"wall-clock read {path}() in a deterministic hot "
                        f"path"))
                findings.extend(_check_rng(sf, node, path))
        if hot:
            findings.extend(_check_set_iteration(sf, node))
    return findings


def _check_rng(sf: "SourceFile", node: ast.Call, path: str) -> list[Finding]:
    message: str | None = None
    if path in ("numpy.random.default_rng", "np.random.default_rng") \
            and not node.args and not node.keywords:
        message = "np.random.default_rng() without a seed"
    elif path in ("numpy.random.RandomState", "np.random.RandomState") \
            and not node.args and not node.keywords:
        message = "np.random.RandomState() without a seed"
    elif path.startswith(("numpy.random.", "np.random.")) \
            and path.rsplit(".", 1)[1] in _NP_LEGACY_RNG:
        message = (f"legacy global-state call {path}(); draws depend on "
                   f"hidden module state")
    elif path.startswith("random.") \
            and path.rsplit(".", 1)[1] in _STDLIB_RNG:
        message = (f"stdlib {path}() uses the hidden global generator")
    if message is None:
        return []
    return [make_finding("ET302", sf.display, node.lineno, node.col_offset,
                         message)]


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and callee_name(node) in ("set", "frozenset"))


def _check_set_iteration(sf: "SourceFile", node: ast.AST) -> list[Finding]:
    sites: list[tuple[ast.expr, str]] = []
    if isinstance(node, ast.For):
        sites.append((node.iter, "for-loop"))
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for gen in node.generators:
            sites.append((gen.iter, "comprehension"))
    elif isinstance(node, ast.Call):
        func = node.func
        is_join = isinstance(func, ast.Attribute) and func.attr == "join"
        is_seq = isinstance(func, ast.Name) and func.id in ("list", "tuple")
        if (is_join or is_seq) and node.args \
                and not isinstance(node.args[0], ast.Starred):
            label = "join" if is_join else "sequence conversion"
            sites.append((node.args[0], label))
    return [
        make_finding(
            "ET303", sf.display, expr.lineno, expr.col_offset,
            f"{label} iterates a set directly; order varies with "
            f"PYTHONHASHSEED")
        for expr, label in sites if _is_set_expr(expr)
    ]
