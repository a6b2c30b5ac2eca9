"""Discovery and orchestration for the `etlint` passes.

The runner parses every Python file under the given paths once, builds the
shared static context — the scanned-class lock map and the project symbol
table — runs each pass over each file, then applies inline suppressions.

Inline suppression: a line (or the line directly above it) containing
``# etlint: disable=ET301`` (comma-separated ids, or ``all``) silences
those rules for findings anchored on that line. Suppressions should carry
a reason, e.g.::

    self._t0 = time.monotonic()  # etlint: disable=ET301 timing boundary

A suppression that silences nothing is itself reported (ET001) and fails
the run like any finding, so stale disables cannot accumulate. When
``rule_filter`` restricts the run to
a subset of rules, ET001 is skipped — a suppression for an un-run rule
is not evidence of staleness. Inline disables are the only suppression
mechanism.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.analysis.callgraph import SymbolTable, build_symbols
from repro.analysis.findings import Finding, make_finding

_DISABLE_RE = re.compile(r"#\s*etlint:\s*disable=([A-Za-z0-9_,]+)")


@dataclass
class SourceFile:
    """One parsed file, as the passes consume it."""

    path: Path
    display: str
    module: str
    tree: ast.Module
    lines: list[str]


@dataclass
class AnalysisContext:
    """Cross-file facts shared by every pass."""

    symbols: SymbolTable
    #: per-run memo space for project-wide passes (computed once,
    #: reported per file) — keyed by pass name
    scratch: dict[str, object] = field(default_factory=dict)


@dataclass
class AnalysisReport:
    """The outcome of one analysis run."""

    findings: list[Finding]
    files_scanned: int
    suppressed_inline: int
    parse_errors: list[str] = field(default_factory=list)


PassFn = Callable[[SourceFile, AnalysisContext], list[Finding]]


def _iter_py_files(paths: Sequence[Path]) -> Iterable[Path]:
    seen: set[Path] = set()
    for path in paths:
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def module_name_for(path: Path) -> str:
    """Dotted module name: rooted at ``repro`` when inside the package."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
        return ".".join(parts) if parts else "repro"
    return parts[-1] if parts else str(path)


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_files(paths: Sequence[Path], root: Path,
               errors: list[str]) -> list[SourceFile]:
    """Parse every ``.py`` file under ``paths`` (reporting parse failures)."""
    files: list[SourceFile] = []
    for py in _iter_py_files(paths):
        try:
            text = py.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(py))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{py}: {exc}")
            continue
        files.append(SourceFile(
            path=py,
            display=_display_path(py, root),
            module=module_name_for(py),
            tree=tree,
            lines=text.splitlines(),
        ))
    return files


def build_context(files: list[SourceFile]) -> AnalysisContext:
    """Assemble the shared static context from the parsed files."""
    return AnalysisContext(symbols=build_symbols(files))


def default_passes() -> dict[str, PassFn]:
    """Every pass, keyed by family name."""
    from repro.analysis.determinism import check_determinism
    from repro.analysis.locks import check_lock_order
    from repro.analysis.process_safety import check_process_safety
    from repro.analysis.thread_safety import check_thread_safety

    return {
        "determinism": check_determinism,            # ET3xx
        "thread-safety": check_thread_safety,        # ET4xx
        "process-safety": check_process_safety,      # ET501
        "lock-order": check_lock_order,              # ET6xx
    }


@dataclass
class _Suppression:
    """One ``# etlint: disable=...`` comment in a file."""

    comment_line: int
    target_line: int
    tokens: set[str]
    used: bool = False


def _comment_lines(sf: SourceFile) -> set[int]:
    """1-indexed lines carrying a real COMMENT token.

    Tokenizing (rather than regex-matching raw lines) keeps disable
    examples inside docstrings from acting as — or being reported as —
    suppressions.
    """
    import io
    import tokenize

    lines: set[int] = set()
    reader = io.StringIO("\n".join(sf.lines) + "\n").readline
    try:
        for tok in tokenize.generate_tokens(reader):
            if tok.type == tokenize.COMMENT:
                lines.add(tok.start[0])
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        # Fall back to treating every line as commentable; the file
        # parsed as AST, so this should not happen in practice.
        return set(range(1, len(sf.lines) + 1))
    return lines


def _suppression_comments(sf: SourceFile) -> list[_Suppression]:
    commented = _comment_lines(sf)
    out: list[_Suppression] = []
    for i, line in enumerate(sf.lines, start=1):
        if i not in commented:
            continue
        match = _DISABLE_RE.search(line)
        if not match:
            continue
        tokens = {token.strip().upper()
                  for token in match.group(1).split(",") if token.strip()}
        target = i + 1 if line.lstrip().startswith("#") else i
        out.append(_Suppression(comment_line=i, target_line=target,
                                tokens=tokens))
    return out


def _suppressing_comment(
        comments: list[_Suppression], finding: Finding) -> _Suppression | None:
    for comment in comments:
        if comment.target_line == finding.line and \
                (finding.rule_id in comment.tokens or "ALL" in comment.tokens):
            return comment
    return None


def _collect(
    files: list[SourceFile],
    ctx: AnalysisContext,
    rule_filter: Callable[[str], bool] | None,
) -> tuple[list[Finding], int]:
    """Run the passes: (unsuppressed findings incl. ET001, inline-suppressed)."""
    passes = default_passes()
    survivors: list[Finding] = []
    inline_suppressed = 0
    for sf in files:
        comments = _suppression_comments(sf)
        for check in passes.values():
            for finding in check(sf, ctx):
                suppressor = _suppressing_comment(comments, finding)
                if suppressor is not None:
                    suppressor.used = True
                if rule_filter is not None \
                        and not rule_filter(finding.rule_id):
                    continue
                if suppressor is not None:
                    inline_suppressed += 1
                    continue
                survivors.append(finding)
        if rule_filter is None:
            for comment in comments:
                if not comment.used:
                    ids = ",".join(sorted(comment.tokens))
                    survivors.append(make_finding(
                        "ET001", sf.display, comment.comment_line, 0,
                        f"unused suppression 'etlint: disable={ids}': no "
                        f"matching finding is anchored on line "
                        f"{comment.target_line}"))
    return survivors, inline_suppressed


def run_analysis(
    paths: Sequence[Path],
    root: Path | None = None,
    rule_filter: Callable[[str], bool] | None = None,
) -> AnalysisReport:
    """Analyze ``paths`` and return the surviving findings.

    ``rule_filter`` restricts reporting to matching rule ids (used by
    ``--rules``); inline suppressions apply after it.
    """
    root = root or Path.cwd()
    errors: list[str] = []
    files = load_files(paths, root, errors)
    ctx = build_context(files)
    survivors, inline_suppressed = _collect(files, ctx, rule_filter)
    survivors.sort(key=Finding.sort_key)
    return AnalysisReport(
        findings=survivors,
        files_scanned=len(files),
        suppressed_inline=inline_suppressed,
        parse_errors=errors,
    )
