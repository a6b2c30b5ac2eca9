"""Command-line front end: ``python -m repro.analysis [paths...]``.

Exit codes: 0 — clean; 1 — findings, stale suppressions (ET001) included,
parse errors, or a failed ``--selftest``; 2 — usage error (bad path,
unknown rule).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import RULES, Finding
from repro.analysis.runner import run_analysis

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="etlint: static analysis of the E.T. reproduction's "
                    "determinism, thread-safety, shared-memory ownership "
                    "and lock-order contracts.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)")
    parser.add_argument(
        "--format", choices=("text", "github", "json"), default="text",
        help="finding output format; 'github' emits workflow-command "
             "annotations that overlay PR diffs")
    parser.add_argument(
        "--rules", metavar="IDS", default=None,
        help="comma-separated rule ids or prefixes to run "
             "(e.g. ET3,ET401)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its invariant and exit")
    parser.add_argument(
        "--selftest", action="store_true",
        help="verify the lock-order pass trips on a synthetic AB/BA "
             "deadlock fixture, then exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule in sorted(RULES.values(), key=lambda r: r.rule_id):
        lines.append(f"{rule.rule_id} {rule.name}")
        lines.append(f"    {rule.summary}")
        lines.append(f"    invariant: {rule.invariant}")
        lines.append(f"    traces to: {rule.paper_ref}")
    return "\n".join(lines)


def _json_payload(findings: list[Finding]) -> str:
    import json

    return json.dumps(
        [
            {"rule": f.rule_id, "path": f.path, "line": f.line,
             "col": f.col, "message": f.message, "hint": f.hint}
            for f in findings
        ],
        indent=2,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return EXIT_CLEAN

    if args.selftest:
        from repro.analysis.selftest import run_selftest

        failures = run_selftest()
        for failure in failures:
            print(f"selftest FAILED: {failure}", file=sys.stderr)
        if not failures:
            print("etlint selftest: synthetic lock-order cycle detected",
                  file=sys.stderr)
        return EXIT_FINDINGS if failures else EXIT_CLEAN

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return EXIT_USAGE

    rule_filter = None
    if args.rules:
        prefixes = tuple(
            token.strip().upper()
            for token in args.rules.split(",") if token.strip())
        unknown = [p for p in prefixes
                   if not any(rid.startswith(p) for rid in RULES)]
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return EXIT_USAGE
        rule_filter = lambda rid: rid.startswith(prefixes)  # noqa: E731

    report = run_analysis(paths, Path.cwd(), rule_filter=rule_filter)
    for err in report.parse_errors:
        print(f"error: cannot parse {err}", file=sys.stderr)

    if args.format == "json":
        print(_json_payload(report.findings))
    else:
        for finding in report.findings:
            print(finding.format_github() if args.format == "github"
                  else finding.format_text())
        summary = (f"etlint: {len(report.findings)} finding"
                   f"{'' if len(report.findings) == 1 else 's'} across "
                   f"{report.files_scanned} files")
        if report.suppressed_inline:
            summary += f" ({report.suppressed_inline} inline-suppressed)"
        print(summary, file=sys.stderr)

    if report.findings or report.parse_errors:
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
