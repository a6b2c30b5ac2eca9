"""Analyzer selftest: prove the lock-order pass still trips on known-bad code.

A static analyzer's worst failure mode is silent: a refactor makes a
pass stop matching and CI goes green forever after. The lock-order pass
(ET6xx) is the one pass whose clean result on the real tree says
nothing — the tree has no lock-order edges — so ``--selftest``
synthesizes a fixture in a temp directory holding one certain ET601
deadlock (two locks taken in opposite orders, one direction through a
resolved call, one lock inherited from a base class), runs the full
pipeline over it, and fails unless the pass reports it. CI runs this
before the real lint so a lobotomized analyzer fails the build instead
of passing it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

DEADLOCK_FIXTURE = '''\
"""Synthetic AB/BA lock-order cycle (must trip ET601).

One direction is a nested ``with``; the other goes through a resolved
call, so the selftest exercises the call graph and the transitive
acquisition closure, not just the syntactic walker. The journal lock is
defined by ``Journal`` and taken by its subclass ``Books``: the cycle
closes only if a subclass sees its base's lock as the same lock node.
"""
import threading

LEDGER_LOCK = threading.Lock()


def _settle():
    with LEDGER_LOCK:
        pass


class Journal:
    def __init__(self):
        self._lock = threading.Lock()

    def reconcile(self):
        with LEDGER_LOCK:
            with self._lock:
                pass


class Books(Journal):
    def post(self):
        with self._lock:
            _settle()
'''


def run_selftest() -> list[str]:
    """Returns a list of failures (empty when the analyzer is healthy)."""
    from repro.analysis.runner import run_analysis

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="etlint-selftest-") as tmp:
        root = Path(tmp)
        (root / "deadlock_case.py").write_text(DEADLOCK_FIXTURE,
                                               encoding="utf-8")
        report = run_analysis([root], root=root)
        rules = {f.rule_id for f in report.findings}
        if "ET601" not in rules:
            failures.append(
                "ET601 pass failed to report the synthetic Ledger/Journal "
                "lock-order cycle through an inherited lock")
        if report.parse_errors:
            failures.extend(f"selftest fixture parse error: {err}"
                            for err in report.parse_errors)
    return failures
