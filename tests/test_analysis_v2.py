"""Tests for etlint's interprocedural lock-order pass and its satellites.

Covers the ET6xx deadlock pass on the symbol table and call resolution,
ET001 stale-suppression findings and the ``--selftest`` harness. Each
rule gets a positive fixture (a seeded violation the pass must catch)
and a negative fixture (compliant code it must not flag).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.__main__ import main as etlint_main
from repro.analysis.selftest import run_selftest

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_tree(tmp_path: Path, sources: dict[str, str], **kwargs):
    """Write fixture files, run the analyzer, return (rule ids, report)."""
    for name, source in sources.items():
        (tmp_path / name).write_text(textwrap.dedent(source),
                                     encoding="utf-8")
    report = run_analysis([tmp_path], root=tmp_path, **kwargs)
    return [f.rule_id for f in report.findings], report


def lint_snippet(tmp_path: Path, source: str, name: str = "snippet.py",
                 **kwargs):
    return lint_tree(tmp_path, {name: source}, **kwargs)


# ---- ET6xx: lock-order deadlocks -------------------------------------------


LOCK_CYCLE = """
    import threading


    class Journal:
        def __init__(self):
            self._lock = threading.Lock()
            self.ledger = Ledger()

        def append_entry(self):
            with self._lock:
                pass

        def reconcile(self):
            with self._lock:
                self.ledger.balance()


    class Ledger:
        def __init__(self):
            self._lock = threading.Lock()

        def balance(self):
            with self._lock:
                JOURNAL.append_entry()


    JOURNAL = Journal()
"""


def test_et601_lock_order_cycle_with_witnesses(tmp_path):
    rules, report = lint_snippet(tmp_path, LOCK_CYCLE, name="cycle.py")
    assert "ET601" in rules
    finding = next(f for f in report.findings if f.rule_id == "ET601")
    assert "lock-order cycle" in finding.message
    assert "Journal._lock" in finding.message
    assert "Ledger._lock" in finding.message
    # every hop of every edge carries a file:line witness
    assert finding.message.count("cycle.py:") >= 4
    # both conflicting acquisition orders are spelled out
    assert "Journal._lock then Ledger._lock" in finding.message
    assert "Ledger._lock then Journal._lock" in finding.message


def test_et601_consistent_order_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import threading

        OUTER = threading.Lock()
        INNER = threading.Lock()


        def direct():
            with OUTER:
                with INNER:
                    pass


        def indirect():
            with OUTER:
                _take_inner()


        def _take_inner():
            with INNER:
                pass
    """)
    assert "ET601" not in rules
    assert "ET602" not in rules


def test_et601_cycle_through_resolved_call(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        import threading

        A = threading.Lock()
        B = threading.Lock()


        def forward():
            with A:
                with B:
                    pass


        def _take_a():
            with A:
                pass


        def backward():
            with B:
                _take_a()
    """)
    assert "ET601" in rules
    finding = next(f for f in report.findings if f.rule_id == "ET601")
    # the transitive edge's witness includes the call hop into _take_a
    assert finding.message.count("snippet.py:") >= 4


def test_et602_nonreentrant_reacquire(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import threading


        class Cache:
            def __init__(self):
                self._lock = threading.Lock()

            def get(self):
                with self._lock:
                    return self._size()

            def _size(self):
                with self._lock:
                    return 0
    """)
    assert "ET602" in rules


def test_et602_rlock_reacquire_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import threading


        class Cache:
            def __init__(self):
                self._lock = threading.RLock()

            def get(self):
                with self._lock:
                    return self._size()

            def _size(self):
                with self._lock:
                    return 0
    """)
    assert "ET602" not in rules


INHERITED_REACQUIRE = """
    import threading


    class Base:
        def __init__(self):
            self._lock = threading.{factory}()


    class Child(Base):
        def outer(self):
            with self._lock:
                self.inner()

        def inner(self):
            with self._lock:
                pass
"""


def test_et602_sees_lock_inherited_from_base(tmp_path):
    rules, report = lint_snippet(
        tmp_path, INHERITED_REACQUIRE.format(factory="Lock"))
    assert rules == ["ET602"]
    # keyed by the defining class, so Base and Child methods share it
    assert "Base._lock" in report.findings[0].message


def test_inherited_rlock_reacquire_is_clean(tmp_path):
    rules, _ = lint_snippet(
        tmp_path, INHERITED_REACQUIRE.format(factory="RLock"))
    assert rules == []


def test_condition_shares_lock_group(tmp_path):
    """Holding a Condition over self._lock == holding self._lock."""
    rules, _ = lint_snippet(tmp_path, """
        import threading


        class Queue:
            def __init__(self):
                self._lock = threading.Lock()
                self._not_empty = threading.Condition(self._lock)

            def put(self):
                with self._not_empty:
                    self._depth()

            def _depth(self):
                with self._lock:
                    return 0
    """)
    assert "ET602" in rules  # Condition wraps the same non-reentrant lock


# ---- ET001: unused suppressions --------------------------------------------


def test_et001_stale_suppression_warns(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        def f():
            return 1  # etlint: disable=ET301 stale reason
    """)
    assert "ET001" in rules
    finding = next(f for f in report.findings if f.rule_id == "ET001")
    assert "ET301" in finding.message


def test_et001_used_suppression_is_silent(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        import time


        def stamp():
            return time.time()  # etlint: disable=ET301 timing boundary
    """)
    assert "ET001" not in rules
    assert report.suppressed_inline == 1


def test_et001_docstring_example_not_a_suppression(tmp_path):
    rules, _ = lint_snippet(tmp_path, '''
        def f():
            """Example: ``# etlint: disable=ET301 timing boundary``."""
            return 1
    ''')
    assert "ET001" not in rules


def test_et001_skipped_under_rule_filter(tmp_path):
    _, report = lint_snippet(
        tmp_path, """
        def f():
            return 1  # etlint: disable=ET301 stale reason
        """,
        rule_filter=lambda rid: rid.startswith("ET4"))
    assert report.findings == []


def test_strict_suppressions_cli_exit(tmp_path, monkeypatch, capsys):
    (tmp_path / "mod.py").write_text(
        "def f():\n    return 1  # etlint: disable=ET301 stale\n",
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert etlint_main(["mod.py"]) == 1  # a stale suppression fails the run
    out = capsys.readouterr().out
    assert "ET001" in out


# ---- selftest --------------------------------------------------------------


def test_selftest_passes():
    assert run_selftest() == []


def test_selftest_cli(capsys):
    assert etlint_main(["--selftest"]) == 0


# ---- the real tree ---------------------------------------------------------


def test_real_tree_has_no_deep_pass_findings():
    """ET6xx and ET001 are clean on the repo (cycle-free lock graph, no
    stale suppressions)."""
    report = run_analysis([REPO_ROOT / "src"], root=REPO_ROOT)
    deep = [f for f in report.findings
            if f.rule_id.startswith(("ET6", "ET0"))]
    assert deep == [], "\n".join(f.format_text() for f in deep)
