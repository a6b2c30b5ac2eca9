"""Tests for etlint v2: the interprocedural passes.

Covers the analysis substrate (symbol table, call graph), the three deep
passes (ET6xx deadlock, ET5xx shm lifecycle, ET7xx event protocol), the
one-level helper lookup of ET2xx, and the v2 satellites: ET001
unused-suppression warnings, SARIF output and the ``--selftest``
harness. Each new rule gets a positive fixture (a seeded violation the
pass must catch) and a negative fixture (compliant code it must not
flag).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import RULES, run_analysis
from repro.analysis.__main__ import main as etlint_main
from repro.analysis.findings import Severity
from repro.analysis.sarif import sarif_document, validate_minimal
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


# ---- ET5xx v2: shm lifecycle -----------------------------------------------


def test_et502_leak_on_branch(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        from multiprocessing import shared_memory


        def peek(name, flag):
            seg = shared_memory.SharedMemory(name=name)
            if flag:
                return 0
            seg.close()
            return 1
    """)
    assert "ET502" in rules
    finding = next(f for f in report.findings if f.rule_id == "ET502")
    assert finding.line == 6  # anchored where the mapping was created


def test_et503_use_after_close(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        from multiprocessing import shared_memory


        def peek(name):
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            return seg.buf[0]
    """)
    assert "ET503" in rules


def test_et504_double_unlink(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        from multiprocessing import shared_memory


        def destroy(name):
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
            seg.unlink()
    """)
    assert "ET504" in rules


def test_shm_clean_lifecycles_not_flagged(tmp_path):
    """The static counterparts of test_pool's leak-probe scenarios."""
    rules, _ = lint_snippet(tmp_path, """
        from multiprocessing import shared_memory


        def read_then_close(name):
            seg = shared_memory.SharedMemory(name=name)
            value = seg.buf[0]
            seg.close()
            return value


        def probe_unlink(name):
            # the fixed SharedWeightStore.unlink re-attach pattern
            probe = shared_memory.SharedMemory(name=name)
            try:
                probe.unlink()
            finally:
                probe.close()


        def ownership_escapes(name):
            seg = shared_memory.SharedMemory(name=name)
            return seg


        def exists(name):
            try:
                probe = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                return False
            probe.close()
            return True
    """)
    assert "ET502" not in rules
    assert "ET503" not in rules
    assert "ET504" not in rules


def test_et502_through_annotated_helper(tmp_path):
    """Acquisition through a helper typed ``-> SharedMemory`` is tracked."""
    rules, _ = lint_snippet(tmp_path, """
        from multiprocessing import shared_memory


        def _attach(name) -> "shared_memory.SharedMemory":
            return shared_memory.SharedMemory(name=name)


        def leak(name, flag):
            seg = _attach(name)
            if flag:
                return 0
            seg.close()
            return 1
    """)
    assert "ET502" in rules


# ---- ET7xx: event-protocol closure -----------------------------------------


def test_et702_admit_with_open_exception_path(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        class Server:
            def submit(self, req):
                self.events.emit("admit", req.rid)
                self.queue.put(req)

            def finish(self, req):
                self.events.emit("complete", req.rid)
    """)
    # queue.put may raise after admit with no reject emitted on that path
    assert "ET702" in rules
    finding = next(f for f in report.findings if f.rule_id == "ET702")
    assert finding.line == 4  # anchored at the admit emit


def test_et702_reject_on_failure_path_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        class Server:
            def submit(self, req):
                self.events.emit("admit", req.rid)
                try:
                    self.queue.put(req)
                except Exception:
                    self.events.emit("reject", req.rid)
                    raise
                self.events.emit("enqueue", req.rid)
    """)
    assert "ET702" not in rules
    assert "ET701" not in rules


def test_et701_admitting_class_without_terminal(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        class Server:
            def submit(self, req):
                self.events.emit("admit", req.rid)
                self.queue.put(req)
    """)
    assert "ET701" in rules


def test_et701_terminal_through_call_graph_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        class Server:
            def submit(self, req):
                self.events.emit("admit", req.rid)
                self.queue.put(req)

            def drain(self):
                self._finish("r1")

            def _finish(self, rid):
                self.events.emit("complete", rid)
    """)
    assert "ET701" not in rules


def test_et703_worker_death_without_rebook(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        class Pool:
            def reap(self, rid):
                self.events.emit("worker_death", rid)
    """)
    assert "ET703" in rules


def test_et703_rebook_after_death_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        class Pool:
            def reap(self, rid):
                self.events.emit("worker_death", rid)
                self.events.emit("rebook", rid)
    """)
    assert "ET703" not in rules


# ---- interprocedural ET2xx -------------------------------------------------


def test_et201_scaled_assignment_chain_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        SCALE = 0.125


        def scores(q, k):
            qs = q * SCALE
            return fp16_matmul(qs, k)
    """)
    assert "ET201" not in rules


def test_et201_prescale_helper_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        SCALE = 0.125


        def prescale(q):
            return q * SCALE


        def scores(q, k):
            qs = prescale(q)
            return fp16_matmul(qs, k)
    """)
    assert "ET201" not in rules


def test_et201_rebound_name_still_flagged(tmp_path):
    """A scaled local rebound to the raw operand must not stay scaled."""
    rules, _ = lint_snippet(tmp_path, """
        SCALE = 0.125


        def scores(q, k):
            qs = q * SCALE
            qs = q
            return fp16_matmul(qs, k)
    """)
    assert "ET201" in rules


# ---- ET001: unused suppressions --------------------------------------------


def test_et001_stale_suppression_warns(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        def f():
            return 1  # etlint: disable=ET301 stale reason
    """)
    assert "ET001" in rules
    finding = next(f for f in report.findings if f.rule_id == "ET001")
    assert finding.severity is Severity.WARNING
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
    assert etlint_main(["mod.py"]) == 0  # warning only
    assert etlint_main(["mod.py", "--strict-suppressions"]) == 1
    out = capsys.readouterr().out
    assert "ET001" in out


# ---- SARIF output ----------------------------------------------------------


def test_sarif_document_is_structurally_valid(tmp_path):
    _, report = lint_snippet(tmp_path, """
        from multiprocessing import shared_memory


        def leak(name, flag):
            seg = shared_memory.SharedMemory(name=name)
            if flag:
                return 0
            seg.close()
            return 1
    """)
    assert report.findings
    doc = sarif_document(report.findings)
    assert validate_minimal(doc) == []
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "etlint"
    # the driver carries the full rule catalogue
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(RULES)
    result = next(r for r in run["results"] if r["ruleId"] == "ET502")
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_cli_output_parses(tmp_path, monkeypatch, capsys):
    (tmp_path / "mod.py").write_text("X = 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert etlint_main(["mod.py", "--format=sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert validate_minimal(doc) == []
    assert doc["runs"][0]["results"] == []


# ---- selftest --------------------------------------------------------------


def test_selftest_passes():
    assert run_selftest() == []


def test_selftest_cli(capsys):
    assert etlint_main(["--selftest"]) == 0


# ---- the real tree ---------------------------------------------------------


def test_real_tree_has_no_deep_pass_findings():
    """ET5xx/ET6xx/ET7xx and ET001 are clean on the repo (cycle-free
    lock graph, leak-free shm lifecycles, closed event protocols, no
    stale suppressions)."""
    report = run_analysis([REPO_ROOT / "src"], root=REPO_ROOT)
    deep = [f for f in report.findings
            if f.rule_id.startswith(("ET5", "ET6", "ET7", "ET0"))]
    assert deep == [], "\n".join(f.format_text() for f in deep)
