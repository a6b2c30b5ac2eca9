"""Tests for the etlint static-analysis subsystem (repro.analysis).

Each rule gets a positive fixture (a seeded violation the pass must catch)
and a negative fixture (compliant code it must not flag), plus tests for
inline suppression, the CLI exit codes, and a run over the real tree
asserting zero findings.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, run_analysis
from repro.analysis.__main__ import main as etlint_main
from repro.analysis.runner import module_name_for

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path: Path, source: str, name: str = "snippet.py"):
    """Write one fixture file and return the rule ids it triggers."""
    target = tmp_path / name
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    report = run_analysis([target], root=tmp_path)
    return [f.rule_id for f in report.findings], report


# ---- pass 3: determinism ---------------------------------------------------


def test_et301_wall_clock(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import time

        def stamp():
            return time.time()
    """)
    assert rules == ["ET301"]


def test_et301_formatting_clock_reads(tmp_path):
    # Conversion/formatting calls that default to "now" or local clock
    # state leak wall time into artifacts exactly like time.time().
    rules, _ = lint_snippet(tmp_path, """
        import datetime
        import time

        def stamps():
            return (time.localtime(), time.strftime("%H:%M"),
                    datetime.datetime.fromtimestamp(0))
    """)
    assert rules == ["ET301", "ET301", "ET301"]


def test_et301_virtual_clock_is_clean(tmp_path):
    # The obs idiom: timestamps flow in as arguments (driver virtual
    # time), never read from a clock — the flight recorder's byte-identity
    # contract.
    rules, _ = lint_snippet(tmp_path, """
        def emit(log, ts_us):
            log.append((ts_us, "admit"))
            return sorted(log)
    """)
    assert rules == []


def test_et301_scope_excludes_cold_paths():
    # repro.cli is outside the hot-path scope; repro.obs is inside.
    from repro.analysis.determinism import in_hot_path

    assert not in_hot_path("repro.cli")
    assert not in_hot_path("repro.data.glue")
    assert in_hot_path("repro.obs.trace")
    assert in_hot_path("repro.serving.server")
    assert in_hot_path("snippet")  # standalone fixtures always in scope


def test_et302_unseeded_rng_variants(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import random

        import numpy as np

        a = np.random.default_rng()
        b = np.random.rand(3)
        c = random.choice([1, 2])
    """)
    assert rules == ["ET302", "ET302", "ET302"]


def test_seeded_rng_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import numpy as np

        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
    """)
    assert rules == []


def test_et303_set_iteration(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        def render(names):
            lines = [n for n in set(names)]
            return ",".join({n.upper() for n in lines})
    """)
    assert rules == ["ET303", "ET303"]


def test_sorted_set_iteration_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        def render(names):
            return ",".join(sorted(set(names)))
    """)
    assert rules == []


# ---- pass 4: thread safety -------------------------------------------------

THREADED_CLASS = """
    import threading


    class Server:
        def __init__(self):
            self._lock = threading.Lock()
            self._queue = []
            self.depth = 0

        def _worker(self):
            {worker_body}
"""


def test_et401_unlocked_writes(tmp_path):
    body = "self._queue.append(1)\n            self.depth += 1"
    rules, _ = lint_snippet(tmp_path,
                            THREADED_CLASS.format(worker_body=body))
    assert rules == ["ET401", "ET401"]


def test_locked_writes_are_clean(tmp_path):
    body = ("with self._lock:\n"
            "                self._queue.append(1)\n"
            "                self.depth += 1")
    rules, _ = lint_snippet(tmp_path,
                            THREADED_CLASS.format(worker_body=body))
    assert rules == []


def test_et401_condition_counts_as_lock(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import threading


        class Server:
            def __init__(self):
                self._work = threading.Condition()
                self._futures = {}

            def submit(self, rid, fut):
                with self._work:
                    self._futures[rid] = fut

            def cancel(self, rid):
                self._futures.pop(rid, None)
    """)
    assert rules == ["ET401"]


def test_et402_lockless_collaborator(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        import threading


        class Registry:
            def __init__(self):
                self.samples = []

            def observe_response(self, value):
                self.samples.append(value)


        class Server:
            def __init__(self):
                self._lock = threading.Lock()
                self.metrics = Registry()

            def finish(self, value):
                self.metrics.observe_response(value)

            def finish_locked(self, value):
                with self._lock:
                    self.metrics.observe_response(value)
    """)
    assert rules == ["ET402"]
    assert "Registry" in report.findings[0].message


def test_lockless_classes_are_skipped(tmp_path):
    # No lock attribute => single-threaded by design (like Scheduler).
    rules, _ = lint_snippet(tmp_path, """
        class Scheduler:
            def __init__(self):
                self.responses = []

            def run(self, resp):
                self.responses.append(resp)
    """)
    assert rules == []


def test_et401_sees_lock_inherited_from_base(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        import threading


        class Base:
            def __init__(self):
                self._work = threading.Condition()
                self._futures = {}


        class Server(Base):
            def locked(self, rid):
                with self._work:
                    self._futures.pop(rid, None)

            def unlocked(self, rid):
                self._futures.pop(rid, None)
    """)
    assert rules == ["ET401"]
    assert "Server" in report.findings[0].message


def test_et402_any_call_through_lockless_collaborator(tmp_path):
    # neither name says "mutation" and one only reads: every call made
    # through the lock-less Core, directly or via one of its attributes,
    # needs the owner's lock; the lock-owning Queue's own calls do not
    rules, report = lint_snippet(tmp_path, """
        import threading


        class Queue:
            def __init__(self):
                self._lock = threading.Lock()

            def close(self):
                with self._lock:
                    pass


        class Registry:
            def __init__(self):
                self.count = 0


        class Core:
            def __init__(self):
                self.count = 0
                self.metrics = Registry()

            def admit(self, req):
                self.count += 1

            def peek(self):
                return self.count


        class Server:
            def __init__(self):
                self._lock = threading.Lock()
                self._core = Core()
                self._queue = Queue()

            def submit(self, req):
                self._core.admit(req)
                self._core.metrics.observe(req)
                self._queue.close()
                with self._lock:
                    self._core.admit(req)
                return self._core.peek()
    """)
    assert rules == ["ET402"] * 3
    calls = [f.message.split("(")[0] for f in report.findings]
    assert calls == ["self._core.admit", "self._core.metrics.observe",
                     "self._core.peek"]


# The real serving package, copied and seeded with one bug per case: the
# passes must see the shared core and the inherited condition as they are.
_SERVING = REPO_ROOT / "src" / "repro" / "serving"


def _lint_seeded_serving(tmp_path, rel, old, new):
    dst = tmp_path / "serving"
    shutil.copytree(_SERVING, dst)
    path = dst / rel
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"seed anchor not unique in {rel}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    report = run_analysis([dst], root=tmp_path)
    return [(f.rule_id, f.path, f.message) for f in report.findings]


def test_unseeded_serving_copy_is_clean(tmp_path):
    anchor = "class ServingCore:"  # a no-op edit: the package as shipped
    findings = _lint_seeded_serving(tmp_path, "core.py", anchor, anchor)
    assert [f for f in findings if f[0].startswith("ET4")] == []


SEEDED_RACES = {
    "thread_core_call": (
        "server.py",
        "            with self._work:\n"
        "                if ran is not None:  # else it was shed or handed back\n"
        "                    replica, service_us, outputs = ran\n"
        "                    self._core.dispatched(batch, replica, start)\n",
        "            if ran is not None:\n"
        "                self._core.dispatched(batch, ran[0], start)\n"
        "            with self._work:\n"
        "                if ran is not None:  # else it was shed or handed back\n"
        "                    replica, service_us, outputs = ran\n",
        "ET402", "self._core.dispatched"),
    "thread_write": (
        "server.py",
        "        with self._work:\n            self._threads = threads\n",
        "        self._threads = threads\n",
        "ET401", "self._threads"),
    "pool_core_call": (
        "pool/server.py",
        "            with self._work:\n"
        "                self._core.emit(\"quota_reject\", self._now_us(),\n"
        "                                seq_len=seq_len, tenant=client)\n",
        "            self._core.emit(\"quota_reject\", self._now_us(),\n"
        "                            seq_len=seq_len, tenant=client)\n",
        "ET402", "self._core.emit"),
    "pool_write": (
        "pool/server.py",
        "        with self._work:\n"
        "            store = self._store\n"
        "            self._store = None\n",
        "        store = self._store\n"
        "        self._store = None\n",
        "ET401", "self._store"),
}


@pytest.mark.parametrize("case", sorted(SEEDED_RACES))
def test_et4xx_fire_on_seeded_live_server_races(tmp_path, case):
    rel, old, new, rule, needle = SEEDED_RACES[case]
    findings = _lint_seeded_serving(tmp_path, rel, old, new)
    hits = [f for f in findings if f[0] == rule and needle in f[2]]
    assert len(hits) == 1, findings
    assert hits[0][1].endswith(rel)


# ---- pass 5: process safety ------------------------------------------------


def test_et501_from_import(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=64)
    """)
    assert rules == ["ET501"]
    assert "multiprocessing.shared_memory" in report.findings[0].message


def test_et501_direct_and_aliased_use(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import multiprocessing.shared_memory
        import multiprocessing as mp

        def grab():
            return mp.shared_memory.SharedMemory(create=True, size=64)
    """)
    # one finding for the import, one for the attribute chain
    assert rules == ["ET501", "ET501"]


def test_et501_symbol_import(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        from multiprocessing.shared_memory import SharedMemory

        seg = SharedMemory(create=True, size=64)
    """)
    assert rules == ["ET501"]


def test_et501_exempts_weight_store_module(tmp_path):
    # The owning module may touch shared memory; everyone else goes
    # through it.
    shm_dir = tmp_path / "src" / "repro" / "runtime"
    shm_dir.mkdir(parents=True)
    target = shm_dir / "shm.py"
    target.write_text(textwrap.dedent("""
        from multiprocessing import shared_memory

        def create(size):
            return shared_memory.SharedMemory(create=True, size=size)
    """), encoding="utf-8")
    assert module_name_for(target) == "repro.runtime.shm"
    report = run_analysis([target], root=tmp_path)
    assert [f.rule_id for f in report.findings] == []


def test_et501_plain_multiprocessing_is_clean(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import multiprocessing

        def spawn():
            ctx = multiprocessing.get_context("spawn")
            return ctx.Queue()
    """)
    assert rules == []


# ---- suppression -----------------------------------------------------------


def test_inline_suppression(tmp_path):
    rules, report = lint_snippet(tmp_path, """
        import time

        t0 = time.time()  # etlint: disable=ET301 timing boundary
        t1 = time.time()
    """)
    assert rules == ["ET301"]
    assert report.suppressed_inline == 1
    assert report.findings[0].line == 5


def test_inline_suppression_previous_line(tmp_path):
    rules, _ = lint_snippet(tmp_path, """
        import time

        # etlint: disable=ET301
        t0 = time.time()
    """)
    assert rules == []


# ---- CLI -------------------------------------------------------------------


def test_cli_exit_codes_and_github_format(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.py").write_text("import time\nt0 = time.time()\n",
                                     encoding="utf-8")
    assert etlint_main(["bad.py"]) == 1
    capsys.readouterr()

    assert etlint_main(["bad.py", "--format=github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=bad.py,line=2" in out and "ET301" in out

    assert etlint_main(["missing_dir"]) == 2
    assert etlint_main(["bad.py", "--rules", "ET9"]) == 2

    # Restricting to another rule family reports nothing.
    capsys.readouterr()
    assert etlint_main(["bad.py", "--rules", "ET4"]) == 0


def test_cli_list_rules(capsys):
    assert etlint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_rule_registry_is_consistent():
    assert len(RULES) == len({r.name for r in RULES.values()})
    for rule_id, rule in RULES.items():
        assert rule.rule_id == rule_id
        assert rule_id.startswith("ET") and rule_id[2:].isdigit()
        assert rule.invariant and rule.hint and rule.paper_ref


def test_module_name_mapping():
    assert module_name_for(Path("src/repro/serving/server.py")) == \
        "repro.serving.server"
    assert module_name_for(Path("src/repro/gpu/__init__.py")) == "repro.gpu"
    assert module_name_for(Path("/tmp/xyz/snippet.py")) == "snippet"


# ---- the real tree ---------------------------------------------------------


def test_real_tree_is_clean():
    """`python -m repro.analysis src` exits 0 on the repo after fixes."""
    report = run_analysis([REPO_ROOT / "src"], root=REPO_ROOT)
    assert report.parse_errors == []
    assert report.findings == [], "\n".join(
        f.format_text() for f in report.findings)
    # The designated ET301 timing-boundary suppressions exist.
    assert report.suppressed_inline >= 4

