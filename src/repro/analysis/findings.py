"""Rule registry and the structured finding record `etlint` emits.

Every rule encodes one invariant the engine's correctness rests on. The
registry entry names the invariant, the paper section it traces to, and
the canonical fix, so a finding is actionable without opening the linter
source. Rule identifiers are stable (inline suppressions reference them)
and grouped by pass:

- ``ET3xx`` — determinism of the byte-identical trace/artifact paths,
  :mod:`repro.analysis.determinism`;
- ``ET4xx`` — thread-safety of the serving layer's shared state,
  :mod:`repro.analysis.thread_safety`;
- ``ET501`` — process-safety: only the replica pool's weight store
  touches shared memory, :mod:`repro.analysis.process_safety`;
- ``ET6xx`` — deadlock freedom of the lock-acquisition order graph,
  :mod:`repro.analysis.locks`;
- ``ET001`` — meta: stale inline suppressions, reported by the runner.

Every finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """Static description of one lint rule."""

    rule_id: str
    name: str
    summary: str
    invariant: str
    hint: str
    paper_ref: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable ordering: by file, then position, then rule."""
        return (self.path, self.line, self.col, self.rule_id)

    def format_text(self) -> str:
        """One-line ``path:line:col RULE message`` rendering."""
        out = f"{self.path}:{self.line}:{self.col} {self.rule_id} {self.message}"
        if self.hint:
            out += f"\n    fix: {self.hint}"
        return out

    def format_github(self) -> str:
        """GitHub Actions workflow-command annotation (PR diff overlay)."""
        message = self.message if not self.hint else f"{self.message} — fix: {self.hint}"
        # Workflow-command values must escape newlines and their delimiters.
        message = (message.replace("%", "%25").replace("\r", "%0D")
                   .replace("\n", "%0A"))
        return (f"::error file={self.path},line={self.line},"
                f"col={self.col},title={self.rule_id}::{message}")


_RULE_LIST: tuple[Rule, ...] = (
    Rule(
        rule_id="ET301",
        name="wall-clock-in-hot-path",
        summary="Wall-clock read inside a deterministic hot path",
        invariant="Traces and artifacts are byte-identical per seed; wall "
                  "clocks may only be read at the designated timing boundary "
                  "(the thread-backed server).",
        hint="thread virtual time (cost-model microseconds) through instead; "
             "if this IS the timing boundary, add "
             "'# etlint: disable=ET301 <reason>'",
        paper_ref="PR 2 byte-identical-trace guarantee",
    ),
    Rule(
        rule_id="ET302",
        name="unseeded-rng",
        summary="Unseeded or global-state random number generation",
        invariant="Every stochastic draw must come from an explicitly seeded "
                  "np.random.Generator so artifacts replay per seed.",
        hint="use np.random.default_rng(seed) and pass the generator down",
        paper_ref="PR 2 byte-identical-trace guarantee",
    ),
    Rule(
        rule_id="ET303",
        name="set-iteration-order",
        summary="Iterating a set into output without sorting",
        invariant="Set iteration order varies across processes "
                  "(PYTHONHASHSEED); anything feeding trace/report output "
                  "must iterate in sorted order.",
        hint="wrap the set in sorted(...)",
        paper_ref="PR 2 byte-identical-trace guarantee",
    ),
    Rule(
        rule_id="ET401",
        name="unlocked-attribute-write",
        summary="Instance attribute written outside the class's lock",
        invariant="A class that owns a lock and shares state across threads "
                  "must hold that lock for every attribute mutation outside "
                  "__init__.",
        hint="move the write under 'with self.<lock>:'",
        paper_ref="serving layer thread contract (DESIGN.md §7)",
    ),
    Rule(
        rule_id="ET402",
        name="unlocked-collaborator-call",
        summary="Call on a lock-less collaborator outside the owner's lock",
        invariant="ServingCore/MetricsRegistry and friends are not "
                  "thread-safe by design; their owner must wrap every "
                  "call made through them in its own lock.",
        hint="move the call under 'with self.<lock>:'",
        paper_ref="serving layer thread contract (DESIGN.md §7)",
    ),
    Rule(
        rule_id="ET501",
        name="shared-memory-outside-weight-store",
        summary="Direct multiprocessing.shared_memory use outside the weight-store module",
        invariant="Every shared-memory segment is owned by "
                  "repro.runtime.shm, which centralises the "
                  "create/attach/close/unlink lifecycle and the "
                  "resource-tracker workaround; direct use elsewhere can "
                  "leak segments when a worker dies.",
        hint="go through repro.runtime.shm.SharedWeightStore (or add a "
             "helper there) instead of importing "
             "multiprocessing.shared_memory",
        paper_ref="replica pool process contract (DESIGN.md §11)",
    ),
    Rule(
        rule_id="ET601",
        name="lock-order-cycle",
        summary="Cyclic lock-acquisition order across classes",
        invariant="Any two locks must always be taken in one global order; "
                  "a cycle in the acquired-while-holding graph is a deadlock "
                  "waiting for the right thread interleaving.",
        hint="hoist the inner acquisition out of the outer critical section "
             "(copy what you need, release, then call), or merge the locks",
        paper_ref="pool/serving lock discipline (DESIGN.md §11)",
    ),
    Rule(
        rule_id="ET602",
        name="non-reentrant-reacquire",
        summary="Non-reentrant lock re-acquired while already held",
        invariant="threading.Lock and Condition self-deadlock when the "
                  "holding thread acquires them again (only RLock is "
                  "re-entrant).",
        hint="split the locked region into a _locked() helper the public "
             "method calls, or switch the attribute to threading.RLock",
        paper_ref="pool/serving lock discipline (DESIGN.md §11)",
    ),
    Rule(
        rule_id="ET001",
        name="unused-suppression",
        summary="Inline '# etlint: disable=...' comment suppresses nothing",
        invariant="Suppressions document real, reviewed findings; a stale "
                  "one hides future regressions at that line.",
        hint="delete the comment (or narrow its rule list) now that the "
             "finding is gone",
        paper_ref="etlint suppression hygiene",
    ),
)

#: All rules, by stable identifier.
RULES: dict[str, Rule] = {r.rule_id: r for r in _RULE_LIST}


def make_finding(rule_id: str, path: str, line: int, col: int,
                 message: str) -> Finding:
    """Build a finding, pulling its hint from the registry."""
    return Finding(rule_id=rule_id, path=path, line=line, col=col,
                   message=message, hint=RULES[rule_id].hint)
