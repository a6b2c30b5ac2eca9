"""Rule registry and the structured finding record `etlint` emits.

Every rule encodes one invariant the engine's correctness rests on. The
registry entry names the invariant, the paper section it traces to, and
the canonical fix, so a finding is actionable without opening the linter
source. Rule identifiers are stable (inline suppressions reference them)
and grouped by pass:

- ``ET2xx`` — FP16 numerical safety (the Section 3.3 scaling reorder),
  :mod:`repro.analysis.fp16_safety`;
- ``ET3xx`` — determinism of the byte-identical trace/artifact paths,
  :mod:`repro.analysis.determinism`;
- ``ET4xx`` — thread-safety of the serving layer's shared state,
  :mod:`repro.analysis.thread_safety`;
- ``ET5xx`` — process-safety of the replica pool's shared-memory
  plumbing, :mod:`repro.analysis.process_safety` (ET501) and the
  path-sensitive segment lifecycle in
  :mod:`repro.analysis.shm_lifecycle` (ET502–504);
- ``ET6xx`` — deadlock freedom of the lock-acquisition order graph,
  :mod:`repro.analysis.locks`;
- ``ET7xx`` — flight-recorder event-protocol closure,
  :mod:`repro.analysis.event_protocol`;
- ``ET001`` — meta: stale inline suppressions, reported by the runner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """Finding severity: both fail the run, only the annotation differs."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """Static description of one lint rule."""

    rule_id: str
    name: str
    summary: str
    invariant: str
    hint: str
    paper_ref: str
    severity: Severity = Severity.ERROR


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    severity: Severity = field(default=Severity.ERROR, compare=False)

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
        level = "error" if self.severity is Severity.ERROR else "warning"
        message = self.message if not self.hint else f"{self.message} — fix: {self.hint}"
        # Workflow-command values must escape newlines and their delimiters.
        message = (message.replace("%", "%25").replace("\r", "%0D")
                   .replace("\n", "%0A"))
        return (f"::{level} file={self.path},line={self.line},"
                f"col={self.col},title={self.rule_id}::{message}")


_RULE_LIST: tuple[Rule, ...] = (
    Rule(
        rule_id="ET201",
        name="fp16-matmul-prescale",
        summary="Pure-FP16 matmul without pre-scaling its left operand",
        invariant="Pure-FP16 Q·Kᵀ overflows for most entries unless the "
                  "1/√d_k scaling moves before the product (the Section 3.3 "
                  "reorder) or the accumulator widens to FP32.",
        hint="scale the left operand before the call (q * (1/sqrt(d_k))) or "
             "pass accumulate=\"fp32\"",
        paper_ref="Section 3.3, Fig. 4",
    ),
    Rule(
        rule_id="ET202",
        name="post-scale-fp16-scores",
        summary="Attention scores computed scale-last in pure FP16",
        invariant="scale_first=False with an FP16 accumulator is Fig. 4's "
                  "overflow regime; production paths must pre-scale.",
        hint="pass scale_first=True, or accumulate=\"fp32\" if the "
             "conventional order is required",
        paper_ref="Section 3.3, Fig. 4",
    ),
    Rule(
        rule_id="ET203",
        name="fp16-cast-of-matmul",
        summary="Unscaled matmul product cast straight to FP16",
        invariant="Casting a raw Q·Kᵀ-style product to FP16 saturates to inf "
                  "wherever the sum left the ±65504 range.",
        hint="apply the 1/√d_k scaling to an operand before the product, "
             "then cast",
        paper_ref="Section 3.3, Fig. 4",
    ),
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
        rule_id="ET502",
        name="shm-leak-on-path",
        summary="A shared-memory mapping escapes scope on some path without close()/unlink()",
        invariant="Every SharedMemory attach must reach a close() (and the "
                  "owner's unlink()) on every path, including exceptional "
                  "ones; a leaked mapping keeps the segment alive after the "
                  "process exits under POSIX semantics.",
        hint="wrap the op that can raise in try/finally and close() the "
             "mapping in the finally block",
        paper_ref="replica pool process contract (DESIGN.md §11)",
    ),
    Rule(
        rule_id="ET503",
        name="shm-use-after-close",
        summary="Shared-memory mapping used after close() on some path",
        invariant="Accessing .buf (or re-closing/unlinking through it) after "
                  "close() dereferences an unmapped view and crashes or "
                  "corrupts.",
        hint="restructure so every use dominates the close(); take values "
             "out of the buffer before closing",
        paper_ref="replica pool process contract (DESIGN.md §11)",
    ),
    Rule(
        rule_id="ET504",
        name="shm-double-unlink",
        summary="Shared-memory segment unlink()ed twice on one path",
        invariant="unlink() removes the segment name; a second unlink() on "
                  "the same raw mapping raises FileNotFoundError (only "
                  "SharedWeightStore.unlink is documented idempotent).",
        hint="unlink once, at the owner, after every attacher closed",
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
        rule_id="ET701",
        name="event-admit-without-terminal",
        summary="Class emits admit events but no terminal complete/reject",
        invariant="check_trace.py requires every admitted rid to reach a "
                  "terminal event; a component that admits but can never "
                  "complete/reject leaves open lifecycles in every trace.",
        hint="emit complete on the success path and reject on the failure "
             "path (PoolServer re-books via rebook on worker death)",
        paper_ref="flight-recorder lifecycle closure (DESIGN.md §12)",
    ),
    Rule(
        rule_id="ET702",
        name="event-admit-open-path",
        summary="A path emits admit but neither reaches a terminal emit nor hands the request off",
        invariant="Between admit and the terminal event the request must "
                  "stay owned: every path out of the admitting function "
                  "must emit complete/reject or hand the request to the "
                  "queue/futures machinery that guarantees the terminal.",
        hint="emit reject before re-raising on the failure path, or enqueue "
             "the request before the function can exit",
        paper_ref="flight-recorder lifecycle closure (DESIGN.md §12)",
    ),
    Rule(
        rule_id="ET703",
        name="worker-death-without-rebook",
        summary="Worker-death event emitted without re-booking orphaned requests",
        invariant="The pool's recovery contract: a worker_death emit must be "
                  "followed by rebook emits for the orphans, or their "
                  "lifecycles never close.",
        hint="emit events.rebook(rid, ...) for each orphaned request when "
             "handling the dead worker",
        paper_ref="pool worker-death recovery (DESIGN.md §11–12)",
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
        severity=Severity.WARNING,
    ),
)

#: All rules, by stable identifier.
RULES: dict[str, Rule] = {r.rule_id: r for r in _RULE_LIST}


def make_finding(rule_id: str, path: str, line: int, col: int,
                 message: str) -> Finding:
    """Build a finding, pulling hint and severity from the registry."""
    rule = RULES[rule_id]
    return Finding(rule_id=rule_id, path=path, line=line, col=col,
                   message=message, hint=rule.hint, severity=rule.severity)
