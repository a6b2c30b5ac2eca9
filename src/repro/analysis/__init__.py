"""`etlint` — repo-specific static analysis for the E.T. reproduction.

Seven AST passes enforce the invariants the engine's correctness rests on,
at analysis time instead of at runtime:

1. **fp16-safety** (ET2xx): the Section 3.3 scaling-reorder rule — pure
   FP16 ``Q·Kᵀ`` must pre-scale or widen its accumulator; "pre-scaled"
   is tracked flow-sensitively through locals and one-level helpers.
2. **determinism** (ET3xx): no wall clocks, unseeded RNG, or unsorted set
   iteration in the paths that back the byte-identical-trace guarantee.
3. **thread-safety** (ET4xx): ``self.*`` writes and lock-less-collaborator
   mutations in lock-owning serving classes must hold the class's lock.
4. **process-safety** (ET501): ``multiprocessing.shared_memory`` may only
   be touched by the pool's weight-store module
   (:mod:`repro.runtime.shm`), which owns the segment lifecycle.
5. **shm-lifecycle** (ET502–ET504): every raw segment acquisition is
   walked path-sensitively through created/attached → used → closed →
   unlinked — leaks on branches, use-after-close, double-unlink.
6. **lock-order** (ET6xx): a project-wide lock acquisition-order graph;
   cycles (ET601, with a ``file:line`` witness per edge) and
   non-reentrant re-acquisition through the call graph (ET602).
7. **event-protocol** (ET7xx): every ``admit`` event must reach a
   terminal ``complete``/``reject``/``rebook`` or an explicit hand-off
   on every path, including the worker-death re-booking contract.

The deep passes share a substrate: :mod:`repro.analysis.callgraph`
(symbol table + resolved call graph) and :mod:`repro.analysis.protocol`
(a generic protocol-state-machine walker). ET001 warns on stale
``# etlint: disable=`` comments, the only suppression mechanism.

The kernel-launch contract (Equation 6 shared-memory budgets, 16-row
tensor-core tiles) is not checked here: its sizes are runtime values,
so ``KernelCost.validate_launch`` enforces it on every launch and
``tests/test_gpu_model.py`` pins it across devices and models.

Run ``python -m repro.analysis`` (or ``tools/etlint.py``); see
``--list-rules`` for the rule catalogue and DESIGN.md §9/§13 for the
mapping from rules to paper sections.
"""

from repro.analysis.findings import RULES, Finding, Rule, Severity
from repro.analysis.runner import (
    AnalysisContext,
    AnalysisReport,
    SourceFile,
    run_analysis,
)

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "Finding",
    "RULES",
    "Rule",
    "Severity",
    "SourceFile",
    "run_analysis",
]
