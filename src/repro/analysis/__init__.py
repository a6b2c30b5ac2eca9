"""`etlint` — repo-specific static analysis for the E.T. reproduction.

Four AST passes enforce the invariants no runtime test can catch, at
analysis time:

1. **determinism** (ET3xx): no wall clocks, unseeded RNG, or unsorted set
   iteration in the paths that back the byte-identical-trace guarantee.
2. **thread-safety** (ET4xx): ``self.*`` writes and lock-less-collaborator
   calls in lock-owning serving classes must hold the class's lock.
3. **process-safety** (ET501): ``multiprocessing.shared_memory`` may only
   be touched by the pool's weight-store module
   (:mod:`repro.runtime.shm`), which owns the segment lifecycle.
4. **lock-order** (ET6xx): a project-wide lock acquisition-order graph;
   cycles (ET601, with a ``file:line`` witness per edge) and
   non-reentrant re-acquisition through resolved calls (ET602), built
   on the symbol table in :mod:`repro.analysis.callgraph`.

ET001 reports stale ``# etlint: disable=`` comments, the only
suppression mechanism; like every finding it fails the run.

Invariants a runtime check already enforces are not linted: the
Section 3.3 scaling reorder (``tests/test_attention.py`` pins the Fig. 4
overflow study), event-lifecycle closure (``tools/check_trace.py`` and
the pool death tests), shared-memory segment cleanup (the weight-store
tests in ``tests/test_pool.py``), and the kernel-launch contract
(``KernelCost.validate_launch`` on every launch).

Run ``python -m repro.analysis``; see ``--list-rules`` for the rule
catalogue and DESIGN.md §9/§13 for the mapping from rules to the
contracts they guard.
"""

from repro.analysis.findings import RULES, Finding, Rule
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
    "SourceFile",
    "run_analysis",
]
