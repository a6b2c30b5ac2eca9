"""Attention-aware, tensor-core-friendly model pruning (Section 4).

- :mod:`repro.pruning.masks` — row / column / irregular / tensor-tile mask
  generation from weight magnitudes and group norms.
- :mod:`repro.pruning.reweighted` — the reweighted group-lasso regularizer
  (Equation 8, Fig. 6 steps (ii)–(iv)).
- :mod:`repro.pruning.pipeline` — end-to-end pipelines: reweighted training →
  percentile pruning → masked retraining, for every method.
- :mod:`repro.pruning.attention_aware` — the pruning methods, the
  per-matrix roles, and the adaptive per-matrix strategy of Section 4.3.
- :mod:`repro.pruning.lowrank` — the SVD low-rank baseline of Section 6.
"""

from __future__ import annotations

import importlib
from typing import Any

from repro.pruning.masks import (
    irregular_mask,
    row_mask,
    col_mask,
    tile_mask,
    sparsity,
    mask_summary,
)
from repro.pruning.attention_aware import (
    AttentionAwarePlan,
    plan_attention_aware,
    MatrixRole,
    PruneMethod,
)

#: Training-side names, loaded on first use: their modules import
#: :mod:`repro.nn`, which the engines and the serving path never need.
_LAZY = {
    "ReweightedGroupLasso": "repro.pruning.reweighted",
    "PruneSummary": "repro.pruning.pipeline",
    "prunable_parameters": "repro.pruning.pipeline",
    "prune_model": "repro.pruning.pipeline",
    "prune_and_retrain": "repro.pruning.pipeline",
    "svd_compress": "repro.pruning.lowrank",
    "LowRankLinearFactors": "repro.pruning.lowrank",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "irregular_mask",
    "row_mask",
    "col_mask",
    "tile_mask",
    "sparsity",
    "mask_summary",
    "ReweightedGroupLasso",
    "AttentionAwarePlan",
    "plan_attention_aware",
    "MatrixRole",
    "PruneMethod",
    "PruneSummary",
    "prunable_parameters",
    "prune_model",
    "prune_and_retrain",
    "svd_compress",
    "LowRankLinearFactors",
]
