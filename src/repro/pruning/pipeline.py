"""End-to-end pruning pipelines: mask, apply, (reweighted-train,) retrain.

The Section 4.2 training recipe, generalized over all four methods evaluated
in Table 1 / Fig. 14:

1. start from a pre-trained model (caller supplies it),
2. optionally run reweighted group-lasso training (tile-based methods),
3. generate per-matrix masks at the requested pruning ratio,
4. apply masks (zeroing weights and freezing them via
   :class:`~repro.nn.modules.Parameter.mask`),
5. masked-retrain the surviving weights (caller-provided ``fit``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.nn.modules import Module, Parameter
from repro.pruning.attention_aware import (
    UNIFORM_ROLE,
    AttentionAwarePlan,
    MatrixRole,
    PruneMethod,
    matrix_kind,
    plan_attention_aware,
)
from repro.pruning.masks import col_mask, irregular_mask, row_mask, sparsity, tile_mask
from repro.pruning.reweighted import ReweightedGroupLasso
from repro.tensor.tiles import TENSOR_TILE


@dataclass
class PruneSummary:
    """Result of pruning: per-matrix roles, masks and achieved sparsities."""

    method: PruneMethod
    ratio: float
    tile: tuple[int, int]
    precompute: bool
    roles: dict[str, MatrixRole] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def per_matrix_sparsity(self) -> dict[str, float]:
        """Achieved sparsity per pruned matrix name."""
        return {name: sparsity(m) for name, m in self.masks.items()}

    @property
    def overall_sparsity(self) -> float:
        """Zero fraction over all pruned matrices together."""
        total = sum(m.size for m in self.masks.values())
        if total == 0:
            return 0.0
        zeros = sum(m.size - int(np.count_nonzero(m)) for m in self.masks.values())
        return zeros / total


def prunable_parameters(model: Module) -> Iterator[tuple[str, str, Parameter]]:
    """Yield ``(name, kind, param)`` for every prunable encoder weight."""
    for name, p in model.named_parameters():
        kind = matrix_kind(name)
        if kind is not None and p.ndim == 2:
            yield name, kind, p


def _mask_for(role: MatrixRole, w: np.ndarray, ratio: float,
              tile: tuple[int, int]) -> np.ndarray:
    if role is MatrixRole.DENSE:
        return np.ones_like(w)
    if role is MatrixRole.IRREGULAR:
        return irregular_mask(w, ratio)
    if role is MatrixRole.ROW:
        return row_mask(w, ratio)
    if role is MatrixRole.COLUMN:
        return col_mask(w, ratio)
    if role is MatrixRole.TILE:
        return tile_mask(w, ratio, tile)
    raise ValueError(f"unhandled role {role}")



def prune_model(
    model: Module,
    method: PruneMethod,
    ratio: float,
    tile: tuple[int, int] = (TENSOR_TILE, TENSOR_TILE),
    precompute: bool = False,
    plan: AttentionAwarePlan | None = None,
) -> PruneSummary:
    """Generate and apply masks; weights are zeroed and frozen in place."""
    summary = PruneSummary(method=method, ratio=ratio, tile=tile,
                           precompute=precompute)
    if method is PruneMethod.NONE:
        return summary
    if method is PruneMethod.ATTENTION_AWARE:
        plan = plan or plan_attention_aware(precompute)
    all_params = dict(model.named_parameters())
    for name, kind, p in prunable_parameters(model):
        if method is PruneMethod.ATTENTION_AWARE:
            role = plan.role_for(kind)
        else:
            role = UNIFORM_ROLE[method]
        mask = _mask_for(role, p.data, ratio, tile)
        p.set_mask(mask)
        if role is MatrixRole.ROW:
            # Row pruning removes the whole output unit: mask the bias too.
            bias = all_params.get(name.replace(".weight", ".bias"))
            if bias is not None:
                bias.set_mask(mask[:, 0].copy())
        summary.roles[name] = role
        summary.masks[name] = mask
    return summary


def prune_and_retrain(
    model: Module,
    method: PruneMethod,
    ratio: float,
    retrain: Callable[[], object],
    reweighted_train: Callable[[ReweightedGroupLasso], object] | None = None,
    lam: float = 1e-4,
    tile: tuple[int, int] = (TENSOR_TILE, TENSOR_TILE),
    precompute: bool = False,
) -> PruneSummary:
    """The full Fig. 6 pipeline.

    Parameters
    ----------
    retrain:
        Zero-argument callable running masked retraining (a Trainer bound to
        its data). Called after masks are applied; the optimizer keeps
        pruned entries at zero.
    reweighted_train:
        Optional callable receiving a configured
        :class:`ReweightedGroupLasso`; it should run the reweighted training
        epochs with the regularizer's ``penalty`` / ``update_betas`` hooks
        installed. Only used by tile-based methods (tile pruning prunes
        groups the regularizer has already driven toward zero).
    """
    tile_based = method in (PruneMethod.TILE, PruneMethod.ATTENTION_AWARE)
    if tile_based and reweighted_train is not None:
        reweighted_train(ReweightedGroupLasso(lam, tile))
    summary = prune_model(model, method, ratio, tile, precompute)
    retrain()
    return summary
