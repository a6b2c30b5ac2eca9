"""Attention-aware adaptive pruning strategy (Section 4.3).

Role assignment logic the paper derives:

- **W_Q, W_K** — never row-pruned (rows of Q/K are the retrieval queries/keys;
  removing them destroys accuracy); column pruning yields a dense product so
  nothing downstream gets cheaper; → **tensor-tile** pruning.
- **W_V** (evaluated design, Fig. 13(a) / Table 1) — **row** pruning: the
  condensed V shrinks the S·V multiply and leaves Z column-sparse for the
  output projection, which is how "attention-aware pruning can … allow
  self-attention to benefit from sparsity as well" (Section 5.3.3).
- **With the pre-computed linear transformation** (Fig. 3(b)): **W_O is
  row-pruned and W_V stays dense** — the folded X·(W_VᵀW_Oᵀ) is then
  column-sparse, while pruning W_V would change nothing downstream and only
  burn accuracy budget.
- **MLP weights** — tensor-tile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class MatrixRole(enum.Enum):
    """Pruning method assigned to one weight matrix."""

    TILE = "tile"
    ROW = "row"
    COLUMN = "column"
    IRREGULAR = "irregular"
    DENSE = "dense"


class PruneMethod(enum.Enum):
    """The four pruning methods compared in Table 1 (plus none)."""

    NONE = "none"
    IRREGULAR = "irregular"
    COLUMN = "column"
    ROW = "row"
    TILE = "tile"
    ATTENTION_AWARE = "attention_aware"


#: The role a uniform (non-adaptive) method gives every prunable matrix.
UNIFORM_ROLE = {
    PruneMethod.IRREGULAR: MatrixRole.IRREGULAR,
    PruneMethod.COLUMN: MatrixRole.COLUMN,
    PruneMethod.ROW: MatrixRole.ROW,
    PruneMethod.TILE: MatrixRole.TILE,
}


@dataclass
class AttentionAwarePlan:
    """Per-matrix-kind role map for an encoder stack.

    ``roles`` maps the short matrix kind (``"wq"``, ``"wk"``, ``"wv"``,
    ``"wo"``, ``"fc1"``, ``"fc2"``) to a :class:`MatrixRole`; the same
    assignment applies to every encoder layer ("row pruned for W_V on all
    encoder layers and tensor tile pruned for other weights").
    """

    precompute: bool
    roles: dict[str, MatrixRole] = field(default_factory=dict)

    def role_for(self, kind: str) -> MatrixRole:
        """Planned pruning role for a matrix kind (raises on unknown kinds)."""
        try:
            return self.roles[kind]
        except KeyError:
            raise KeyError(f"no role planned for matrix kind {kind!r}") from None


def plan_attention_aware(precompute: bool = False) -> AttentionAwarePlan:
    """Build the Section 4.3 role assignment."""
    if precompute:
        roles = {
            "wq": MatrixRole.TILE,
            "wk": MatrixRole.TILE,
            "wv": MatrixRole.DENSE,  # pruning it changes nothing downstream
            "wo": MatrixRole.ROW,  # folded X·M stays column-pruned
            "fc1": MatrixRole.TILE,
            "fc2": MatrixRole.TILE,
        }
    else:
        roles = {
            "wq": MatrixRole.TILE,
            "wk": MatrixRole.TILE,
            "wv": MatrixRole.ROW,  # condensed V, column-sparse Z
            "wo": MatrixRole.TILE,
            "fc1": MatrixRole.TILE,
            "fc2": MatrixRole.TILE,
        }
    return AttentionAwarePlan(precompute=precompute, roles=roles)


def matrix_kind(param_name: str) -> str | None:
    """Extract the matrix kind from a dotted parameter name.

    ``encoder.layers.3.attn.wv.weight`` → ``"wv"``; returns None for
    parameters outside the prunable set (embeddings, norms, heads, biases).
    """
    if not param_name.endswith(".weight"):
        return None
    parts = param_name.split(".")
    if len(parts) < 2:
        return None
    kind = parts[-2]
    return kind if kind in ("wq", "wk", "wv", "wo", "fc1", "fc2") else None
