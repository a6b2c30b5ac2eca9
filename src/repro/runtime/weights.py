"""Encoder weight containers shared by every engine.

Weights can come from a trained :mod:`repro.nn` model (accuracy experiments)
or be generated randomly (latency experiments — the cost model only needs
shapes and sparsity patterns). Pruning state is carried as per-matrix
:class:`~repro.pruning.attention_aware.MatrixRole` roles plus element masks;
weights are stored already masked, so dense engines run them unchanged while
E.T. compiles the sparse formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ModelConfig
from repro.pruning.attention_aware import (
    UNIFORM_ROLE,
    AttentionAwarePlan,
    MatrixRole,
    PruneMethod,
    plan_attention_aware,
)
from repro.pruning.masks import col_mask, irregular_mask, row_mask, tile_mask
from repro.tensor.tiles import TENSOR_TILE

#: The prunable matrices of one encoder layer, in Fig. 1 order.
MATRIX_KINDS = ("wq", "wk", "wv", "wo", "fc1", "fc2")


@dataclass
class LayerWeights:
    """One encoder layer's parameters plus pruning annotations."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray
    roles: dict[str, MatrixRole] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)

    def weight(self, kind: str) -> np.ndarray:
        """The weight matrix for a kind in `MATRIX_KINDS`."""
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo,
                "fc1": self.fc1_w, "fc2": self.fc2_w}[kind]

    def bias(self, kind: str) -> np.ndarray:
        """The bias vector paired with :meth:`weight`."""
        return {"wq": self.bq, "wk": self.bk, "wv": self.bv, "wo": self.bo,
                "fc1": self.fc1_b, "fc2": self.fc2_b}[kind]

    def set_weight(self, kind: str, value: np.ndarray) -> None:
        """Replace a weight matrix in place."""
        attr = {"wq": "wq", "wk": "wk", "wv": "wv", "wo": "wo",
                "fc1": "fc1_w", "fc2": "fc2_w"}[kind]
        setattr(self, attr, value)

    def role(self, kind: str) -> MatrixRole:
        """Pruning role for a matrix (DENSE when unannotated)."""
        return self.roles.get(kind, MatrixRole.DENSE)

    def sparsity(self, kind: str) -> float:
        """Fraction of zero entries in one matrix."""
        w = self.weight(kind)
        return 1.0 - np.count_nonzero(w) / w.size


@dataclass
class EncoderWeights:
    """A full encoder stack's weights."""

    config: ModelConfig
    layers: list[LayerWeights]

    @property
    def overall_sparsity(self) -> float:
        """Zero fraction across all prunable matrices of all layers."""
        total = zeros = 0
        for layer in self.layers:
            for kind in MATRIX_KINDS:
                w = layer.weight(kind)
                total += w.size
                zeros += w.size - int(np.count_nonzero(w))
        return zeros / total if total else 0.0

    # -- constructors ----------------------------------------------------------

    @classmethod
    def random(
        cls,
        config: ModelConfig,
        rng: np.random.Generator,
        num_layers: int | None = None,
        scale: float = 0.02,
    ) -> "EncoderWeights":
        """Random weights at the config's shapes (latency experiments)."""
        d, f = config.d_model, config.d_ff
        n = num_layers if num_layers is not None else config.num_layers

        def w(*shape):
            return rng.normal(0.0, scale, size=shape).astype(np.float64)

        layers = [
            LayerWeights(
                wq=w(d, d), wk=w(d, d), wv=w(d, d), wo=w(d, d),
                bq=np.zeros(d), bk=np.zeros(d), bv=np.zeros(d), bo=np.zeros(d),
                ln1_g=np.ones(d), ln1_b=np.zeros(d),
                ln2_g=np.ones(d), ln2_b=np.zeros(d),
                fc1_w=w(f, d), fc1_b=np.zeros(f),
                fc2_w=w(d, f), fc2_b=np.zeros(d),
            )
            for _ in range(n)
        ]
        return cls(config=config, layers=layers)

    @classmethod
    def from_model(cls, model, config: ModelConfig | None = None) -> "EncoderWeights":
        """Extract weights (and any pruning masks/roles) from an nn model.

        Works for :class:`~repro.nn.models.TransformerLM` and
        :class:`~repro.nn.models.EncoderClassifier` with standard
        (non-precomputed) attention.
        """
        cfg = config or model.config
        layers: list[LayerWeights] = []
        for lyr in model.encoder.layers:
            attn, ffn = lyr.attn, lyr.ffn
            lw = LayerWeights(
                wq=attn.wq.weight.data.copy(), wk=attn.wk.weight.data.copy(),
                wv=attn.wv.weight.data.copy(), wo=attn.wo.weight.data.copy(),
                bq=attn.wq.bias.data.copy(), bk=attn.wk.bias.data.copy(),
                bv=attn.wv.bias.data.copy(), bo=attn.wo.bias.data.copy(),
                ln1_g=lyr.ln1.gamma.data.copy(), ln1_b=lyr.ln1.beta.data.copy(),
                ln2_g=lyr.ln2.gamma.data.copy(), ln2_b=lyr.ln2.beta.data.copy(),
                fc1_w=ffn.fc1.weight.data.copy(), fc1_b=ffn.fc1.bias.data.copy(),
                fc2_w=ffn.fc2.weight.data.copy(), fc2_b=ffn.fc2.bias.data.copy(),
            )
            for kind, lin in (("wq", attn.wq), ("wk", attn.wk), ("wv", attn.wv),
                              ("wo", attn.wo), ("fc1", ffn.fc1), ("fc2", ffn.fc2)):
                if lin.weight.mask is not None:
                    lw.masks[kind] = lin.weight.mask.copy()
            layers.append(lw)
        return cls(config=cfg, layers=layers)

    # -- pruning (shape-level, for latency experiments) ---------------------------

    def prune(
        self,
        method: PruneMethod,
        ratio: float,
        tile: tuple[int, int] = (TENSOR_TILE, TENSOR_TILE),
        precompute: bool = False,
        plan: AttentionAwarePlan | None = None,
    ) -> "EncoderWeights":
        """Apply pruning masks in place and annotate roles; returns self."""
        if method is PruneMethod.NONE or ratio <= 0.0:
            return self
        if method is PruneMethod.ATTENTION_AWARE:
            plan = plan or plan_attention_aware(precompute)
        for layer in self.layers:
            for kind in MATRIX_KINDS:
                role = (plan.role_for(kind)
                        if method is PruneMethod.ATTENTION_AWARE
                        else UNIFORM_ROLE[method])
                w = layer.weight(kind)
                if role is MatrixRole.DENSE:
                    mask = np.ones_like(w)
                elif role is MatrixRole.IRREGULAR:
                    mask = irregular_mask(w, ratio)
                elif role is MatrixRole.ROW:
                    mask = row_mask(w, ratio)
                    # Row pruning removes the whole output unit: the bias
                    # entry goes with its weight row.
                    layer.bias(kind)[mask[:, 0] == 0] = 0.0
                elif role is MatrixRole.COLUMN:
                    mask = col_mask(w, ratio)
                else:
                    mask = tile_mask(w, ratio, tile)
                layer.set_weight(kind, w * mask)
                layer.roles[kind] = role
                layer.masks[kind] = mask
        return self

    def annotate_roles(self, roles_by_kind: dict[str, MatrixRole]) -> "EncoderWeights":
        """Attach roles without re-masking (weights already pruned upstream,
        e.g. coming out of the Fig. 6 training pipeline via from_model)."""
        for layer in self.layers:
            layer.roles.update(roles_by_kind)
        return self

    # -- checkpointing ------------------------------------------------------

    _ARRAY_FIELDS = ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo",
                     "ln1_g", "ln1_b", "ln2_g", "ln2_b",
                     "fc1_w", "fc1_b", "fc2_w", "fc2_b")

    def save(self, path) -> None:
        """Serialize weights + pruning roles to an ``.npz`` checkpoint."""
        arrays: dict[str, np.ndarray] = {}
        roles: list[str] = []
        for i, layer in enumerate(self.layers):
            for f in self._ARRAY_FIELDS:
                arrays[f"layer{i}.{f}"] = getattr(layer, f)
            for kind, role in layer.roles.items():
                roles.append(f"{i}:{kind}:{role.value}")
        arrays["__meta__"] = np.array([
            self.config.name, str(self.config.num_layers),
            str(self.config.d_model), str(self.config.num_heads),
            str(self.config.d_ff), str(self.config.vocab_size),
            str(self.config.max_seq_len), str(len(self.layers)),
        ])
        arrays["__roles__"] = np.array(roles) if roles else np.array([""])
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path) -> "EncoderWeights":
        """Restore a checkpoint written by :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        meta = data["__meta__"]
        config = ModelConfig(
            name=str(meta[0]), num_layers=int(meta[1]), d_model=int(meta[2]),
            num_heads=int(meta[3]), d_ff=int(meta[4]),
            vocab_size=int(meta[5]), max_seq_len=int(meta[6]),
        )
        n_layers = int(meta[7])
        layers = []
        for i in range(n_layers):
            kwargs = {f: data[f"layer{i}.{f}"] for f in cls._ARRAY_FIELDS}
            layers.append(LayerWeights(**kwargs))
        out = cls(config=config, layers=layers)
        for entry in data["__roles__"]:
            if not entry:
                continue
            idx, kind, role = str(entry).split(":")
            out.layers[int(idx)].roles[kind] = MatrixRole(role)
        return out
