"""The E.T. engine (the paper's system).

Combines every Section 3 / Section 4 design:

- **Adaptive attention**: full on-the-fly below the (cost-model-derived)
  sequence-length crossover, partial on-the-fly beyond it; scaling reordered
  onto Q for pure-FP16 execution.
- **Pre-computed linear transformation** (optional): W_V·W_O folded offline;
  with a row-pruned W_O the folded matrices are condensed so both the X·M
  GEMM and the in-attention S·(XM) stage shrink.
- **Pruning-aware linear transformations**: per-matrix dispatch to the
  tensor-core-friendly sparse GEMMs of Section 4.1 according to each
  matrix's :class:`~repro.pruning.attention_aware.MatrixRole`.
- **Autotuned GEMM algorithms** below the sparsity threshold: "E.T. finds
  and uses the best cuBLAS GEMM routine … when the sparsity is below 40 %
  while attention-aware pruning afterwards" (Section 5.2.1).
- **Aggressive epilogue fusion**: bias, activation, residual and layernorm
  ride on GEMM epilogues; the whole dense encoder layer is 5 kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.attention.adaptive import attention_choice, select_attention
from repro.attention.precompute import (
    condense_folded,
    fold_vo,
    precomputed_vside,
    select_attention_precomputed,
)
from repro.attention.reference import split_heads
from repro.gpu.counters import Timeline
from repro.gpu.kernel import MemPattern
from repro.ops.context import ExecContext
from repro.ops.gemm import gemm_bias_act
from repro.ops.layernorm import layer_norm_op
from repro.ops.sparse_gemm import (
    col_pruned_gemm,
    irregular_gemm,
    row_pruned_gemm,
    tile_gemm,
)
from repro.pruning.attention_aware import MatrixRole
from repro.runtime.autotune import autotune_gemm_algo
from repro.runtime.engine import Engine
from repro.runtime.weights import MATRIX_KINDS
from repro.tensor.sparse import CondensedColPruned, CondensedRowPruned, TileBCSR

#: Below this overall sparsity the pruned formats do not pay for themselves;
#: E.T. falls back to dense GEMMs with the autotuned algorithm (Section 5.2.1).
SPARSITY_THRESHOLD = 0.40


@dataclass
class _CompiledLayer:
    """Per-layer sparse formats / folded matrices, built once at load time."""

    formats: dict[str, object]
    v_kept: int | None = None  # kept output features of a row-pruned W_V
    qk_fused: TileBCSR | None = None  # horizontally stacked tile-pruned Q‖K
    qk_bias: np.ndarray | None = None
    m_heads: np.ndarray | None = None  # folded (condensed) W_V·W_O
    m_kept_cols: np.ndarray | None = None
    b_fold: np.ndarray | None = None  # bv·W_Oᵀ + bo folded bias


class ETEngine(Engine):
    """The paper's engine: adaptive OTF attention, pruning-aware GEMMs, autotuning."""

    name = "et"

    def __init__(self, weights, device=None, precompute: bool = False,
                 sparsity_threshold: float = SPARSITY_THRESHOLD) -> None:
        self.precompute = precompute
        self.sparsity_threshold = sparsity_threshold
        super().__init__(weights, device)

    # -- compilation ------------------------------------------------------------

    def _compile(self) -> None:
        self.sparse_mode = (
            self.weights.overall_sparsity >= self.sparsity_threshold
            or self.precompute
        )
        self._layers: list[_CompiledLayer] = []
        self._qkv_w = []
        self._qkv_b = []
        for lw in self.weights.layers:
            compiled = _CompiledLayer(formats={})
            if self.sparse_mode:
                for kind in MATRIX_KINDS:
                    if self.precompute and kind in ("wv", "wo"):
                        continue  # folded below
                    role = lw.role(kind)
                    w = lw.weight(kind)
                    if role is MatrixRole.TILE:
                        compiled.formats[kind] = TileBCSR.from_dense(w)
                    elif role is MatrixRole.ROW:
                        keep = np.any(w != 0, axis=1)
                        compiled.formats[kind] = CondensedRowPruned.from_dense(w, keep)
                        if kind == "wv":
                            compiled.v_kept = int(keep.sum())
                    elif role is MatrixRole.COLUMN:
                        keep = np.any(w != 0, axis=0)
                        compiled.formats[kind] = CondensedColPruned.from_dense(w, keep)
                    elif role is MatrixRole.IRREGULAR:
                        compiled.formats[kind] = TileBCSR.from_dense(w)
                    else:
                        compiled.formats[kind] = w
                # Horizontal fusion of the tile-pruned Q and K projections:
                # one kernel streams X once for both (same trick as the dense
                # engines' stacked QKV GEMM).
                if (lw.role("wq") is MatrixRole.TILE
                        and lw.role("wk") is MatrixRole.TILE):
                    compiled.qk_fused = TileBCSR.from_dense(
                        np.concatenate([lw.wq, lw.wk], axis=0)
                    )
                    compiled.qk_bias = np.concatenate([lw.bq, lw.bk])
                if self.precompute:
                    h = self.weights.config.num_heads
                    m = fold_vo(lw.wv, lw.wo, h)
                    if lw.role("wo") is MatrixRole.ROW:
                        kept = np.flatnonzero(np.any(lw.wo != 0, axis=1))
                    else:
                        kept = np.arange(lw.wo.shape[0])
                    compiled.m_heads = condense_folded(m, kept)
                    compiled.m_kept_cols = kept
                    compiled.b_fold = lw.bv @ lw.wo.T + lw.bo
            else:
                self._qkv_w.append(np.concatenate([lw.wq, lw.wk, lw.wv], axis=0))
                self._qkv_b.append(np.concatenate([lw.bq, lw.bk, lw.bv]))
            self._layers.append(compiled)

    def make_ctx(self, tl: Timeline) -> ExecContext:
        """See :meth:`repro.runtime.engine.Engine.make_ctx`."""
        # Hand-written kernels stream cleanly.
        return ExecContext(tl=tl, bytes_per_elem=2, tensor_core=True,
                           elementwise_pattern=MemPattern.STREAM)

    def _effective_v_width(self, layer_idx: int) -> int | None:
        """Per-head V width a row-pruned W_V leaves (``None``: unpruned)."""
        v_kept = self._layers[layer_idx].v_kept
        if v_kept is None:
            return None
        return max(1, math.ceil(v_kept / self.weights.config.num_heads))

    def attention_regimes(self, max_seq_len: int) -> list[tuple[int, str]]:
        """See :meth:`repro.runtime.engine.Engine.attention_regimes`.

        Every length from 1 to ``max_seq_len`` is priced with the key
        :meth:`run` dispatches on without a mask (serving requests carry
        none). A length whose layers choose differently is labelled with
        the per-layer choices joined by ``+``.
        """
        if self.precompute:
            raise ValueError(
                "attention_regimes does not model the precomputed "
                "(folded W_V·W_O) attention path")
        if max_seq_len < 1:
            raise ValueError(f"max_seq_len must be >= 1: {max_seq_len}")
        cfg = self.weights.config
        ctx = self.make_ctx(Timeline(self.device))
        widths = [self._effective_v_width(i) or cfg.d_head
                  for i in range(len(self._layers))]

        def choice_at(s: int) -> str:
            per_layer = [attention_choice(ctx, cfg.num_heads, s, cfg.d_head,
                                          vw, has_mask=False)
                         for vw in widths]
            return (per_layer[0] if len(set(per_layer)) == 1
                    else "+".join(per_layer))

        return [(max(lens), choice) for choice, lens
                in groupby(range(1, max_seq_len + 1), key=choice_at)]

    def _algo(self, m: int, n: int, k: int):
        return autotune_gemm_algo(m, n, k, device=self.device)

    # -- sparse linear dispatch ---------------------------------------------------

    def _linear(self, ctx, x, layer_idx, kind, bias, act=None,
                active_input_cols=None, masked_full=False,
                residual=None, ln=None, tag=""):
        lw = self.weights.layers[layer_idx]
        fmt = self._layers[layer_idx].formats[kind]
        role = lw.role(kind)
        name = f"{kind}_{role.value}"
        s = x.shape[0]
        if role is MatrixRole.TILE:
            return tile_gemm(ctx, x, fmt, bias=bias, act=act,
                             residual=residual, ln=ln,
                             active_input_cols=active_input_cols,
                             name=name, tag=tag)
        if role is MatrixRole.ROW:
            y = row_pruned_gemm(ctx, x, fmt, scatter=not masked_full,
                                masked_full=masked_full, bias=bias, act=act,
                                name=name, tag=tag)
            if residual is not None or ln is not None:
                y = layer_norm_op(ctx, y, ln[0], ln[1], residual=residual,
                                  tag=tag)
            return y
        if role is MatrixRole.COLUMN:
            return col_pruned_gemm(ctx, x, fmt, bias=bias, act=act,
                                   residual=residual, ln=ln, name=name, tag=tag)
        if role is MatrixRole.IRREGULAR:
            y = irregular_gemm(ctx, x, fmt, bias=bias, act=act,
                               name=name, tag=tag)
            if residual is not None or ln is not None:
                y = layer_norm_op(ctx, y, ln[0], ln[1], residual=residual,
                                  tag=tag)
            return y
        # Dense fallback with the autotuned algorithm.
        w = fmt
        return gemm_bias_act(ctx, x, w.T, bias, act=act, residual=residual,
                             ln_gamma=None if ln is None else ln[0],
                             ln_beta=None if ln is None else ln[1],
                             algo=self._algo(s, w.shape[0], w.shape[1]),
                             name=name, tag=tag)

    # -- layer schedules --------------------------------------------------------------

    def run_layer(self, ctx, x, layer_idx, mask, choices):
        """See :meth:`repro.runtime.engine.Engine.run_layer`."""
        if not self.sparse_mode:
            return self._run_dense_layer(ctx, x, layer_idx, mask, choices)
        if self.precompute:
            return self._run_precomputed_layer(ctx, x, layer_idx, mask, choices)
        return self._run_sparse_layer(ctx, x, layer_idx, mask, choices)

    def _run_dense_layer(self, ctx, x, layer_idx, mask, choices):
        lw = self.weights.layers[layer_idx]
        cfg = self.weights.config
        s, d, f = x.shape[0], cfg.d_model, cfg.d_ff

        qkv = gemm_bias_act(
            ctx, x, self._qkv_w[layer_idx].T, self._qkv_b[layer_idx],
            algo=self._algo(s, 3 * d, d), name="qkv_gemm", tag="step1_qkv",
        )
        qh = split_heads(qkv[:, :d], cfg.num_heads)
        kh = split_heads(qkv[:, d : 2 * d], cfg.num_heads)
        vh = split_heads(qkv[:, 2 * d :], cfg.num_heads)
        z, chosen = select_attention(ctx, qh, kh, vh, mask)
        choices[f"layer{layer_idx}.attention"] = chosen

        y = gemm_bias_act(
            ctx, z, lw.wo.T, lw.bo, residual=x,
            ln_gamma=lw.ln1_g, ln_beta=lw.ln1_b,
            algo=self._algo(s, d, d), name="o_proj_bias_ln", tag="step7_output",
        )
        hdn = gemm_bias_act(ctx, y, lw.fc1_w.T, lw.fc1_b, act="gelu",
                            algo=self._algo(s, f, d), name="fc1_gelu", tag="mlp")
        return gemm_bias_act(
            ctx, hdn, lw.fc2_w.T, lw.fc2_b, residual=y,
            ln_gamma=lw.ln2_g, ln_beta=lw.ln2_b,
            algo=self._algo(s, d, f), name="fc2_bias_ln", tag="mlp",
        )

    def _run_sparse_layer(self, ctx, x, layer_idx, mask, choices):
        lw = self.weights.layers[layer_idx]
        cfg = self.weights.config
        compiled = self._layers[layer_idx]
        h = cfg.num_heads

        d = cfg.d_model
        if compiled.qk_fused is not None:
            qk = tile_gemm(ctx, x, compiled.qk_fused, bias=compiled.qk_bias,
                           name="qk_fused_tile", tag="step1_qkv")
            q, k = qk[:, :d], qk[:, d:]
        else:
            q = self._linear(ctx, x, layer_idx, "wq", lw.bq, tag="step1_qkv")
            k = self._linear(ctx, x, layer_idx, "wk", lw.bk, tag="step1_qkv")
        v = self._linear(ctx, x, layer_idx, "wv", lw.bv, masked_full=True,
                         tag="step1_qkv")

        z, chosen = select_attention(
            ctx, split_heads(q, h), split_heads(k, h), split_heads(v, h),
            mask, effective_v_width=self._effective_v_width(layer_idx),
        )
        choices[f"layer{layer_idx}.attention"] = chosen

        y = self._linear(ctx, z, layer_idx, "wo", lw.bo,
                         active_input_cols=compiled.v_kept,
                         residual=x, ln=(lw.ln1_g, lw.ln1_b),
                         tag="step7_output")
        hdn = self._linear(ctx, y, layer_idx, "fc1", lw.fc1_b, act="gelu",
                           tag="mlp")
        return self._linear(ctx, hdn, layer_idx, "fc2", lw.fc2_b,
                            residual=y, ln=(lw.ln2_g, lw.ln2_b), tag="mlp")

    def _run_precomputed_layer(self, ctx, x, layer_idx, mask, choices):
        lw = self.weights.layers[layer_idx]
        cfg = self.weights.config
        compiled = self._layers[layer_idx]
        h, d = cfg.num_heads, cfg.d_model

        q = self._linear(ctx, x, layer_idx, "wq", lw.bq, tag="step1_qkv")
        k = self._linear(ctx, x, layer_idx, "wk", lw.bk, tag="step1_qkv")

        xm = precomputed_vside(ctx, x, compiled.m_heads,
                               algo=self._algo(x.shape[0],
                                               compiled.m_heads.shape[0]
                                               * compiled.m_heads.shape[2], d))
        out, chosen = select_attention_precomputed(
            ctx, split_heads(q, h), split_heads(k, h), xm,
            out_features=d, kept_cols=compiled.m_kept_cols, mask=mask,
        )
        choices[f"layer{layer_idx}.attention"] = chosen
        # The folded bias (bv·W_Oᵀ + bo) rides the OTF epilogue — softmax rows
        # sum to one, so the V bias folds into a constant row (no kernel).
        out = out + compiled.b_fold

        y = layer_norm_op(ctx, out, lw.ln1_g, lw.ln1_b, residual=x, tag="add_ln")
        hdn = self._linear(ctx, y, layer_idx, "fc1", lw.fc1_b, act="gelu",
                           tag="mlp")
        return self._linear(ctx, hdn, layer_idx, "fc2", lw.fc2_b,
                            residual=y, ln=(lw.ln2_g, lw.ln2_b), tag="mlp")

