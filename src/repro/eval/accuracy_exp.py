"""Pruning-accuracy experiment harnesses (Fig. 13, Fig. 14, Table 1).

These harnesses *train models* through the full Section 4 pipeline —
pre-train (dense baseline) → reweighted group-lasso training → percentile
pruning → masked retraining — on the synthetic stand-in corpora, at a
reduced model scale controlled by ``scale`` so the full Table 1 grid runs in
minutes. Latencies come from the V100S cost model at the *paper-scale*
shapes (BERT_BASE / DistilBERT, seqLen 128), using the same per-task pruning
ratios Table 1 reports.

Each result's ``render()`` is the experiment's one text rendering, shared by
``python -m repro`` and the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import BERT_BASE, DISTILBERT, TRANSFORMER_WT2, ModelConfig, small_config
from repro.data.glue import TaskData, make_task
from repro.data.wikitext import SyntheticWikiText, batchify
from repro.eval.format import render_table
from repro.eval.metrics import glue_metric
from repro.nn.models import EncoderClassifier, TransformerLM
from repro.nn.trainer import TrainConfig, Trainer
from repro.pruning import (
    PruneMethod,
    ReweightedGroupLasso,
    prune_model,
)
from repro.pruning.lowrank import compress_model
from repro.pruning.masks import col_mask, irregular_mask, row_mask, tile_mask
from repro.runtime import EncoderWeights, ETEngine

#: Per-task pruning ratios from Table 1 (MNLI, QQP, QNLI, SST-2, STS-B,
#: MRPC, WNLI) for each model and method.
TABLE1_RATIOS: dict[str, dict[PruneMethod, list[float]]] = {
    "BERT_BASE": {
        PruneMethod.IRREGULAR: [0.7, 0.9, 0.7, 0.7, 0.6, 0.7, 0.9],
        PruneMethod.COLUMN: [0.3, 0.5, 0.4, 0.3, 0.2, 0.1, 0.9],
        PruneMethod.TILE: [0.3, 0.5, 0.4, 0.5, 0.3, 0.2, 0.9],
        PruneMethod.ATTENTION_AWARE: [0.3, 0.8, 0.4, 0.7, 0.3, 0.2, 0.9],
    },
    "DistilBERT": {
        PruneMethod.IRREGULAR: [0.4, 0.8, 0.8, 0.8, 0.6, 0.7, 0.9],
        PruneMethod.COLUMN: [0.4, 0.4, 0.3, 0.5, 0.2, 0.4, 0.9],
        PruneMethod.TILE: [0.4, 0.4, 0.3, 0.6, 0.2, 0.5, 0.9],
        PruneMethod.ATTENTION_AWARE: [0.4, 0.4, 0.3, 0.9, 0.2, 0.9, 0.9],
    },
}

TASK_ORDER = ["MNLI", "QQP", "QNLI", "SST-2", "STS-B", "MRPC", "WNLI"]

#: Full-scale configs used for the latency column of Table 1.
FULL_CONFIGS = {"BERT_BASE": BERT_BASE, "DistilBERT": DISTILBERT}


@dataclass
class Scale:
    """Training-scale knobs (the accuracy experiments' cost dial)."""

    d_model: int = 64
    num_heads: int = 4
    seq_len: int = 24
    vocab_size: int = 256
    n_train: int = 512
    n_dev: int = 192
    epochs_finetune: int = 8
    epochs_reweighted: int = 3
    epochs_retrain: int = 4
    epochs_pretrain: int = 14  # LM pre-training (the Fig. 14 baseline)
    lm_token_factor: int = 4  # LM corpus size: n_train * seq_len * this
    lr: float = 1e-3
    batch_size: int = 32
    # layer counts mirroring BERT (12) : DistilBERT (6) = 2 : 1
    layers: dict = field(default_factory=lambda: {
        "BERT_BASE": 4, "DistilBERT": 2, "Transformer": 2,
    })


TINY = Scale(n_train=96, n_dev=64, epochs_finetune=2, epochs_reweighted=1,
             epochs_retrain=1, seq_len=16)
SMALL = Scale()


def _small_cfg(model_name: str, scale: Scale) -> ModelConfig:
    return small_config(
        name=f"{model_name}-sim",
        num_layers=scale.layers[model_name],
        d_model=scale.d_model,
        num_heads=scale.num_heads,
        vocab_size=scale.vocab_size,
        max_seq_len=max(64, scale.seq_len),
    )


# ---------------------------------------------------------------------------
# Classifier fine-tune / prune / retrain pipeline (Table 1)
# ---------------------------------------------------------------------------


def _score(model: EncoderClassifier, task: TaskData) -> float:
    pred = model.predict(task.dev_tokens)
    return glue_metric(task.task.metric, pred, task.dev_labels)


def _train_cfg(scale: Scale, epochs: int, seed: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, lr=scale.lr, batch_size=scale.batch_size,
                       seed=seed)


def finetune_dense(task: TaskData, model_name: str, scale: Scale,
                   seed: int = 0) -> EncoderClassifier:
    """The fine-tuned dense baseline ("BERT_BASE (ours)" rows)."""
    cfg = _small_cfg(model_name, scale)
    rng = np.random.default_rng(seed)
    n_out = 1 if task.task.regression else task.task.num_classes
    model = EncoderClassifier(cfg, n_out, rng,
                              regression=task.task.regression)
    Trainer(model, _train_cfg(scale, scale.epochs_finetune, seed)).fit_classifier(
        task.train_tokens, task.train_labels)
    return model


def prune_finetuned(
    baseline: EncoderClassifier,
    task: TaskData,
    method: PruneMethod,
    ratio: float,
    scale: Scale,
    tile: tuple[int, int] = (8, 8),
    seed: int = 0,
) -> tuple[float, float]:
    """Run the Fig. 6 pipeline from a fine-tuned baseline.

    Returns ``(dev score, achieved overall sparsity)``. The baseline is not
    modified (weights are copied).
    """
    cfg = baseline.config
    rng = np.random.default_rng(seed + 1)
    n_out = 1 if task.task.regression else task.task.num_classes
    model = EncoderClassifier(cfg, n_out, rng,
                              regression=task.task.regression)
    model.load_state_dict(baseline.state_dict())

    if method in (PruneMethod.TILE, PruneMethod.ATTENTION_AWARE):
        reg = ReweightedGroupLasso(lam=1e-4, tile=tile,
                                   milestones=(0, scale.epochs_reweighted // 2))
        Trainer(model, _train_cfg(scale, scale.epochs_reweighted, seed),
                regularizer=reg.penalty,
                epoch_callback=reg.update_betas).fit_classifier(
                    task.train_tokens, task.train_labels)

    summary = prune_model(model, method, ratio, tile=tile)
    Trainer(model, _train_cfg(scale, scale.epochs_retrain, seed)).fit_classifier(
        task.train_tokens, task.train_labels)
    return _score(model, task), summary.overall_sparsity


@dataclass
class Table1Row:
    """One method's scores / ratios / latencies across tasks."""

    method: str
    scores: dict[str, float]
    ratios: dict[str, float]
    latency_ms: dict[str, float]

    @property
    def avg_score(self) -> float:
        """Mean score across tasks (the AVG column)."""
        return float(np.mean(list(self.scores.values())))

    @property
    def avg_latency_ms(self) -> float:
        """Mean full-model latency across tasks."""
        return float(np.mean(list(self.latency_ms.values())))

    @property
    def avg_ratio(self) -> float:
        """Mean pruning ratio across tasks."""
        return float(np.mean(list(self.ratios.values())))


@dataclass
class Table1Result:
    """A full model block of Table 1."""

    model_name: str
    baseline: Table1Row
    methods: dict[str, Table1Row]

    def render(self) -> str:
        """Score, ratio and latency rows per method, one column per task."""
        tasks = list(self.baseline.scores)
        b = self.baseline
        rows = [["baseline score"] + [b.scores[t] for t in tasks]
                + [b.avg_score]]
        for name, row in self.methods.items():
            rows.append([f"{name} score"] + [row.scores[t] for t in tasks]
                        + [row.avg_score])
            rows.append([f"{name} ratio"] + [row.ratios[t] for t in tasks]
                        + [row.avg_ratio])
            rows.append([f"{name} latency ms"]
                        + [row.latency_ms[t] for t in tasks]
                        + [row.avg_latency_ms])
        return render_table(["row"] + tasks + ["AVG"], rows,
                            title=f"Table 1 — {self.model_name}")


def _full_model_latency_ms(model_name: str, method: PruneMethod,
                           ratio: float, seq_len: int = 128,
                           seed: int = 0) -> float:
    """Paper-scale latency for a full pruned model on the V100S model."""
    cfg = FULL_CONFIGS[model_name]
    w = EncoderWeights.random(cfg, np.random.default_rng(seed))
    if method is not PruneMethod.NONE and ratio > 0:
        w.prune(method, ratio)
    eng = ETEngine(w)
    return eng.latency_us(seq_len) / 1000.0


def table1(
    model_name: str = "BERT_BASE",
    methods: tuple[PruneMethod, ...] = (
        PruneMethod.IRREGULAR, PruneMethod.COLUMN,
        PruneMethod.TILE, PruneMethod.ATTENTION_AWARE,
    ),
    tasks: tuple[str, ...] = tuple(TASK_ORDER),
    scale: Scale = SMALL,
    seed: int = 0,
) -> Table1Result:
    """Regenerate one model's block of Table 1."""
    ratio_table = TABLE1_RATIOS[model_name]
    base_scores: dict[str, float] = {}
    base_lat: dict[str, float] = {}
    baselines: dict[str, EncoderClassifier] = {}
    task_data: dict[str, TaskData] = {}
    for t in tasks:
        td = make_task(t, vocab_size=scale.vocab_size, seq_len=scale.seq_len,
                       n_train=scale.n_train, n_dev=scale.n_dev, seed=seed)
        task_data[t] = td
        baselines[t] = finetune_dense(td, model_name, scale, seed)
        base_scores[t] = _score(baselines[t], td)
        base_lat[t] = _full_model_latency_ms(model_name, PruneMethod.NONE, 0.0)
    result = Table1Result(
        model_name=model_name,
        baseline=Table1Row("baseline", base_scores,
                           {t: 0.0 for t in tasks}, base_lat),
        methods={},
    )
    for method in methods:
        ratios = dict(zip(TASK_ORDER, ratio_table[method]))
        scores, lats, rts = {}, {}, {}
        for t in tasks:
            score, _ = prune_finetuned(baselines[t], task_data[t], method,
                                       ratios[t], scale, seed=seed)
            scores[t] = score
            rts[t] = ratios[t]
            lats[t] = _full_model_latency_ms(model_name, method, ratios[t])
        result.methods[method.value] = Table1Row(method.value, scores, rts, lats)
    return result


# ---------------------------------------------------------------------------
# Fig. 14 — Transformer accuracy & latency vs pruning ratio
# ---------------------------------------------------------------------------


@dataclass
class Fig14Result:
    """Accuracy and latency series per method and ratio."""

    ratios: list[float]
    baseline_accuracy: float
    accuracy: dict[str, list[float]]  # method -> series (incl. "lowrank")
    latency_us: dict[str, list[float]]

    def render(self) -> str:
        """Accuracy and latency per method@ratio (n/a where unmodeled)."""
        rows: list[list[object]] = [["baseline", self.baseline_accuracy, ""]]
        for m in self.accuracy:
            for r, acc, lat in zip(self.ratios, self.accuracy[m],
                                   self.latency_us[m]):
                rows.append([f"{m}@{r}", acc,
                             lat if np.isfinite(lat) else "n/a"])
        return render_table(["method@ratio", "next-word acc", "latency us"],
                            rows, title="Fig.14 Transformer accuracy & "
                                        "latency vs ratio")


def fig14_transformer(
    ratios: tuple[float, ...] = (0.3, 0.5, 0.7, 0.85, 0.95),
    methods: tuple[PruneMethod, ...] = (
        PruneMethod.IRREGULAR, PruneMethod.COLUMN,
        PruneMethod.TILE, PruneMethod.ATTENTION_AWARE,
    ),
    include_lowrank: bool = True,
    scale: Scale = SMALL,
    seed: int = 0,
) -> Fig14Result:
    """Accuracy (small-scale training) and latency (paper-scale cost model)
    of the WikiText-2 Transformer across pruning ratios."""
    cfg = small_config(
        name="Transformer-sim", num_layers=scale.layers["Transformer"],
        d_model=scale.d_model, num_heads=scale.num_heads,
        vocab_size=scale.vocab_size, max_seq_len=max(64, scale.seq_len),
    )
    corpus = SyntheticWikiText(vocab_size=scale.vocab_size, seed=seed)
    n_tokens = scale.n_train * scale.seq_len * scale.lm_token_factor
    train_stream, val_stream = corpus.splits(
        n_tokens, scale.n_dev * scale.seq_len)
    train_batches = batchify(train_stream, scale.batch_size, scale.seq_len)
    val_batches = batchify(val_stream, scale.batch_size, scale.seq_len)

    rng = np.random.default_rng(seed)
    baseline = TransformerLM(cfg, rng)
    Trainer(baseline, _train_cfg(scale, scale.epochs_pretrain, seed)
            ).fit_lm(train_batches)

    def val_acc(m: TransformerLM) -> float:
        return float(np.mean([m.accuracy(b) for b in val_batches]))

    res = Fig14Result(ratios=list(ratios), baseline_accuracy=val_acc(baseline),
                      accuracy={}, latency_us={})
    names = [m.value for m in methods] + (["lowrank"] if include_lowrank else [])
    for name in names:
        res.accuracy[name] = []
        res.latency_us[name] = []

    for method in methods:
        for ratio in ratios:
            model = TransformerLM(cfg, np.random.default_rng(seed + 1))
            model.load_state_dict(baseline.state_dict())
            if method in (PruneMethod.TILE, PruneMethod.ATTENTION_AWARE):
                reg = ReweightedGroupLasso(lam=1e-4, tile=(8, 8))
                Trainer(model, _train_cfg(scale, scale.epochs_reweighted, seed),
                        regularizer=reg.penalty,
                        epoch_callback=reg.update_betas).fit_lm(train_batches)
            prune_model(model, method, ratio, tile=(8, 8))
            Trainer(model, _train_cfg(scale, scale.epochs_retrain, seed)
                    ).fit_lm(train_batches)
            res.accuracy[method.value].append(val_acc(model))

            w = EncoderWeights.random(TRANSFORMER_WT2, np.random.default_rng(seed))
            w.prune(method, ratio)
            res.latency_us[method.value].append(ETEngine(w).latency_us(128))

    if include_lowrank:
        for ratio in ratios:
            model = TransformerLM(cfg, np.random.default_rng(seed + 2))
            model.load_state_dict(baseline.state_dict())
            compress_model(model, ratio)
            Trainer(model, _train_cfg(scale, scale.epochs_retrain, seed)
                    ).fit_lm(train_batches)
            # Re-project onto the rank budget: retraining the reconstructed
            # weights would otherwise silently escape the rank constraint.
            compress_model(model, ratio)
            res.accuracy["lowrank"].append(val_acc(model))
            res.latency_us["lowrank"].append(float("nan"))
    return res


# ---------------------------------------------------------------------------
# Fig. 13 — mask structure of the Transformer's in_proj_weight
# ---------------------------------------------------------------------------


@dataclass
class Fig13Result:
    """Element-level pruning masks per method."""

    masks: dict[str, np.ndarray]  # method -> (2400, 800)-style element mask

    def ascii_art(self, method: str, rows: int = 30, cols: int = 40) -> str:
        """Downsampled density rendering ('#' dense … ' ' empty)."""
        m = self.masks[method]
        rb = m.shape[0] // rows
        cb = m.shape[1] // cols
        density = m[: rb * rows, : cb * cols].reshape(rows, rb, cols, cb).mean(
            axis=(1, 3))
        chars = " .:-=+*#"
        idx = np.minimum((density * len(chars)).astype(int), len(chars) - 1)
        return "\n".join("".join(chars[i] for i in row) for row in idx)

    def render(self) -> str:
        """One 24×48 density block per method, headed by its sparsity."""
        return "\n\n".join(
            f"--- {method} (achieved sparsity {1.0 - m.mean():.3f}, "
            f"shape {m.shape}) ---\n" + self.ascii_art(method, rows=24, cols=48)
            for method, m in self.masks.items())


def fig13_masks(d_model: int = 800, ratio: float = 0.5,
                tile: tuple[int, int] = (16, 16), seed: int = 0) -> Fig13Result:
    """Masks of the stacked in_proj_weight (W_Q; W_K; W_V — 2400×800 at the
    paper's Transformer width) under the four pruning methods."""
    rng = np.random.default_rng(seed)
    wq, wk, wv = (rng.standard_normal((d_model, d_model)) * 0.02
                  for _ in range(3))

    def stack(mq, mk, mv):
        return np.concatenate([mq, mk, mv], axis=0)

    masks = {
        "attention_aware": stack(tile_mask(wq, ratio, tile),
                                 tile_mask(wk, ratio, tile),
                                 row_mask(wv, ratio)),
        "irregular": stack(*(irregular_mask(w, ratio) for w in (wq, wk, wv))),
        "column": stack(*(col_mask(w, ratio) for w in (wq, wk, wv))),
        "tile": stack(*(tile_mask(w, ratio, tile) for w in (wq, wk, wv))),
    }
    return Fig13Result(masks=masks)
