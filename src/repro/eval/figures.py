"""The paper-figure registry behind ``python -m repro figN|all|list``.

One :class:`Figure` per command: the ``repro.eval`` harness call that
regenerates it, the ``--model`` values it accepts, whether it trains, and
the stems of the ``benchmarks/results/<stem>.txt`` files its benchmark
writes. A figure's text is ``render()`` of its harness results — the same
renderer the benchmark emits, so ``repro figN`` prints what those files
hold for the same inputs.

The harness modules are imported inside each entry: the CLI (and with it
the serving commands) loads none of them until a figure runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


def _latency() -> Any:
    from repro.eval import latency

    return latency


def _accuracy() -> Any:
    from repro.eval import accuracy_exp

    return accuracy_exp


def _scale(name: str) -> Any:
    """The ``--scale`` training presets for fig14/table1."""
    acc = _accuracy()
    return {"tiny": acc.TINY, "small": acc.SMALL,
            "bench": acc.Scale(n_train=256, n_dev=160, epochs_finetune=3,
                               epochs_reweighted=2, epochs_retrain=2)}[name]


@dataclass(frozen=True)
class Figure:
    """One paper figure or table the CLI regenerates."""

    name: str
    #: ``(model, scale) -> results``, each with a ``render() -> str``.
    run: Callable[[str, str], list[Any]]
    #: Result-file stems, one per result; ``{model}`` is the ``--model``.
    stems: tuple[str, ...]
    #: Accepted ``--model`` values; ``None`` = the figure ignores it.
    models: tuple[str, ...] | None = None
    trains: bool = False

    def render(self, model: str, scale: str) -> str:
        """The figure's text: its results' renderings, one after another."""
        return "\n".join(r.render() for r in self.run(model, scale))


FIGURES: dict[str, Figure] = {f.name: f for f in (
    Figure("fig1", lambda m, s: [_latency().fig01_breakdown()],
           ("fig01_breakdown",)),
    Figure("fig4", lambda m, s: [_latency().fig04_overflow()],
           ("fig04_overflow",)),
    Figure("fig7", lambda m, s: [_latency().fig07_encoder_latency()],
           ("fig07_encoder_latency",)),
    Figure("fig8", lambda m, s: [_latency().fig08_attention(m)],
           ("fig08_attention_{model}",),
           models=("BERT_BASE", "Transformer")),
    Figure("fig9", lambda m, s: [_latency().fig09_precompute()],
           ("fig09_precompute",)),
    Figure("fig10",
           lambda m, s: [_latency().fig10_pruned_gemm(d) for d in (768, 1024)],
           ("fig10_pruned_gemm_d768", "fig10_pruned_gemm_d1024")),
    Figure("fig11", lambda m, s: [_latency().fig11_profiling()],
           ("fig11_profiling",)),
    Figure("fig12", lambda m, s: [_latency().fig12_throughput()],
           ("fig12_throughput",)),
    Figure("fig13", lambda m, s: [_accuracy().fig13_masks()],
           ("fig13_masks",)),
    Figure("fig14",
           lambda m, s: [_accuracy().fig14_transformer(scale=_scale(s))],
           ("fig14_transformer_tradeoff",), trains=True),
    Figure("table1",
           lambda m, s: [_accuracy().table1(m, scale=_scale(s))],
           ("table1_{model}",), models=("BERT_BASE", "DistilBERT"),
           trains=True),
)}
