"""Fig. 13 — mask structure of the Transformer's in_proj_weight (2400×800).

Four methods at 50 % pruning: (a) attention-aware — W_V row-pruned, the rest
tensor-tile pruned; (b) irregular; (c) column; (d) tensor-tile. The rendered
masks show the structural signature of each method.
"""

from repro.eval.accuracy_exp import fig13_masks

from _util import emit, once


def test_fig13_masks(benchmark):
    res = once(benchmark, fig13_masks)  # paper width d_model=800
    emit("fig13_masks", res.render())

    for m in res.masks.values():
        assert m.shape == (2400, 800)
        assert 1.0 - m.mean() == 0.5 or abs(1.0 - m.mean() - 0.5) < 0.02
    # attention-aware W_V block is row-structured
    wv = res.masks["attention_aware"][1600:].astype(bool)
    assert all(r.all() or not r.any() for r in wv)
