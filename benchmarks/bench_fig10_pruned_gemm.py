"""Fig. 10 — pruned linear-transformation speedup per method and sparsity.

Paper claims (vs the best dense cuBLAS routine): tile pruning reaches 3.5× /
3.2× at 95 % sparsity for d_model 768 / 1024; row and column pruning top out
around 1.2–1.7×; at equal sparsity tile pruning beats column pruning.
"""

import pytest

from repro.eval.latency import fig10_pruned_gemm

from _util import emit, once


@pytest.mark.parametrize("d_model", [768, 1024])
def test_fig10_pruned_gemm(benchmark, d_model):
    res = once(benchmark, fig10_pruned_gemm, d_model)
    emit(f"fig10_pruned_gemm_d{d_model}", res.render())

    tile = res.speedup("tile")
    col = res.speedup("column")
    assert 2.0 <= tile[-1] <= 4.5  # paper 3.5 (768) / 3.2 (1024)
    assert all(t > c for t, c in zip(tile, col))
