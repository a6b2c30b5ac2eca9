"""Sparse weight containers (Section 4.1 formats)."""

import sys
import threading

import numpy as np
import pytest

from repro.config import BERT_BASE
from repro.pruning.masks import col_mask, irregular_mask, row_mask, tile_mask
from repro.tensor.sparse import (
    CondensedColPruned,
    CondensedRowPruned,
    TileBCSR,
    dense_from_mask,
)


@pytest.fixture
def w(rng):
    return rng.standard_normal((64, 48))


def per_tile_matmul(fmt: TileBCSR, x: np.ndarray) -> np.ndarray:
    """Reference kernel: one GEMM per stored tile, accumulated in CSR order."""
    r, c = fmt.tile
    p, q = fmt.bitmap.shape
    xb = x.reshape(-1, q, c)
    out = np.zeros((xb.shape[0], p, r))
    for i in range(p):
        for k in range(fmt.row_ptr[i], fmt.row_ptr[i + 1]):
            out[:, i] += xb[:, fmt.col_idx[k]] @ fmt.tiles[k].T
    return out.reshape(*x.shape[:-1], p * r)


class TestRowPruned:
    def test_roundtrip(self, w):
        mask = row_mask(w, 0.5)[:, 0].astype(bool)
        fmt = CondensedRowPruned.from_dense(w, mask)
        np.testing.assert_array_equal(fmt.to_dense(), w * mask[:, None])

    def test_condensed_matmul_matches_masked(self, w, rng):
        mask = row_mask(w, 0.25)[:, 0].astype(bool)
        fmt = CondensedRowPruned.from_dense(w, mask)
        x = rng.standard_normal((5, 48))
        full = fmt.matmul(x)
        np.testing.assert_allclose(full, x @ (w * mask[:, None]).T, atol=1e-12)
        cond = fmt.matmul_condensed(x)
        np.testing.assert_allclose(cond, full[:, fmt.kept_rows], atol=1e-12)

    def test_sparsity(self, w):
        mask = np.zeros(64, bool)
        mask[:16] = True
        fmt = CondensedRowPruned.from_dense(w, mask)
        assert fmt.sparsity == pytest.approx(0.75)
        assert fmt.weight.shape == (16, 48)

    def test_mask_shape_validated(self, w):
        with pytest.raises(ValueError):
            CondensedRowPruned.from_dense(w, np.ones(10, bool))

    def test_index_range_validated(self):
        with pytest.raises(ValueError, match="range"):
            CondensedRowPruned(weight=np.ones((2, 4)),
                               kept_rows=np.array([0, 5]), out_features=3)


class TestColPruned:
    def test_roundtrip(self, w):
        mask = col_mask(w, 0.5)[0].astype(bool)
        fmt = CondensedColPruned.from_dense(w, mask)
        np.testing.assert_array_equal(fmt.to_dense(), w * mask[None, :])

    def test_matmul_matches_masked(self, w, rng):
        mask = col_mask(w, 0.4)[0].astype(bool)
        fmt = CondensedColPruned.from_dense(w, mask)
        x = rng.standard_normal((7, 48))
        np.testing.assert_allclose(
            fmt.matmul(x), x @ (w * mask[None, :]).T, atol=1e-12
        )

    def test_gather_input_selects_kept(self, w, rng):
        mask = np.zeros(48, bool)
        mask[[1, 5, 7]] = True
        fmt = CondensedColPruned.from_dense(w, mask)
        x = rng.standard_normal((3, 48))
        np.testing.assert_array_equal(fmt.gather_input(x), x[:, [1, 5, 7]])

    def test_gather_is_contiguous_copy(self, w, rng):
        mask = col_mask(w, 0.5)[0].astype(bool)
        fmt = CondensedColPruned.from_dense(w, mask)
        xa = fmt.gather_input(rng.standard_normal((3, 48)))
        assert xa.flags["C_CONTIGUOUS"]


class TestTileBCSR:
    def test_roundtrip_tile_pruned(self, w):
        wt = w * tile_mask(w, 0.6, (16, 16))
        fmt = TileBCSR.from_dense(wt)
        np.testing.assert_array_equal(fmt.to_dense(), wt)

    def test_roundtrip_irregular(self, w):
        wi = w * irregular_mask(w, 0.9)
        fmt = TileBCSR.from_dense(wi)
        np.testing.assert_array_equal(fmt.to_dense(), wi)

    def test_matmul_matches_masked(self, w, rng):
        wt = w * tile_mask(w, 0.5, (16, 16))
        fmt = TileBCSR.from_dense(wt)
        x = rng.standard_normal((9, 48))
        np.testing.assert_allclose(fmt.matmul(x), x @ wt.T, atol=1e-10)

    def test_tile_sparsity(self, w):
        wt = w * tile_mask(w, 0.5, (16, 16))
        fmt = TileBCSR.from_dense(wt)
        assert fmt.tile_sparsity == pytest.approx(0.5)
        # tiles are internally dense for tile pruning
        assert fmt.element_sparsity == pytest.approx(0.5)

    def test_irregular_bitmap_nearly_full(self, w):
        # magnitude pruning at 50% leaves essentially every 16x16 tile
        # occupied — why irregular can't skip tiles.
        wi = w * irregular_mask(w, 0.5)
        fmt = TileBCSR.from_dense(wi)
        assert fmt.tile_sparsity == 0.0
        assert fmt.element_sparsity == pytest.approx(0.5, abs=0.01)

    def test_empty_matrix(self):
        fmt = TileBCSR.from_dense(np.zeros((32, 32)))
        assert fmt.num_tiles == 0
        np.testing.assert_array_equal(fmt.to_dense(), np.zeros((32, 32)))
        np.testing.assert_array_equal(fmt.matmul(np.ones((2, 32))),
                                      np.zeros((2, 32)))

    def test_row_ptr_monotone(self, w):
        fmt = TileBCSR.from_dense(w * tile_mask(w, 0.3, (16, 16)))
        assert (np.diff(fmt.row_ptr) >= 0).all()
        assert fmt.row_ptr[-1] == fmt.num_tiles

    @pytest.mark.parametrize("mask", ["tile", "irregular", "empty"])
    def test_cost_metadata_matches_dense(self, w, mask):
        wm = {"tile": w * tile_mask(w, 0.6, (16, 16)),
              "irregular": w * irregular_mask(w, 0.9),
              "empty": np.zeros_like(w)}[mask]
        fmt = TileBCSR.from_dense(wm)
        assert fmt.nnz == np.count_nonzero(wm)
        cols_used = (wm != 0).reshape(4, 16, 3, 16).any(axis=(0, 1, 3))
        assert fmt.active_cols == cols_used.sum()


class TestTileBCSRPaperShape:
    """BERT_BASE fc2 (768×3072) at 80% tile pruning: tile-rows hold ~38
    tiles, so each spans several slabs and takes the accumulate branch."""

    #: One row past 256: each slab's whole-batch call holds 257 rows,
    #: while the splits below end in short remainders.
    N = 257

    @pytest.fixture(scope="class")
    def fc2(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((BERT_BASE.d_model, BERT_BASE.d_ff))
        return TileBCSR.from_dense(w * tile_mask(w, 0.8, (16, 16)))

    @pytest.fixture(scope="class")
    def x(self):
        return np.random.default_rng(8).standard_normal((self.N, BERT_BASE.d_ff))

    def test_tile_rows_span_several_slabs(self, fc2):
        per_row = np.diff(fc2.row_ptr)
        assert per_row.max() > 2 * 16  # more than two 16-tile slabs

    def test_matches_per_tile_reference(self, fc2, x):
        # The slabs sum in another order than the per-tile loop, so each
        # entry may differ by a few roundings of its terms' magnitude
        # Σ|x·w|; the bound, 64 float64 epsilons of it, was fixed before
        # the kernel was measured.
        scale = np.abs(x) @ np.abs(fc2.to_dense()).T
        err = np.abs(fc2.matmul(x) - per_tile_matmul(fc2, x))
        assert (err <= 64 * np.finfo(np.float64).eps * scale).all()

    @pytest.mark.parametrize("rows", [2, 3, 17, 32, 128])
    def test_row_splits_concatenate_bitwise(self, fc2, x, rows):
        cuts = list(range(0, self.N, rows)) + [self.N]
        if cuts[-1] - cuts[-2] == 1:
            del cuts[-2]  # a one-row split is gemv's case, not gemm's
        parts = [fc2.matmul(x[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), fc2.matmul(x))

    def test_threads_sharing_one_format_match_serial(self, fc2, x):
        """``run_batch`` members call ``matmul`` on one shared format at
        once; each call's workspace is its own, so results are unchanged.
        More threads than a small host has cores, switching often."""
        # Equal row counts, so a workspace shared by row count would race.
        inputs = [x[:128], x[129:], x[::2][:128], x[1::2]] * 2
        serial = [fc2.matmul(xi) for xi in inputs]
        n_threads = 4
        start = threading.Barrier(n_threads, timeout=10)
        got: dict[int, np.ndarray] = {}

        def work(first: int) -> None:
            start.wait()
            for k in range(first, len(inputs), n_threads):
                got[k] = fc2.matmul(inputs[k])

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == list(range(len(inputs)))
        for k, ref in enumerate(serial):
            assert np.array_equal(got[k], ref)


class TestDenseFromMask:
    def test_reference_semantics(self, w):
        mask = irregular_mask(w, 0.7)
        np.testing.assert_array_equal(dense_from_mask(w, mask), w * mask)

    def test_shape_mismatch(self, w):
        with pytest.raises(ValueError):
            dense_from_mask(w, np.ones((2, 2)))
