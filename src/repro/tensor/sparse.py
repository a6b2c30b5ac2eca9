"""Sparse weight representations for pruned linear transformations.

Section 4.1 of the paper transforms each pruning pattern into a tensor-core
consumable format:

- **Row pruning** (Fig. 5(a)): pruned rows of ``W`` are physically removed,
  producing a smaller dense ``W_pruned``; ``X @ W_prunedᵀ`` yields a resultant
  matrix whose columns live at the kept-row positions (column-sparse output).
- **Column pruning** (Fig. 5(b)): pruned columns removed; only the matching
  columns of ``X`` participate, so the input is *gathered* (``X_adjusted``)
  before a dense GEMM.
- **Irregular pruning**: a hierarchical format from Zachariadis et al. [59] —
  a tile-occupancy bitmap over 16×16 tiles plus Block-Compressed-Sparse-Row
  storage of the non-empty tiles (:class:`TileBCSR`).

These classes hold the *data layout*; the GPU-costed multiplication kernels
that consume them live in :mod:`repro.ops.sparse_gemm`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.tensor.tiles import TENSOR_TILE, tile_grid_shape, tile_view, untile_view


@dataclass
class CondensedRowPruned:
    """Row-pruned weight matrix with pruned rows removed (Fig. 5(a)).

    ``weight`` keeps only the surviving rows of the original ``(out, in)``
    matrix; ``kept_rows`` records their original indices so the product's
    columns can be scattered back (or, better, consumed in condensed form by a
    sparsity-aware downstream operator — the attention-aware design's trick).
    """

    weight: np.ndarray
    kept_rows: np.ndarray
    out_features: int

    def __post_init__(self) -> None:
        self.kept_rows = np.asarray(self.kept_rows, dtype=np.intp)
        if self.weight.shape[0] != self.kept_rows.shape[0]:
            raise ValueError("weight rows and kept_rows must agree")
        if self.kept_rows.size and self.kept_rows.max() >= self.out_features:
            raise ValueError("kept row index out of range")

    @classmethod
    def from_dense(cls, w: np.ndarray, row_mask: np.ndarray) -> "CondensedRowPruned":
        """Condense a dense ``(out, in)`` matrix given a boolean row-keep mask."""
        row_mask = np.asarray(row_mask, dtype=bool)
        if row_mask.shape != (w.shape[0],):
            raise ValueError("row_mask must have one entry per output row")
        kept = np.flatnonzero(row_mask)
        return cls(weight=np.ascontiguousarray(w[kept]), kept_rows=kept,
                   out_features=w.shape[0])

    @property
    def in_features(self) -> int:
        """Input width of the condensed weight."""
        return self.weight.shape[1]

    @property
    def sparsity(self) -> float:
        """Fraction of output rows pruned."""
        return 1.0 - self.kept_rows.size / self.out_features

    def to_dense(self) -> np.ndarray:
        """Reconstruct the full ``(out, in)`` matrix with zeros in pruned rows."""
        full = np.zeros((self.out_features, self.in_features), self.weight.dtype)
        full[self.kept_rows] = self.weight
        return full

    def matmul_condensed(self, x: np.ndarray) -> np.ndarray:
        """``x @ weightᵀ`` — output has only the kept columns (condensed)."""
        return x @ self.weight.T

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ W_fullᵀ`` semantics: condensed GEMM then scatter to full width."""
        y = np.zeros((*x.shape[:-1], self.out_features), dtype=np.result_type(x, self.weight))
        y[..., self.kept_rows] = self.matmul_condensed(x)
        return y


@dataclass
class CondensedColPruned:
    """Column-pruned weight matrix with pruned columns removed (Fig. 5(b)).

    Only the ``kept_cols`` of the *input* matter: the GEMM runs on
    ``X_adjusted = X[:, kept_cols]`` against the condensed dense weight.
    """

    weight: np.ndarray
    kept_cols: np.ndarray
    in_features: int

    def __post_init__(self) -> None:
        self.kept_cols = np.asarray(self.kept_cols, dtype=np.intp)
        if self.weight.shape[1] != self.kept_cols.shape[0]:
            raise ValueError("weight cols and kept_cols must agree")
        if self.kept_cols.size and self.kept_cols.max() >= self.in_features:
            raise ValueError("kept column index out of range")

    @classmethod
    def from_dense(cls, w: np.ndarray, col_mask: np.ndarray) -> "CondensedColPruned":
        """Condense a dense matrix given a boolean column-keep mask."""
        col_mask = np.asarray(col_mask, dtype=bool)
        if col_mask.shape != (w.shape[1],):
            raise ValueError("col_mask must have one entry per input column")
        kept = np.flatnonzero(col_mask)
        return cls(weight=np.ascontiguousarray(w[:, kept]), kept_cols=kept,
                   in_features=w.shape[1])

    @property
    def out_features(self) -> int:
        """Output width of the condensed weight."""
        return self.weight.shape[0]

    @property
    def sparsity(self) -> float:
        """Fraction of input columns pruned."""
        return 1.0 - self.kept_cols.size / self.in_features

    def to_dense(self) -> np.ndarray:
        """Reconstruct the full matrix with zeros in pruned columns."""
        full = np.zeros((self.out_features, self.in_features), self.weight.dtype)
        full[:, self.kept_cols] = self.weight
        return full

    def gather_input(self, x: np.ndarray) -> np.ndarray:
        """The pre-processing gather producing ``X_adjusted`` (a real copy —
        this is the overhead column pruning pays that tile pruning avoids)."""
        return np.ascontiguousarray(x[..., self.kept_cols])

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ W_fullᵀ`` semantics via the adjusted-input dense GEMM."""
        return self.gather_input(x) @ self.weight.T


@dataclass
class TileBCSR:
    """Hierarchical tile-sparse format: occupancy bitmap + BCSR tile store.

    Level 1: a (p, q) boolean ``bitmap`` marks which 16×16 tiles contain at
    least one nonzero. Level 2: the non-empty tiles are stored densely in
    block-compressed-sparse-row order (``tiles[row_ptr[i]:row_ptr[i+1]]`` are
    tile-row ``i``'s surviving tiles, at tile-columns ``col_idx``).

    Both irregular pruning (bitmap nearly full, tiles internally sparse) and
    tensor-tile pruning (bitmap sparse, tiles internally dense) use this
    container; the cost difference between them is in the consuming kernel.
    """

    shape: tuple[int, int]
    tile: tuple[int, int]
    bitmap: np.ndarray
    row_ptr: np.ndarray
    col_idx: np.ndarray
    tiles: np.ndarray  # (num_tiles, r, c)
    dtype: np.dtype = field(default=np.dtype(np.float32))

    #: Longest reduction (input columns) one slab GEMM runs over: 16 tiles
    #: at c = 16. Up to K = 256 OpenBLAS's Haswell dgemm gives each output
    #: row the same bits whatever the row count; from K = 448 it does not.
    _SLAB_K = 256
    #: Most multiply-adds per GEMM call: OpenBLAS runs a GEMM of up to 2^18
    #: of them on one thread, and hands larger ones to its thread pool,
    #: whose start-up costs more than these small products save.
    _GEMM_MACS = 1 << 18

    def __post_init__(self) -> None:
        r, c = self.tile
        per = max(1, self._SLAB_K // c)
        tiles_t = self.tiles.transpose(0, 2, 1)  # (num_tiles, c, r)
        lane = np.arange(c)
        self._slabs: list[tuple[int, bool, np.ndarray, np.ndarray, int]] = []
        for i in range(self.bitmap.shape[0]):
            lo, hi = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
            for k0 in range(lo, hi, per):
                k1 = min(k0 + per, hi)
                cols = (self.col_idx[k0:k1, None] * c + lane).ravel()
                rows = max(2, self._GEMM_MACS // (cols.size * r))
                self._slabs.append((i, k0 > lo, cols,
                                    tiles_t[k0:k1].reshape(-1, r), rows))

    @classmethod
    def from_dense(
        cls,
        w: np.ndarray,
        tile: tuple[int, int] = (TENSOR_TILE, TENSOR_TILE),
    ) -> "TileBCSR":
        """Build from a dense matrix: tiles that are entirely zero are dropped."""
        p, q = tile_grid_shape(w.shape, tile)
        tv = tile_view(w, tile)  # (p, q, r, c)
        occupied = (tv != 0).any(axis=(2, 3))
        row_ptr = np.zeros(p + 1, dtype=np.intp)
        np.cumsum(occupied.sum(axis=1), out=row_ptr[1:])
        col_idx = np.nonzero(occupied)[1]  # row-major order is CSR order
        kept = tv[occupied]  # (num_tiles, r, c) — copies only survivors
        return cls(
            shape=tuple(w.shape),
            tile=tile,
            bitmap=occupied,
            row_ptr=row_ptr,
            col_idx=np.asarray(col_idx, dtype=np.intp),
            tiles=np.ascontiguousarray(kept),
            dtype=w.dtype,
        )

    @property
    def num_tiles(self) -> int:
        """Count of stored (non-empty) tiles."""
        return self.tiles.shape[0]

    @property
    def tile_sparsity(self) -> float:
        """Fraction of tiles that were dropped entirely."""
        total = self.bitmap.size
        return 1.0 - self.num_tiles / total if total else 0.0

    @property
    def element_sparsity(self) -> float:
        """Fraction of *elements* that are zero (tiles may be internally sparse)."""
        total = self.shape[0] * self.shape[1]
        nnz = int((self.tiles != 0).sum())
        return 1.0 - nnz / total if total else 0.0

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense matrix (zeros at absent tiles)."""
        p, q = self.bitmap.shape
        r, c = self.tile
        tv = np.zeros((p, q, r, c), dtype=self.dtype)
        tv[self.bitmap] = self.tiles
        return untile_view(tv)

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ Wᵀ`` with one GEMM per slab (W is (out, in) = (p·r, q·c)).

        A slab is a run of up to ``_SLAB_K // c`` consecutive stored tiles
        of one tile-row ``i``; its weight is those tiles stacked into one
        ``(k·c, r)`` matrix and its input is the matching ``k·c`` columns
        of ``x``. The first slab of tile-row ``i`` writes output columns
        ``i·r:(i+1)·r``; later slabs add into them in CSR order. Absent
        tiles contribute nothing, so the result equals the dense masked
        product up to rounding.

        ``x`` is transposed once to ``(in, n)``, so a slab's gather copies
        contiguous rows and ``n`` is BLAS's column-major N dimension. Rows
        run in blocks sized per slab to keep every call within
        ``_GEMM_MACS``; no block has a single row, since numpy sends
        one-row products to gemv instead of gemm. With the slab cap this
        makes each output row independent of how many rows are batched
        together, which the packed path's bitwise equivalence relies on.
        """
        r, c = self.tile
        p, q = self.bitmap.shape
        lead = x.shape[:-1]
        n = int(np.prod(lead))
        out = np.zeros((n, p * r), dtype=np.result_type(x, self.tiles))
        xt = np.ascontiguousarray(x.reshape(n, q * c).T)
        for i, accumulate, cols, w, rows in self._slabs:
            xg = xt[cols]
            for r0, r1 in _row_blocks(n, rows):
                dst = out[r0:r1, i * r:(i + 1) * r]
                if accumulate:
                    dst += np.matmul(xg[:, r0:r1].T, w)
                else:
                    np.matmul(xg[:, r0:r1].T, w, out=dst)
        return out.reshape(*lead, p * r)


@functools.lru_cache(maxsize=256)
def _row_blocks(n: int, rows: int) -> tuple[tuple[int, int], ...]:
    """``[r0, r1)`` blocks of at most ``rows`` covering ``n`` rows, none of
    them a single row unless ``n`` is 1."""
    bounds = list(range(0, n, rows)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        bounds[-2] -= 1
    return tuple(zip(bounds[:-1], bounds[1:]))


def dense_from_mask(w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Reference semantics all sparse formats must match: element-wise mask."""
    if w.shape != mask.shape:
        raise ValueError("weight and mask shapes differ")
    return w * np.asarray(mask, dtype=w.dtype)
