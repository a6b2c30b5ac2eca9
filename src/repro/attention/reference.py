"""Reference attention numerics (Equation 3) — no GPU cost accounting.

Every costed implementation in this package must match these results; the
cross-implementation equivalence tests enforce it.
"""

from __future__ import annotations

import numpy as np

from repro.ops.softmax import softmax


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """``(s, d)`` token-major activations to ``(H, s, d_k)`` head-major."""
    s, d = x.shape
    if d % num_heads:
        raise ValueError(f"d_model {d} not divisible by H={num_heads}")
    return x.reshape(s, num_heads, d // num_heads).transpose(1, 0, 2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """``(H, s, d_k)`` back to concatenated ``(s, d)`` (the ‖ operator)."""
    h, s, dk = x.shape
    return x.transpose(1, 0, 2).reshape(s, h * dk)


def reference_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """``softmax(Q·Kᵀ/√d_k + mask) · V`` per head.

    Parameters
    ----------
    q, k, v:
        Head-major ``(H, s, d_k)`` arrays.
    mask:
        Optional additive ``(s, s)`` mask, shared across heads.

    Returns
    -------
    ``(H, s, d_k)`` attention output Z.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"q/k/v shapes differ: {q.shape} {k.shape} {v.shape}")
    d_k = q.shape[-1]
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(float(d_k))
    if mask is not None:
        scores = scores + mask
    return softmax(scores, axis=-1) @ v
