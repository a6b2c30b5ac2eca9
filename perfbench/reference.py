"""Independent NumPy forward pass of a post-LN BERT encoder stack.

The benchmark checks the program's outputs against this, so it shares no
code with the package under test: it reads only the weight arrays of each
layer (``wq``/``bq`` … ``fc2_w``/``fc2_b``, ``ln1_g`` … ``ln2_b``), stored
as ``(out_features, in_features)`` matrices with pruned entries already
zeroed.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def _gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU, the BERT convention."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                    * (x + 0.044715 * x ** 3)))


def _attention(x: np.ndarray, lw, num_heads: int) -> np.ndarray:
    s, d = x.shape
    dk = d // num_heads

    def heads(w, b):
        return (x @ w.T + b).reshape(s, num_heads, dk).transpose(1, 0, 2)

    q, k, v = heads(lw.wq, lw.bq), heads(lw.wk, lw.bk), heads(lw.wv, lw.bv)
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(dk)
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=-1, keepdims=True)
    return (p @ v).transpose(1, 0, 2).reshape(s, d)


def encoder_forward(layers, num_heads: int, x: np.ndarray) -> np.ndarray:
    """Run ``x`` of shape ``(s, d_model)`` through every layer, unmasked."""
    y = np.asarray(x, dtype=np.float64)
    for lw in layers:
        z = _attention(y, lw, num_heads)
        y = _layer_norm(y + z @ lw.wo.T + lw.bo, lw.ln1_g, lw.ln1_b)
        h = _gelu(y @ lw.fc1_w.T + lw.fc1_b)
        y = _layer_norm(y + h @ lw.fc2_w.T + lw.fc2_b, lw.ln2_g, lw.ln2_b)
    return y
