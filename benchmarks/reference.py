"""Independent numpy reference for exact log p(x | ordering).

Written from the model definition, not from the package: all D masked
positions of one ordering are stacked into a (D x D) block and pushed
through the k shared-weight steps together, so it shares neither code nor
evaluation order with the package's one-position-at-a-time walk.
"""

from __future__ import annotations

import numpy as np

PROB_EPS = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_prob_ordering(W, c, V, b, mean, k: int, x, perm, activation: str = "tanh") -> float:
    """Chain sum of log conditionals of ``x`` along ``perm`` (one hidden layer).

    Row d of the block has coordinates perm[:d] observed and the rest
    missing; its output at coordinate perm[d] is the d-th conditional.
    """
    x = np.asarray(x, dtype=np.float64)
    perm = np.asarray(perm, dtype=np.int64)
    D = x.shape[0]
    rank = np.empty(D, dtype=np.int64)
    rank[perm] = np.arange(D)
    missing = (rank[None, :] >= np.arange(D)[:, None]).astype(np.float64)
    observed = 1.0 - missing
    phi = np.tanh if activation == "tanh" else _sigmoid
    v = missing * mean[None, :] + observed * x[None, :]
    for _ in range(k):
        h = phi(v @ W.T + c)
        v = missing * _sigmoid(h @ V.T + b) + observed * x[None, :]
    p = np.clip(v[np.arange(D), perm], PROB_EPS, 1.0 - PROB_EPS)
    bits = x[perm]
    return float(np.sum(np.where(bits == 1.0, np.log(p), np.log(1.0 - p))))
