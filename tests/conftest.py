"""Shared fixtures and the synthetic pattern dataset used across tests."""

import numpy as np
import pytest

from nadek import Rng, StructureConfig, init_params

# four well-separated prototypes over 16 bits
PATTERNS = np.array(
    [
        [1] * 8 + [0] * 8,
        [0] * 8 + [1] * 8,
        [1, 0] * 8,
        [1, 1, 0, 0] * 4,
    ],
    dtype=np.float64,
)


def four_pattern_data(count: int, seed: int, flip: float = 0.05) -> np.ndarray:
    """Uniform pattern choice, then independent per-bit flips."""
    rng = Rng(seed).stream("dataset")
    out = np.empty((count, 16))
    for i in range(count):
        p = PATTERNS[rng.next_below(4)].copy()
        for j in range(16):
            if rng.next_float() < flip:
                p[j] = 1.0 - p[j]
        out[i] = p
    return out


def random_model(
    D: int,
    hidden1: int,
    k: int = 1,
    hidden2: int | None = None,
    activation: str = "tanh",
    seed: int = 0,
    spread: float = 1.0,
):
    """A config plus fully randomized params (biases included)."""
    config = StructureConfig(
        D=D, hidden1=hidden1, k=k, hidden2=hidden2, activation=activation
    )
    params = init_params(config, Rng(seed).stream("init"))
    fill = Rng(seed).stream("fill")
    for tensor in params.tensors().values():
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            flat[i] = fill.uniform(-spread, spread)
    return params, config


@pytest.fixture(scope="session")
def synthetic_splits():
    return (
        four_pattern_data(2000, 101),
        four_pattern_data(500, 102),
        four_pattern_data(500, 103),
    )


def windows(rng: Rng, rows: int, per_row: int) -> list[Rng]:
    """``rows`` generators over consecutive windows of ``per_row`` draws of ``rng``.

    Generator r starts at draw ``rng.counter + r * per_row`` of ``rng``'s
    stream, and ``rng`` then moves past all of them.  A block call whose
    rows each read ``per_row`` draws from their own generator so makes the
    draws of ``rows`` one-row calls in a loop over ``rng``.
    """
    out = []
    for r in range(rows):
        window = Rng(rng.seed)
        window.counter = rng.counter + r * per_row
        out.append(window)
    rng.counter += rows * per_row
    return out


def index_counts(x: np.ndarray) -> np.ndarray:
    """How often each 0/1 row of ``x`` occurs, indexed by the row read as a
    binary number whose bit j is column j."""
    index = (x @ (1 << np.arange(x.shape[1]))).astype(np.int64)
    return np.bincount(index, minlength=1 << x.shape[1]).astype(np.float64)
