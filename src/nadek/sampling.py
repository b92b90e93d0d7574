"""Ancestral sampling and conditional imputation of missing components.

A sample is drawn one coordinate at a time along an ordering: run the
inference pass with the still-unvisited coordinates masked missing,
Bernoulli-draw the current coordinate from its conditional, then clamp
it as observed.  Conditioning on known values folds them into the hidden
bias, and the walk visits only the missing coordinates, so the draws
follow p(x_mis | x_obs).  Many rows take each step together as one block,
each along its own visit order and from its own generator.  A block works
only on the coordinates that at least one of its rows has still to draw,
and narrows to them again every BLOCK_ROWS positions; the rest are folded
into each row's hidden bias.  Every sampler returns its rows as one
rows x D array.
"""

from __future__ import annotations

import numpy as np

from .evaluation import Ordering
from .model import ModelParams, StructureConfig, _check_mean, _check_rows, _conditionals, _Net
from .model import _gather_columns, _step_buffers, _step_space
from .numerics import BLOCK_ROWS, ContractError, Rng, _as_data, map_in_order

__all__ = [
    "ancestral_sample",
    "inpaint",
    "sample_from_mixture",
]


def _slice(params: ModelParams, cols: np.ndarray, c: np.ndarray) -> _Net:
    """The model on coordinates ``cols`` alone, with hidden bias ``c``.

    The W and V slices are gathered from ``params`` a few columns at a
    time into arrays of their own, so no weight-sized temporary is made.
    W's slice is in the F order of the column gather ``W[:, cols]``, and V's
    is column-major: the decoder product ``top @ V.T`` is fastest on it
    when a block has few rows, and no slower when it has many.
    """
    W = _gather_columns(params.W, cols, np.empty((len(cols), params.W.shape[0])).T)
    V = _gather_columns(params.V.T, cols, np.empty((params.V.shape[1], len(cols)))).T
    return _Net(W, c, V, params.b[cols], params.W2, params.c2)


def _walk(
    params: ModelParams,
    config: StructureConfig,
    x: np.ndarray,
    kept: np.ndarray,
    orders: np.ndarray,
    mean: np.ndarray,
    rngs: list[Rng],
    threads: int = 1,
) -> np.ndarray:
    """Keep x[:, kept] and draw the other coordinates of each row r in place.

    ``kept`` holds the observed coordinates of every row, in ascending
    order, and orders[r] is row r's visit order over the other coordinates.
    ``x`` is float64 or, for 0/1 data, uint8: a block's kept columns are
    widened to float64 where they are read.
    Row r takes one uniform per position from rngs[r] alone, all drawn
    before the walk starts, and a bit is 1 when its uniform falls below the
    conditional (``Rng.bernoulli``).  Rows walk in fixed blocks of
    BLOCK_ROWS in index order, the unit of work for ``threads`` workers.
    Draws use the clamped conditional, so every produced vector has finite
    log-probability under evaluation.

    The kept coordinates are folded into a per-row hidden bias
    c + W[:, kept] @ x[r, kept] once per block, and the walk runs on the
    other coordinates alone.  Every BLOCK_ROWS positions the block narrows
    again, to the coordinates that at least one of its rows has still to
    draw; the columns that leave have been drawn in every row, and their
    W[:, left] @ x[r, left] joins row r's bias.  After each draw, step 1's
    pre-activation moves by W[:, i] * (x_i - mean_i), and the last step is
    read at the drawn coordinate only.
    """
    D = config.D
    # the kept columns alone: an unobserved slot may hold anything
    _check_rows(x[:, kept], len(kept), "observed values")
    params.check_shapes(config)
    mean = _check_mean(mean, D)
    free = np.sort(orders[0])
    col = np.empty(D, dtype=np.int64)
    col[free] = np.arange(len(free))

    def block(lo: int) -> None:
        span = slice(lo, lo + BLOCK_ROWS)
        u = np.array([rng.uniform_array(len(free)) for rng in rngs[span]])
        # live[j] is the coordinate at column j of the current slice, and
        # order holds each row's visit order as slice columns
        live, mu = free, mean[free]
        obs = x[span, kept].astype(np.float64, copy=False)
        sub = _slice(params, free, params.c + obs @ params.W[:, kept].T)
        order = col[orders[span]]
        a1 = sub.c + sub.W @ mu
        mask = np.ones(order.shape)
        drawn = np.zeros(order.shape)
        rows = np.arange(len(order))
        # one set of step buffers for every position, narrowed with the block
        space = _step_space(config, len(rows), len(free))
        out = _step_buffers(config, space, len(rows), len(free))
        for t in range(len(free)):
            if t and t % BLOCK_ROWS == 0:
                keep = mask.any(axis=0)
                if not keep.all():
                    gone = ~keep
                    x[span, live[gone]] = drawn[:, gone]
                    c = sub.c + drawn[:, gone] @ sub.W[:, gone].T
                    live, mu, mask, drawn = live[keep], mu[keep], mask[:, keep], drawn[:, keep]
                    # positions before t are not read again
                    order = (np.cumsum(keep) - 1)[order]
                    del sub  # free the old slice before the new one is built
                    sub = _slice(params, live, c)
                    out = _step_buffers(config, space, len(rows), len(live))
            i = order[:, t]
            bit = (u[:, t] < _conditionals(sub, config, a1, mask, drawn, out, i)) * 1.0
            drawn[rows, i] = bit
            mask[rows, i] = 0.0
            a1 += sub.W[:, i].T * (bit - mu[i])[:, None]
        x[span, live] = drawn

    map_in_order(block, range(0, x.shape[0], BLOCK_ROWS), threads)
    return x


def ancestral_sample(
    params: ModelParams,
    config: StructureConfig,
    o: Ordering,
    mean: np.ndarray,
    rngs: list[Rng],
) -> np.ndarray:
    """len(rngs) binary vectors drawn along the ordering, row r from rngs[r]; D forwards a row."""
    D = config.D
    if len(o.perm) != D:
        raise ContractError("ordering length does not match D")
    x, none = np.zeros((len(rngs), D)), np.empty(0, np.int64)
    return _walk(params, config, x, none, np.broadcast_to(o.perm, x.shape), mean, rngs)


def sample_from_mixture(
    params: ModelParams,
    config: StructureConfig,
    count: int,
    mean: np.ndarray,
    rng: Rng,
    threads: int = 1,
) -> np.ndarray:
    """count independent draws, each under a fresh uniform ordering.

    Sample i consumes its own child stream ``rng.stream("sample", i)`` of
    the given generator's seed: first its ordering, ``permutation(D)``,
    then its draws.  Samples are drawn in fixed blocks of BLOCK_ROWS, so
    batches are reproducible and independent of any scheduling.
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    D = config.D
    subs = [rng.stream("sample", i) for i in range(count)]
    orders = np.array([sub.permutation(D) for sub in subs])
    x, none = np.zeros((count, D)), np.empty(0, np.int64)
    return _walk(params, config, x, none, orders, mean, subs, threads)


def inpaint(
    params: ModelParams,
    config: StructureConfig,
    x_obs: np.ndarray,
    obs_indices: list[int],
    mean: np.ndarray,
    rngs: list[Rng],
) -> np.ndarray:
    """Fill the unobserved coordinates by conditional ancestral sampling.

    ``x_obs`` is a B x D block and ``rngs`` holds B generators, one per
    row.  Observed coordinates are returned bit-exact, in a new block that
    is uint8 when ``x_obs`` is (0/1 bytes) and float64 otherwise.  The
    observed values are folded into the walk, and each row visits the
    missing coordinates in a uniform random order from its own generator,
    so the draws follow the conditional distribution given the
    observations.
    """
    D = config.D
    x = np.array(_as_data(x_obs))
    if x.shape != (len(rngs), D):
        raise ContractError("x_obs must hold one row of length D per generator")
    if len(set(obs_indices)) != len(obs_indices):
        raise ContractError("observed indices must be distinct")
    if any(i < 0 or i >= D for i in obs_indices):
        raise ContractError(f"observed index outside 0..{D - 1}")
    observed = np.zeros(D, dtype=bool)
    observed[list(obs_indices)] = True
    mis = np.flatnonzero(~observed)
    orders = np.empty((len(rngs), len(mis)), dtype=np.int64)
    for r, rng in enumerate(rngs):
        # skip the draws a shuffle of the observed indices takes, so every
        # seeded output keeps the bits of rows that visited them first
        rng.counter += max(len(obs_indices) - 1, 0)
        orders[r] = mis[rng.permutation(len(mis))]
    return _walk(params, config, x, np.flatnonzero(observed), orders, mean, rngs)
