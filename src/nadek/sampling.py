"""Ancestral sampling and conditional imputation of missing components.

A sample is drawn one coordinate at a time along an ordering: run the
inference pass with the still-unvisited coordinates masked missing,
Bernoulli-draw the current coordinate from its conditional, then clamp
it as observed.  Conditioning on known values only changes the ordering:
observed indices are visited first, so the remaining draws follow
p(x_mis | x_obs).  Many rows take each step together as one block, each
along its own ordering and from its own generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .evaluation import Ordering, conditional_ordering
from .model import ModelParams, StructureConfig, _check_binary, _conditionals
from .numerics import BLOCK_ROWS, ContractError, Rng, map_in_order

__all__ = [
    "SampleBatch",
    "ancestral_sample",
    "inpaint",
    "sample_from_mixture",
]


@dataclass
class SampleBatch:
    vectors: np.ndarray
    orderings_used: tuple[Ordering, ...]


def _walk(
    params: ModelParams,
    config: StructureConfig,
    x: np.ndarray,
    perms: np.ndarray,
    start: int,
    mean: np.ndarray,
    rngs: list[Rng],
    threads: int = 1,
) -> np.ndarray:
    """Keep x[r, perms[r, :start]] and draw the rest of each row r in place.

    The kept indices must be the same set in every row.  Row r takes one
    uniform per position from rngs[r] alone, all drawn before the walk
    starts, and a bit is 1 when its uniform falls below the conditional
    (``Rng.bernoulli``).  Rows walk in fixed blocks of BLOCK_ROWS in index
    order, the unit of work for ``threads`` workers.  Draws use the clamped
    conditional, so every produced vector has finite log-probability under
    evaluation.

    The kept coordinates are folded into a per-row hidden bias
    c + W[:, kept] @ x[r, kept] once per block, and the walk runs on the
    other coordinates alone.  After each draw, step 1's pre-activation
    moves by W[:, i] * (x_i - mean_i), and the last step is read at the
    drawn coordinate only.
    """
    D = config.D
    params.check_shapes(config)
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (D,):
        raise ContractError("mean must have length D")
    kept = np.sort(perms[:1, :start].ravel())
    _check_binary(x[:, kept], "observed values")
    free = np.sort(perms[:1, start:].ravel())
    col = np.empty(D, dtype=np.int64)
    col[free] = np.arange(len(free))
    sub = replace(params, W=params.W[:, free], V=params.V[free], b=params.b[free])
    mean = mean[free]

    def block(lo: int) -> None:
        span = slice(lo, lo + BLOCK_ROWS)
        u = np.array([rng.uniform_array(len(free)) for rng in rngs[span]])
        order = col[perms[span, start:]]
        bias = params.c + x[span, kept] @ params.W[:, kept].T
        a1 = bias + sub.W @ mean
        mask = np.ones(order.shape)
        drawn = np.zeros(order.shape)
        rows = np.arange(len(order))
        for t in range(len(free)):
            i = order[:, t]
            bit = (u[:, t] < _conditionals(sub, config, a1, mask, drawn, bias, config.k, i)) * 1.0
            drawn[rows, i] = bit
            mask[rows, i] = 0.0
            a1 += sub.W[:, i].T * (bit - mean[i])[:, None]
        x[span, free] = drawn

    map_in_order(block, range(0, x.shape[0], BLOCK_ROWS), threads)
    return x


def ancestral_sample(
    params: ModelParams,
    config: StructureConfig,
    o: Ordering,
    mean: np.ndarray,
    rng: Rng,
) -> np.ndarray:
    """One binary vector drawn along the ordering; exactly D forwards."""
    D = config.D
    if len(o.perm) != D:
        raise ContractError("ordering length does not match D")
    return _walk(params, config, np.zeros((1, D)), np.array([o.perm]), 0, mean, [rng])[0]


def sample_from_mixture(
    params: ModelParams,
    config: StructureConfig,
    count: int,
    mean: np.ndarray,
    rng: Rng,
    threads: int = 1,
) -> SampleBatch:
    """Independent draws, each under a fresh uniform ordering.

    Sample i consumes its own child stream of the given generator's seed,
    and samples are drawn in fixed blocks of BLOCK_ROWS, so batches are
    reproducible and independent of any scheduling.
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    D = config.D
    subs = [rng.stream("sample", i) for i in range(count)]
    perms = np.array([sub.permutation(D) for sub in subs])
    vectors = _walk(params, config, np.zeros((count, D)), perms, 0, mean, subs, threads)
    orderings = tuple(Ordering(perm=tuple(perm)) for perm in perms)
    return SampleBatch(vectors=vectors, orderings_used=orderings)


def inpaint(
    params: ModelParams,
    config: StructureConfig,
    x_obs: np.ndarray,
    obs_indices: list[int],
    mean: np.ndarray,
    rng: Rng | list[Rng],
) -> np.ndarray:
    """Fill the unobserved coordinates by conditional ancestral sampling.

    ``x_obs`` is one row of length D with one generator, or a B x D block
    with a list of B generators, one per row.  Observed coordinates are
    returned bit-exact.  Each row's visit order puts the observed indices
    first (in random order, from that row's generator), so the draws
    follow the conditional distribution given the observations.
    """
    D = config.D
    x_obs = np.asarray(x_obs, dtype=np.float64)
    rngs = [rng] if isinstance(rng, Rng) else list(rng)
    if x_obs.shape[-1:] != (D,) or x_obs.size != D * len(rngs):
        raise ContractError("x_obs must hold one row of length D per generator")
    x = x_obs.reshape(len(rngs), D).copy()
    perms = np.array([conditional_ordering(D, obs_indices, r).perm for r in rngs])
    _walk(params, config, x, perms, len(obs_indices), mean, rngs)
    return x.reshape(x_obs.shape)
