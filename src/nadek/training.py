"""Stochastic training of the iterative-inference model.

The training signal is an unbiased estimator of the order-averaged
negative log-likelihood: draw a position d uniformly, mark a uniform
random subset of d-1 components observed, and score the reconstruction
of the rest with a scaled cross-entropy

    loss = D/(D-d+1) * sum_{i missing} ce(v_k[i], x[i]).

The pretraining variant averages the same scaled term over every
intermediate state v_1 .. v_k instead of only the last.  Gradients are
exact: backpropagation walks the k unrolled steps in reverse and
accumulates into the shared tensors.  Updates use AdaDelta with optional
L2 weight decay on the weight matrices.

A minibatch is one B x D block with one mask per row: the forward pass,
the loss and the gradient each run over the whole block at once, and the
gradient is a sum of matrix-matrix products over the rows.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .data import minibatches
from .model import ModelParams, StructureConfig, Trajectory, _check_rows
from .model import _forward, _trajectory_buffers, _widths, init_params
from .numerics import BLOCK_ROWS, PROB_EPS, ContractError, Rng, _below, _clamp, single_threaded_blas

__all__ = [
    "AdaDeltaState",
    "TrainConfig",
    "TrainResult",
    "adadelta_step",
    "add_weight_decay",
    "backward",
    "sample_mask",
    "stochastic_loss",
    "train",
]

OBJECTIVES = ("finetune", "pretrain")

#: AdaDelta's default decay rate and conditioning constant.
RHO = 0.95
EPSILON = 1e-6


def _check_adadelta(rho: float, epsilon: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ContractError("rho must lie in (0, 1)")
    if not 0.0 < epsilon < np.inf:
        raise ContractError("epsilon must be positive and finite")


@dataclass
class AdaDeltaState:
    """Per-parameter running averages E[g^2] and E[dx^2]."""

    eg2: ModelParams
    edx2: ModelParams
    rho: float = RHO
    epsilon: float = EPSILON

    def __post_init__(self):
        _check_adadelta(self.rho, self.epsilon)

    @classmethod
    def zeros_like(
        cls, params: ModelParams, rho: float = RHO, epsilon: float = EPSILON
    ) -> "AdaDeltaState":
        return cls(eg2=params.zeros_like(), edx2=params.zeros_like(), rho=rho, epsilon=epsilon)


@dataclass
class TrainConfig:
    """Optimization hyperparameters; structure lives in StructureConfig."""

    minibatch_size: int = 100
    pretrain_epochs: int = 0
    finetune_epochs: int = 0
    weight_decay: float = 0.0
    patience: int = 0
    seed: int = 0
    rho: float = RHO
    epsilon: float = EPSILON

    def __post_init__(self):
        if self.minibatch_size < 1:
            raise ContractError("minibatch_size must be >= 1")
        _check_adadelta(self.rho, self.epsilon)
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ContractError("epoch counts must be >= 0")
        if self.patience < 0:
            raise ContractError("patience must be >= 0")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ContractError("weight_decay must be >= 0 and finite")


@dataclass
class TrainResult:
    params: ModelParams
    history: list[str] = field(default_factory=list)
    mean: np.ndarray | None = None
    best_valid: float | None = None
    epochs_run: int = 0


def sample_mask(rng: Rng, D: int, rows: int) -> np.ndarray:
    """A rows x D mask block: 1 marks a missing component, 0 an observed one.

    Each row draws d uniform on {1..D}, then d-1 observed indices without
    bias: the prefix of a partial Fisher-Yates shuffle, so every
    (d-1)-subset is equally likely, and d = D + 1 - (row sum).  Each row
    consumes exactly D draws of one bulk draw: draw 0 gives d, draw 1 + i
    gives swap i, which exchanges slots i and i + below(D - i) of the
    row's index list 0..D-1, and the draws after swap d-2 are skipped.
    Row r reads draws r*D .. r*D+D-1 alone, so it equals a one-row block
    drawn with the counter at r*D, and the rows of one call for several
    consecutive blocks are the masks of one call per block.  No rows
    consume no draws.

    The swaps run slot-major: with the rows sorted by decreasing d, the
    rows still swapping at step i are a prefix, and step i moves slot i of
    each of them as one slice.
    """
    if D < 1:
        raise ContractError("D must be >= 1")
    if rows < 0:
        raise ContractError("rows must be >= 0")
    if rows == 0:
        return np.ones((0, D))
    # draw 0 of a row is bounded by D, draw 1 + i by D - i
    bounds = np.concatenate(([D], np.arange(D, 1, -1)))
    draws = _below(rng.uint64_array(rows * D).reshape(rows, D), bounds).astype(np.int64)
    # the result is allocated below the swap arrays, so that they leave one
    # free block behind them
    mask = np.ones((rows, D))
    d = draws[:, 0] + 1
    order = np.argsort(-d, kind="stable")
    swaps = int(d.max()) - 1
    # active[i]: rows still swapping at step i, a prefix of the sorted rows
    active = (rows - np.cumsum(np.bincount(d - 1, minlength=D)))[:swaps]
    # slot i of sorted row r sits at i * rows + r and holds the flat mask
    # position order[r] * D + (the index in that slot); target[i, r] is
    # the flat slot that swap i of sorted row r exchanges with slot i
    target = np.ascontiguousarray(draws[order, 1 : swaps + 1].T)
    # the draws are spent: free them before the index list is built
    del draws
    idx = (np.arange(D)[:, None] + order * D).ravel()
    target += np.arange(swaps)[:, None]
    target *= rows
    target += np.arange(rows)
    for i, n in enumerate(active.tolist()):
        here = idx[i * rows : i * rows + n]
        there = target[i, :n]
        held = here.copy()
        here[...] = idx[there]
        idx[there] = held
    # a row past its d-1 swaps is never touched again, so slot i of the
    # first active[i] sorted rows is observed
    observed = np.arange(rows) < active[:, None]
    mask.ravel()[idx[: swaps * rows].reshape(swaps, rows)[observed]] = 0.0
    return mask


def _row_ce(v: np.ndarray, x: np.ndarray, m: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # cross-entropy over the missing components of each row (last axis),
    # through the buffers p and q shaped like v; observed slots hold the
    # exact input bit, which the clamp keeps finite.  For binary x,
    # q = |(1-x) - p| is exactly p or 1 - p, so -log(q) equals
    # -x*log(p) - (1-x)*log(1-p) bit for bit (the other term is +-0).
    # Negation is exact and rounding symmetric, so the negated row sums of
    # log(q) * m have the bits of the row sums of -log(q) * m
    _clamp(v, p)
    np.subtract(1.0, x, out=q)
    q -= p
    np.absolute(q, out=q)
    np.log(q, out=q)
    q *= m
    return -np.add.reduce(q, axis=-1)


def _row_scale(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-row estimator scale D / (number of missing components), into ``out``."""
    np.add.reduce(m, axis=-1, out=out)
    return np.divide(m.shape[-1], out, out=out)


def stochastic_loss(traj: Trajectory, x: np.ndarray, objective: str = "finetune") -> float:
    """Scaled cross-entropy over the missing components, summed over the block's rows.

    The mask is the trajectory's.  "finetune" scores the final state;
    "pretrain" averages the same scaled term over every step's
    reconstruction v_1 .. v_k, and equals "finetune" at k=1.
    """
    if objective not in OBJECTIVES:
        raise ContractError(f"objective must be one of {OBJECTIVES}")
    gamma = _row_scale(traj.mask, np.empty(traj.mask.shape[:-1]))
    return _loss(traj, x, objective, gamma, *np.empty((2, *traj.mask.shape)))


def _loss(traj: Trajectory, x: np.ndarray, objective: str, gamma, p, q) -> float:
    """:func:`stochastic_loss`, unchecked, with the row scale ``gamma`` given
    and the temporaries in ``p`` and ``q``, shaped like a state."""
    m = traj.mask
    if objective == "pretrain":
        k = traj.k_used
        total = sum(_row_ce(traj.v_states[t], x, m, p, q) for t in range(1, k + 1))
        return float(np.add.reduce(gamma * total / k))
    return float(np.add.reduce(gamma * _row_ce(traj.v_states[-1], x, m, p, q)))


def _phi_prime(h: np.ndarray, activation: str, out: np.ndarray) -> np.ndarray:
    # derivative expressed through the stored activation value, into out
    if activation == "tanh":
        out = np.multiply(h, h, out=out)
        return np.subtract(1.0, out, out=out)
    out = np.subtract(1.0, h, out=out)
    return np.multiply(h, out, out=out)


def _accumulate(w, c, delta, inputs, scratch) -> None:
    """w (+)= delta.T @ inputs and c (+)= the column sums of delta.

    With ``scratch`` None these are the first terms, written into w and c
    themselves; otherwise the product goes through ``scratch`` and is then
    added.
    """
    if scratch is None:
        np.matmul(delta.T, inputs, out=w)
        np.add.reduce(delta, axis=0, out=c)
    else:
        w += np.matmul(delta.T, inputs, out=scratch[: w.size].reshape(w.shape))
        c += np.add.reduce(delta, axis=0, out=scratch[: c.size])


class _Workspace:
    """Block buffers made once per training run and reused by every
    minibatch and validation chunk.

    The buffers hold blocks of ``rows`` rows; :meth:`head` cuts them for a
    shorter block.  ``x`` takes a block widened to float64, ``out`` its
    trajectory and ``gamma`` its row scale.  The three rows x D blocks of
    ``work`` serve in turn: in the forward pass work[0] and work[1] hold
    keep_x and the sigmoid's temporary, in the loss its two
    temporaries, while a validation chunk's widened mask sits in work[2];
    in backward they are dz, dv and tmp; in the AdaDelta update the front
    of ``flat``, the array behind them, holds its two chunk temporaries
    (``spare`` elements).
    ``dh[i]`` and ``da[i]`` take backward's gradient at hidden layer i's
    activations and pre-activations, and ``clamp_tests`` its two clamp
    range tests.

    So between blocks a run holds what a step holds at its peak, in
    backward, less backward's |W|-sized scratch: each call makes that, so
    that the mask draws between steps reuse its memory.  :func:`backward`
    makes a workspace per call; the buffers a call does not use are never
    written, so they take address space, not memory.
    """

    def __init__(self, config: StructureConfig, rows: int, spare: int = 0):
        self.flat = np.empty(max(3 * rows * config.D, spare))
        self.work = list(self.flat[: 3 * rows * config.D].reshape(3, rows, config.D))
        self.x = np.empty((rows, config.D))
        self.out = _trajectory_buffers(config, rows)
        self.clamp_tests = np.empty((2, rows, config.D), dtype=bool)
        self.dh = [np.empty((rows, w)) for w in _widths(config)]
        self.da = [np.empty((rows, w)) for w in _widths(config)]
        self.gamma = np.empty(rows)

    def head(self, n: int) -> "_Workspace":
        """This workspace for a block of its full size, else a copy whose
        blocks are views of their first n rows."""
        if n == len(self.x):
            return self
        cut = copy.copy(self)
        cut.x, cut.gamma, cut.clamp_tests = self.x[:n], self.gamma[:n], self.clamp_tests[:, :n]
        cut.work, cut.dh, cut.da = ([a[:n] for a in arrays] for arrays in (self.work, self.dh, self.da))
        v, h = self.out.v_states, self.out.h_states
        cut.out = Trajectory([a[:n] for a in v], [tuple(a[:n] for a in step) for step in h], None)
        return cut


def backward(
    params: ModelParams,
    config: StructureConfig,
    traj: Trajectory,
    x: np.ndarray,
    objective: str,
    *,
    out: ModelParams | None = None,
) -> ModelParams:
    """Exact gradient of the chosen loss, summed over the rows of the block.

    ``x`` is the block the trajectory was run on, under the trajectory's
    mask.  All k steps accumulate into the shared tensors, one
    matrix-matrix product per tensor and step.  Observed coordinates carry
    no gradient: the clamp replaces them with constants at every step.
    Coordinates whose output probability left the clamp range contribute
    zero loss gradient, matching the clamped loss exactly.

    The steps write into the buffers of a workspace, the same for every
    step, and every expression keeps its order of operations, so the
    values equal the plain expressions bit for bit, up to the sign of a
    zero: the first term of each sum (a tensor's product at step k, the
    scored term at step k) is taken as it is rather than added to 0.0, so
    a -0.0 there stays -0.0 where 0.0 + -0.0 would give +0.0.

    The gradient is written into ``out``, params-shaped, overwriting every
    entry, and returned; without ``out`` it goes into ``params.zeros_like()``.
    BLAS runs on one thread, so the bits do not depend on its thread count.
    """
    if objective not in OBJECTIVES:
        raise ContractError(f"objective must be one of {OBJECTIVES}")
    x = np.asarray(x, dtype=np.float64)
    m = traj.mask
    if x.shape != m.shape:
        raise ContractError(f"x{x.shape} does not match the trajectory's mask{m.shape}")
    ws = _Workspace(config, len(x))
    grads = params.zeros_like() if out is None else out
    with single_threaded_blas():
        return _backward(params, config, traj, x, objective, _row_scale(m, ws.gamma), grads, ws)


def _backward(params, config, traj, x, objective, gamma, grads, ws: _Workspace) -> ModelParams:
    """The body of :func:`backward`, unchecked, with the row scale ``gamma``
    given; its block buffers are those of ``ws``."""
    m, k, act = traj.mask, traj.k_used, config.activation
    # per-row loss weight of each scored step's reconstruction
    coeff = (gamma / k if objective == "pretrain" else gamma)[:, None]
    dz, dv, tmp, inclamp, below_top = (*ws.work, *ws.clamp_tests)
    # products after a tensor's first go through scratch
    scratch = np.empty(max(t.size for t in params.tensors().values())) if k > 1 else None
    for t in range(k, 0, -1):
        s = traj.v_states[t]
        # dv is the gradient reaching v_t from step t + 1; none at t = k
        if t < k:
            np.multiply(m, dv, out=dz)
            dz *= s
            np.subtract(1.0, s, out=tmp)
            dz *= tmp
        if objective == "pretrain" or t == k:
            np.greater(s, PROB_EPS, out=inclamp)
            np.less(s, 1.0 - PROB_EPS, out=below_top)
            inclamp &= below_top
            # coeff * m * (s - x) * inclamp, dz itself at t = k; dv is free
            # until step t - 1
            term = np.multiply(coeff, m, out=dz if t == k else tmp)
            np.subtract(s, x, out=dv)
            term *= dv
            term *= inclamp
            if t < k:
                dz += term
        hidden = traj.h_states[t - 1]
        into = None if t == k else scratch
        _accumulate(grads.V, grads.b, dz, hidden[-1], into)
        dtop = np.matmul(dz, params.V, out=ws.dh[-1])
        da = _phi_prime(hidden[-1], act, ws.da[-1])
        da *= dtop
        if config.n == 3:
            _accumulate(grads.W2, grads.c2, da, hidden[0], into)
            dh1 = np.matmul(da, params.W2, out=ws.dh[0])
            da = _phi_prime(hidden[0], act, ws.da[0])
            da *= dh1
        _accumulate(grads.W, grads.c, da, traj.v_states[t - 1], into)
        if t > 1:
            np.matmul(da, params.W, out=dv)
    return grads


def add_weight_decay(grads: ModelParams, params: ModelParams, lam: float) -> ModelParams:
    """L2 penalty gradient 2*lam*w on weight matrices; biases untouched."""
    if not 0.0 <= lam < np.inf:
        raise ContractError("weight decay must be >= 0 and finite")
    if lam != 0.0:
        weights = [(grads.W, params.W), (grads.V, params.V)]
        if grads.W2 is not None:
            weights.append((grads.W2, params.W2))
        # a chunk at a time through one buffer, so no weight-sized temporary is made
        n = min(_ADADELTA_CHUNK, max(w.size for _, w in weights))
        space = np.empty(n)
        for g, w in weights:
            g, w = g.reshape(-1), w.reshape(-1)
            for lo in range(0, w.size, n):
                part = w[lo : lo + n]
                g[lo : lo + n] += np.multiply(2.0 * lam, part, out=space[: part.size])
    return grads


#: Elements per slice of a large tensor's AdaDelta update, so that a slice
#: of each array the update reads and writes stays in cache across its passes.
_ADADELTA_CHUNK = 1 << 15


def _adadelta_update(p, g, eg2, edx2, rho, eps, tmp, delta) -> None:
    """The AdaDelta update of one slice, in place, through buffers ``tmp`` and ``delta``."""
    np.multiply(1.0 - rho, g, out=tmp)
    tmp *= g
    eg2 *= rho
    eg2 += tmp
    # delta is the step's magnitude, -dx: negation is exact, so p -= delta
    # and delta * delta give the bits of p + dx and dx * dx
    np.add(edx2, eps, out=delta)
    np.sqrt(delta, out=delta)
    np.add(eg2, eps, out=tmp)
    np.sqrt(tmp, out=tmp)
    delta /= tmp
    delta *= g
    edx2 *= rho
    np.multiply(1.0 - rho, delta, out=tmp)
    tmp *= delta
    edx2 += tmp
    p -= delta


def adadelta_step(state: AdaDeltaState, params: ModelParams, grads: ModelParams) -> None:
    """One in-place update of every parameter.

    Per scalar: E[g2] <- rho E[g2] + (1-rho) g^2,
    dx = -sqrt(E[dx2]+eps)/sqrt(E[g2]+eps) * g, then the dx average and
    the parameter advance.  The operations run in the order the formula
    is written, so the values match the plain expression bit for bit.  The
    update walks the four sets' vectors together, _ADADELTA_CHUNK elements
    at a time through one pair of chunk-sized temporaries.
    """
    _adadelta(state, params, grads, np.empty(2 * min(_ADADELTA_CHUNK, params.vector.size)))


def _adadelta(state: AdaDeltaState, params: ModelParams, grads: ModelParams, space: np.ndarray) -> None:
    """:func:`adadelta_step`, with its pair of chunk-sized temporaries cut
    from the front of ``space``."""
    vectors = [s.vector for s in (params, grads, state.eg2, state.edx2)]
    n = min(_ADADELTA_CHUNK, params.vector.size)
    tmp, delta = space[: 2 * n].reshape(2, n)
    for lo in range(0, params.vector.size, n):
        part = [v[lo : lo + n] for v in vectors]
        _adadelta_update(*part, state.rho, state.epsilon, tmp[: part[0].size], delta[: part[0].size])


#: Mask draws (rows x D) per sample_mask call when the masks of several
#: consecutive blocks are drawn together, so a group's temporaries stay small.
_MASK_DRAWS = 1 << 16


def _block_masks(rng: Rng, D: int, sizes: list[int]) -> Iterator[np.ndarray]:
    """Yield the mask of each block of ``sizes`` rows, in block order.

    Consecutive whole blocks are drawn by one sample_mask call while their
    rows x D draws stay within _MASK_DRAWS; a group holds at least one
    block.  A mask row reads its own D draws of the stream, so every mask
    equals the one a call for its block alone would draw.
    """
    start = 0
    while start < len(sizes):
        stop, rows = start + 1, sizes[start]
        while stop < len(sizes) and (rows + sizes[stop]) * D <= _MASK_DRAWS:
            rows += sizes[stop]
            stop += 1
        masks = sample_mask(rng, D, rows)
        lo = 0
        for n in sizes[start:stop]:
            yield masks[lo : lo + n]
            lo += n
        start = stop


def _validation_masks(D: int, rows: int, seed: int) -> np.ndarray:
    """The masks of a validation set of ``rows`` rows, one byte per value.

    They come from the seed's "valid-masks" stream, D draws per row in row
    order, a chunk of BLOCK_ROWS rows per block of _block_masks, which
    leaves every mask as a draw per chunk would make it.  The same seed and
    shape always give the same masks, so a run draws them once.
    """
    masks = np.empty((rows, D), np.uint8)
    sizes = [min(BLOCK_ROWS, rows - start) for start in range(0, rows, BLOCK_ROWS)]
    lo = 0
    for m in _block_masks(Rng(seed).stream("valid-masks"), D, sizes):
        masks[lo : lo + len(m)] = m
        lo += len(m)
    return masks


def _validation_loss(
    params: ModelParams,
    structure: StructureConfig,
    data: np.ndarray,
    masks: np.ndarray,
    mean: np.ndarray,
    ws: _Workspace,
) -> float:
    """Mean stochastic loss of checked ``data`` under ``masks``.

    Chunks of BLOCK_ROWS rows of both are widened to float64 into ``ws``,
    one at a time.
    """
    total = 0.0
    for start in range(0, len(data), BLOCK_ROWS):
        w = ws.head(min(BLOCK_ROWS, len(data) - start))
        x, m = w.x, w.work[2]
        np.copyto(x, data[start : start + BLOCK_ROWS])
        np.copyto(m, masks[start : start + BLOCK_ROWS])
        traj = _forward(params, structure, x, m, mean, w.out, *w.work[:2])
        total += _loss(traj, x, "finetune", _row_scale(m, w.gamma), *w.work[:2])
    return total / len(data)


def _block_step(
    params: ModelParams,
    structure: StructureConfig,
    x: np.ndarray,
    m: np.ndarray,
    mean: np.ndarray,
    objective: str,
    grads: ModelParams,
    ws: _Workspace,
) -> float:
    """Loss of one minibatch ``x``, summed over its rows; its gradient goes into ``grads``.

    Every block the step writes is a buffer of ``ws``, and the row scale
    is computed once for the loss and the gradient.
    """
    traj = _forward(params, structure, x, m, mean, ws.out, *ws.work[:2])
    gamma = _row_scale(m, ws.gamma)
    loss = _loss(traj, x, objective, gamma, *ws.work[:2])
    _backward(params, structure, traj, x, objective, gamma, grads, ws)
    return loss


def _diverged(phase: str, epoch: int, what: str) -> ValueError:
    """The error that stops a run at a non-finite value."""
    return ValueError(f"training diverged: {phase} epoch {epoch} {what}")


def train(
    structure: StructureConfig,
    train_data: np.ndarray,
    valid_data: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Pretraining epochs (none when config.pretrain_epochs is 0), then fine-tuning.

    Each minibatch is one block: its masks take D draws per row, in block
    order, and its gradient is the block sum divided by the row count.
    The masks of consecutive minibatches of an epoch are drawn by one
    sample_mask call up to _MASK_DRAWS draws; every mask is the one a
    draw per minibatch would make.  BLAS runs on one thread throughout,
    so the result does not depend on the BLAS thread setting.
    Fine-tuning tracks the validation score each epoch and the result
    carries the first best-epoch parameters (the final ones when no
    fine-tuning epoch ran); patience > 0 stops the phase after that many
    consecutive epochs without strict improvement.  The pretraining phase
    runs its full budget with no early stopping and resets the optimizer
    state at the handoff.  History lines are `epoch <n> phase <p> train
    <loss> valid <loss>` with global epoch numbers across phases.  A
    non-finite minibatch loss, gradient or validation loss stops training
    with a ValueError that names the phase, the epoch and the block, before
    any update from it.  Both data sets are checked once per run, and the
    validation masks drawn once; the minibatches and validation chunks
    then run unchecked.  0/1 data given as uint8 stays one byte per value,
    and each minibatch or validation chunk is widened to float64 as it runs,
    into the run's one workspace of block buffers (see :class:`_Workspace`).
    """
    train_data = _check_rows(train_data, structure.D, "training input")
    valid_data = _check_rows(valid_data, structure.D, "validation input")
    # a column sum of 0/1 values is exact in float64, so bytes give the same mean bits
    mean = train_data.mean(axis=0)
    valid_masks = _validation_masks(structure.D, len(valid_data), config.seed)

    master = Rng(config.seed)
    params = init_params(structure, master.stream("init"))
    mask_rng = master.stream("masks")
    shuffle_rng = master.stream("shuffle")

    history: list[str] = []
    # the best epoch's params are the live ones until the epoch after it
    # starts; only then are they copied into the snapshot.  best_epoch is 0
    # until a fine-tuning epoch improves on best_valid
    best: ModelParams | None = None
    best_epoch = 0
    best_valid = np.inf
    n_train = train_data.shape[0]
    state = AdaDeltaState.zeros_like(params, rho=config.rho, epsilon=config.epsilon)
    # the one gradient vector of the run, overwritten by every block
    grads = params.zeros_like()
    rows = max(min(config.minibatch_size, n_train), min(BLOCK_ROWS, len(valid_data)))
    ws = _Workspace(structure, rows, 2 * min(_ADADELTA_CHUNK, params.vector.size))
    with single_threaded_blas():
        for epoch in range(1, config.pretrain_epochs + config.finetune_epochs + 1):
            phase = "pretrain" if epoch <= config.pretrain_epochs else "finetune"
            if config.pretrain_epochs and epoch == config.pretrain_epochs + 1:
                # the handoff restarts the optimizer from zero, in the same memory
                state.eg2.vector.fill(0.0)
                state.edx2.vector.fill(0.0)
            if best_epoch and best_epoch == epoch - 1:
                if best is None:
                    best = params.copy()
                else:
                    np.copyto(best.vector, params.vector)
            total = 0.0
            blocks = minibatches(n_train, config.minibatch_size, shuffle_rng)
            masks = _block_masks(mask_rng, structure.D, [len(b) for b in blocks])
            for b, (block, m) in enumerate(zip(blocks, masks), 1):
                w = ws.head(len(block))
                np.copyto(w.x, train_data[block])
                loss = _block_step(params, structure, w.x, m, mean, phase, grads, w)
                if not math.isfinite(loss):
                    raise _diverged(phase, epoch, f"block {b} loss {loss}")
                total += loss
                grads.vector[...] *= 1.0 / len(block)
                add_weight_decay(grads, params, config.weight_decay)
                if not np.isfinite(grads.vector).all():
                    raise _diverged(phase, epoch, f"block {b} gradient non-finite")
                _adadelta(state, params, grads, ws.flat)
            # the epoch's masks go before the next epoch draws its own, the
            # last one from the workspace's record too
            del m
            ws.out.mask = None
            train_loss = total / n_train
            valid_loss = _validation_loss(params, structure, valid_data, valid_masks, mean, ws)
            if not math.isfinite(valid_loss):
                raise _diverged(phase, epoch, f"validation loss {valid_loss}")
            history.append(
                f"epoch {epoch} phase {phase} train {train_loss:.6f} valid {valid_loss:.6f}"
            )
            if phase == "finetune":
                if valid_loss < best_valid:
                    best_valid = valid_loss
                    best_epoch = epoch
                elif config.patience > 0 and epoch - best_epoch >= config.patience:
                    break
    return TrainResult(
        params=params if best_epoch in (0, len(history)) else best,
        history=history,
        mean=mean,
        best_valid=best_valid if best_epoch else None,
        epochs_run=len(history),
    )
