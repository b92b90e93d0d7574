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

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .data import minibatches
from .model import ModelParams, StructureConfig, Trajectory, _check_binary, _forward, init_params
from .numerics import BLOCK_ROWS, PROB_EPS, ContractError, Rng, clamp_prob, single_threaded_blas

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
    "validation_score",
]

OBJECTIVES = ("finetune", "pretrain")


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
    rho: float = 0.95
    epsilon: float = 1e-6

    def __post_init__(self):
        _check_adadelta(self.rho, self.epsilon)

    @classmethod
    def zeros_like(
        cls, params: ModelParams, rho: float = 0.95, epsilon: float = 1e-6
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
    rho: float = 0.95
    epsilon: float = 1e-6

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
    draws = rng.below_array(np.broadcast_to(bounds, (rows, D)))
    d = draws[:, 0] + 1
    order = np.argsort(-d, kind="stable")
    swaps = int(d.max()) - 1
    # active[i]: rows still swapping at step i, a prefix of the sorted rows
    active = (rows - np.cumsum(np.bincount(d - 1, minlength=D)))[:swaps]
    # slot i of sorted row r sits at i * rows + r and holds the flat mask
    # position order[r] * D + (the index in that slot); target[i, r] is
    # the flat slot that swap i of sorted row r exchanges with slot i
    idx = (np.arange(D)[:, None] + order * D).ravel()
    target = np.ascontiguousarray(draws[order, 1 : swaps + 1].T)
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
    mask = np.ones((rows, D))
    observed = np.arange(rows) < active[:, None]
    mask.ravel()[idx[: swaps * rows].reshape(swaps, rows)[observed]] = 0.0
    return mask


def _row_ce(v: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    # cross-entropy over the missing components of each row (last axis);
    # observed slots hold the exact input bit, which the clamp keeps finite.
    # For binary x, q = x*p + (1-x)*(1-p) is exactly p or 1 - p, so -log(q)
    # equals -x*log(p) - (1-x)*log(1-p) bit for bit (the other term is +-0)
    p = clamp_prob(v)
    q = np.multiply(x, p)
    p = np.subtract(1.0, p, out=p)
    p *= 1.0 - x
    q += p
    np.log(q, out=q)
    np.negative(q, out=q)
    q *= m
    return np.sum(q, axis=-1)


def _gamma(m: np.ndarray) -> np.ndarray:
    """Per-row estimator scale D / (number of missing components)."""
    return m.shape[-1] / np.sum(m, axis=-1)


def stochastic_loss(traj: Trajectory, x: np.ndarray, objective: str = "finetune") -> float:
    """Scaled cross-entropy over the missing components, summed over the block's rows.

    The mask is the trajectory's.  "finetune" scores the final state;
    "pretrain" averages the same scaled term over every step's
    reconstruction v_1 .. v_k, and equals "finetune" at k=1.
    """
    if objective not in OBJECTIVES:
        raise ContractError(f"objective must be one of {OBJECTIVES}")
    x = np.asarray(x, dtype=np.float64)
    m = traj.mask
    if objective == "pretrain":
        k = traj.k_used
        total = sum(_row_ce(traj.v_states[t], x, m) for t in range(1, k + 1))
        return float(np.sum(_gamma(m) * total / k))
    return float(np.sum(_gamma(m) * _row_ce(traj.v_states[-1], x, m)))


def _phi_prime(h: np.ndarray, activation: str, out: np.ndarray | None) -> np.ndarray:
    # derivative expressed through the stored activation value, into out
    # (a new array when out is None)
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
        np.sum(delta, axis=0, out=c)
    else:
        w += np.matmul(delta.T, inputs, out=scratch[: w.size].reshape(w.shape))
        c += delta.sum(axis=0)


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

    The steps write into buffers that the first step allocates and the
    later ones reuse, and every expression keeps its order of operations,
    so the values equal the plain expressions bit for bit, up to the sign
    of a zero: the first term of each sum (a tensor's product at step k,
    the scored term at step k) is taken as it is rather than added to
    0.0, so a -0.0 there stays -0.0 where 0.0 + -0.0 would give +0.0.

    The gradient is written into ``out``, params-shaped, overwriting every
    entry, and returned; without ``out`` it goes into ``params.zeros_like()``.
    """
    if objective not in OBJECTIVES:
        raise ContractError(f"objective must be one of {OBJECTIVES}")
    x = np.asarray(x, dtype=np.float64)
    m = traj.mask
    if x.shape != m.shape:
        raise ContractError(f"x{x.shape} does not match the trajectory's mask{m.shape}")
    k = traj.k_used
    # per-row loss weight of each scored step's reconstruction
    gamma = _gamma(m)[:, None]
    coeff = gamma / k if objective == "pretrain" else gamma
    act = config.activation
    grads = params.zeros_like() if out is None else out
    # products after a tensor's first go through scratch
    scratch = np.empty(max(t.size for t in params.tensors().values())) if k > 1 else None
    # block-wide buffers, each allocated by its first write
    dz = dv = tmp = inclamp = below_top = dtop = datop = dh1 = da1 = None
    for t in range(k, 0, -1):
        s = traj.v_states[t]
        # dv is the gradient reaching v_t from step t + 1; none at t = k
        if t < k:
            np.multiply(m, dv, out=dz)
            dz *= s
            tmp = np.subtract(1.0, s, out=tmp)
            dz *= tmp
        if objective == "pretrain" or t == k:
            inclamp = np.greater(s, PROB_EPS, out=inclamp)
            below_top = np.less(s, 1.0 - PROB_EPS, out=below_top)
            inclamp &= below_top
            # coeff * m * (s - x) * inclamp; dv is free until step t - 1
            if t == k:
                dz = term = np.multiply(coeff, m)
            else:
                term = np.multiply(coeff, m, out=tmp)
            dv = np.subtract(s, x, out=dv)
            term *= dv
            term *= inclamp
            if t < k:
                dz += term
        hidden = traj.h_states[t - 1]
        h1, top = hidden[0], hidden[-1]
        into = None if t == k else scratch
        _accumulate(grads.V, grads.b, dz, top, into)
        dtop = np.matmul(dz, params.V, out=dtop)
        da = datop = _phi_prime(top, act, datop)
        da *= dtop
        if config.n == 3:
            _accumulate(grads.W2, grads.c2, da, h1, into)
            dh1 = np.matmul(da, params.W2, out=dh1)
            da = da1 = _phi_prime(h1, act, da1)
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
        grads.W[...] += 2.0 * lam * params.W
        grads.V[...] += 2.0 * lam * params.V
        if grads.W2 is not None:
            grads.W2[...] += 2.0 * lam * params.W2
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
    np.add(edx2, eps, out=delta)
    np.sqrt(delta, out=delta)
    np.negative(delta, out=delta)
    np.add(eg2, eps, out=tmp)
    np.sqrt(tmp, out=tmp)
    delta /= tmp
    delta *= g
    edx2 *= rho
    np.multiply(1.0 - rho, delta, out=tmp)
    tmp *= delta
    edx2 += tmp
    p += delta


def adadelta_step(state: AdaDeltaState, params: ModelParams, grads: ModelParams) -> None:
    """One in-place update of every parameter.

    Per scalar: E[g2] <- rho E[g2] + (1-rho) g^2,
    dx = -sqrt(E[dx2]+eps)/sqrt(E[g2]+eps) * g, then the dx average and
    the parameter advance.  The operations run in the order the formula
    is written, so the values match the plain expression bit for bit.  The
    update walks the four sets' vectors together, _ADADELTA_CHUNK elements
    at a time through one pair of chunk-sized temporaries.
    """
    vectors = [s.vector for s in (params, grads, state.eg2, state.edx2)]
    size = vectors[0].size
    pair = np.empty((2, min(_ADADELTA_CHUNK, size)))
    for lo in range(0, size, _ADADELTA_CHUNK):
        part = [v[lo : lo + _ADADELTA_CHUNK] for v in vectors]
        n = part[0].size
        _adadelta_update(*part, state.rho, state.epsilon, pair[0, :n], pair[1, :n])


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


def validation_score(
    params: ModelParams,
    structure: StructureConfig,
    data: np.ndarray,
    mean: np.ndarray,
    seed: int,
) -> float:
    """Mean stochastic loss over the set, with masks fixed by the seed.

    The mask stream restarts from the seed on every call, so successive
    epochs score against identical masks and the curve is noise-free
    across epochs.  Rows are scored in chunks of BLOCK_ROWS in canonical
    order, D mask draws per row in row order; the masks of consecutive
    chunks are drawn by one sample_mask call up to _MASK_DRAWS draws,
    which leaves every mask as a draw per chunk would make it.
    The data, mean and shapes are checked once per call.
    """
    data = _check_split(data, structure.D, "validation")
    params.check_shapes(structure)
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (structure.D,):
        raise ContractError(f"mean{mean.shape} does not match D={structure.D}")
    rng = Rng(seed).stream("valid-masks")
    starts = range(0, data.shape[0], BLOCK_ROWS)
    sizes = [min(BLOCK_ROWS, data.shape[0] - start) for start in starts]
    total = 0.0
    for start, m in zip(starts, _block_masks(rng, structure.D, sizes)):
        x = data[start : start + BLOCK_ROWS]
        traj = _forward(params, structure, x, m, mean)
        total += stochastic_loss(traj, x)
    return total / len(data)


def _block_step(
    params: ModelParams,
    structure: StructureConfig,
    x: np.ndarray,
    m: np.ndarray,
    mean: np.ndarray,
    objective: str,
    grads: ModelParams,
) -> float:
    """Loss of one minibatch, summed over its rows; its gradient goes into ``grads``.

    The trajectory lives only in this frame, so it is freed before the
    caller updates the parameters.
    """
    traj = _forward(params, structure, x, m, mean)
    loss = stochastic_loss(traj, x, objective)
    backward(params, structure, traj, x, objective, out=grads)
    return loss


def _check_split(data: np.ndarray, D: int, name: str) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] != D:
        raise ContractError(f"{name} data must be a non-empty matrix with {D} columns")
    _check_binary(data, "input")
    return data


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
    any update from it.  Both data sets are checked once per run; the
    minibatches then run unchecked.
    """
    train_data = _check_split(train_data, structure.D, "training")
    valid_data = _check_split(valid_data, structure.D, "validation")
    mean = train_data.mean(axis=0)

    master = Rng(config.seed)
    params = init_params(structure, master.stream("init"))
    mask_rng = master.stream("masks")
    shuffle_rng = master.stream("shuffle")

    phases = (("pretrain", config.pretrain_epochs), ("finetune", config.finetune_epochs))
    history: list[str] = []
    # the best epoch's params are the live ones until an epoch after it
    # starts; only then are they copied into the snapshot
    best: ModelParams | None = None
    best_live = False
    best_valid = np.inf
    stale = 0
    epoch = 0
    n_train = train_data.shape[0]
    state = AdaDeltaState.zeros_like(params, rho=config.rho, epsilon=config.epsilon)
    # the one gradient vector of the run, overwritten by every block
    grads = params.zeros_like()
    with single_threaded_blas():
        for phase, budget in phases:
            if phase == "finetune" and epoch:
                # the handoff restarts the optimizer from zero, in the same memory
                state.eg2.vector.fill(0.0)
                state.edx2.vector.fill(0.0)
            for _ in range(budget):
                if best_live:
                    if best is None:
                        best = params.copy()
                    else:
                        np.copyto(best.vector, params.vector)
                    best_live = False
                epoch += 1
                total = 0.0
                blocks = minibatches(n_train, config.minibatch_size, shuffle_rng)
                masks = _block_masks(mask_rng, structure.D, [len(b) for b in blocks])
                for b, (block, m) in enumerate(zip(blocks, masks), 1):
                    x = train_data[block]
                    loss = _block_step(params, structure, x, m, mean, phase, grads)
                    if not math.isfinite(loss):
                        raise ValueError(
                            f"training diverged: {phase} epoch {epoch} block {b} loss {loss}"
                        )
                    total += loss
                    grads.vector[...] *= 1.0 / len(block)
                    add_weight_decay(grads, params, config.weight_decay)
                    if not np.isfinite(grads.vector).all():
                        raise ValueError(
                            f"training diverged: {phase} epoch {epoch} block {b}"
                            " gradient non-finite"
                        )
                    adadelta_step(state, params, grads)
                train_loss = total / n_train
                valid_loss = validation_score(params, structure, valid_data, mean, config.seed)
                if not math.isfinite(valid_loss):
                    raise ValueError(
                        f"training diverged: {phase} epoch {epoch} validation loss {valid_loss}"
                    )
                history.append(
                    f"epoch {epoch} phase {phase} train {train_loss:.6f} valid {valid_loss:.6f}"
                )
                if phase == "finetune":
                    if valid_loss < best_valid:
                        best_valid = valid_loss
                        best_live = True
                        stale = 0
                    else:
                        stale += 1
                        if config.patience > 0 and stale >= config.patience:
                            break
    found = best_valid < np.inf
    return TrainResult(
        params=best if found and not best_live else params,
        history=history,
        mean=mean,
        best_valid=best_valid if found else None,
        epochs_run=epoch,
    )
