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

from dataclasses import dataclass, field

import numpy as np

from .data import minibatches
from .model import ModelParams, StructureConfig, Trajectory, forward, init_params
from .numerics import BLOCK_ROWS, PROB_EPS, ContractError, Rng, clamp_prob, single_threaded_blas

__all__ = [
    "AdaDeltaState",
    "TrainConfig",
    "TrainResult",
    "adadelta_step",
    "add_weight_decay",
    "backward",
    "pretrain_loss",
    "sample_mask",
    "stochastic_loss",
    "train",
    "validation_score",
]

OBJECTIVES = ("finetune", "pretrain")


def _check_adadelta(rho: float, epsilon: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ContractError("rho must lie in (0, 1)")
    if epsilon <= 0.0:
        raise ContractError("epsilon must be positive")


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
        if self.weight_decay < 0.0:
            raise ContractError("weight_decay must be >= 0")


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
    consumes exactly D draws of one bulk draw: draw 0 gives d, draws
    1..d-1 give the swaps and the rest are skipped.  Row r reads draws
    r*D .. r*D+D-1 alone, so it equals a one-row block drawn with the
    counter at r*D.
    """
    if D < 1:
        raise ContractError("D must be >= 1")
    # draw 0 of a row is bounded by D, draw 1 + i by D - i
    steps = np.arange(D - 1)
    draws = rng.below_array(np.broadcast_to(np.concatenate(([D], D - steps)), (rows, D)))
    d = 1 + draws[:, 0]
    # swap i exchanges slots i and i + below(D - i); a row past its d-1
    # swaps only reorders slots >= i, which leaves its prefix as drawn
    swap = steps + draws[:, 1:]
    idx = np.tile(np.arange(D), (rows, 1))
    r = np.arange(rows)
    for i in range(int(d.max()) - 1):
        j = swap[:, i]
        idx[r, i], idx[r, j] = idx[r, j], idx[r, i]
    mask = np.ones((rows, D))
    observed = np.arange(D) < (d - 1)[:, None]
    mask[np.nonzero(observed)[0], idx[observed]] = 0.0
    return mask


def _row_ce(v: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    # cross-entropy over the missing components of each row (last axis);
    # observed slots hold the exact input bit, which the clamp keeps finite
    p = clamp_prob(v)
    return np.sum(m * (-x * np.log(p) - (1.0 - x) * np.log(1.0 - p)), axis=-1)


def _gamma(m: np.ndarray) -> np.ndarray:
    """Per-row estimator scale D / (number of missing components)."""
    return m.shape[-1] / np.sum(m, axis=-1)


def _row_losses(traj: Trajectory, x: np.ndarray, objective: str) -> np.ndarray:
    """Scaled loss of each row of the trajectory under the objective."""
    m = traj.mask
    if objective == "pretrain":
        k = traj.k_used
        total = sum(_row_ce(traj.v_states[t], x, m) for t in range(1, k + 1))
        return _gamma(m) * total / k
    return _gamma(m) * _row_ce(traj.v_states[-1], x, m)


def stochastic_loss(traj: Trajectory, x: np.ndarray) -> float:
    """Scaled cross-entropy on the final state over missing components.

    The mask is the trajectory's; for a block, the sum over its rows.
    """
    return float(np.sum(_row_losses(traj, np.asarray(x, dtype=np.float64), "finetune")))


def pretrain_loss(traj: Trajectory, x: np.ndarray) -> float:
    """Mean of the scaled cross-entropy over every step's reconstruction.

    At k=1 this is a single-term average and equals stochastic_loss.  For
    a block, the sum over its rows.
    """
    return float(np.sum(_row_losses(traj, np.asarray(x, dtype=np.float64), "pretrain")))


def _phi_prime(h: np.ndarray, activation: str) -> np.ndarray:
    # derivative expressed through the stored activation value
    if activation == "tanh":
        return 1.0 - h * h
    return h * (1.0 - h)


def backward(
    params: ModelParams,
    config: StructureConfig,
    traj: Trajectory,
    x: np.ndarray,
    objective: str,
) -> ModelParams:
    """Exact gradient of the chosen loss, summed over the rows of the block.

    ``x`` is the block the trajectory was run on, under the trajectory's
    mask (a single row counts as a block of one).  All k steps accumulate
    into the shared tensors, one matrix-matrix product per tensor and step.
    Observed coordinates carry no gradient: the clamp replaces them with
    constants at every step.  Coordinates whose output probability left
    the clamp range contribute zero loss gradient, matching the clamped
    loss exactly.
    """
    if objective not in OBJECTIVES:
        raise ContractError(f"objective must be one of {OBJECTIVES}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m = np.atleast_2d(traj.mask)
    k = traj.k_used
    # per-row loss weight of each scored step's reconstruction
    gamma = _gamma(m)[:, None]
    coeff = gamma / k if objective == "pretrain" else gamma
    grads = params.zeros_like()
    act = config.activation
    dv = np.zeros_like(x)
    for t in range(k, 0, -1):
        s = np.atleast_2d(traj.v_states[t])
        dz = m * dv * s * (1.0 - s)
        if objective == "pretrain" or t == k:
            inclamp = ((s > PROB_EPS) & (s < 1.0 - PROB_EPS)).astype(np.float64)
            dz = dz + coeff * m * (s - x) * inclamp
        hidden = [np.atleast_2d(h) for h in traj.h_states[t - 1]]
        if config.n == 3:
            h1, h2 = hidden
            top = h2
        else:
            (h1,) = hidden
            top = h1
        grads.V += dz.T @ top
        grads.b += dz.sum(axis=0)
        dtop = dz @ params.V
        if config.n == 3:
            da2 = dtop * _phi_prime(h2, act)
            grads.W2 += da2.T @ h1
            grads.c2 += da2.sum(axis=0)
            da1 = (da2 @ params.W2) * _phi_prime(h1, act)
        else:
            da1 = dtop * _phi_prime(h1, act)
        grads.W += da1.T @ np.atleast_2d(traj.v_states[t - 1])
        grads.c += da1.sum(axis=0)
        if t > 1:
            dv = da1 @ params.W
    return grads


def add_weight_decay(grads: ModelParams, params: ModelParams, lam: float) -> ModelParams:
    """L2 penalty gradient 2*lam*w on weight matrices; biases untouched."""
    if lam < 0.0:
        raise ContractError("weight decay must be >= 0")
    if lam != 0.0:
        grads.W += 2.0 * lam * params.W
        grads.V += 2.0 * lam * params.V
        if grads.W2 is not None:
            grads.W2 += 2.0 * lam * params.W2
    return grads


def adadelta_step(
    state: AdaDeltaState, params: ModelParams, grads: ModelParams
) -> tuple[ModelParams, AdaDeltaState]:
    """One in-place update of every parameter tensor.

    Per scalar: E[g2] <- rho E[g2] + (1-rho) g^2,
    dx = -sqrt(E[dx2]+eps)/sqrt(E[g2]+eps) * g, then the dx average and
    the parameter advance.  Works in place with two temporary arrays per
    tensor, applying the operations in the order the formula is written,
    so the values match the plain expression bit for bit.
    """
    rho = state.rho
    eps = state.epsilon
    tensor_sets = (params, grads, state.eg2, state.edx2)
    for p, g, eg2, edx2 in zip(*(t.tensors().values() for t in tensor_sets)):
        tmp = (1.0 - rho) * g
        tmp *= g
        eg2 *= rho
        eg2 += tmp
        delta = np.add(edx2, eps)
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
    return params, state


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
    order, with one block mask draw per chunk (D draws per row).
    """
    rng = Rng(seed).stream("valid-masks")
    data = np.asarray(data, dtype=np.float64)
    total = 0.0
    for start in range(0, data.shape[0], BLOCK_ROWS):
        x = data[start : start + BLOCK_ROWS]
        traj = forward(params, structure, x, sample_mask(rng, structure.D, x.shape[0]), mean)
        total += stochastic_loss(traj, x)
    return total / len(data)


def _block_step(
    params: ModelParams,
    structure: StructureConfig,
    x: np.ndarray,
    m: np.ndarray,
    mean: np.ndarray,
    objective: str,
) -> tuple[ModelParams, float]:
    """Gradient and loss of one minibatch, both summed over its rows.

    The trajectory lives only in this frame, so it is freed before the
    caller updates the parameters.
    """
    traj = forward(params, structure, x, m, mean)
    loss = float(np.sum(_row_losses(traj, x, objective)))
    return backward(params, structure, traj, x, objective), loss


def _check_split(data: np.ndarray, D: int, name: str) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] != D:
        raise ContractError(f"{name} data must be a non-empty matrix with {D} columns")
    return data


def train(
    structure: StructureConfig,
    train_data: np.ndarray,
    valid_data: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Pretraining epochs (none when config.pretrain_epochs is 0), then fine-tuning.

    Each minibatch is one block: its masks are one block draw (D draws
    per row, in block order), and its gradient is the block sum divided
    by the row count.  BLAS runs on one thread throughout, so the result
    does not depend on the BLAS thread setting.  Fine-tuning tracks the
    validation score each epoch and the result carries the first
    best-epoch parameters (the final ones if no score fell below +inf);
    patience > 0 stops the phase after that many consecutive epochs
    without strict improvement.  The pretraining phase runs its full
    budget with no early stopping and resets the optimizer state at the
    handoff.  History lines are `epoch <n> phase <p> train <loss> valid
    <loss>` with global epoch numbers across phases.
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
    best_params: ModelParams | None = None
    best_valid = np.inf
    stale = 0
    epoch = 0
    n_train = train_data.shape[0]
    with single_threaded_blas():
        for phase, budget in phases:
            state = AdaDeltaState.zeros_like(params, rho=config.rho, epsilon=config.epsilon)
            for _ in range(budget):
                epoch += 1
                total = 0.0
                for block in minibatches(n_train, config.minibatch_size, shuffle_rng):
                    x = train_data[block]
                    m = sample_mask(mask_rng, structure.D, len(block))
                    grads, loss = _block_step(params, structure, x, m, mean, phase)
                    total += loss
                    scale = 1.0 / len(block)
                    for g in grads.tensors().values():
                        g *= scale
                    add_weight_decay(grads, params, config.weight_decay)
                    adadelta_step(state, params, grads)
                    del grads  # not kept alive through the next block's backward
                train_loss = total / n_train
                valid_loss = validation_score(params, structure, valid_data, mean, config.seed)
                history.append(
                    f"epoch {epoch} phase {phase} train {train_loss:.6f} valid {valid_loss:.6f}"
                )
                if phase == "finetune":
                    if valid_loss < best_valid:
                        best_valid = valid_loss
                        best_params = params.copy()
                        stale = 0
                    else:
                        stale += 1
                        if config.patience > 0 and stale >= config.patience:
                            break
    return TrainResult(
        params=params if best_params is None else best_params,
        history=history,
        mean=mean,
        best_valid=None if best_params is None else best_valid,
        epochs_run=epoch,
    )
