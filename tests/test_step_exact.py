"""The training step's buffered kernels against plain expressions, bit for bit.

``backward`` and ``adadelta_step`` write into reused buffers and the loss
takes one log per coordinate; step_reference.py computes the same values
with both logs and a fresh array for every intermediate, and
``add_weight_decay``, applied between the two, is checked along with them.  ``np.array_equal`` treats -0.0 and +0.0 as equal, the
one way the gradients may differ, so whole training runs are also compared
by their checkpoint bytes.
"""

import numpy as np
import pytest
import row_reference
import step_reference
from conftest import four_pattern_data, random_model

from nadek import (
    ModelParams,
    Rng,
    StructureConfig,
    TrainConfig,
    forward,
    init_params,
    save_checkpoint,
    train,
)
from nadek import training
from nadek.checkpoint import encode_mean
from nadek.numerics import PROB_EPS
from nadek.training import AdaDeltaState, adadelta_step, add_weight_decay, backward


def _block(n, activation, k):
    """A 9-row block at D=7 whose first two rows drive outputs past the clamp."""
    D = 7
    params, cfg = random_model(
        D, 6, k=k, hidden2=5 if n == 3 else None, activation=activation, seed=50 + n
    )
    params.b[0] = 60.0
    params.b[1] = -60.0
    rng = Rng(51).stream("block")
    x = (rng.uniform_array((9, D)) < 0.5).astype(np.float64)
    # both sides of the clamp against the opposite bit: the clamped loss
    # term is 0.0 times a positive and times a negative difference
    x[:2, :2] = [[0.0, 1.0], [0.0, 1.0]]
    m = training.sample_mask(rng, D, 9)
    m[:2] = 1.0
    mean = 0.2 + 0.6 * rng.uniform_array(D)
    traj = forward(params, cfg, x, m, mean)
    assert traj.v_states[-1][0, 0] > 1.0 - PROB_EPS
    assert traj.v_states[-1][0, 1] < PROB_EPS
    return params, cfg, traj, x


def _equal(got, want):
    got, want = got.tensors(), want.tensors()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("objective", ["finetune", "pretrain"])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_loss_equals_two_log_form(activation, objective, k):
    params, cfg, traj, x = _block(2, activation, k)
    m = traj.mask
    for v in traj.v_states[1:]:
        # scored entries past the clamp, against the opposite bit
        assert v[0, 0] > 1.0 - PROB_EPS and v[0, 1] < PROB_EPS
        assert np.array_equal(training._row_ce(v, x, m), step_reference.row_ce(v, x, m))
    want = step_reference.row_losses(traj, x, objective)
    assert want.shape == (len(x),) and np.all(np.isfinite(want))
    assert training.stochastic_loss(traj, x, objective) == float(np.sum(want))


@pytest.mark.parametrize("lam", [0.0, 0.03])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("objective", ["finetune", "pretrain"])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("n", [2, 3])
def test_step_equals_plain_expressions(n, activation, objective, k, lam):
    params, cfg, traj, x = _block(n, activation, k)
    got = backward(params, cfg, traj, x, objective)
    want = step_reference.backward(params, cfg, traj, x, objective)
    _equal(got, want)
    for g in (*got.tensors().values(), *want.tensors().values()):
        g /= len(x)
    _equal(add_weight_decay(got, params, lam), step_reference.add_weight_decay(want, params, lam))
    mine, plain = params.copy(), params.copy()
    state, plain_state = AdaDeltaState.zeros_like(params), AdaDeltaState.zeros_like(params)
    for _ in range(3):
        adadelta_step(state, mine, got)
        step_reference.adadelta_step(plain_state, plain, want)
    _equal(mine, plain)
    _equal(state.eg2, plain_state.eg2)
    _equal(state.edx2, plain_state.edx2)


#: Configs whose vectors the AdaDelta update walks in slices: D=7 at n=2
#: and n=3 for every chunk size, and a large one for the larger chunks.
_SMALL = [StructureConfig(D=7, hidden1=6), StructureConfig(D=7, hidden1=6, hidden2=5)]
_LARGE = StructureConfig(D=300, hidden1=120, hidden2=40)


@pytest.mark.parametrize("chunk", [1, 7, 500, 1 << 15])
def test_adadelta_slices_equal_plain_expressions(chunk, monkeypatch):
    # slices of one element, of part of a row and of whole tensors; those
    # of 7, 500 and 2^15 elements straddle tensor boundaries of the vector
    monkeypatch.setattr(training, "_ADADELTA_CHUNK", chunk)
    for cfg in _SMALL if chunk == 1 else [*_SMALL, _LARGE]:
        params = init_params(cfg, Rng(61).stream("init"))
        plain = params.copy()
        state, plain_state = AdaDeltaState.zeros_like(params), AdaDeltaState.zeros_like(params)
        for step in range(3):
            rng = Rng(62 + step).stream("grads")
            grads = ModelParams(
                **{name: rng.uniform_array(t.shape) - 0.5 for name, t in params.tensors().items()}
            )
            adadelta_step(state, params, grads)
            step_reference.adadelta_step(plain_state, plain, grads)
        _equal(params, plain)
        _equal(state.eg2, plain_state.eg2)
        _equal(state.edx2, plain_state.edx2)


@pytest.mark.parametrize("layout", ["vector"])
@pytest.mark.parametrize("n", [2, 3])
def test_adadelta_layouts_equal_plain_expressions(n, layout, monkeypatch):
    # 20-element slices split W and V and straddle tensors of the vector;
    # the params, state and gradients each keep their one vector
    monkeypatch.setattr(training, "_ADADELTA_CHUNK", 20)
    cfg = StructureConfig(D=7, hidden1=6, hidden2=5 if n == 3 else None)
    params = init_params(cfg, Rng(63).stream("init"))
    plain = params.copy()
    state, plain_state = AdaDeltaState.zeros_like(params), AdaDeltaState.zeros_like(params)
    for step in range(3):
        rng = Rng(64 + step).stream("grads")
        grads = ModelParams(
            **{name: rng.uniform_array(t.shape) - 0.5 for name, t in params.tensors().items()}
        )
        adadelta_step(state, params, grads)
        step_reference.adadelta_step(plain_state, plain, grads)
    for p in (params, state.eg2, state.edx2):
        assert all(np.shares_memory(t, p.vector) for t in p.tensors().values())
    _equal(params, plain)
    _equal(state.eg2, plain_state.eg2)
    _equal(state.edx2, plain_state.edx2)


def _checkpoint_bytes(path, structure, splits, config):
    result = train(structure, *splits, config)
    save_checkpoint(str(path), result.params, structure, {"mean": encode_mean(result.mean)})
    return path.read_bytes(), result.history


@pytest.mark.parametrize("n, activation", [(2, "tanh"), (3, "sigmoid")])
def test_training_writes_the_bytes_of_the_plain_step(n, activation, tmp_path, monkeypatch):
    structure = StructureConfig(
        D=16, hidden1=32, k=2, hidden2=12 if n == 3 else None, activation=activation
    )
    splits = (four_pattern_data(230, 71), four_pattern_data(60, 72))
    config = TrainConfig(
        minibatch_size=25, pretrain_epochs=2, finetune_epochs=2, weight_decay=0.001, seed=73
    )
    new = _checkpoint_bytes(tmp_path / "new.ckpt", structure, splits, config)
    monkeypatch.setattr(training, "sample_mask", row_reference.sample_mask)
    monkeypatch.setattr(training, "backward", step_reference.backward)
    monkeypatch.setattr(training, "add_weight_decay", step_reference.add_weight_decay)
    monkeypatch.setattr(training, "adadelta_step", step_reference.adadelta_step)
    old = _checkpoint_bytes(tmp_path / "old.ckpt", structure, splits, config)
    assert len(new[1]) == 4
    assert new == old
