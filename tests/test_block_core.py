"""The block forward/backward core against the per-row reference in row_reference.py."""

import dataclasses

import numpy as np
import pytest
from conftest import random_model
from row_reference import (
    PROB_EPS,
    adadelta,
    draw_row,
    forward_row,
    gradient_row,
    log_prob_row,
    loss_row,
)

from nadek import (
    Ordering,
    Rng,
    StructureConfig,
    TrainConfig,
    forward,
    init_params,
    inpaint,
    log_prob_ordering,
    sample_from_mixture,
    train,
)
from nadek.evaluation import conditional_ordering
from nadek.training import (
    backward,
    pretrain_loss,
    sample_mask,
    stochastic_loss,
    validation_score,
)

TOL = 1e-12


def _close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def _case(n, activation):
    """A 7-row block whose first row drives two outputs past the clamp."""
    D = 6
    hidden2 = 4 if n == 3 else None
    params, cfg = random_model(
        D, 5, k=3, n=n, hidden2=hidden2, activation=activation, seed=11 + 2 * n
    )
    params.b[0] = 60.0
    params.b[1] = -60.0
    rng = Rng(17).stream("block")
    x = np.array([[float(rng.bernoulli(0.5)) for _ in range(D)] for _ in range(7)])
    x[0, :2] = [0.0, 1.0]
    m = np.stack([sample_mask(rng, D, 1)[0] for _ in range(7)])
    m[0] = [1.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    mean = 0.2 + 0.6 * rng.uniform_array(D)
    return params, cfg, x, m, mean


@pytest.mark.parametrize("objective", ["finetune", "pretrain"])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("n", [2, 3])
def test_block_matches_per_row_sum(n, activation, objective):
    params, cfg, x, m, mean = _case(n, activation)
    traj = forward(params, cfg, x, m, mean)
    # the clamp row really leaves the probability range on both sides
    assert traj.v_states[-1][0, 0] > 1.0 - PROB_EPS
    assert traj.v_states[-1][0, 1] < PROB_EPS

    rows = [forward_row(params, cfg, x[r], m[r], mean) for r in range(len(x))]
    for t in range(cfg.k + 1):
        want = np.stack([vs[t] for vs, _ in rows])
        assert _close(traj.v_states[t], want) < TOL

    loss_fn = stochastic_loss if objective == "finetune" else pretrain_loss
    want_loss = sum(loss_row(vs, x[r], m[r], objective) for r, (vs, _) in enumerate(rows))
    assert _close(loss_fn(traj, x), want_loss) < TOL

    got = backward(params, cfg, traj, x, objective).tensors()
    want = {name: np.zeros_like(t) for name, t in got.items()}
    for r in range(len(x)):
        for name, g in gradient_row(params, cfg, x[r], m[r], mean, objective).items():
            want[name] += g
    for name in want:
        assert _close(got[name], want[name]) < TOL, name


def test_single_row_is_a_block_of_one():
    params, cfg, x, m, mean = _case(2, "tanh")
    row = forward(params, cfg, x[3], m[3], mean)
    block = forward(params, cfg, x[3:4], m[3:4], mean)
    for a, b in zip(row.v_states, block.v_states):
        assert a.shape == (6,) and b.shape == (1, 6)
        assert _close(a, b[0]) < TOL
    ga = backward(params, cfg, row, x[3], "finetune").tensors()
    gb = backward(params, cfg, block, x[3:4], "finetune").tensors()
    for name in ga:
        assert _close(ga[name], gb[name]) < TOL


def test_chunked_validation_matches_per_row_mean():
    # 230 rows: chunks of 100, 100 and 30
    params, cfg = random_model(6, 5, k=2, seed=23)
    rng = Rng(29).stream("rows")
    data = np.array([[float(rng.bernoulli(0.4)) for _ in range(6)] for _ in range(230)])
    mean = np.full(6, 0.4)
    masks = Rng(5).stream("valid-masks")
    want = 0.0
    for x in data:
        m = sample_mask(masks, 6, 1)[0]
        vs, _ = forward_row(params, cfg, x, m, mean)
        want += loss_row(vs, x, m, "finetune")
    want /= len(data)
    assert _close(validation_score(params, cfg, data, mean, seed=5), want) < TOL


def _walk_case(n, activation):
    """D=130 (staircase blocks of 100 and 30); coordinates 0 and 1 sit past the clamp."""
    D = 130
    hidden2 = 4 if n == 3 else None
    params, cfg = random_model(
        D, 5, k=3, n=n, hidden2=hidden2, activation=activation, seed=41 + 2 * n
    )
    params.b[0] = 60.0
    params.b[1] = -60.0
    traj = forward(params, cfg, np.zeros(D), np.ones(D), np.full(D, 0.5))
    assert traj.v_states[-1][0] > 1.0 - PROB_EPS
    assert traj.v_states[-1][1] < PROB_EPS
    return params, cfg, 0.2 + 0.6 * Rng(43).stream("mean").uniform_array(D)


@pytest.mark.parametrize("k_eval", [3, 1])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("n", [2, 3])
def test_staircase_matches_per_position_walk(n, activation, k_eval):
    params, cfg, mean = _walk_case(n, activation)
    # evaluating at another k is what eval --k-override does
    cfg = dataclasses.replace(cfg, k=k_eval)
    rng = Rng(47).stream("rows")
    for bits in ((1.0, 0.0), (0.0, 1.0)):
        x = np.array([float(rng.bernoulli(0.5)) for _ in range(cfg.D)])
        x[:2] = bits
        perm = tuple(int(i) for i in rng.permutation(cfg.D))
        got = log_prob_ordering(params, cfg, x, Ordering(perm=perm), mean)
        assert _close(got, log_prob_row(params, cfg, x, perm, mean)) < TOL


@pytest.mark.parametrize("n", [2, 3])
def test_staircase_folds_observed_prefixes(n):
    # D=250: blocks of 100, 100 and 50, so prefixes of 100 and 200 are folded
    D = 250
    params, cfg = random_model(
        D, 5, k=3, n=n, hidden2=4 if n == 3 else None, activation="sigmoid", seed=61 + 2 * n
    )
    rng = Rng(67).stream("rows")
    mean = 0.2 + 0.6 * rng.uniform_array(D)
    for _ in range(2):
        x = np.array([float(rng.bernoulli(0.5)) for _ in range(D)])
        perm = tuple(int(i) for i in rng.permutation(D))
        got = log_prob_ordering(params, cfg, x, Ordering(perm=perm), mean)
        assert _close(got, log_prob_row(params, cfg, x, perm, mean)) < TOL


@pytest.mark.parametrize("n", [2, 3])
def test_block_draws_match_per_position_walk(n):
    params, cfg, mean = _walk_case(n, "tanh")
    D = cfg.D
    # 130 samples: draw blocks of 100 and 30
    batch = sample_from_mixture(params, cfg, 130, mean, Rng(53))
    for i in range(130):
        sub = Rng(53).stream("sample", i)
        perm = tuple(int(j) for j in sub.permutation(D))
        assert perm == batch.orderings_used[i].perm
        want = draw_row(params, cfg, np.zeros(D), perm, 0, mean, sub)
        assert np.array_equal(batch.vectors[i], want)
    rng = Rng(59).stream("rows")
    rows = np.array([[float(rng.bernoulli(0.5)) for _ in range(D)] for _ in range(3)])
    obs = [5, 0, 77, 1]
    filled = inpaint(params, cfg, rows, obs, mean, [Rng(59).stream("inpaint", i) for i in range(3)])
    for i in range(3):
        sub = Rng(59).stream("inpaint", i)
        perm = conditional_ordering(D, obs, sub).perm
        assert np.array_equal(filled[i], draw_row(params, cfg, rows[i], perm, len(obs), mean, sub))


@pytest.mark.parametrize("k", [3, 1])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("n", [2, 3])
def test_walk_draws_match_per_position_walk(n, activation, k):
    D = 12
    params, cfg = random_model(
        D, 5, k=k, n=n, hidden2=4 if n == 3 else None, activation=activation, seed=71 + 2 * n
    )
    params.b[0] = 60.0
    params.b[1] = -60.0
    mean = 0.2 + 0.6 * Rng(73).stream("mean").uniform_array(D)
    traj = forward(params, cfg, np.zeros(D), np.ones(D), mean)
    assert traj.v_states[-1][0] > 1.0 - PROB_EPS
    assert traj.v_states[-1][1] < PROB_EPS
    batch = sample_from_mixture(params, cfg, 5, mean, Rng(79))
    for i in range(5):
        sub = Rng(79).stream("sample", i)
        perm = tuple(int(j) for j in sub.permutation(D))
        assert perm == batch.orderings_used[i].perm
        want = draw_row(params, cfg, np.zeros(D), perm, 0, mean, sub)
        assert np.array_equal(batch.vectors[i], want)
    # 130 rows: inpaint blocks of 100 and 30, each folding its rows' observed values
    rng = Rng(83).stream("rows")
    rows = np.array([[float(rng.bernoulli(0.5)) for _ in range(D)] for _ in range(130)])
    obs = [7, 3, 10, 4]
    rngs = [Rng(83).stream("inpaint", i) for i in range(130)]
    filled = inpaint(params, cfg, rows, obs, mean, rngs)
    for i in range(130):
        sub = Rng(83).stream("inpaint", i)
        perm = conditional_ordering(D, obs, sub).perm
        assert np.array_equal(filled[i], draw_row(params, cfg, rows[i], perm, len(obs), mean, sub))


def _reference_train(structure, train_rows, valid_rows, config, mode):
    """The epoch loop one row at a time: same streams, same draw order."""
    mean = train_rows.mean(axis=0)
    master = Rng(config.seed)
    params = init_params(structure, master.stream("init"))
    mask_rng = master.stream("masks")
    shuffle_rng = master.stream("shuffle")
    phases = [("pretrain", config.pretrain_epochs)] if mode == "pretrain_then_finetune" else []
    phases.append(("finetune", config.finetune_epochs))
    best, best_params, losses = None, None, []
    for objective, budget in phases:
        state = {n: (np.zeros_like(t), np.zeros_like(t)) for n, t in params.tensors().items()}
        for _ in range(budget):
            order = shuffle_rng.permutation(len(train_rows))
            total = 0.0
            for start in range(0, len(order), config.minibatch_size):
                block = order[start : start + config.minibatch_size]
                grads = {n: np.zeros_like(t) for n, t in params.tensors().items()}
                for i in block:
                    x = train_rows[i]
                    m = sample_mask(mask_rng, structure.D, 1)[0]
                    vs, _ = forward_row(params, structure, x, m, mean)
                    total += loss_row(vs, x, m, objective)
                    for name, g in gradient_row(params, structure, x, m, mean, objective).items():
                        grads[name] += g
                for name in grads:
                    grads[name] /= len(block)
                    if name in ("W", "V", "W2"):
                        grads[name] += 2.0 * config.weight_decay * params.tensors()[name]
                adadelta(state, params, grads, config.rho, config.epsilon)
            masks = Rng(config.seed).stream("valid-masks")
            valid = 0.0
            for x in valid_rows:
                m = sample_mask(masks, structure.D, 1)[0]
                valid += loss_row(forward_row(params, structure, x, m, mean)[0], x, m, "finetune")
            valid /= len(valid_rows)
            losses.append((total / len(train_rows), valid))
            if objective == "finetune" and (best is None or valid < best):
                best, best_params = valid, params.copy()
    return best_params, best, losses


@pytest.mark.parametrize("n", [2, 3])
def test_train_matches_per_row_loop(n):
    rng = Rng(31).stream("rows")
    train_rows = np.array([[float(rng.bernoulli(0.3)) for _ in range(6)] for _ in range(21)])
    valid_rows = np.array([[float(rng.bernoulli(0.3)) for _ in range(6)] for _ in range(9)])
    structure = StructureConfig(D=6, hidden1=5, k=2, n=n, hidden2=3 if n == 3 else None)
    config = TrainConfig(
        minibatch_size=8, pretrain_epochs=2, finetune_epochs=3, weight_decay=0.01, seed=37
    )
    result = train(structure, train_rows, valid_rows, config, "pretrain_then_finetune")
    want_params, want_best, want_losses = _reference_train(
        structure, train_rows, valid_rows, config, "pretrain_then_finetune"
    )
    for name, t in result.params.tensors().items():
        assert _close(t, want_params.tensors()[name]) < TOL, name
    assert _close(result.best_valid, want_best) < TOL
    got_losses = [tuple(float(v) for v in line.split()[5::2]) for line in result.history]
    assert np.max(np.abs(np.array(got_losses) - np.array(want_losses))) < 1e-6
