"""The block forward/backward core against the per-row reference in row_reference.py."""

import dataclasses

import numpy as np
import pytest
import row_reference
from conftest import random_model
from row_reference import (
    PROB_EPS,
    adadelta,
    conditional_ordering,
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
from nadek import sampling
from nadek.numerics import ContractError
from nadek.numerics import BLOCK_ROWS
from nadek.training import _validation_loss, _validation_masks, _Workspace
from nadek.training import backward, sample_mask, stochastic_loss

TOL = 1e-12


def _close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def _case(n, activation):
    """A 7-row block whose first row drives two outputs past the clamp."""
    D = 6
    hidden2 = 4 if n == 3 else None
    params, cfg = random_model(
        D, 5, k=3, hidden2=hidden2, activation=activation, seed=11 + 2 * n
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

    want_loss = sum(loss_row(vs, x[r], m[r], objective) for r, (vs, _) in enumerate(rows))
    assert _close(stochastic_loss(traj, x, objective), want_loss) < TOL

    got = backward(params, cfg, traj, x, objective).tensors()
    want = {name: np.zeros_like(t) for name, t in got.items()}
    for r in range(len(x)):
        for name, g in gradient_row(params, cfg, x[r], m[r], mean, objective).items():
            want[name] += g
    for name in want:
        assert _close(got[name], want[name]) < TOL, name


def test_single_row_is_a_block_of_one():
    # one row goes in as a 1 x D block; a bare row of length D is refused
    params, cfg, x, m, mean = _case(2, "tanh")
    with pytest.raises(ContractError):
        forward(params, cfg, x[3], m[3], mean)
    block = forward(params, cfg, x[3:4], m[3:4], mean)
    vs, _ = forward_row(params, cfg, x[3], m[3], mean)
    for a, b in zip(block.v_states, vs):
        assert a.shape == (1, 6)
        assert _close(a[0], b) < TOL
    with pytest.raises(ContractError):
        backward(params, cfg, block, x[3], "finetune")
    got = backward(params, cfg, block, x[3:4], "finetune").tensors()
    for name, g in gradient_row(params, cfg, x[3], m[3], mean, "finetune").items():
        assert _close(got[name], g) < TOL


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
    ws = _Workspace(cfg, min(BLOCK_ROWS, len(data)))
    got = _validation_loss(params, cfg, data, _validation_masks(6, len(data), 5), mean, ws)
    assert _close(got, want) < TOL


def _walk_case(n, activation):
    """D=130 (staircase blocks of 100 and 30); coordinates 0 and 1 sit past the clamp."""
    D = 130
    hidden2 = 4 if n == 3 else None
    params, cfg = random_model(
        D, 5, k=3, hidden2=hidden2, activation=activation, seed=41 + 2 * n
    )
    params.b[0] = 60.0
    params.b[1] = -60.0
    traj = forward(params, cfg, np.zeros((1, D)), np.ones((1, D)), np.full(D, 0.5))
    assert traj.v_states[-1][0, 0] > 1.0 - PROB_EPS
    assert traj.v_states[-1][0, 1] < PROB_EPS
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
        D, 5, k=3, hidden2=4 if n == 3 else None, activation="sigmoid", seed=61 + 2 * n
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
    samples = sample_from_mixture(params, cfg, 130, mean, Rng(53))
    for i in range(130):
        sub = Rng(53).stream("sample", i)
        want = draw_row(params, cfg, np.zeros(D), sub.permutation(D), 0, mean, sub)
        assert np.array_equal(samples[i], want)
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
        D, 5, k=k, hidden2=4 if n == 3 else None, activation=activation, seed=71 + 2 * n
    )
    params.b[0] = 60.0
    params.b[1] = -60.0
    mean = 0.2 + 0.6 * Rng(73).stream("mean").uniform_array(D)
    traj = forward(params, cfg, np.zeros((1, D)), np.ones((1, D)), mean)
    assert traj.v_states[-1][0, 0] > 1.0 - PROB_EPS
    assert traj.v_states[-1][0, 1] < PROB_EPS
    samples = sample_from_mixture(params, cfg, 5, mean, Rng(79))
    for i in range(5):
        sub = Rng(79).stream("sample", i)
        want = draw_row(params, cfg, np.zeros(D), sub.permutation(D), 0, mean, sub)
        assert np.array_equal(samples[i], want)
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


def _streams(seed, name, count):
    return [Rng(seed).stream(name, i) for i in range(count)]


@pytest.mark.parametrize("D", [1, 3, 250])
def test_inpaint_draws_match_conditional_ordering(D):
    # row r draws what draw_row draws along the whole ordering that the
    # reference deals from row r's generator, observed indices first, and
    # consumes as many draws; 130 rows inpaint as blocks of 100 and 30
    rows = 130
    params, cfg = random_model(D, 5, k=2, seed=151)
    mean = 0.2 + 0.6 * Rng(157).stream("mean").uniform_array(D)
    data = (Rng(163).stream("rows").uniform_array((rows, D)) < 0.5) * 1.0
    for observed in sorted({0, 1, D - 1, D}):
        obs = [int(i) for i in Rng(167).stream("obs", observed).permutation(D)[:observed]]
        rngs = _streams(173, "inpaint", rows)
        filled = inpaint(params, cfg, data, obs, mean, rngs)
        for r, sub in enumerate(_streams(173, "inpaint", rows)):
            perm = conditional_ordering(D, obs, sub).perm
            want = draw_row(params, cfg, data[r], perm, observed, mean, sub)
            assert np.array_equal(filled[r], want)
            assert rngs[r].counter == sub.counter


def _check_walk(walk, ref, got, rows, perms, start, rngs, params, cfg, mean):
    """Draws equal draw_row's, and every conditional the walk read is draw_row's."""
    free = len(perms[0]) - start
    # the walk records one array per position, block after block
    blocks = [np.stack(walk[j : j + free]) for j in range(0, len(walk), free)]
    seen = np.hstack(blocks)
    assert seen.shape == (free, len(rows))
    for r in range(len(rows)):
        ref.clear()
        want = draw_row(params, cfg, rows[r], perms[r], start, mean, rngs[r])
        assert np.max(np.abs(seen[:, r] - ref)) < TOL
        assert np.array_equal(got[r], want)
        # coordinates 0 and 1 sit past the clamp at every prefix
        visits = list(perms[r][start:])
        assert seen[visits.index(0), r] == 1.0 - PROB_EPS
        assert seen[visits.index(1), r] == PROB_EPS


@pytest.mark.parametrize(
    "n, activation, inpaint_rows",
    [(2, "tanh", 102), (2, "sigmoid", 0), (3, "tanh", 0), (3, "sigmoid", 102)],
)
def test_walk_narrows_to_still_missing_union(n, activation, inpaint_rows, monkeypatch):
    # D=250: walks narrow at positions 100 and 200 to the coordinates some
    # row of the block has still to draw, folding the rest into the bias
    D = 250
    params, cfg = random_model(
        D, 5, k=3, hidden2=4 if n == 3 else None, activation=activation, seed=89 + 2 * n
    )
    params.b[0] = 60.0
    params.b[1] = -60.0
    mean = 0.2 + 0.6 * Rng(97).stream("mean").uniform_array(D)
    walk, ref, widths = [], [], []
    real, real_ref = sampling._conditionals, row_reference._conditional

    def conditionals(sub, config, a1, mask, *rest):
        widths.append(mask.shape[1])
        walk.append(real(sub, config, a1, mask, *rest))
        return walk[-1]

    def conditional(*args):
        ref.append(real_ref(*args))
        return ref[-1]

    monkeypatch.setattr(sampling, "_conditionals", conditionals)
    monkeypatch.setattr(row_reference, "_conditional", conditional)
    for count in (1, 2, 5):
        walk.clear()
        widths.clear()
        samples = sample_from_mixture(params, cfg, count, mean, Rng(101 + count))
        subs = _streams(101 + count, "sample", count)
        perms = [sub.permutation(D) for sub in subs]
        zeros = np.zeros((count, D))
        _check_walk(walk, ref, samples, zeros, perms, 0, subs, params, cfg, mean)
        assert widths[0] == D and widths[-1] < D
        if count == 1:
            # one row walks on exactly the coordinates it has still to draw
            assert widths == [250] * 100 + [150] * 100 + [50] * 50
    if inpaint_rows:
        # blocks of 100 and 2 rows, each folding its rows' observed values
        rng = Rng(103).stream("rows")
        rows = (rng.uniform_array((inpaint_rows, D)) < 0.5) * 1.0
        obs = [5, 177, 77, 230]
        walk.clear()
        filled = inpaint(params, cfg, rows, obs, mean, _streams(107, "inpaint", inpaint_rows))
        subs = _streams(107, "inpaint", inpaint_rows)
        perms = [conditional_ordering(D, obs, sub).perm for sub in subs]
        _check_walk(walk, ref, filled, rows, perms, len(obs), subs, params, cfg, mean)


def _reference_train(structure, train_rows, valid_rows, config):
    """The epoch loop one row at a time: same streams, same draw order."""
    mean = train_rows.mean(axis=0)
    master = Rng(config.seed)
    params = init_params(structure, master.stream("init"))
    mask_rng = master.stream("masks")
    shuffle_rng = master.stream("shuffle")
    phases = [("pretrain", config.pretrain_epochs), ("finetune", config.finetune_epochs)]
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
    structure = StructureConfig(D=6, hidden1=5, k=2, hidden2=3 if n == 3 else None)
    config = TrainConfig(
        minibatch_size=8, pretrain_epochs=2, finetune_epochs=3, weight_decay=0.01, seed=37
    )
    result = train(structure, train_rows, valid_rows, config)
    want_params, want_best, want_losses = _reference_train(
        structure, train_rows, valid_rows, config
    )
    for name, t in result.params.tensors().items():
        assert _close(t, want_params.tensors()[name]) < TOL, name
    assert _close(result.best_valid, want_best) < TOL
    got_losses = [tuple(float(v) for v in line.split()[5::2]) for line in result.history]
    assert np.max(np.abs(np.array(got_losses) - np.array(want_losses))) < 1e-6
