"""Structure validation and the k-step inference pass."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from conftest import random_model

from nadek import (
    Rng,
    StructureConfig,
    TrainConfig,
    draw_orderings,
    ensemble_log_prob,
    enumerate_distribution,
    evaluation,
    forward,
    init_params,
    load_checkpoint,
    log_prob_ordering,
    ordering_stats,
    sample_from_mixture,
    sampling,
    save_checkpoint,
    train,
)
from nadek.evaluation import identity_ordering
from nadek.model import ModelParams, _gather_columns, _Net, expected_shapes
from nadek.numerics import ContractError
from nadek.sampling import _slice
from nadek.training import backward


class TestStructureConfig:
    def test_valid_two_layer(self):
        StructureConfig(D=8, hidden1=4, k=2)

    def test_valid_three_layer(self):
        StructureConfig(D=8, hidden1=4, k=2, hidden2=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(D=0, hidden1=4),
            dict(D=8, hidden1=0),
            dict(D=8, hidden1=4, k=0),
            dict(D=8, hidden1=4, hidden2=0),
            dict(D=8, hidden1=4, activation="relu"),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ContractError):
            StructureConfig(**kwargs)


class TestInitParams:
    def test_deterministic(self):
        cfg = StructureConfig(D=10, hidden1=6, k=1)
        a = init_params(cfg, Rng(4).stream("init"))
        b = init_params(cfg, Rng(4).stream("init"))
        for name, t in a.tensors().items():
            assert np.array_equal(t, b.tensors()[name])

    def test_biases_zero(self):
        cfg = StructureConfig(D=5, hidden1=3, k=1, hidden2=2)
        p = init_params(cfg, Rng(1).stream("init"))
        assert np.all(p.c == 0.0) and np.all(p.b == 0.0) and np.all(p.c2 == 0.0)

    def test_bound_respected(self):
        cfg = StructureConfig(D=784, hidden1=500, k=1)
        p = init_params(cfg, Rng(2).stream("init"))
        bound = math.sqrt(6.0 / (784 + 500))
        assert abs(bound - 0.06836) < 1e-4
        assert np.max(np.abs(p.W)) <= bound
        assert np.max(np.abs(p.V)) <= math.sqrt(6.0 / (500 + 784))

    def test_shapes(self):
        cfg = StructureConfig(D=7, hidden1=4, k=2, hidden2=3)
        p = init_params(cfg, Rng(3).stream("init"))
        assert p.W.shape == (4, 7) and p.c.shape == (4,)
        assert p.W2.shape == (3, 4) and p.c2.shape == (3,)
        assert p.V.shape == (7, 3) and p.b.shape == (7,)
        p.check_shapes(cfg)
        with pytest.raises(ContractError):
            p.check_shapes(StructureConfig(D=7, hidden1=5, k=2, hidden2=3))


def _assert_tiles(params, config):
    """The tensors are views of one float64 vector, in canonical order."""
    vector = params.vector
    assert vector.ndim == 1 and vector.dtype == np.float64 and vector.flags.c_contiguous
    base = vector.__array_interface__["data"][0]
    start = 0
    for name, shape in expected_shapes(config).items():
        t = params.tensors()[name]
        assert t.base is vector and t.shape == shape and t.flags.c_contiguous, name
        assert t.dtype == np.float64, name
        assert t.__array_interface__["data"][0] - base == 8 * start, name
        start += math.prod(shape)
    assert start == vector.size


class TestParamVector:
    @pytest.mark.parametrize("hidden2", [None, 3])
    def test_built_params_tile_one_vector(self, hidden2, tmp_path):
        cfg = StructureConfig(D=5, hidden1=4, k=2, hidden2=hidden2)
        params = init_params(cfg, Rng(7).stream("init"))
        params.b[...] = np.arange(5.0)  # distinct values in every tensor
        separate = ModelParams(**{name: t.copy() for name, t in params.tensors().items()})
        save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        x = np.array([[1.0, 0, 1, 1, 0], [0, 0, 1, 0, 1]])
        m = np.array([[1.0, 1, 0, 1, 0], [0, 1, 1, 1, 1]])
        traj = forward(params, cfg, x, m, np.full(5, 0.5))
        copies = [params.copy(), separate, load_checkpoint(tmp_path / "m.ckpt")[0]]
        zeros = params.zeros_like()
        grads = backward(params, cfg, traj, x, "finetune")
        for built in (params, zeros, grads, *copies):
            _assert_tiles(built, cfg)
        assert not np.any(zeros.vector)
        for dup in copies:
            assert not np.shares_memory(dup.vector, params.vector)
            assert np.array_equal(dup.vector, params.vector)
        # backward into given params overwrites every entry with the same values
        out = params.zeros_like()
        out.vector.fill(np.nan)
        assert backward(params, cfg, traj, x, "finetune", out=out) is out
        assert np.array_equal(out.vector, grads.vector)

    def test_arrays_are_copied_not_aliased(self):
        cfg = StructureConfig(D=3, hidden1=2, hidden2=2)
        shapes = expected_shapes(cfg)
        given = {name: np.full(shape, i + 1.0) for i, (name, shape) in enumerate(shapes.items())}
        params = ModelParams(**given)
        _assert_tiles(params, cfg)
        assert np.array_equal(params.vector, np.concatenate([t.ravel() for t in given.values()]))
        for name, t in given.items():
            assert not np.shares_memory(t, params.vector), name
            t[...] = -1.0
        assert np.all(params.vector > 0.0)

    def test_int_and_fortran_inputs_land_in_a_c_order_float64_vector(self):
        cfg = StructureConfig(D=3, hidden1=2)
        W = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        V = np.arange(6).reshape(2, 3).T  # int, Fortran order
        params = ModelParams(W=W, c=[1, 2], V=V, b=np.arange(3))
        _assert_tiles(params, cfg)
        assert np.array_equal(params.W, W) and np.array_equal(params.c, [1.0, 2.0])
        assert np.array_equal(params.V, [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]])
        assert np.array_equal(params.b, [0.0, 1.0, 2.0])

    def test_w2_and_c2_come_together(self):
        net = dict(W=np.zeros((2, 3)), c=np.zeros(2), V=np.zeros((3, 2)), b=np.zeros(3))
        with pytest.raises(ContractError):
            ModelParams(**net, W2=np.zeros((2, 2)))
        with pytest.raises(ContractError):
            ModelParams(**net, c2=np.zeros(2))

    def test_fields_cannot_be_rebound(self):
        params = init_params(StructureConfig(D=3, hidden1=2), Rng(8).stream("init"))
        with pytest.raises(FrozenInstanceError):
            params.c = params.c.copy()
        with pytest.raises(FrozenInstanceError):
            params.W += 1.0  # an augmented assignment rebinds the field too
        with pytest.raises(FrozenInstanceError):
            params.vector = params.vector.copy()
        params.W[...] += 1.0  # writing into the tensor is the way
        assert params.W.base is params.vector

    def test_replace_gives_a_new_vector(self):
        cfg = StructureConfig(D=3, hidden1=2)
        params = init_params(cfg, Rng(9).stream("init"))
        other = replace(params, c=np.array([5.0, 6.0]))
        _assert_tiles(other, cfg)
        assert not np.shares_memory(other.vector, params.vector)
        assert np.array_equal(other.W, params.W) and np.array_equal(other.c, [5.0, 6.0])

    @pytest.mark.parametrize("hidden2", [None, 3])
    def test_deepcopy_and_pickle_own_one_vector(self, hidden2):
        cfg = StructureConfig(D=5, hidden1=4, hidden2=hidden2)
        params = init_params(cfg, Rng(11).stream("init"))
        for other in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            _assert_tiles(other, cfg)
            assert not np.shares_memory(other.vector, params.vector)
            assert np.array_equal(other.vector, params.vector)

    def test_sub_models_are_nets(self, monkeypatch):
        cfg = StructureConfig(D=5, hidden1=4, k=2, hidden2=3)
        params = init_params(cfg, Rng(8).stream("init"))
        sub = _slice(params, np.array([0, 3]), params.c)
        assert type(sub) is _Net and sub.W2 is params.W2 and sub.c2 is params.c2
        seen = []

        def recording(net, *args):
            seen.append(type(net))
            return np.full(len(args[-1]), 0.5)

        monkeypatch.setattr(evaluation, "_conditionals", recording)
        monkeypatch.setattr(sampling, "_conditionals", recording)
        x, mean = np.array([1.0, 0, 1, 1, 0]), np.full(5, 0.5)
        log_prob_ordering(params, cfg, x, identity_ordering(5), mean)
        sample_from_mixture(params, cfg, 2, mean, Rng(10))
        assert seen and set(seen) == {_Net}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("count", [0, 37])
def test_gather_columns_fills_any_layout(order, count):
    # chunks of columns, the last one short, into a buffer of either order
    source = Rng(17).stream("source").uniform_array((5, 40))
    cols = Rng(18).stream("cols").permutation(40)[:count]
    out = np.empty((5, count), order=order)
    assert _gather_columns(source, cols, out) is out
    assert np.array_equal(out, source[:, cols]) and out.flags[f"{order}_CONTIGUOUS"]


def _v0(x, m, mean):
    """The initial state v_0 of forward on the block x under mask m."""
    params, cfg = random_model(len(mean), 2, seed=40)
    return forward(params, cfg, x, m, mean).v_states[0]


class TestBuildInput:
    def test_nothing_missing(self):
        x = np.array([[1.0, 0.0, 1.0]])
        v0 = _v0(x, np.zeros((1, 3)), np.array([0.2, 0.4, 0.9]))
        assert np.array_equal(v0, x)

    def test_everything_missing(self):
        mean = np.array([0.2, 0.4, 0.9])
        v0 = _v0(np.zeros((1, 3)), np.ones((1, 3)), mean)
        assert np.array_equal(v0, [mean])

    def test_mixture(self):
        x = np.array([[1.0, 0.0]])
        m = np.array([[0.0, 1.0]])
        v0 = _v0(x, m, np.array([0.3, 0.7]))
        assert np.array_equal(v0, np.array([[1.0, 0.7]]))

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            _v0(np.zeros((1, 3)), np.zeros((1, 2)), np.zeros(3))

    def test_bare_row_rejected(self):
        # one row is a 1 x D block
        with pytest.raises(ContractError):
            _v0(np.zeros(3), np.zeros(3), np.zeros(3))

    def test_non_binary_mask(self):
        with pytest.raises(ContractError):
            _v0(np.zeros((1, 2)), np.array([[0.5, 0.0]]), np.zeros(2))

    def test_non_binary_input(self):
        with pytest.raises(ContractError):
            _v0(np.array([[0.4, 0.0]]), np.zeros((1, 2)), np.zeros(2))


#: Each entry point that checks a block or a mean, called at D=4 with a
#: block and a mean as wide as that block.
_ENTRY_POINTS = {
    "forward": lambda p, cfg, x, mean: forward(p, cfg, x, np.ones(x.shape), mean),
    "train": lambda p, cfg, x, mean: train(cfg, x, np.zeros((2, 4)), TrainConfig(finetune_epochs=1)),
    "ordering_stats": lambda p, cfg, x, mean: ordering_stats(p, cfg, x, draw_orderings(4, 2, 1), mean),
    "log_prob_ordering": lambda p, cfg, x, mean: log_prob_ordering(
        p, cfg, x.ravel(), identity_ordering(4), mean
    ),
    "sample_from_mixture": lambda p, cfg, x, mean: sample_from_mixture(p, cfg, 2, mean, Rng(1)),
    "ensemble_log_prob": lambda p, cfg, x, mean: ensemble_log_prob(p, cfg, x, draw_orderings(4, 2, 1), mean),
    "enumerate_distribution": lambda p, cfg, x, mean: enumerate_distribution(
        p, cfg, identity_ordering(4), mean
    ),
}


@pytest.mark.parametrize(
    "entry, block",
    [
        pytest.param(entry, block, id=f"{entry}-{kind}")
        for kind, block in (("wrong-width", np.zeros((1, 3))), ("empty", np.zeros((0, 4))))
        for entry in _ENTRY_POINTS
        # the sampler and the enumerator take no block: only their mean, as
        # wide as the narrow block, is wrong
        if kind == "wrong-width" or entry not in ("sample_from_mixture", "enumerate_distribution")
    ],
)
def test_wrong_width_and_empty_blocks_refused(entry, block):
    # the mean agrees with the block, so the block's own check must refuse it
    params, cfg = random_model(4, 3, seed=44)
    mean = np.full(block.shape[1], 0.5)
    with pytest.raises(ContractError, match="non-empty matrix with 4 columns|does not match D=4"):
        _ENTRY_POINTS[entry](params, cfg, block, mean)


def _zero_model(D, hidden1, k):
    cfg = StructureConfig(D=D, hidden1=hidden1, k=k)
    params = init_params(cfg, Rng(0).stream("init"))
    for t in params.tensors().values():
        t[...] = 0.0
    return params, cfg


class TestForward:
    def test_zero_params_give_half(self):
        params, cfg = _zero_model(4, 3, 3)
        x = np.array([[1.0, 0.0, 1.0, 0.0]])
        m = np.array([[1.0, 0.0, 1.0, 1.0]])
        traj = forward(params, cfg, x, m, np.full(4, 0.25))
        for t in range(1, 4):
            v = traj.v_states[t]
            assert np.all(v[m == 1.0] == 0.5)
            assert np.all(v[m == 0.0] == x[m == 0.0])

    def test_observed_clamped_bit_exact(self):
        params, cfg = random_model(6, 5, k=4, seed=21, spread=3.0)
        x = np.array([[1.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        m = np.array([[1.0, 0.0, 1.0, 0.0, 0.0, 1.0]])
        traj = forward(params, cfg, x, m, np.full(6, 0.5))
        for t in range(1, cfg.k + 1):
            assert np.array_equal(traj.v_states[t][m == 0.0], x[m == 0.0])

    def test_states_stay_in_unit_interval(self):
        params, cfg = random_model(5, 4, k=3, seed=31, spread=50.0)
        x = np.array([[0.0, 1.0, 1.0, 0.0, 1.0]])
        m = np.ones((1, 5))
        traj = forward(params, cfg, x, m, np.full(5, 0.5))
        for v in traj.v_states:
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_straight_line_oracle_two_layer(self):
        # independent scalar-loop recomputation of the recurrence
        params, cfg = random_model(3, 2, k=2, seed=41)
        x = np.array([1.0, 0.0, 1.0])
        m = np.array([1.0, 1.0, 0.0])
        mean = np.array([0.3, 0.6, 0.8])
        traj = forward(params, cfg, x[None], m[None], mean)

        v = [m[i] * mean[i] + (1 - m[i]) * x[i] for i in range(3)]
        for _ in range(2):
            h = [
                math.tanh(sum(params.W[r][i] * v[i] for i in range(3)) + params.c[r])
                for r in range(2)
            ]
            s = [
                1.0 / (1.0 + math.exp(-(sum(params.V[i][r] * h[r] for r in range(2)) + params.b[i])))
                for i in range(3)
            ]
            v = [m[i] * s[i] + (1 - m[i]) * x[i] for i in range(3)]
        assert np.max(np.abs(traj.v_states[-1][0] - np.array(v))) < 1e-14

    def test_straight_line_oracle_three_layer(self):
        params, cfg = random_model(3, 2, k=2, hidden2=2, seed=43)
        x = np.array([0.0, 1.0, 1.0])
        m = np.array([1.0, 0.0, 1.0])
        mean = np.array([0.5, 0.2, 0.7])
        traj = forward(params, cfg, x[None], m[None], mean)

        v = [m[i] * mean[i] + (1 - m[i]) * x[i] for i in range(3)]
        for _ in range(2):
            h1 = [
                math.tanh(sum(params.W[r][i] * v[i] for i in range(3)) + params.c[r])
                for r in range(2)
            ]
            h2 = [
                math.tanh(sum(params.W2[r][q] * h1[q] for q in range(2)) + params.c2[r])
                for r in range(2)
            ]
            s = [
                1.0 / (1.0 + math.exp(-(sum(params.V[i][r] * h2[r] for r in range(2)) + params.b[i])))
                for i in range(3)
            ]
            v = [m[i] * s[i] + (1 - m[i]) * x[i] for i in range(3)]
        assert np.max(np.abs(traj.v_states[-1][0] - np.array(v))) < 1e-14

    def test_sigmoid_activation_variant(self):
        params, cfg = random_model(4, 3, k=1, activation="sigmoid", seed=44)
        x = np.array([[1.0, 0.0, 0.0, 1.0]])
        traj = forward(params, cfg, x, np.ones((1, 4)), np.full(4, 0.5))
        v0 = np.full(4, 0.5)
        h = 1.0 / (1.0 + np.exp(-(params.W @ v0 + params.c)))
        s = 1.0 / (1.0 + np.exp(-(params.V @ h + params.b)))
        assert np.max(np.abs(traj.v_states[-1][0] - s)) < 1e-14

    @pytest.mark.parametrize("k", [1, 5])
    def test_steps_are_rbm_mean_field_sweeps(self, k):
        # the paper's third claim: with n=2, sigmoid activation and V = W.T,
        # each step is one mean-field sweep of an RBM with biases (b, c),
        # started at the data mean with the observed visibles clamped
        params, cfg = random_model(6, 4, k=k, activation="sigmoid", seed=45, spread=2.0)
        params = replace(params, V=params.W.T)
        x = np.array([[1.0, 0, 1, 1, 0, 1], [0.0, 1, 1, 0, 0, 1], [1.0, 1, 0, 0, 1, 0]])
        observed = np.array([[True] * 6, [True, False, True, False, False, True], [False] * 6])
        mean = np.linspace(0.15, 0.85, 6)
        traj = forward(params, cfg, x, (~observed) * 1.0, mean)
        for r in range(len(x)):
            mu_v = np.where(observed[r], x[r], mean)
            for t in range(1, k + 1):
                mu_h = 1.0 / (1.0 + np.exp(-(params.W @ mu_v + params.c)))
                mu_v = np.where(observed[r], x[r], 1.0 / (1.0 + np.exp(-(params.W.T @ mu_h + params.b))))
                assert np.max(np.abs(traj.v_states[t][r] - mu_v)) < 1e-12

    def test_weight_sharing_across_steps(self):
        # each step applies the same tensors to the previous state
        params, cfg = random_model(5, 4, k=3, seed=45)
        x = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        m = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        mean = np.full(5, 0.4)
        traj = forward(params, cfg, x[None], m[None], mean)
        for t in range(3):
            h = np.tanh(params.W @ traj.v_states[t][0] + params.c)
            assert np.array_equal(h, traj.h_states[t][0][0])
            s = 1.0 / (1.0 + np.exp(-(params.V @ h + params.b)))
            want = m * s + (1 - m) * x
            assert np.max(np.abs(traj.v_states[t + 1][0] - want)) < 1e-15

    def test_trajectory_bookkeeping(self):
        params, cfg = random_model(4, 3, k=3, hidden2=2, seed=46)
        traj = forward(params, cfg, np.zeros((1, 4)), np.ones((1, 4)), np.full(4, 0.5))
        assert len(traj.v_states) == 4
        assert len(traj.h_states) == 3
        assert all(len(step) == 2 for step in traj.h_states)
        assert traj.k_used == 3

    def test_k_override(self):
        params, cfg = random_model(4, 3, k=2, seed=47)
        traj = forward(
            params, replace(cfg, k=5), np.zeros((1, 4)), np.ones((1, 4)), np.full(4, 0.5)
        )
        assert traj.k_used == 5
        assert len(traj.v_states) == 6
        assert cfg.k == 2
        with pytest.raises(ContractError):
            replace(cfg, k=0)

    def test_more_steps_change_output(self):
        params, cfg = random_model(4, 3, k=1, seed=48)
        x = np.zeros((1, 4))
        m = np.ones((1, 4))
        mean = np.full(4, 0.5)
        one = forward(params, cfg, x, m, mean)
        five = forward(params, replace(cfg, k=5), x, m, mean)
        assert not np.array_equal(one.v_states[-1], five.v_states[-1])
