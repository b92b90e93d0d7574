"""Structure validation and the k-step inference pass."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_model

from nadek import Rng, StructureConfig, forward, init_params, load_checkpoint, save_checkpoint
from nadek.model import ModelParams, build_input, expected_shapes
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
    flat = params._flat
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
    base = flat.__array_interface__["data"][0]
    start = 0
    for name, shape in expected_shapes(config).items():
        t = params.tensors()[name]
        assert t.base is flat and t.shape == shape and t.flags.c_contiguous, name
        assert t.__array_interface__["data"][0] - base == 8 * start, name
        start += math.prod(shape)
    assert start == flat.size
    assert params._vector() is flat


class TestParamVector:
    @pytest.mark.parametrize("hidden2", [None, 3])
    def test_built_params_tile_one_vector(self, hidden2, tmp_path):
        cfg = StructureConfig(D=5, hidden1=4, k=2, hidden2=hidden2)
        params = init_params(cfg, Rng(7).stream("init"))
        params.b[...] = np.arange(5.0)  # distinct values in every tensor
        separate = ModelParams(**{name: t.copy() for name, t in params.tensors().items()})
        assert separate._flat is None and separate._vector() is None
        save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        x = np.array([[1.0, 0, 1, 1, 0], [0, 0, 1, 0, 1]])
        m = np.array([[1.0, 1, 0, 1, 0], [0, 1, 1, 1, 1]])
        traj = forward(params, cfg, x, m, np.full(5, 0.5))
        copies = [params.copy(), separate.copy(), load_checkpoint(tmp_path / "m.ckpt")[0]]
        zeros = params.zeros_like()
        grads = backward(params, cfg, traj, x, "finetune")
        for built in (params, zeros, grads, *copies):
            _assert_tiles(built, cfg)
        assert not np.any(zeros._flat)
        for copy in copies:
            assert not np.shares_memory(copy._flat, params._flat)
            assert np.array_equal(copy._flat, params._flat)
        # backward into given params overwrites every entry with the same values
        out = params.zeros_like()
        out._flat.fill(np.nan)
        assert backward(params, cfg, traj, x, "finetune", out=out) is out
        assert np.array_equal(out._flat, grads._flat)

    def test_sub_models_and_rebound_tensors_have_no_vector(self):
        cfg = StructureConfig(D=5, hidden1=4, k=2)
        params = init_params(cfg, Rng(8).stream("init"))
        sub = replace(params, W=params.W[:, 1:], V=params.V[1:], b=params.b[1:])
        assert sub._flat is None and sub._vector() is None
        assert _slice(params, np.array([0, 3]), params.c)._flat is None
        # a field rebound to an array outside the vector retires the vector
        params.c = params.c.copy()
        assert params._flat is not None and params._vector() is None
        assert params.copy()._vector() is not None


class TestBuildInput:
    def test_nothing_missing(self):
        x = np.array([[1.0, 0.0, 1.0]])
        v0 = build_input(x, np.zeros((1, 3)), np.array([0.2, 0.4, 0.9]))
        assert np.array_equal(v0, x)

    def test_everything_missing(self):
        mean = np.array([0.2, 0.4, 0.9])
        v0 = build_input(np.zeros((1, 3)), np.ones((1, 3)), mean)
        assert np.array_equal(v0, [mean])

    def test_mixture(self):
        x = np.array([[1.0, 0.0]])
        m = np.array([[0.0, 1.0]])
        v0 = build_input(x, m, np.array([0.3, 0.7]))
        assert np.array_equal(v0, np.array([[1.0, 0.7]]))

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            build_input(np.zeros((1, 3)), np.zeros((1, 2)), np.zeros(3))

    def test_bare_row_rejected(self):
        # one row is a 1 x D block
        with pytest.raises(ContractError):
            build_input(np.zeros(3), np.zeros(3), np.zeros(3))
        params, cfg = random_model(3, 2, seed=40)
        with pytest.raises(ContractError):
            forward(params, cfg, np.zeros(3), np.ones(3), np.full(3, 0.5))

    def test_non_binary_mask(self):
        with pytest.raises(ContractError):
            build_input(np.zeros((1, 2)), np.array([[0.5, 0.0]]), np.zeros(2))

    def test_non_binary_input(self):
        with pytest.raises(ContractError):
            build_input(np.array([[0.4, 0.0]]), np.zeros((1, 2)), np.zeros(2))


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
