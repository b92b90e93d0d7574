"""Objectives, gradients, mask draws, AdaDelta, and the epoch loop."""

import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
import row_reference
from conftest import random_model

from nadek import (
    ModelParams,
    Rng,
    StructureConfig,
    forward,
    init_params,
    log_prob_ordering,
    save_checkpoint,
    training,
)
from nadek.checkpoint import encode_mean
from nadek.cli import main
from nadek.data import save_text_matrix
from nadek.evaluation import Ordering
from nadek.model import Trajectory
from nadek.numerics import BLOCK_ROWS, ContractError
from nadek.training import (
    AdaDeltaState,
    TrainConfig,
    adadelta_step,
    add_weight_decay,
    backward,
    sample_mask,
    stochastic_loss,
    train,
)

LN2 = math.log(2.0)


def _valid_loss(params, cfg, data, mean, seed):
    """The mean loss a run with ``seed`` scores its validation set ``data`` by."""
    masks = training._validation_masks(cfg.D, len(data), seed)
    ws = training._Workspace(cfg, min(BLOCK_ROWS, len(data)))
    return training._validation_loss(params, cfg, data, masks, mean, ws)


def _mask_for(D, observed):
    """A 1 x D mask block with the given indices observed."""
    mask = np.ones((1, D))
    mask[0, observed] = 0.0
    return mask


class TestSampleMask:
    def test_cardinality(self):
        # d = D + 1 - (missing count) lies in 1..D: at least one missing
        rng = Rng(1).stream("masks")
        for _ in range(300):
            m = sample_mask(rng, 5, 1)[0]
            assert np.all((m == 0.0) | (m == 1.0))
            assert 1 <= 6 - int(np.sum(m)) <= 5

    def test_single_dimension(self):
        rng = Rng(2).stream("masks")
        for _ in range(20):
            m = sample_mask(rng, 1, 1)[0]
            assert m.tolist() == [1.0]

    # A block of n rows holds the same masks as n one-row draws in turn
    # (see test_block_row_is_draw_at_counter), and is drawn in one call.

    def test_missing_frequency(self):
        # E[missing fraction] = (4+3+2+1)/16 = 0.625 per index
        rng = Rng(3).stream("masks")
        n = 100000
        hits = sample_mask(rng, 4, n).sum(axis=0)
        freq = hits / n
        assert np.all(np.abs(freq - 0.625) < 0.01)

    def test_d_uniform(self):
        rng = Rng(4).stream("masks")
        n = 40000
        d = 4 + 1 - sample_mask(rng, 4, n).sum(axis=1).astype(int)
        counts = np.bincount(d - 1, minlength=4)
        assert np.all(np.abs(counts / n - 0.25) < 0.01)

    def test_block_law(self):
        # d uniform on {1..4}; given d, each (d-1)-subset of observed
        # indices equally likely.  Chi-square statistics stay below 40,
        # whose upper tail is < 2e-7 at the largest (5) degrees of freedom.
        D, rows = 4, 60000
        mask = sample_mask(Rng(5).stream("masks"), D, rows)
        assert mask.shape == (rows, D)
        d = D + 1 - mask.sum(axis=1).astype(int)
        observed = [tuple(np.flatnonzero(row == 0.0)) for row in mask]

        def chi2(counts):
            counts = np.asarray(counts, dtype=np.float64)
            expected = counts.sum() / counts.size
            return float(np.sum((counts - expected) ** 2 / expected))

        assert chi2(np.bincount(d, minlength=D + 1)[1:]) < 40.0
        for dd in range(1, D + 1):
            subsets = list(itertools.combinations(range(D), dd - 1))
            seen = [obs for obs, row_d in zip(observed, d) if row_d == dd]
            assert set(seen) <= set(subsets)
            assert chi2([seen.count(sub) for sub in subsets]) < 40.0

    def test_block_row_is_draw_at_counter(self):
        # row r reads draws r*D .. r*D+D-1 alone, so rows are independent
        D, rows = 9, 12
        block = sample_mask(Rng(6).stream("masks"), D, rows)
        for r in range(rows):
            rng = Rng(6).stream("masks")
            rng.counter = r * D
            assert np.array_equal(sample_mask(rng, D, 1)[0], block[r])
            assert rng.counter == (r + 1) * D

    @staticmethod
    def _same_as_reference(rng, D, rows):
        ref = Rng(rng.seed)
        ref.counter = rng.counter
        got, want = sample_mask(rng, D, rows), row_reference.sample_mask(ref, D, rows)
        assert got.shape == want.shape == (rows, D)
        assert np.array_equal(got, want)
        assert rng.counter == ref.counter
        return got

    @pytest.mark.parametrize("rows", [1, 7, 25, 100])
    @pytest.mark.parametrize("D", [1, 2, 3, 16, 784])
    def test_equals_fisher_yates_reference(self, D, rows):
        for seed in range(5):
            self._same_as_reference(Rng(40 + seed).stream("masks"), D, rows)

    @pytest.mark.parametrize("D, rows", [(2, 7), (3, 7), (16, 1), (784, 1)])
    def test_reference_when_every_d_is_one(self, D, rows):
        # row r's d comes from draw counter + r*D: start where all are 1
        first = Rng(7).stream("masks").below_array(np.full(20000, D))
        starts = [
            c for c in range(len(first) - rows * D)
            if not first[c : c + rows * D : D].any()
        ]
        assert len(starts) >= 5
        for c in starts[:5]:
            rng = Rng(7).stream("masks")
            rng.counter = c
            assert np.all(self._same_as_reference(rng, D, rows) == 1.0)

    @pytest.mark.parametrize("D, rows", [(2, 1), (16, 7), (784, 25), (784, 100)])
    def test_reference_when_a_row_has_d_equal_to_D(self, D, rows):
        first = Rng(8).stream("masks").below_array(np.full(20000, D))
        starts = np.flatnonzero(first == D - 1)[:5].tolist()
        assert len(starts) == 5
        for c in starts:
            rng = Rng(8).stream("masks")
            rng.counter = c
            # row 0 observes all but one component
            assert self._same_as_reference(rng, D, rows)[0].sum() == 1.0

    def test_no_rows_consume_no_draws(self):
        rng = Rng(9).stream("masks")
        rng.counter = 5
        mask = sample_mask(rng, 6, 0)
        assert mask.shape == (0, 6)
        assert rng.counter == 5

    def test_negative_rows_rejected(self):
        rng = Rng(9).stream("masks")
        with pytest.raises(ContractError):
            sample_mask(rng, 6, -1)
        assert rng.counter == 0


def _zero_model(D, hidden1, k):
    cfg = StructureConfig(D=D, hidden1=hidden1, k=k)
    params = init_params(cfg, Rng(0).stream("init"))
    for t in params.tensors().values():
        t[...] = 0.0
    return params, cfg


class TestLosses:
    def test_stochastic_hand_value_d2(self):
        # D=4, one observed, all probabilities at one half
        params, cfg = _zero_model(4, 3, 2)
        x = np.array([[1.0, 0.0, 1.0, 1.0]])
        m = _mask_for(4, observed=[1])
        traj = forward(params, cfg, x, m, np.full(4, 0.5))
        assert abs(stochastic_loss(traj, x) - 4 * LN2) < 1e-12

    def test_stochastic_hand_value_d1(self):
        params, cfg = _zero_model(2, 2, 1)
        x = np.array([[1.0, 0.0]])
        m = _mask_for(2, observed=[])
        traj = forward(params, cfg, x, m, np.full(2, 0.5))
        assert abs(stochastic_loss(traj, x) - 2 * LN2) < 1e-12

    def test_perfect_reconstruction_near_zero(self):
        x = np.array([[1.0, 0.0, 1.0]])
        m = _mask_for(3, observed=[])
        traj = Trajectory(
            v_states=[np.full((1, 3), 0.5), x.copy()],
            h_states=[(np.zeros((1, 2)),)],
            mask=m,
        )
        loss = stochastic_loss(traj, x)
        assert 0.0 <= loss < 1e-11

    def test_pretrain_equals_stochastic_at_k1(self):
        params, cfg = random_model(5, 4, k=1, seed=61)
        rng = Rng(62).stream("masks")
        for _ in range(20):
            x = np.array([[float(rng.bernoulli(0.5)) for _ in range(5)]])
            m = sample_mask(rng, 5, 1)
            traj = forward(params, cfg, x, m, np.full(5, 0.5))
            assert stochastic_loss(traj, x, "pretrain") == stochastic_loss(traj, x)

    def test_unknown_objective_rejected(self):
        params, cfg = _zero_model(4, 3, 2)
        x = np.array([[0.0, 1.0, 1.0, 0.0]])
        traj = forward(params, cfg, x, _mask_for(4, observed=[2]), np.full(4, 0.5))
        for call in (stochastic_loss, lambda t, x, o: backward(params, cfg, t, x, o)):
            with pytest.raises(ContractError):
                call(traj, x, "finetuned")

    def test_pretrain_hand_value(self):
        # every step outputs one half on missing coords
        params, cfg = _zero_model(4, 3, 3)
        x = np.array([[0.0, 1.0, 1.0, 0.0]])
        m = _mask_for(4, observed=[2])
        traj = forward(params, cfg, x, m, np.full(4, 0.5))
        assert abs(stochastic_loss(traj, x, "pretrain") - 4 * LN2) < 1e-12


class TestBackward:
    def test_matches_textbook_single_step(self):
        # all-missing mask and k=1 reduce to plain one-hidden-layer backprop
        params, cfg = random_model(5, 4, k=1, seed=71)
        x = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        m = _mask_for(5, observed=[])
        mean = np.array([0.2, 0.5, 0.7, 0.4, 0.6])
        traj = forward(params, cfg, x[None], m, mean)
        got = backward(params, cfg, traj, x[None], "finetune")

        h = np.tanh(params.W @ mean + params.c)
        s = 1.0 / (1.0 + np.exp(-(params.V @ h + params.b)))
        dz = s - x
        dV = np.outer(dz, h)
        db = dz.copy()
        da = (params.V.T @ dz) * (1.0 - h * h)
        dW = np.outer(da, mean)
        dc = da.copy()
        assert np.max(np.abs(got.V - dV)) < 1e-12
        assert np.max(np.abs(got.b - db)) < 1e-12
        assert np.max(np.abs(got.W - dW)) < 1e-12
        assert np.max(np.abs(got.c - dc)) < 1e-12

    def test_zero_gradient_at_exact_reconstruction(self):
        params, cfg = random_model(4, 3, k=1, seed=72)
        x = np.array([[1.0, 0.0, 1.0, 0.0]])
        m = _mask_for(4, observed=[])
        traj = Trajectory(
            v_states=[np.full((1, 4), 0.5), x.copy()],
            h_states=[(np.zeros((1, 3)),)],
            mask=m,
        )
        got = backward(params, cfg, traj, x, "finetune")
        for t in got.tensors().values():
            assert np.all(t == 0.0)

    def test_observed_coordinates_carry_no_gradient(self):
        # outputs at observed slots are discarded every step, so their
        # output-row parameters can never receive gradient
        params, cfg = random_model(5, 4, k=3, seed=73)
        m = _mask_for(5, observed=[0, 2])
        mean = np.full(5, 0.5)
        x = np.array([[1.0, 1.0, 0.0, 0.0, 1.0]])
        traj = forward(params, cfg, x, m, mean)
        for objective in ("finetune", "pretrain"):
            g = backward(params, cfg, traj, x, objective)
            assert np.all(g.b[[0, 2]] == 0.0)
            assert np.all(g.V[[0, 2], :] == 0.0)
            assert np.any(g.b[[1, 3, 4]] != 0.0)

    def test_invalid_objective(self):
        params, cfg = random_model(3, 2, k=1, seed=74)
        x = np.zeros((1, 3))
        m = _mask_for(3, observed=[])
        traj = forward(params, cfg, x, m, np.full(3, 0.5))
        with pytest.raises(ContractError):
            backward(params, cfg, traj, x, "other")


def _flatten(tensors):
    return np.concatenate([t.reshape(-1) for t in tensors.values()])


def finite_difference_check(n, k, objective, seed, h=1e-5):
    hidden2 = 4 if n == 3 else None
    params, cfg = random_model(6, 5, k=k, hidden2=hidden2, seed=seed)
    rng = Rng(seed + 1).stream("case")
    x = np.array([[float(rng.bernoulli(0.5)) for _ in range(6)]])
    m = _mask_for(6, observed=[1, 4])
    mean = np.array([0.3, 0.5, 0.2, 0.8, 0.6, 0.4])

    traj = forward(params, cfg, x, m, mean)
    grads = backward(params, cfg, traj, x, objective)
    worst = 0.0
    for tensor, gtensor in zip(params.tensors().values(), grads.tensors().values()):
        flat = tensor.reshape(-1)
        gflat = gtensor.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = stochastic_loss(forward(params, cfg, x, m, mean), x, objective)
            flat[i] = orig - h
            down = stochastic_loss(forward(params, cfg, x, m, mean), x, objective)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            rel = abs(gflat[i] - numeric) / max(1e-6, abs(gflat[i]), abs(numeric))
            worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("objective", ["finetune", "pretrain"])
@pytest.mark.parametrize("n,k", [(2, 1), (2, 3), (3, 3)])
def test_finite_differences(n, k, objective):
    worst = finite_difference_check(n, k, objective, seed=80 + 10 * n + k)
    assert worst < 1e-4


class TestWeightDecay:
    def test_zero_lambda_unchanged(self):
        params, _ = random_model(4, 3, seed=91)
        grads = params.zeros_like()
        grads.W[...] += 1.5
        before = grads.W.copy()
        add_weight_decay(grads, params, 0.0)
        assert np.array_equal(grads.W, before)

    def test_scalar_case(self):
        params = ModelParams(
            W=np.array([[1.0]]), c=np.zeros(1), V=np.array([[0.0]]), b=np.zeros(1)
        )
        grads = params.zeros_like()
        add_weight_decay(grads, params, 0.5)
        assert grads.W[0, 0] == 1.0

    def test_biases_never_touched(self):
        params, _ = random_model(4, 3, hidden2=2, seed=92)
        grads = params.zeros_like()
        add_weight_decay(grads, params, 0.37)
        assert np.all(grads.c == 0.0)
        assert np.all(grads.b == 0.0)
        assert np.all(grads.c2 == 0.0)
        assert np.any(grads.W != 0.0)
        assert np.any(grads.V != 0.0)
        assert np.any(grads.W2 != 0.0)

    def test_negative_rejected(self):
        params, _ = random_model(3, 2, seed=93)
        with pytest.raises(ContractError):
            add_weight_decay(params.zeros_like(), params, -0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_rejected(self, lam):
        params, _ = random_model(3, 2, seed=93)
        with pytest.raises(ContractError):
            add_weight_decay(params.zeros_like(), params, lam)


def _unit_params():
    from nadek import ModelParams

    return ModelParams(
        W=np.zeros((1, 1)), c=np.zeros(1), V=np.zeros((1, 1)), b=np.zeros(1)
    )


class TestAdaDelta:
    def test_zero_gradient_no_motion(self):
        params = _unit_params()
        state = AdaDeltaState.zeros_like(params)
        for t in state.eg2.tensors().values():
            t += 0.5
        grads = params.zeros_like()
        adadelta_step(state, params, grads)
        assert np.all(params.W == 0.0)
        assert state.eg2.W[0, 0] == 0.95 * 0.5

    def test_first_step_value(self):
        params = _unit_params()
        state = AdaDeltaState.zeros_like(params)
        grads = ModelParams(
            W=np.ones((1, 1)), c=np.ones(1), V=np.ones((1, 1)), b=np.ones(1)
        )
        adadelta_step(state, params, grads)
        # exact recurrence: -sqrt(eps) / sqrt((1-rho)*1 + eps)
        expected = -math.sqrt(1e-6) / math.sqrt((1.0 - 0.95) * 1.0 + 1e-6)
        assert abs(expected - (-4.4721e-3)) < 1e-6
        for t in params.tensors().values():
            assert t.reshape(-1)[0] == expected

    def test_sign_symmetry(self):
        pa = _unit_params()
        pb = _unit_params()
        ga = ModelParams(W=np.full((1, 1), 0.7), c=np.full(1, 0.7), V=np.full((1, 1), 0.7), b=np.full(1, 0.7))
        gb = ModelParams(W=np.full((1, 1), -0.7), c=np.full(1, -0.7), V=np.full((1, 1), -0.7), b=np.full(1, -0.7))
        adadelta_step(AdaDeltaState.zeros_like(pa), pa, ga)
        adadelta_step(AdaDeltaState.zeros_like(pb), pb, gb)
        assert pa.W[0, 0] == -pb.W[0, 0]

    def test_first_step_opposes_gradient(self):
        params, _ = random_model(4, 3, seed=94)
        before = {n: t.copy() for n, t in params.tensors().items()}
        grads = params.zeros_like()
        fill = Rng(95).stream("g")
        for t in grads.tensors().values():
            flat = t.reshape(-1)
            for i in range(flat.size):
                flat[i] = fill.uniform(-1.0, 1.0)
        adadelta_step(AdaDeltaState.zeros_like(params), params, grads)
        for name, t in params.tensors().items():
            moved = t - before[name]
            g = grads.tensors()[name]
            nz = g != 0.0
            assert np.all(np.sign(moved[nz]) == -np.sign(g[nz]))

    def test_in_place_matches_plain_expression(self):
        # the in-place update keeps the formula's operation order: equal bits
        params, _ = random_model(4, 3, hidden2=2, seed=97)
        plain = params.copy()
        state = AdaDeltaState.zeros_like(params)
        eg2 = {n: np.zeros_like(t) for n, t in plain.tensors().items()}
        edx2 = {n: np.zeros_like(t) for n, t in plain.tensors().items()}
        for step in range(5):
            grads, _ = random_model(4, 3, hidden2=2, seed=98 + step)
            adadelta_step(state, params, grads)
            for name, p in plain.tensors().items():
                g = grads.tensors()[name]
                eg2[name] = 0.95 * eg2[name] + (1.0 - 0.95) * g * g
                delta = -np.sqrt(edx2[name] + 1e-6) / np.sqrt(eg2[name] + 1e-6) * g
                edx2[name] = 0.95 * edx2[name] + (1.0 - 0.95) * delta * delta
                p += delta
        for name, t in params.tensors().items():
            assert np.array_equal(t, plain.tensors()[name])
            assert np.array_equal(state.eg2.tensors()[name], eg2[name])
            assert np.array_equal(state.edx2.tensors()[name], edx2[name])

    def test_state_validation(self):
        params = _unit_params()
        with pytest.raises(ContractError):
            AdaDeltaState.zeros_like(params, rho=1.0)
        with pytest.raises(ContractError):
            AdaDeltaState.zeros_like(params, epsilon=0.0)
        for epsilon in (np.nan, np.inf):
            with pytest.raises(ContractError):
                AdaDeltaState.zeros_like(params, epsilon=epsilon)


class TestEstimatorUnbiasedness:
    def test_average_over_orderings_and_positions(self):
        params, cfg = random_model(4, 3, k=2, seed=96)
        mean = np.array([0.3, 0.6, 0.5, 0.2])
        x = np.array([1.0, 0.0, 1.0, 1.0])
        exact = -np.mean(
            [
                log_prob_ordering(params, cfg, x, Ordering(perm=p), mean)
                for p in itertools.permutations(range(4))
            ]
        )
        total = 0.0
        count = 0
        for p in itertools.permutations(range(4)):
            for d in range(1, 5):
                m = _mask_for(4, observed=list(p[: d - 1]))
                traj = forward(params, cfg, x[None], m, mean)
                total += stochastic_loss(traj, x[None])
                count += 1
        assert abs(total / count - exact) < 1e-10


class TestTrainLoop:
    def _toy(self):
        pat = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
        return np.tile(pat, (16, 1)), np.tile(pat, (8, 1))

    def test_zero_epochs(self):
        td, vd = self._toy()
        cfg = StructureConfig(D=4, hidden1=6, k=2)
        tc = TrainConfig(minibatch_size=8, finetune_epochs=0, seed=17)
        res = train(cfg, td, vd, tc)
        assert res.history == []
        assert res.epochs_run == 0
        assert res.best_valid is None
        fresh = init_params(cfg, Rng(17).stream("init"))
        for name, t in res.params.tensors().items():
            assert np.array_equal(t, fresh.tensors()[name])

    def test_deterministic_history(self):
        td, vd = self._toy()
        cfg = StructureConfig(D=4, hidden1=6, k=2)
        tc = TrainConfig(minibatch_size=8, finetune_epochs=5, seed=23)
        r1 = train(cfg, td, vd, tc)
        r2 = train(cfg, td, vd, tc)
        assert r1.history == r2.history
        for name, t in r1.params.tensors().items():
            assert np.array_equal(t, r2.params.tensors()[name])

    def test_history_line_format(self):
        td, vd = self._toy()
        cfg = StructureConfig(D=4, hidden1=6, k=1)
        tc = TrainConfig(minibatch_size=8, pretrain_epochs=2, finetune_epochs=2, seed=29)
        res = train(cfg, td, vd, tc)
        pattern = re.compile(
            r"^epoch (\d+) phase (pretrain|finetune) train -?\d+\.\d{6} valid -?\d+\.\d{6}$"
        )
        assert len(res.history) == 4
        phases = []
        for i, line in enumerate(res.history):
            m = pattern.match(line)
            assert m, line
            assert int(m.group(1)) == i + 1
            phases.append(m.group(2))
        assert phases == ["pretrain", "pretrain", "finetune", "finetune"]

    def test_beats_independent_bernoulli_entropy(self):
        # two complementary patterns: independent marginals cost 4 ln 2
        td, vd = self._toy()
        cfg = StructureConfig(D=4, hidden1=8, k=2)
        tc = TrainConfig(minibatch_size=8, finetune_epochs=200, seed=5)
        res = train(cfg, td, vd, tc)
        assert res.best_valid < 4 * LN2

    def test_early_stopping_mechanism(self, monkeypatch):
        td, vd = self._toy()
        cfg = StructureConfig(D=4, hidden1=4, k=1)
        for pretrain, script, epochs_run in (
            (0, [3.0, 2.0, 2.5, 2.6, 1.0, 1.0], 4),
            # pretraining scores below every fine-tuning score are never the
            # best, and patience counts fine-tuning epochs only
            (2, [0.5, 0.4, 3.0, 2.0, 2.5, 2.6, 1.0, 1.0], 6),
        ):
            scores = iter(script)
            monkeypatch.setattr(training, "_validation_loss", lambda *a, **k: next(scores))
            tc = TrainConfig(
                minibatch_size=8, pretrain_epochs=pretrain, finetune_epochs=50, patience=2, seed=31
            )
            res = train(cfg, td, vd, tc)
            assert res.epochs_run == epochs_run
            assert res.best_valid == 2.0

    @pytest.mark.parametrize(
        "script, best",
        [
            # (pretraining scores, fine-tuning scores) and the best global epoch
            # the best epoch is the last: the live params are returned
            (([], [3.0, 2.5, 2.0]), 3),
            # best at epoch 4, after earlier bests at epochs 1 and 2
            (([], [3.0, 2.0, 2.5, 1.5, 1.7, 1.8]), 4),
            # pretraining scores below every fine-tuning score are never the
            # best: the best is fine-tuning's second epoch
            (([0.5, 0.4], [3.0, 2.0, 2.5]), 4),
        ],
    )
    def test_result_holds_the_best_epochs_params(self, monkeypatch, script, best):
        td, vd = self._toy()
        pretrain, finetune = script
        seen, scores = [], iter(pretrain + finetune)

        def scripted(params, *args):
            seen.append(params.copy())
            return next(scores)

        monkeypatch.setattr(training, "_validation_loss", scripted)
        cfg = StructureConfig(D=4, hidden1=4, k=1)
        tc = TrainConfig(
            minibatch_size=8,
            pretrain_epochs=len(pretrain),
            finetune_epochs=len(finetune),
            seed=31,
        )
        res = train(cfg, td, vd, tc)
        assert res.epochs_run == len(seen) == len(pretrain) + len(finetune)
        assert res.best_valid == finetune[best - 1 - len(pretrain)]
        assert np.array_equal(res.params.vector, seen[best - 1].vector)
        assert not np.array_equal(seen[best - 1].vector, seen[best - 2].vector)

    def test_non_binary_data_rejected_before_any_block(self, monkeypatch):
        td, vd = self._toy()
        monkeypatch.setattr(training, "_block_step", None)  # not reached
        cfg = StructureConfig(D=4, hidden1=4, k=1)
        tc = TrainConfig(minibatch_size=8, finetune_epochs=1, seed=1)
        for bad_td, bad_vd in ((td * 0.5, vd), (td, vd * 0.5)):
            with pytest.raises(ContractError, match=r"input must be exactly binary \(0/1\)"):
                train(cfg, bad_td, bad_vd, tc)

    def test_validation_masks_fixed_across_calls(self):
        td, vd = self._toy()
        params, cfg = random_model(4, 5, k=1, seed=37)
        mean = np.full(4, 0.5)
        a = _valid_loss(params, cfg, vd, mean, seed=7)
        b = _valid_loss(params, cfg, vd, mean, seed=7)
        assert a == b
        c = _valid_loss(params, cfg, vd, mean, seed=8)
        assert a != c

    def test_invalid_data(self):
        td, vd = self._toy()
        cfg = StructureConfig(D=4, hidden1=4, k=1)
        tc = TrainConfig(minibatch_size=8, finetune_epochs=1, seed=1)
        with pytest.raises(ContractError):
            train(cfg, np.empty((0, 4)), vd, tc)
        with pytest.raises(ContractError):
            train(cfg, td, np.ones((2, 3)), tc)

    def test_validation_of_empty_data_rejected(self):
        td, _ = self._toy()
        cfg = StructureConfig(D=4, hidden1=4, k=1)
        tc = TrainConfig(minibatch_size=8, finetune_epochs=1, seed=1)
        with pytest.raises(ContractError, match="non-empty"):
            train(cfg, td, np.empty((0, 4)), tc)

    def test_validation_of_one_row_vector_rejected(self):
        td, _ = self._toy()
        cfg = StructureConfig(D=4, hidden1=4, k=1)
        tc = TrainConfig(minibatch_size=8, finetune_epochs=1, seed=1)
        with pytest.raises(ContractError, match="matrix with 4 columns"):
            train(cfg, td, np.ones(4), tc)

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(minibatch_size=0)
        with pytest.raises(ContractError):
            TrainConfig(rho=1.0)
        with pytest.raises(ContractError):
            TrainConfig(weight_decay=-0.5)
        for value in (np.nan, np.inf):
            with pytest.raises(ContractError):
                TrainConfig(weight_decay=value)
            with pytest.raises(ContractError):
                TrainConfig(epsilon=value)
        with pytest.raises(ContractError):
            TrainConfig(finetune_epochs=-1)
        with pytest.raises(ContractError):
            TrainConfig(patience=-1)


class TestGroupedMaskDraws:
    """Masks drawn for a run of whole blocks at once equal one draw per block."""

    CASES = {
        # short last minibatch and validation chunk; an epoch is one group
        "desk": (StructureConfig(D=16, hidden1=8, k=2), 230, 250, 25),
        # an epoch spans two groups at the default budget
        "wide": (StructureConfig(D=300, hidden1=6, k=1), 250, 130, 7),
    }

    def _run(self, case, budget, tmp_path, monkeypatch):
        structure, n_train, n_valid, batch = self.CASES[case]
        rng = Rng(41).stream(case)
        data = (rng.uniform_array((n_train + n_valid, structure.D)) < 0.3).astype(np.float64)
        calls = []

        def counted(rng, D, rows):
            calls.append(rows)
            return sample_mask(rng, D, rows)

        monkeypatch.setattr(training, "_MASK_DRAWS", budget)
        monkeypatch.setattr(training, "sample_mask", counted)
        config = TrainConfig(minibatch_size=batch, pretrain_epochs=1, finetune_epochs=2, seed=43)
        result = train(structure, data[:n_train], data[n_train:], config)
        path = tmp_path / f"{case}-{budget}.ckpt"
        save_checkpoint(str(path), result.params, structure, {"mean": encode_mean(result.mean)})
        valid = _valid_loss(result.params, structure, data[n_train:], result.mean, seed=44)
        return (path.read_bytes(), result.history, valid), calls

    @pytest.mark.parametrize("case", ["desk", "wide"])
    @pytest.mark.parametrize("group", ["default", "three blocks"])
    def test_groups_write_the_bytes_of_one_draw_per_block(self, case, group, tmp_path, monkeypatch):
        structure, n_train, n_valid, batch = self.CASES[case]
        budget = training._MASK_DRAWS if group == "default" else 3 * batch * structure.D
        grouped, grouped_calls = self._run(case, budget, tmp_path, monkeypatch)
        # a budget of one draw leaves one block per group: one call per block
        per_block, block_calls = self._run(case, 1, tmp_path, monkeypatch)
        chunks = [100] * (n_valid // 100) + [n_valid % 100]
        epoch = [batch] * (n_train // batch) + [n_train % batch]
        # the run draws its validation masks once, before its three epochs;
        # the last chunks are the masks _run scores the result with
        assert block_calls == chunks + epoch * 3 + chunks
        assert len(grouped[1]) == 3
        assert grouped == per_block
        assert len(grouped_calls) < len(block_calls)
        assert sum(grouped_calls) == sum(block_calls)


class TestValidationMasksOncePerRun:
    """A run draws its validation masks once, as bytes, and scores every epoch on them."""

    ARGV = [
        "train", "--data", "train.amat", "--valid", "valid.amat", "--out", "m.ckpt",
        "--hidden1", "8", "--k", "2", "--batch", "25", "--pretrain-epochs", "1",
        "--epochs", "30", "--patience", "2",
    ]

    def _rows(self):
        return (Rng(9).stream("rows").uniform_array((330, 16)) < 0.3).astype(np.uint8)

    def _train(self, workdir, seed, monkeypatch, capsys):
        """sha256 of the checkpoint, history, manifest and stdout of one CLI run in ``workdir``."""
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        rows = self._rows()
        save_text_matrix("train.amat", rows[:250])
        save_text_matrix("valid.amat", rows[250:])
        assert main([*self.ARGV, "--seed", str(seed)]) == 0
        outputs = [workdir / n for n in ("m.ckpt", "m.ckpt.history.log", "m.ckpt.manifest.json")]
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs]
        return digests + [hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()]

    @pytest.mark.parametrize("seed", [31, 32])
    def test_one_draw_writes_the_bytes_of_a_draw_per_epoch(
        self, tmp_path, monkeypatch, capsys, seed
    ):
        calls = []

        def counted(rng, D, rows):
            calls.append(rows)
            return sample_mask(rng, D, rows)

        with monkeypatch.context() as patch:
            patch.setattr(training, "sample_mask", counted)
            once = self._train(tmp_path / "once", seed, patch, capsys)
        epochs = len((tmp_path / "once" / "m.ckpt.history.log").read_text().splitlines())
        assert 4 <= epochs < 31  # pretraining, then fine-tuning stopped by patience
        # the 80 validation rows once, then the 250 training rows each epoch
        assert calls == [80] + [250] * epochs

        real = training._validation_loss

        def drawn_each_epoch(params, structure, data, masks, mean, workspace):
            # the documented draw: D per row, in row order, from the seed's stream
            fresh = sample_mask(Rng(seed).stream("valid-masks"), structure.D, len(data))
            return real(params, structure, data, fresh, mean, workspace)

        monkeypatch.setattr(training, "_validation_loss", drawn_each_epoch)
        assert self._train(tmp_path / "each", seed, monkeypatch, capsys) == once

    def test_bytes_train_as_their_float_values(self, tmp_path):
        rows = self._rows()
        structure = StructureConfig(D=16, hidden1=8, k=2)
        config = TrainConfig(
            minibatch_size=25, pretrain_epochs=1, finetune_epochs=5, patience=2, seed=31
        )
        results = []
        for dtype in (np.uint8, np.float64):
            result = train(structure, rows[:250].astype(dtype), rows[250:].astype(dtype), config)
            path = tmp_path / f"{np.dtype(dtype).name}.ckpt"
            save_checkpoint(str(path), result.params, structure, {"mean": encode_mean(result.mean)})
            results.append((path.read_bytes(), result.history, result.mean.tobytes()))
        assert results[0] == results[1]


class TestWorkspace:
    """A run trains every block on one workspace of block buffers; public calls make their own."""

    def test_a_step_allocates_less_than_a_block(self, monkeypatch):
        # D dwarfs the hidden width, so that backward's |W|-sized scratch,
        # made by each call, and numpy's buffer for a broadcast or cast
        # operand (at most 8192 values) stay well under one B x D block
        structure = StructureConfig(D=200, hidden1=20, k=2)
        rows = (Rng(12).stream("rows").uniform_array((360, 200)) < 0.3).astype(np.uint8)
        real, peaks = training._block_step, []

        def traced(*args):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                loss = real(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            return loss

        monkeypatch.setattr(training, "_block_step", traced)
        config = TrainConfig(minibatch_size=100, pretrain_epochs=1, finetune_epochs=1, seed=13)
        train(structure, rows[:300], rows[300:], config)
        assert len(peaks) == 6
        assert max(peaks) < 100 * 200 * 8

    def test_forward_calls_share_no_memory(self):
        params, cfg = random_model(7, 6, k=3, hidden2=5, seed=14)
        rng = Rng(15).stream("blocks")
        x = (rng.uniform_array((2, 9, 7)) < 0.5) * 1.0
        m = np.stack([sample_mask(rng, 7, 9), sample_mask(rng, 7, 9)])
        mean = np.full(7, 0.4)

        def arrays(traj):
            return [*traj.v_states, *(h for step in traj.h_states for h in step)]

        first = forward(params, cfg, x[0], m[0], mean)
        kept = [a.copy() for a in arrays(first)]
        second = forward(params, cfg, x[1], m[1], mean)
        assert not any(np.shares_memory(a, b) for a in arrays(first) for b in arrays(second))
        assert all(np.array_equal(a, b) for a, b in zip(arrays(first), kept))

    RUNS = {
        # pretraining, weight decay and patience; a short last minibatch
        "desk": (
            StructureConfig(D=16, hidden1=32, k=2),
            TrainConfig(
                minibatch_size=100, pretrain_epochs=1, finetune_epochs=4, weight_decay=0.001,
                patience=1, seed=16,
            ),
        ),
        # other widths, steps and rows: a workspace of 60-row blocks
        "n3-sigmoid": (
            StructureConfig(D=16, hidden1=24, k=3, hidden2=12, activation="sigmoid"),
            TrainConfig(minibatch_size=60, pretrain_epochs=1, finetune_epochs=1, seed=17),
        ),
    }

    def _bytes(self, name, tmp_path):
        structure, config = self.RUNS[name]
        rows = (Rng(18).stream("rows").uniform_array((330, 16)) < 0.3).astype(np.uint8)
        result = train(structure, rows[:250], rows[250:], config)
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(str(path), result.params, structure, {"mean": encode_mean(result.mean)})
        return path.read_bytes(), result.history

    def test_runs_in_turn_write_the_bytes_of_each_run_alone(self, tmp_path):
        alone = {name: self._bytes(name, tmp_path) for name in ("n3-sigmoid", "desk")}
        in_turn = [self._bytes(name, tmp_path) for name in ("desk", "n3-sigmoid", "desk")]
        assert in_turn == [alone["desk"], alone["n3-sigmoid"], alone["desk"]]
