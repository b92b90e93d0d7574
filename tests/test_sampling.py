"""Ancestral draws, mixture batches, and conditional imputation."""

import numpy as np
import pytest
from conftest import index_counts, random_model, traced_peak, windows

from nadek import (
    Ordering,
    Rng,
    StructureConfig,
    ancestral_sample,
    enumerate_distribution,
    init_params,
    inpaint,
    sample_from_mixture,
)
from nadek import sampling
from nadek.evaluation import identity_ordering
from nadek.numerics import ContractError


def _zero_model(D, hidden1):
    cfg = StructureConfig(D=D, hidden1=hidden1, k=1)
    params = init_params(cfg, Rng(0).stream("init"))
    for t in params.tensors().values():
        t[...] = 0.0
    return params, cfg


def _tv(emp_counts, probs, n):
    return 0.5 * float(np.sum(np.abs(emp_counts / n - probs)))


def _inpaint_draws(D, observed):
    """Draws one inpainted row reads: a skipped shuffle of its observed indices,
    its visit order's shuffle, then a uniform per missing index."""
    return max(observed - 1, 0) + max(D - observed - 1, 0) + D - observed


def _streams(seed, count):
    return [Rng(seed).stream("cond", i) for i in range(count)]


class TestAncestral:
    def test_zero_params_uniform(self):
        # fair coin per coordinate: all 8 outcomes near 1/8; row i takes the
        # D=3 draws of loop call i over one generator
        params, cfg = _zero_model(3, 1)
        mean = np.full(3, 0.5)
        rng = Rng(42).stream("draws")
        o = identity_ordering(3)
        n = 100000
        counts = index_counts(ancestral_sample(params, cfg, o, mean, windows(rng, n, 3)))
        assert np.max(np.abs(counts / n - 0.125)) < 0.005

    def test_degenerate_mode(self):
        # saturated output biases pin every conditional at the clamp bound
        params, cfg = _zero_model(4, 2)
        params.b[...] += 40.0
        mean = np.full(4, 0.5)
        rng = Rng(43).stream("draws")
        o = identity_ordering(4)
        x = ancestral_sample(params, cfg, o, mean, windows(rng, 200, 4))
        assert np.array_equal(x, np.ones((200, 4)))

    def test_outputs_binary(self):
        params, cfg = random_model(5, 4, k=2, seed=44)
        mean = np.full(5, 0.5)
        rng = Rng(45).stream("draws")
        x = ancestral_sample(params, cfg, identity_ordering(5), mean, windows(rng, 50, 5))
        assert x.shape == (50, 5)
        assert np.all((x == 0.0) | (x == 1.0))

    def test_matches_enumeration(self):
        params, cfg = random_model(3, 4, k=2, seed=46, spread=1.5)
        mean = np.array([0.4, 0.5, 0.6])
        o = Ordering(perm=(1, 2, 0))
        table = enumerate_distribution(params, cfg, o, mean)
        rng = Rng(47).stream("draws")
        n = 30000
        counts = index_counts(ancestral_sample(params, cfg, o, mean, windows(rng, n, 3)))
        assert _tv(counts, table, n) < 0.02

    def test_wrong_ordering_length(self):
        params, cfg = random_model(4, 2, seed=48)
        with pytest.raises(ContractError):
            ancestral_sample(params, cfg, identity_ordering(3), np.full(4, 0.5), [Rng(1)])

    def test_no_generators(self):
        params, cfg = random_model(4, 2, seed=48)
        with pytest.raises(ContractError):
            ancestral_sample(params, cfg, identity_ordering(4), np.full(4, 0.5), [])


class TestMixture:
    def test_batch_shape_and_fields(self):
        params, cfg = random_model(4, 3, k=1, seed=49)
        samples = sample_from_mixture(params, cfg, 5, np.full(4, 0.5), Rng(50))
        assert samples.shape == (5, 4)
        assert np.all((samples == 0.0) | (samples == 1.0))

    def test_deterministic(self):
        params, cfg = random_model(4, 3, k=1, seed=51)
        a = sample_from_mixture(params, cfg, 6, np.full(4, 0.5), Rng(52))
        b = sample_from_mixture(params, cfg, 6, np.full(4, 0.5), Rng(52))
        assert np.array_equal(a, b)

    def test_sample_streams_independent_of_schedule(self):
        # sample i depends only on (seed, i), so recomputing it alone
        # reproduces the batch entry
        params, cfg = random_model(5, 3, k=2, seed=53)
        mean = np.full(5, 0.5)
        samples = sample_from_mixture(params, cfg, 7, mean, Rng(54))
        sub = Rng(54).stream("sample", 3)
        o = Ordering(perm=tuple(sub.permutation(5)))
        x = ancestral_sample(params, cfg, o, mean, [sub])
        assert np.array_equal(x, samples[3:4])

    def test_count_validation(self):
        params, cfg = random_model(3, 2, seed=55)
        with pytest.raises(ContractError):
            sample_from_mixture(params, cfg, 0, np.full(3, 0.5), Rng(1))

    def test_matches_averaged_enumeration(self):
        params, cfg = random_model(3, 4, k=2, seed=56, spread=1.5)
        mean = np.full(3, 0.5)
        n = 30000
        samples = sample_from_mixture(params, cfg, n, mean, Rng(57))
        tables = {}
        probs = np.zeros(8)
        for i in range(n):
            # sample i was drawn under the first permutation of its stream
            perm = tuple(Rng(57).stream("sample", i).permutation(3))
            if perm not in tables:
                tables[perm] = enumerate_distribution(params, cfg, Ordering(perm=perm), mean)
            probs += tables[perm]
        probs /= n
        counts = np.zeros(8)
        for x in samples:
            idx = int(x[0]) | (int(x[1]) << 1) | (int(x[2]) << 2)
            counts[idx] += 1
        assert _tv(counts, probs, n) < 0.02


class TestInpaint:
    def test_all_observed_verbatim(self):
        params, cfg = random_model(4, 3, seed=58)
        x = np.array([[1.0, 0.0, 0.0, 1.0]])
        out = inpaint(params, cfg, x, [0, 1, 2, 3], np.full(4, 0.5), [Rng(59)])
        assert np.array_equal(out, x)

    def test_observed_bit_exact(self):
        params, cfg = random_model(6, 4, k=2, seed=60, spread=2.0)
        mean = np.full(6, 0.5)
        x = np.tile([1.0, 0.0, 1.0, 1.0, 0.0, 0.0], (100, 1))
        rng = Rng(61).stream("draws")
        out = inpaint(params, cfg, x, [0, 3], mean, windows(rng, 100, _inpaint_draws(6, 2)))
        assert np.all(out[:, 0] == 1.0) and np.all(out[:, 3] == 1.0)
        assert np.all((out == 0.0) | (out == 1.0))

    def test_no_observed_full_sample(self):
        params, cfg = random_model(4, 3, seed=62)
        out = inpaint(params, cfg, np.zeros((1, 4)), [], np.full(4, 0.5), [Rng(63)])
        assert out.shape == (1, 4)
        assert np.all((out == 0.0) | (out == 1.0))

    def test_bytes_inpaint_as_their_float_values(self):
        params, cfg = random_model(12, 6, k=2, seed=67)
        mean = np.linspace(0.1, 0.9, 12)
        bits = (Rng(68).stream("rows").uniform_array((130, 12)) < 0.4).astype(np.uint8)
        outs = [
            inpaint(params, cfg, bits.astype(dtype), [1, 4, 5], mean,
                    [Rng(69).stream("row", r) for r in range(130)])
            for dtype in (np.uint8, np.float64)
        ]
        assert outs[0].dtype == np.uint8 and outs[1].dtype == np.float64
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0][:, [1, 4, 5]], bits[:, [1, 4, 5]])

    def test_unobserved_input_values_ignored(self):
        # garbage in unobserved slots must not influence the draw
        params, cfg = random_model(4, 3, k=2, seed=64)
        mean = np.full(4, 0.5)
        xa = np.array([[1.0, 0.0, 0.0, 0.0]])
        xb = np.array([[1.0, 1.0, 1.0, 1.0]])
        out_a = inpaint(params, cfg, xa, [0], mean, [Rng(65).stream("d")])
        out_b = inpaint(params, cfg, xb, [0], mean, [Rng(65).stream("d")])
        assert np.array_equal(out_a, out_b)

    def test_conditional_uniform_case(self):
        # zero parameters: conditional over the free coordinates is uniform
        params, cfg = _zero_model(3, 1)
        mean = np.full(3, 0.5)
        rng = Rng(66).stream("draws")
        n = 20000
        x = np.tile([1.0, 0.0, 0.0], (n, 1))
        out = inpaint(params, cfg, x, [0], mean, windows(rng, n, _inpaint_draws(3, 1)))
        assert np.all(out[:, 0] == 1.0)
        counts = index_counts(out[:, 1:])
        assert np.max(np.abs(counts / n - 0.25)) < 0.015

    def test_length_validation(self):
        params, cfg = random_model(4, 3, seed=67)
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros((1, 3)), [0], np.full(4, 0.5), [Rng(1)])
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros((1, 4)), [9], np.full(4, 0.5), [Rng(1)])
        # D distinct indices, all observed, are checked like any others
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros((1, 4)), [0, 1, 2, 99], np.full(4, 0.5), [Rng(1)])
        # one generator per row, and at least one row
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros(4), [0], np.full(4, 0.5), [Rng(1)])
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros((2, 4)), [0], np.full(4, 0.5), [Rng(1)])
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros((0, 4)), [0], np.full(4, 0.5), [])

    def test_observed_index_validation(self):
        params, cfg = random_model(4, 3, seed=67)
        for obs in ([0, 0], [4], [-1]):
            with pytest.raises(ContractError):
                inpaint(params, cfg, np.zeros((1, 4)), obs, np.full(4, 0.5), [Rng(1)])

    def test_walk_visits_only_the_missing_coordinates(self, monkeypatch):
        # the walk keeps the observed set and each row visits the rest
        params, cfg = random_model(7, 3, seed=70)
        walks = []
        monkeypatch.setattr(sampling, "_walk", lambda *args: walks.append(args))
        inpaint(params, cfg, np.zeros((50, 7)), [6, 1, 4], np.full(7, 0.5), _streams(5, 50))
        [(_, _, _, kept, orders, _, _)] = walks
        assert kept.tolist() == [1, 4, 6]
        assert orders.shape == (50, 4)
        assert all(sorted(order) == [0, 2, 3, 5] for order in orders.tolist())
        assert len({tuple(order) for order in orders.tolist()}) > 1

    def test_no_observed_visits_a_uniform_shuffle(self, monkeypatch):
        # with nothing observed, a row's visit order is its generator's permutation(D)
        params, cfg = random_model(5, 3, seed=71)
        walks = []
        monkeypatch.setattr(sampling, "_walk", lambda *args: walks.append(args))
        inpaint(params, cfg, np.zeros((3, 5)), [], np.full(5, 0.5), _streams(7, 3))
        [(_, _, _, kept, orders, _, _)] = walks
        assert kept.size == 0
        assert np.array_equal(orders, [rng.permutation(5) for rng in _streams(7, 3)])

    def test_non_binary_observed_value(self):
        params, cfg = random_model(4, 3, seed=68)
        x = np.array([[1.0, 0.5, 0.0, 0.0]])
        with pytest.raises(ContractError):
            inpaint(params, cfg, x, [0, 1], np.full(4, 0.5), [Rng(1)])
        with pytest.raises(ContractError):
            inpaint(params, cfg, x, [0, 1, 2, 3], np.full(4, 0.5), [Rng(1)])
        # an unobserved slot may hold anything
        inpaint(params, cfg, x, [0, 2], np.full(4, 0.5), [Rng(1)])


def _walks(params, cfg, mean):
    """One call of each walk entry point, at D=4."""
    yield lambda: ancestral_sample(params, cfg, identity_ordering(4), mean, [Rng(1)])
    yield lambda: sample_from_mixture(params, cfg, 2, mean, Rng(1))
    yield lambda: inpaint(params, cfg, np.zeros((1, 4)), [0], mean, [Rng(1)])


def test_walks_reject_wrong_length_mean_or_params():
    # every walk slices the model to its free coordinates before drawing
    params, cfg = random_model(4, 3, seed=69)
    for mean in (np.full(3, 0.5), np.full(5, 0.5)):
        for walk in _walks(params, cfg, mean):
            with pytest.raises(ContractError):
                walk()
    wide, _ = random_model(5, 3, seed=69)
    for walk in _walks(wide, cfg, np.full(4, 0.5)):
        with pytest.raises(ContractError):
            walk()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("D", [3, 250])
def test_block_rows_equal_loop_calls(D, k):
    # row r of one block call makes the draws of one-row call r in a loop
    # over one generator; 130 rows walk as blocks of 100 and 30
    rows = 130
    params, cfg = random_model(D, 5, k=k, seed=113 + k)
    mean = 0.2 + 0.6 * Rng(127).stream("mean").uniform_array(D)
    o = Ordering(perm=tuple(int(i) for i in Rng(131).stream("perm").permutation(D)))
    block_rng, loop_rng = Rng(137).stream("draws"), Rng(137).stream("draws")
    block = ancestral_sample(params, cfg, o, mean, windows(block_rng, rows, D))
    for r in range(rows):
        assert np.array_equal(block[r : r + 1], ancestral_sample(params, cfg, o, mean, [loop_rng]))
    assert loop_rng.counter == block_rng.counter
    data = (Rng(139).stream("rows").uniform_array((rows, D)) < 0.5) * 1.0
    for observed in sorted({0, 1, D // 2, D}):
        obs = [int(i) for i in Rng(149).stream("obs").permutation(D)[:observed]]
        rngs = windows(block_rng, rows, _inpaint_draws(D, observed))
        block = inpaint(params, cfg, data, obs, mean, rngs)
        assert np.array_equal(block[:, obs], data[:, obs])
        for r in range(rows):
            want = inpaint(params, cfg, data[r : r + 1], obs, mean, [loop_rng])
            assert np.array_equal(block[r : r + 1], want)
        assert loop_rng.counter == block_rng.counter


@pytest.mark.parametrize("hidden1, hidden2", [(200, None), (8, 200)])
def test_walk_slice_makes_no_weight_sized_temporary(hidden1, hidden2):
    # the slices are gathered a few columns at a time, in the layouts the
    # walk's products read: W's as a column gather leaves it, V's column-major
    D = 300
    cfg = StructureConfig(D=D, hidden1=hidden1, k=2, hidden2=hidden2)
    params = init_params(cfg, Rng(151).stream("init"))
    cols = np.sort(Rng(157).stream("cols").permutation(D)[:250])
    sub, peak = traced_peak(sampling._slice, params, cols, params.c)
    want_W, want_V = params.W[:, cols], np.asfortranarray(params.V[cols])
    assert np.array_equal(sub.W, want_W) and sub.W.strides == want_W.strides
    assert np.array_equal(sub.V, want_V) and sub.V.strides == want_V.strides
    assert np.array_equal(sub.b, params.b[cols])
    assert peak < 1.25 * (sub.W.nbytes + sub.V.nbytes + sub.b.nbytes)
