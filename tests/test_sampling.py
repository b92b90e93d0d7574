"""Ancestral draws, mixture batches, and conditional imputation."""

import numpy as np
import pytest
from conftest import random_model

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


class TestAncestral:
    @pytest.mark.slow
    def test_zero_params_uniform(self):
        # fair coin per coordinate: all 8 outcomes near 1/8
        params, cfg = _zero_model(3, 1)
        mean = np.full(3, 0.5)
        rng = Rng(42).stream("draws")
        o = identity_ordering(3)
        n = 100000
        counts = np.zeros(8)
        for _ in range(n):
            x = ancestral_sample(params, cfg, o, mean, rng)
            idx = int(x[0]) | (int(x[1]) << 1) | (int(x[2]) << 2)
            counts[idx] += 1
        assert np.max(np.abs(counts / n - 0.125)) < 0.005

    def test_degenerate_mode(self):
        # saturated output biases pin every conditional at the clamp bound
        params, cfg = _zero_model(4, 2)
        params.b += 40.0
        mean = np.full(4, 0.5)
        rng = Rng(43).stream("draws")
        o = identity_ordering(4)
        for _ in range(200):
            x = ancestral_sample(params, cfg, o, mean, rng)
            assert np.array_equal(x, np.ones(4))

    def test_outputs_binary(self):
        params, cfg = random_model(5, 4, k=2, seed=44)
        mean = np.full(5, 0.5)
        rng = Rng(45).stream("draws")
        for _ in range(50):
            x = ancestral_sample(params, cfg, identity_ordering(5), mean, rng)
            assert np.all((x == 0.0) | (x == 1.0))

    def test_matches_enumeration(self):
        params, cfg = random_model(3, 4, k=2, seed=46, spread=1.5)
        mean = np.array([0.4, 0.5, 0.6])
        o = Ordering(perm=(1, 2, 0))
        table = enumerate_distribution(params, cfg, o, mean)
        rng = Rng(47).stream("draws")
        n = 30000
        counts = np.zeros(8)
        for _ in range(n):
            x = ancestral_sample(params, cfg, o, mean, rng)
            idx = int(x[0]) | (int(x[1]) << 1) | (int(x[2]) << 2)
            counts[idx] += 1
        assert _tv(counts, table, n) < 0.02

    def test_wrong_ordering_length(self):
        params, cfg = random_model(4, 2, seed=48)
        with pytest.raises(ContractError):
            ancestral_sample(params, cfg, identity_ordering(3), np.full(4, 0.5), Rng(1))


class TestMixture:
    def test_batch_shape_and_fields(self):
        params, cfg = random_model(4, 3, k=1, seed=49)
        batch = sample_from_mixture(params, cfg, 5, np.full(4, 0.5), Rng(50))
        assert len(batch.vectors) == 5
        assert batch.vectors.shape == (5, 4)
        assert len(batch.orderings_used) == 5
        assert np.all((batch.vectors == 0.0) | (batch.vectors == 1.0))

    def test_deterministic(self):
        params, cfg = random_model(4, 3, k=1, seed=51)
        a = sample_from_mixture(params, cfg, 6, np.full(4, 0.5), Rng(52))
        b = sample_from_mixture(params, cfg, 6, np.full(4, 0.5), Rng(52))
        assert np.array_equal(a.vectors, b.vectors)
        assert [o.perm for o in a.orderings_used] == [o.perm for o in b.orderings_used]

    def test_sample_streams_independent_of_schedule(self):
        # sample i depends only on (seed, i), so recomputing it alone
        # reproduces the batch entry
        params, cfg = random_model(5, 3, k=2, seed=53)
        mean = np.full(5, 0.5)
        batch = sample_from_mixture(params, cfg, 7, mean, Rng(54))
        sub = Rng(54).stream("sample", 3)
        o = Ordering(perm=tuple(sub.permutation(5)))
        x = ancestral_sample(params, cfg, o, mean, sub)
        assert o.perm == batch.orderings_used[3].perm
        assert np.array_equal(x, batch.vectors[3])

    def test_count_validation(self):
        params, cfg = random_model(3, 2, seed=55)
        with pytest.raises(ContractError):
            sample_from_mixture(params, cfg, 0, np.full(3, 0.5), Rng(1))

    def test_matches_averaged_enumeration(self):
        params, cfg = random_model(3, 4, k=2, seed=56, spread=1.5)
        mean = np.full(3, 0.5)
        n = 30000
        batch = sample_from_mixture(params, cfg, n, mean, Rng(57))
        tables = {}
        probs = np.zeros(8)
        for o in batch.orderings_used:
            if o.perm not in tables:
                tables[o.perm] = enumerate_distribution(params, cfg, o, mean)
            probs += tables[o.perm]
        probs /= n
        counts = np.zeros(8)
        for x in batch.vectors:
            idx = int(x[0]) | (int(x[1]) << 1) | (int(x[2]) << 2)
            counts[idx] += 1
        assert _tv(counts, probs, n) < 0.02


class TestInpaint:
    def test_all_observed_verbatim(self):
        params, cfg = random_model(4, 3, seed=58)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        out = inpaint(params, cfg, x, [0, 1, 2, 3], np.full(4, 0.5), Rng(59))
        assert np.array_equal(out, x)

    def test_observed_bit_exact(self):
        params, cfg = random_model(6, 4, k=2, seed=60, spread=2.0)
        mean = np.full(6, 0.5)
        x = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        rng = Rng(61).stream("draws")
        for _ in range(100):
            out = inpaint(params, cfg, x, [0, 3], mean, rng)
            assert out[0] == 1.0 and out[3] == 1.0
            assert np.all((out == 0.0) | (out == 1.0))

    def test_no_observed_full_sample(self):
        params, cfg = random_model(4, 3, seed=62)
        out = inpaint(params, cfg, np.zeros(4), [], np.full(4, 0.5), Rng(63))
        assert np.all((out == 0.0) | (out == 1.0))

    def test_unobserved_input_values_ignored(self):
        # garbage in unobserved slots must not influence the draw
        params, cfg = random_model(4, 3, k=2, seed=64)
        mean = np.full(4, 0.5)
        xa = np.array([1.0, 0.0, 0.0, 0.0])
        xb = np.array([1.0, 1.0, 1.0, 1.0])
        out_a = inpaint(params, cfg, xa, [0], mean, Rng(65).stream("d"))
        out_b = inpaint(params, cfg, xb, [0], mean, Rng(65).stream("d"))
        assert np.array_equal(out_a, out_b)

    def test_conditional_uniform_case(self):
        # zero parameters: conditional over the free coordinates is uniform
        params, cfg = _zero_model(3, 1)
        mean = np.full(3, 0.5)
        x = np.array([1.0, 0.0, 0.0])
        rng = Rng(66).stream("draws")
        n = 20000
        counts = np.zeros(4)
        for _ in range(n):
            out = inpaint(params, cfg, x, [0], mean, rng)
            assert out[0] == 1.0
            counts[int(out[1]) | (int(out[2]) << 1)] += 1
        assert np.max(np.abs(counts / n - 0.25)) < 0.015

    def test_length_validation(self):
        params, cfg = random_model(4, 3, seed=67)
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros(3), [0], np.full(4, 0.5), Rng(1))
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros(4), [9], np.full(4, 0.5), Rng(1))
        # D distinct indices, all observed, are checked like any others
        with pytest.raises(ContractError):
            inpaint(params, cfg, np.zeros(4), [0, 1, 2, 99], np.full(4, 0.5), Rng(1))

    def test_non_binary_observed_value(self):
        params, cfg = random_model(4, 3, seed=68)
        x = np.array([1.0, 0.5, 0.0, 0.0])
        with pytest.raises(ContractError):
            inpaint(params, cfg, x, [0, 1], np.full(4, 0.5), Rng(1))
        with pytest.raises(ContractError):
            inpaint(params, cfg, x, [0, 1, 2, 3], np.full(4, 0.5), Rng(1))
        # an unobserved slot may hold anything
        inpaint(params, cfg, x, [0, 2], np.full(4, 0.5), Rng(1))


def _walks(params, cfg, mean):
    """One call of each walk entry point, at D=4."""
    yield lambda: ancestral_sample(params, cfg, identity_ordering(4), mean, Rng(1))
    yield lambda: sample_from_mixture(params, cfg, 2, mean, Rng(1))
    yield lambda: inpaint(params, cfg, np.zeros(4), [0], mean, Rng(1))


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
