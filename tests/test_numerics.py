"""Nonlinearities, stable reductions, and the deterministic generator."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadek.numerics import (
    PROB_EPS,
    ContractError,
    Rng,
    clamp_prob,
    log_sum_exp,
    sigmoid_vec,
)


class TestNonlinearities:
    def test_sigmoid_at_zero(self):
        assert sigmoid_vec(np.array([0.0]))[0] == 0.5

    def test_sigmoid_deep_negative_saturation(self):
        # exp(-1000) is below the subnormal floor, so the raw value
        # underflows; the clamp policy owns the strict-positivity story
        raw = sigmoid_vec(np.array([-1000.0]))[0]
        oracle = float(1 / (1 + mpmath.e**1000))
        assert 0.0 <= raw < 1e-300
        assert abs(raw - oracle) < 1e-300
        assert clamp_prob(np.array([raw]))[0] == PROB_EPS

    def test_sigmoid_stable_at_700(self):
        lo = sigmoid_vec(np.array([-700.0]))[0]
        hi = sigmoid_vec(np.array([700.0]))[0]
        assert 0.0 < lo < 1e-300
        assert 0.0 < 1.0 - hi or hi == 1.0
        assert hi <= 1.0

    def test_sigmoid_matches_high_precision(self):
        xs = np.linspace(-30.0, 30.0, 101)
        got = sigmoid_vec(xs)
        for x, g in zip(xs, got):
            want = float(1 / (1 + mpmath.exp(-mpmath.mpf(float(x)))))
            assert abs(g - want) <= 1e-15

    def test_sigmoid_complement(self):
        xs = np.linspace(-50.0, 50.0, 201)
        total = sigmoid_vec(xs) + sigmoid_vec(-xs)
        assert np.max(np.abs(total - 1.0)) < 1e-15

    def test_clamp_prob_bounds(self):
        p = clamp_prob(np.array([-1.0, 0.0, 0.3, 1.0, 2.0]))
        assert p[0] == PROB_EPS and p[1] == PROB_EPS
        assert p[2] == 0.3
        assert p[3] == 1.0 - PROB_EPS and p[4] == 1.0 - PROB_EPS


class TestLogSumExp:
    def test_single_element_exact(self):
        assert log_sum_exp(np.array([-123.456])) == -123.456

    def test_two_zeros(self):
        assert log_sum_exp(np.array([0.0, 0.0])) == math.log(2.0)

    def test_hand_case(self):
        got = log_sum_exp(np.array([-10.0, -12.0]))
        assert abs(got - (-9.873)) < 1e-3
        oracle = float(mpmath.log(mpmath.e**-10 + mpmath.e**-12))
        assert abs(got - oracle) < 1e-12

    def test_overflow_safe(self):
        got = log_sum_exp(np.array([1000.0, 1000.0]))
        assert abs(got - (1000.0 + math.log(2.0))) < 1e-9

    def test_permutation_bit_exact(self):
        rng = Rng(77).stream("lse")
        values = rng.uniform_array((25,)) * 40.0 - 20.0
        base = log_sum_exp(values)
        for _ in range(10):
            shuffled = list(values)
            rng.shuffle(shuffled)
            assert log_sum_exp(np.array(shuffled)) == base

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            log_sum_exp(np.array([]))

    def test_matrix_rejected(self):
        with pytest.raises(ContractError):
            log_sum_exp(np.zeros((2, 2)))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123)
        b = Rng(123)
        assert [a.next_uint64() for _ in range(20)] == [
            b.next_uint64() for _ in range(20)
        ]

    def test_named_streams_differ(self):
        root = Rng(5)
        seqs = [
            [root.stream(name, i).next_uint64() for _ in range(4)]
            for name in ("init", "masks", "sampling")
            for i in (0, 1)
        ]
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                assert seqs[i] != seqs[j]

    def test_stream_derivation_is_stable(self):
        # deriving the same child twice gives the same stream
        x = Rng(9).stream("masks").next_uint64()
        y = Rng(9).stream("masks").next_uint64()
        assert x == y

    def test_float_range(self):
        rng = Rng(42)
        for _ in range(2000):
            f = rng.next_float()
            assert 0.0 <= f < 1.0

    def test_bernoulli_edges(self):
        rng = Rng(3)
        assert all(rng.bernoulli(0.0) == 0 for _ in range(100))
        assert all(rng.bernoulli(1.0) == 1 for _ in range(100))

    def test_next_below_bounds_and_rough_uniformity(self):
        rng = Rng(8)
        counts = [0] * 6
        n = 60000
        for _ in range(n):
            v = rng.next_below(6)
            assert 0 <= v < 6
            counts[v] += 1
        for c in counts:
            assert abs(c / n - 1 / 6) < 0.01

    def test_shuffle_is_permutation(self):
        rng = Rng(10)
        items = list(range(50))
        rng.shuffle(items)
        assert sorted(items) == list(range(50))
        assert items != list(range(50))

    def test_permutation(self):
        perm = Rng(11).permutation(30)
        assert sorted(perm.tolist()) == list(range(30))

    def test_uniform_range(self):
        rng = Rng(12)
        for _ in range(500):
            v = rng.uniform(-2.5, 7.5)
            assert -2.5 <= v < 7.5

    def test_uniform_array_deterministic(self):
        a = Rng(13).uniform_array((3, 4))
        b = Rng(13).uniform_array((3, 4))
        assert a.shape == (3, 4)
        assert np.array_equal(a, b)

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_any_seed_yields_valid_floats(self, seed):
        rng = Rng(seed)
        vals = [rng.next_float() for _ in range(8)]
        assert all(0.0 <= v < 1.0 for v in vals)
        again = Rng(seed)
        assert vals == [again.next_float() for _ in range(8)]
