"""Nonlinearities, stable reductions, and the deterministic generator."""

import math

import mpmath
import numpy as np
import pytest
import row_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from nadek import model
from nadek.model import StructureConfig, init_params
from nadek.numerics import (
    PROB_EPS,
    ContractError,
    Rng,
    _below,
    _draws,
    _permutations,
    clamp_prob,
    log_sum_exp,
    sigmoid_vec,
)

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """One splitmix64 step from state z: add gamma, then mix."""
    z = (z + GAMMA) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def draw(key: int, c: int) -> int:
    """Draw c of the generator keyed by ``key``."""
    return splitmix64((key + c * GAMMA) & M64)


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x00000100000001B3) & M64
    return h


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

    def test_sigmoid_bits_equal_masked_form(self):
        # the reference evaluates each sign on its own boolean gather
        edges = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 745.2, -745.2, 1e-300, -1e-300]
        xs = np.concatenate([np.linspace(-800.0, 800.0, 100_001), edges])
        before = xs.copy()
        got = sigmoid_vec(xs)
        assert np.array_equal(got.view(np.uint64), row_reference.sigmoid(xs).view(np.uint64))
        assert np.array_equal(xs.view(np.uint64), before.view(np.uint64))

    def test_sigmoid_bits_equal_two_exp_form(self):
        # sigmoid_vec takes one exp; this form takes exp(min(x, 0)) and exp(-|x|)
        def two_exp(v):
            return np.exp(np.minimum(v, 0.0)) / (1.0 + np.exp(-np.abs(v)))

        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        edges += [s * e for e in (708.0, 709.0, 745.0, 746.0) for s in (1.0, -1.0)]
        edges += [s * e for e in (5e-324, 1e-310, 2.2250738585072014e-308) for s in (1.0, -1.0)]
        rng = Rng(19).stream("sigmoid")
        xs = np.concatenate([edges, 1600.0 * rng.uniform_array(1_000_000) - 800.0])
        before = xs.copy()
        got = sigmoid_vec(xs)
        assert np.array_equal(got.view(np.uint64), two_exp(xs).view(np.uint64))
        assert np.array_equal(xs.view(np.uint64), before.view(np.uint64))

    def test_sigmoid_nan_in_nan_out(self):
        got = sigmoid_vec(np.array([np.nan, 0.0, -np.nan]))
        assert np.isnan(got[0]) and got[1] == 0.5 and np.isnan(got[2])

    def test_sigmoid_block_shapes(self):
        block = np.linspace(-40.0, 40.0, 6 * 7).reshape(6, 7)
        before = block.copy()
        got = sigmoid_vec(block)
        assert got.shape == (6, 7)
        assert np.array_equal(got, row_reference.sigmoid(block))
        assert np.array_equal(sigmoid_vec(block[2]), got[2])
        assert np.array_equal(block, before)
        assert sigmoid_vec(block[2, 3]) == got[2, 3]

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

    def test_stream_seeds_follow_the_docstring_formula(self):
        # the Rng docstring's formula, with the name's hash computed here;
        # every name is derived twice, and there are more names than the
        # package's cache of name hashes holds
        names = ["inpaint", "sample", "", "\u00fc-stream"] + [f"name{i}" for i in range(600)]
        for seed in (0, 7, 2**63 + 5, M64):
            root = Rng(seed)
            for _ in range(2):
                for n, name in enumerate(names):
                    key = splitmix64(seed ^ fnv1a64(name.encode("utf-8")))
                    indices = [*range(300), 2**63, M64] if n < 4 else [n]
                    for i in indices:
                        assert root.stream(name, i).seed == splitmix64(key ^ i)

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
        # the same swaps as permutation(50), on any items
        assert items == Rng(10).permutation(50).tolist()
        labels = [f"item{i}" for i in range(50)]
        Rng(10).shuffle(labels)
        assert labels == [f"item{i}" for i in items]
        assert rng.counter == 49

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

    def test_known_answers(self):
        # the first splitmix64 outputs for seed 0, and for the "init" child
        # whose key is splitmix64(splitmix64(0 ^ fnv1a64("init")) ^ 0)
        root = Rng(0)
        assert [root.next_uint64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]
        assert [draw(0, c) for c in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]
        child_key = splitmix64(splitmix64(0 ^ fnv1a64(b"init")) ^ 0)
        child = Rng(0).stream("init")
        assert child.seed == child_key == 0x6733282F0DDD69F7
        assert [child.next_uint64() for _ in range(4)] == [
            0xEAE6642B189C2FF6,
            0x212F5AAB14ED62D7,
            0x458DC77046B97F09,
            0xD50200C71EB73048,
        ]
        assert [draw(child_key, c) for c in range(4)] == [
            0xEAE6642B189C2FF6,
            0x212F5AAB14ED62D7,
            0x458DC77046B97F09,
            0xD50200C71EB73048,
        ]

    def test_any_draw_from_its_counter(self):
        rng = Rng(2**64 - 3)
        assert [rng.next_uint64() for _ in range(5)] == [
            draw(2**64 - 3, c) for c in range(5)
        ]

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_bulk_uint64_equals_scalar(self, n):
        bulk = Rng(21).uint64_array(n)
        scalar = Rng(21)
        assert bulk.dtype == np.uint64
        assert bulk.tolist() == [scalar.next_uint64() for _ in range(n)]

    @staticmethod
    def _block_generators():
        """Block generators and scalar twins at the same (seed, counter) states.

        Seeds are distinct, one of them >= 2^63; a counter of 2^64 - 2 wraps
        past 2^64 within a row; the first generator is listed again last.
        """
        states = [(21, 0), (2**63 + 5, 7), (2**64 - 1, 2**64 - 2), (0xDEADBEEF, 2**63)]
        pairs = []
        for seed, counter in states:
            pair = Rng(seed), Rng(seed)
            pair[0].counter = pair[1].counter = counter
            pairs.append(pair)
        pairs.append(pairs[0])
        return [p[0] for p in pairs], [p[1] for p in pairs]

    @pytest.mark.parametrize("n", [0, 1, 2, 785])
    def test_block_uint64_equals_scalar(self, n):
        # row r is the next n scalar draws of its generator, read in row order
        rngs, scalars = self._block_generators()
        block = _draws(rngs, n)
        assert block.dtype == np.uint64
        assert block.shape == (len(rngs), n)
        assert block.tolist() == [[g.next_uint64() for _ in range(n)] for g in scalars]
        assert [g.counter for g in rngs] == [g.counter for g in scalars]

    @pytest.mark.parametrize("n", [0, 1, 2, 785])
    def test_block_permutations_equal_scalar_fisher_yates(self, n):
        rngs, scalars = self._block_generators()
        block = _permutations(rngs, n)
        assert block.dtype == np.int64
        assert block.shape == (len(rngs), n)
        for row, scalar in zip(block.tolist(), scalars):
            items = list(range(n))
            for i in range(n - 1, 0, -1):
                j = scalar.next_below(i + 1)
                items[i], items[j] = items[j], items[i]
            assert row == items
        assert [g.counter for g in rngs] == [g.counter for g in scalars]

    @pytest.mark.parametrize("shape", [1, 17, (3, 4), (40, 25)])
    def test_bulk_floats_equal_scalar(self, shape):
        bulk = Rng(22).uniform_array(shape)
        scalar = Rng(22)
        assert bulk.shape == ((shape,) if isinstance(shape, int) else shape)
        assert bulk.reshape(-1).tolist() == [scalar.next_float() for _ in range(bulk.size)]

    @pytest.mark.parametrize("shape", [(1,), (320,), (8, 40), "rows", "columns"])
    def test_bulk_bounded_equal_scalar(self, shape):
        bounds = np.array([1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 2, 2**32 - 1] * 40)
        if shape == "rows":
            # one row of bounds broadcast down 6 rows, as a mask draw passes it
            bounds, shape = bounds[:40], (6, 40)
        elif shape == "columns":
            bounds, shape = bounds[:8, None], (8, 5)
        else:
            bounds = bounds[: math.prod(shape)].reshape(shape)
        bulk = _below(Rng(23).uint64_array(math.prod(shape)).reshape(shape), bounds)
        bounds = np.broadcast_to(bounds, shape)
        scalar = Rng(23)
        assert bulk.shape == shape
        assert bulk.reshape(-1).tolist() == [scalar.next_below(int(n)) for n in bounds.reshape(-1)]
        assert np.all(bulk < bounds)
        # the high 64 bits of the full product, computed with Python ints
        draws = Rng(23).uint64_array(bounds.size).tolist()
        assert bulk.reshape(-1).tolist() == [
            (u * n) >> 64 for u, n in zip(draws, bounds.reshape(-1).tolist())
        ]

    @pytest.mark.parametrize("n", [0, 1, 2, 30, 785])
    def test_permutation_equals_scalar_fisher_yates(self, n):
        scalar = Rng(24)
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = scalar.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
        assert Rng(24).permutation(n).tolist() == items

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_scalar_draw_after_bulk_continues_the_counter(self, n):
        rng = Rng(25)
        rng.uint64_array(n)
        assert rng.counter == n
        assert rng.next_uint64() == draw(25, n)
        rng.uniform_array((2, 3))
        assert rng.next_uint64() == draw(25, n + 7)
        _below(rng.uint64_array(6).reshape(3, 2), np.full(2, 5))
        assert rng.next_uint64() == draw(25, n + 14)

    def test_bounds_outside_32_bits_rejected(self):
        rng = Rng(26)
        for n in (0, -1, 2**32, 2**40, 2**64):
            with pytest.raises(ContractError):
                rng.next_below(n)
        for bounds in ([2, 2**32, 5], [2, 0, 5]):
            with pytest.raises(ContractError):
                _below(rng.uint64_array(3), np.array(bounds))
            with pytest.raises(ContractError):
                # one row of bounds broadcast down 4 rows
                _below(rng.uint64_array(12).reshape(4, 3), np.array(bounds))

    @pytest.mark.parametrize("chunk", [3, 10, model._INIT_CHUNK])
    def test_init_fill_equals_scalar_uniforms(self, monkeypatch, chunk):
        # chunk 3 is below one row (one row per chunk), 10 splits each matrix
        monkeypatch.setattr(model, "_INIT_CHUNK", chunk)
        config = StructureConfig(D=7, hidden1=5, k=1, hidden2=4)
        params = init_params(config, Rng(27).stream("init"))
        scalar = Rng(27).stream("init")
        for name, tensor in params.tensors().items():
            if tensor.ndim == 1:
                assert not tensor.any()
                continue
            bound = math.sqrt(6.0 / sum(tensor.shape))
            want = [scalar.uniform(-bound, bound) for _ in range(tensor.size)]
            assert tensor.reshape(-1).tolist() == want, name
