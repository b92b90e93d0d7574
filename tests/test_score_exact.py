"""Scored pairs against the plain staircase in step_reference.py, bit for bit.

The package scores (x, ordering) pairs on a workspace that holds the
permuted weights and every step's buffers across pairs, and blends the
clamp into the columns a block observes; step_reference.log_prob_ordering
copies the weights for each pair and makes a fresh array for every
intermediate.  Both must give the same float, not merely a close one.
"""

import dataclasses

import numpy as np
import pytest
import step_reference
from conftest import random_model

from nadek import EnsembleSpec, Ordering, Rng, log_prob_ordering, ordering_stats
from nadek.evaluation import _Staircase, enumerate_distribution
from nadek.numerics import PROB_EPS, single_threaded_blas


def _pairs(D, seed, count=2):
    rng = Rng(seed).stream("pairs")
    xs = (rng.uniform_array((count, D)) < 0.5) * 1.0
    orderings = [Ordering(perm=rng.permutation(D)) for _ in range(count)]
    mean = 0.2 + 0.6 * rng.uniform_array(D)
    return xs, orderings, mean


@pytest.mark.parametrize("D", [1, 7, 100, 101, 250])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("n", [2, 3])
def test_pairs_equal_plain_staircase(n, activation, k, D):
    # D=101 ends in a one-row block, D=250 in blocks of 100, 100 and 50
    params, cfg = random_model(
        D, 6, k=k, hidden2=4 if n == 3 else None, activation=activation, seed=D + 7 * k + n
    )
    xs, orderings, mean = _pairs(D, 3 + D)
    for x, o in zip(xs, orderings):
        want = step_reference.log_prob_ordering(params, cfg, x, o, mean)
        assert log_prob_ordering(params, cfg, x, o, mean) == want


@pytest.mark.parametrize("n", [2, 3])
def test_pair_past_the_clamp_equals_plain_staircase(n):
    D = 101
    params, cfg = random_model(D, 6, k=3, hidden2=4 if n == 3 else None, seed=19 + n)
    params.b[:4] = [60.0, -60.0, 60.0, -60.0]
    xs, orderings, mean = _pairs(D, 23)
    # every output at coordinates 0..3 leaves the clamp range, against its bit
    xs[:, :4] = [0.0, 1.0, 0.0, 1.0]
    for x, o in zip(xs, orderings):
        want = step_reference.log_prob_ordering(params, cfg, x, o, mean)
        assert log_prob_ordering(params, cfg, x, o, mean) == want
    assert want <= 4 * np.log(PROB_EPS)


def test_k_override_above_trained_k_equals_plain_staircase():
    params, cfg = random_model(101, 6, k=2, seed=29)
    cfg = dataclasses.replace(cfg, k=7)
    xs, orderings, mean = _pairs(101, 31)
    for x, o in zip(xs, orderings):
        want = step_reference.log_prob_ordering(params, cfg, x, o, mean)
        assert log_prob_ordering(params, cfg, x, o, mean) == want


def test_workspace_reuse_keeps_each_pairs_bits():
    # A, B, A on one workspace; then two models of other shapes interleaved
    params, cfg = random_model(250, 6, k=3, hidden2=4, seed=37)
    small, small_cfg = random_model(7, 3, k=2, activation="sigmoid", seed=41)
    xs, orderings, mean = _pairs(250, 43)
    sx, so, smean = _pairs(7, 47)
    plain = step_reference.log_prob_ordering
    want = [plain(params, cfg, x, o, mean) for x, o in zip(xs, orderings)]
    swant = [plain(small, small_cfg, x, o, smean) for x, o in zip(sx, so)]
    big, little = _Staircase(params, cfg, mean), _Staircase(small, small_cfg, smean)
    with single_threaded_blas():
        again = [big.log_prob(xs[i], orderings[i]) for i in (0, 1, 0)]
        got = []
        for i in (0, 1, 1, 0):
            got += [big.log_prob(xs[i], orderings[i]), little.log_prob(sx[i], so[i])]
    assert again == [want[0], want[1], want[0]]
    assert got == [want[0], swant[0], want[1], swant[1], want[1], swant[1], want[0], swant[0]]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_matrix_bits_equal_plain_staircase_at_any_thread_count(threads):
    # 5 rows x 4 orderings: 20 pairs split over the workers in ordering-major order
    params, cfg = random_model(101, 6, k=2, hidden2=4, seed=53)
    rng = Rng(59).stream("rows")
    samples = (rng.uniform_array((5, 101)) < 0.5) * 1.0
    spec = EnsembleSpec(tuple(Ordering(perm=rng.permutation(101)) for _ in range(4)))
    mean = 0.2 + 0.6 * rng.uniform_array(101)
    got = ordering_stats(params, cfg, samples, spec, mean, threads).matrix
    want = [
        [step_reference.log_prob_ordering(params, cfg, x, o, mean) for o in spec.orderings]
        for x in samples
    ]
    assert np.array_equal(got, np.array(want))


def test_enumeration_equals_plain_staircase():
    params, cfg = random_model(5, 4, k=2, seed=61)
    mean = np.full(5, 0.4)
    o = Ordering(perm=(3, 0, 4, 1, 2))
    bits = (np.arange(32)[:, None] >> np.arange(5)) & 1
    want = np.exp([step_reference.log_prob_ordering(params, cfg, x * 1.0, o, mean) for x in bits])
    assert np.array_equal(enumerate_distribution(params, cfg, o, mean), want)
