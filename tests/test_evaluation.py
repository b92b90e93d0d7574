"""Per-ordering likelihood, ensembles, enumeration, and spread statistics."""

import math

import mpmath
import numpy as np
import pytest
from conftest import random_model

from nadek import (
    EnsembleSpec,
    Ordering,
    Rng,
    StructureConfig,
    draw_orderings,
    ensemble_log_prob,
    enumerate_distribution,
    init_params,
    log_prob_ordering,
    ordering_stats,
)
from nadek.evaluation import identity_ordering, render_report, stats_from_matrix
from nadek.numerics import ContractError


class TestOrderingTypes:
    def test_valid(self):
        o = Ordering(perm=(2, 0, 1))
        assert o.perm == (2, 0, 1)

    def test_invalid(self):
        with pytest.raises(ContractError):
            Ordering(perm=(0, 0, 1))
        with pytest.raises(ContractError):
            Ordering(perm=(0, 2))
        with pytest.raises(ContractError):
            Ordering(perm=())

    def test_identity(self):
        assert identity_ordering(4).perm == (0, 1, 2, 3)

    def test_ensemble_spec_validation(self):
        with pytest.raises(ContractError):
            EnsembleSpec(orderings=())
        with pytest.raises(ContractError):
            EnsembleSpec(orderings=(Ordering((0, 1)), Ordering((0, 1, 2))))


class TestDrawOrderings:
    def test_distinct_and_deterministic(self):
        a = draw_orderings(5, 10, seed=3)
        b = draw_orderings(5, 10, seed=3)
        assert [o.perm for o in a.orderings] == [o.perm for o in b.orderings]
        assert len({o.perm for o in a.orderings}) == 10

    def test_different_seed_differs(self):
        a = draw_orderings(6, 4, seed=1)
        b = draw_orderings(6, 4, seed=2)
        assert [o.perm for o in a.orderings] != [o.perm for o in b.orderings]

    def test_exhausts_small_space(self):
        spec = draw_orderings(3, 6, seed=9)
        assert len({o.perm for o in spec.orderings}) == 6

    def test_too_many_rejected(self):
        with pytest.raises(ContractError):
            draw_orderings(3, 7, seed=0)
        with pytest.raises(ContractError):
            draw_orderings(3, 0, seed=0)


def _zero_model(D, hidden1, k=1):
    cfg = StructureConfig(D=D, hidden1=hidden1, k=k)
    params = init_params(cfg, Rng(0).stream("init"))
    for t in params.tensors().values():
        t[...] = 0.0
    return params, cfg


class TestLogProbOrdering:
    def test_zero_params_784(self):
        params, cfg = _zero_model(784, 1)
        x = np.zeros(784)
        got = log_prob_ordering(params, cfg, x, identity_ordering(784), np.full(784, 0.5))
        assert abs(got - (-784 * math.log(2.0))) < 1e-9
        assert abs(got - (-543.4273895589971)) < 1e-9

    def test_single_dimension(self):
        params, cfg = random_model(1, 3, k=2, seed=12)
        mean = np.array([0.5])
        from nadek import forward

        traj = forward(params, cfg, np.zeros((1, 1)), np.ones((1, 1)), mean)
        p = float(traj.v_states[-1][0, 0])
        lp1 = log_prob_ordering(params, cfg, np.ones(1), identity_ordering(1), mean)
        lp0 = log_prob_ordering(params, cfg, np.zeros(1), identity_ordering(1), mean)
        assert abs(lp1 - math.log(p)) < 1e-12
        assert abs(lp0 - math.log(1.0 - p)) < 1e-12

    def test_wrong_length_ordering(self):
        params, cfg = random_model(4, 3, seed=13)
        with pytest.raises(ContractError):
            log_prob_ordering(params, cfg, np.zeros(4), identity_ordering(3), np.full(4, 0.5))

    def test_wrong_length_mean_or_params(self):
        # both are gathered into visit order before any forward checks them
        params, cfg = random_model(4, 3, seed=13)
        o = identity_ordering(4)
        for mean in (np.full(3, 0.5), np.full(5, 0.5)):
            with pytest.raises(ContractError):
                log_prob_ordering(params, cfg, np.zeros(4), o, mean)
        wide, _ = random_model(5, 3, seed=13)
        with pytest.raises(ContractError):
            log_prob_ordering(wide, cfg, np.zeros(4), o, np.full(4, 0.5))

    def test_normalizes_small_d(self):
        params, cfg = random_model(3, 4, k=2, seed=14, spread=1.5)
        mean = np.array([0.3, 0.6, 0.5])
        o = Ordering(perm=(2, 0, 1))
        total = 0.0
        for j in range(8):
            x = np.array([float((j >> i) & 1) for i in range(3)])
            total += math.exp(log_prob_ordering(params, cfg, x, o, mean))
        assert abs(total - 1.0) < 1e-10

    def test_normalizes_d7(self):
        params, cfg = random_model(7, 3, k=1, seed=15)
        mean = np.full(7, 0.4)
        table = enumerate_distribution(params, cfg, identity_ordering(7), mean)
        assert abs(float(table.sum()) - 1.0) < 1e-8


class TestEnsemble:
    def test_single_ordering_identity(self):
        params, cfg = random_model(4, 3, k=2, seed=16)
        mean = np.full(4, 0.5)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        o = Ordering(perm=(3, 1, 0, 2))
        spec = EnsembleSpec(orderings=(o,))
        assert ensemble_log_prob(params, cfg, x, spec, mean) == log_prob_ordering(
            params, cfg, x, o, mean
        )

    def test_equal_components_collapse(self):
        # two orderings that give the same value: result is that value
        from nadek.numerics import log_sum_exp

        logs = np.array([-7.25, -7.25])
        folded = float(log_sum_exp(logs) - math.log(2.0))
        assert abs(folded - (-7.25)) < 1e-12

    def test_hand_value(self):
        from nadek.numerics import log_sum_exp

        got = float(log_sum_exp(np.array([-10.0, -12.0])) - math.log(2.0))
        oracle = float(mpmath.log((mpmath.e**-10 + mpmath.e**-12) / 2))
        assert abs(got - (-10.566)) < 1e-3
        assert abs(got - oracle) < 1e-12

    def test_jensen_dominance(self):
        params, cfg = random_model(6, 5, k=2, seed=17, spread=1.2)
        mean = np.full(6, 0.5)
        spec = draw_orderings(6, 5, seed=18)
        rng = Rng(19).stream("x")
        for _ in range(10):
            x = np.array([float(rng.bernoulli(0.5)) for _ in range(6)])
            per = [log_prob_ordering(params, cfg, x, o, mean) for o in spec.orderings]
            ens = ensemble_log_prob(params, cfg, x, spec, mean)
            assert ens >= np.mean(per) - 1e-12

    def test_mixture_normalizes(self):
        params, cfg = random_model(4, 3, k=2, seed=20, spread=1.5)
        mean = np.full(4, 0.5)
        spec = draw_orderings(4, 3, seed=21)
        total = 0.0
        for j in range(16):
            x = np.array([float((j >> i) & 1) for i in range(4)])
            total += math.exp(ensemble_log_prob(params, cfg, x, spec, mean))
        assert abs(total - 1.0) < 1e-8


class TestStats:
    def test_hand_matrix(self):
        report = stats_from_matrix(np.array([[-1.0, -3.0], [-2.0, -4.0]]))
        assert report.mean == -2.5
        assert abs(report.sd_over_orderings - math.sqrt(2.0)) < 1e-12
        assert abs(report.sd_over_samples - math.sqrt(0.5)) < 1e-12

    def test_constant_matrix(self):
        report = stats_from_matrix(np.full((3, 4), -2.0))
        assert report.mean == -2.0
        assert report.sd_over_orderings == 0.0
        assert report.sd_over_samples == 0.0

    def test_absent_aggregates(self):
        one_col = stats_from_matrix(np.array([[-1.0], [-2.0]]))
        assert one_col.sd_over_orderings is None
        assert one_col.sd_over_samples is not None
        one_row = stats_from_matrix(np.array([[-1.0, -2.0]]))
        assert one_row.sd_over_orderings is not None
        assert one_row.sd_over_samples is None

    def test_end_to_end(self):
        params, cfg = random_model(5, 4, k=1, seed=22)
        mean = np.full(5, 0.5)
        samples = np.array([[1.0, 0, 0, 1, 0], [0.0, 1, 1, 0, 1], [1.0, 1, 0, 0, 1]])
        spec = draw_orderings(5, 4, seed=23)
        report = ordering_stats(params, cfg, samples, spec, mean)
        assert report.matrix.shape == (3, 4)
        assert report.mean == float(report.matrix.mean())
        want_sd_o = math.sqrt(np.mean(np.var(report.matrix, axis=1, ddof=1)))
        assert abs(report.sd_over_orderings - want_sd_o) < 1e-12
        # spot check one matrix entry against the direct evaluation
        direct = log_prob_ordering(params, cfg, samples[1], spec.orderings[2], mean)
        assert report.matrix[1, 2] == direct

    @pytest.mark.parametrize("threads", [0, 1, 2, 5, 20])
    def test_matrix_equals_direct_pairs_at_any_thread_count(self, threads):
        # 12 pairs; 0 threads runs them in order, 20 has more workers than pairs
        params, cfg = random_model(5, 4, k=2, seed=24)
        mean = np.full(5, 0.4)
        samples = np.array([[1.0, 0, 0, 1, 0], [0.0, 1, 1, 0, 1], [1.0, 1, 0, 0, 1]])
        spec = draw_orderings(5, 4, seed=25)
        got = ordering_stats(params, cfg, samples, spec, mean, threads).matrix
        want = [
            [log_prob_ordering(params, cfg, x, o, mean) for o in spec.orderings] for x in samples
        ]
        assert np.array_equal(got, np.array(want))

    def test_bytes_score_as_their_float_values(self):
        params, cfg = random_model(9, 5, k=2, seed=24)
        mean = np.linspace(0.2, 0.8, 9)
        bits = (Rng(25).stream("rows").uniform_array((6, 9)) < 0.5).astype(np.uint8)
        spec = draw_orderings(9, 3, seed=26)
        got = ordering_stats(params, cfg, bits, spec, mean).matrix
        want = ordering_stats(params, cfg, bits.astype(np.float64), spec, mean).matrix
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ContractError, match="binary"):
            ordering_stats(params, cfg, bits * 2, spec, mean)

    def test_ensemble_mean_consistent(self):
        from nadek.numerics import log_sum_exp

        matrix = np.array([[-1.0, -2.0], [-3.0, -2.5]])
        report = stats_from_matrix(matrix)
        want = np.mean(
            [float(log_sum_exp(row) - math.log(2.0)) for row in matrix]
        )
        assert abs(report.ensemble_mean() - want) < 1e-15

    def test_render_report(self):
        report = stats_from_matrix(np.array([[-1.0, -3.0], [-2.0, -4.0]]))
        text = render_report(report)
        lines = text.splitlines()
        assert lines[0] == "sample\to0\to1"
        assert lines[1] == "0\t-1.000000\t-3.000000"
        assert lines[2] == "1\t-2.000000\t-4.000000"
        assert lines[3] == "# mean -2.500000"
        assert lines[4] == "# sd_over_orderings 1.414214"
        assert lines[5] == "# sd_over_samples 0.707107"

    def test_render_absent(self):
        report = stats_from_matrix(np.array([[-1.5]]))
        text = render_report(report)
        assert "# sd_over_orderings absent" in text
        assert "# sd_over_samples absent" in text

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            stats_from_matrix(np.empty((0, 3)))


class TestEnumeration:
    def test_zero_params_uniform(self):
        params, cfg = _zero_model(4, 2)
        table = enumerate_distribution(params, cfg, identity_ordering(4), np.full(4, 0.5))
        assert table.shape == (16,)
        assert np.max(np.abs(table - 1.0 / 16.0)) < 1e-12

    def test_single_dimension_table(self):
        params, cfg = random_model(1, 2, seed=24)
        mean = np.array([0.5])
        table = enumerate_distribution(params, cfg, identity_ordering(1), mean)
        p = math.exp(log_prob_ordering(params, cfg, np.ones(1), identity_ordering(1), mean))
        assert abs(table[1] - p) < 1e-15
        assert abs(table[0] - (1.0 - p)) < 1e-9

    def test_bit_indexing(self):
        # index 5 = binary 101 means x0=1, x1=0, x2=1
        params, cfg = random_model(3, 3, seed=25)
        mean = np.full(3, 0.5)
        table = enumerate_distribution(params, cfg, identity_ordering(3), mean)
        x = np.array([1.0, 0.0, 1.0])
        direct = math.exp(log_prob_ordering(params, cfg, x, identity_ordering(3), mean))
        assert abs(table[5] - direct) < 1e-15

    def test_large_d_refused(self):
        params, cfg = _zero_model(21, 1)
        with pytest.raises(ContractError, match="refused"):
            enumerate_distribution(params, cfg, identity_ordering(21), np.full(21, 0.5))
