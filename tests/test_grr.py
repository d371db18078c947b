"""Tests for GRR primitives, BR verification, and exponential-mechanism scoring."""

import math

import numpy as np
import pytest

from brcomp.grr import (FiniteMechanismPair, QualityScoreTable,
                        br_witness, counting_query_mech, cq_t_value, exp_mech_probs,
                        grr_probs, one_minus_p, one_minus_q, p_of_t, q_of_t,
                        quality_range, quality_sensitivity)

# frozen from a 40-digit evaluation of the defining formulas
P_1_HALF = 0.377540668798145
Q_1_HALF = 0.622459331201855


def test_grr_probs_deterministic_endpoints():
    assert grr_probs(1.0, 0.0) == (1.0, 1.0)
    p, q = grr_probs(1.0, 1.0)
    assert p == pytest.approx(0.0, abs=1e-15)
    assert q == pytest.approx(0.0, abs=1e-15)


def test_grr_probs_midpoint():
    p, q = grr_probs(1.0, 0.5)
    assert p == pytest.approx(P_1_HALF, abs=1e-12)
    assert q == pytest.approx(Q_1_HALF, abs=1e-12)
    # midpoint offset is classic randomized response at half the parameter
    assert q == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-12)


@pytest.mark.parametrize("eps", [1e-8, 1e-6, 0.01, 0.5, 1.0, 5.0, 20.0])
def test_grr_identities_on_grid(eps):
    t = np.linspace(0.0, eps, 1000)
    p, q = p_of_t(eps, t), q_of_t(eps, t)
    assert np.abs(q - np.exp(t) * p).max() <= 1e-12
    assert np.abs(one_minus_q(eps, t) - np.exp(t - eps) * one_minus_p(eps, t)).max() <= 1e-12
    assert ((p >= 0) & (p <= 1) & (q >= 0) & (q <= 1)).all()


@pytest.mark.parametrize("eps", [0.05, 1.0, 4.0])
def test_grr_symmetry(eps):
    # swapping the input bit mirrors the offset: q_{eps,t} = 1 - p_{eps,eps-t}
    t = np.linspace(0.0, eps, 1000)
    assert np.abs(q_of_t(eps, t) - (1.0 - p_of_t(eps, eps - t))).max() <= 1e-12


def test_grr_probs_rejects_bad_domain():
    with pytest.raises(ValueError):
        grr_probs(0.0, 0.0)
    with pytest.raises(ValueError):
        grr_probs(-1.0, 0.0)
    with pytest.raises(ValueError):
        grr_probs(1.0, 1.5)
    with pytest.raises(ValueError):
        grr_probs(1.0, -0.1)
    with pytest.raises(ValueError, match="finite"):   # it returned (0.368, 1.0)
        grr_probs(math.inf, 1.0)


class TestBrWitness:
    def test_nan_eps_refused(self):
        # the eps < 0 test let nan through, and log 2 came back
        pair = FiniteMechanismPair(np.array([2 / 3, 1 / 3]), np.array([1 / 3, 2 / 3]))
        with pytest.raises(ValueError, match="nan"):
            br_witness(pair, math.nan)

    def test_identical_distributions(self):
        pair = FiniteMechanismPair(np.array([0.25, 0.75]), np.array([0.25, 0.75]))
        assert br_witness(pair, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_recovers_grr_offset(self):
        p, q = grr_probs(1.0, 0.3)
        pair = FiniteMechanismPair(np.array([q, 1 - q]), np.array([p, 1 - p]))
        assert br_witness(pair, 1.0) == pytest.approx(0.3, abs=1e-9)

    def test_spread_too_wide(self):
        # log-ratios exactly {0.9, -0.5, 0}: spread 1.4 > 1
        b1 = 0.1
        b2 = b1 * math.expm1(0.9) / -math.expm1(-0.5)
        b = np.array([b1, b2, 1.0 - b1 - b2])
        a = b * np.exp([0.9, -0.5, 0.0])
        a[2] = 1.0 - a[0] - a[1]
        pair = FiniteMechanismPair(a, b)
        assert br_witness(pair, 1.0) is None
        assert br_witness(pair, 1.5) == pytest.approx(0.9, abs=1e-9)

    def test_one_sided_zero_mass(self):
        pair = FiniteMechanismPair(np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.4, 0.1]))
        assert br_witness(pair, 10.0) is None

    def test_shared_zero_outcome_ignored(self):
        p, q = grr_probs(1.0, 0.3)
        pair = FiniteMechanismPair(np.array([q, 1 - q, 0.0]), np.array([p, 1 - p, 0.0]))
        assert br_witness(pair, 1.0) == pytest.approx(0.3, abs=1e-9)

    def test_range_normalized_exp_mech_is_br(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, m = rng.integers(2, 6), rng.integers(2, 7)
            table = QualityScoreTable(rng.normal(size=(n, m)),
                                      [(0, 1), (int(n) - 1, 0)])
            eps = float(rng.uniform(0.2, 2.0))
            for a, b in table.neighbors:
                pa = exp_mech_probs(table, eps, a).probs
                pb = exp_mech_probs(table, eps, b).probs
                assert br_witness(FiniteMechanismPair(pa, pb), eps) is not None

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            FiniteMechanismPair(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            FiniteMechanismPair(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


class TestQualityScores:
    def table_xy(self, slope):
        # u(x, y) = slope*x + y over X = Y = {0, 1}
        return QualityScoreTable(np.array([[0.0, 1.0], [slope, slope + 1.0]]), [(0, 1)])

    def test_separable_score_has_zero_range(self):
        assert quality_range(self.table_xy(1.0)) == 0.0
        assert quality_sensitivity(self.table_xy(1.0)) == 1.0

    def test_data_shift_changes_sensitivity_not_range(self):
        assert quality_range(self.table_xy(11.0)) == 0.0
        assert quality_sensitivity(self.table_xy(11.0)) == 11.0

    def test_counting_score_range_one(self):
        # column sums of a 2-row bit matrix; the added row has both a 0 and a 1
        base = np.array([[1, 0]])
        added = np.vstack([base, [0, 1]])
        table = QualityScoreTable(np.array([base.sum(axis=0), added.sum(axis=0)],
                                           dtype=float), [(0, 1)])
        assert quality_range(table) == 1.0
        assert quality_sensitivity(table) == 1.0

    def test_constant_score(self):
        table = QualityScoreTable(np.array([[3.0, 3.0], [3.0, 3.0]]), [(0, 1)])
        assert quality_sensitivity(table) == 0.0
        assert quality_range(table) == 0.0

    def test_random_tables_range_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = rng.integers(2, 6), rng.integers(1, 6)
            scores = rng.normal(size=(n, m))
            nb = [(0, int(n) - 1)]
            table = QualityScoreTable(scores, nb)
            assert quality_range(table) <= 2.0 * quality_sensitivity(table) + 1e-12
            shifted = QualityScoreTable(scores + rng.normal(size=(n, 1)), nb)
            assert quality_range(shifted) == pytest.approx(quality_range(table), abs=1e-9)

    def test_monotone_scores_range_equals_sensitivity(self):
        # counting-style monotone change: every outcome moves up or stays put,
        # and at least one stays put
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            base = rng.normal(size=m)
            bump = rng.uniform(0.0, 2.0, size=m)
            bump[rng.integers(m)] = 0.0
            table = QualityScoreTable(np.array([base, base + bump]), [(0, 1)])
            assert quality_range(table) == pytest.approx(quality_sensitivity(table), abs=1e-12)

    def test_neighbor_validation(self):
        with pytest.raises(ValueError):
            QualityScoreTable(np.array([[1.0]]), [(0, 2)])
        with pytest.raises(ValueError):
            quality_range(QualityScoreTable(np.array([[1.0]]), []))


class TestExpMech:
    def test_equal_scores_degenerate_uniform(self):
        table = QualityScoreTable(np.array([[1.0, 1.0], [1.0, 1.0]]), [(0, 1)])
        res = exp_mech_probs(table, 1.0, 0, "sensitivity")
        assert res.degenerate
        assert np.allclose(res.probs, [0.5, 0.5])

    def test_randomized_response_score(self):
        # u(b, b') = 1{b = b'}; sensitivity normalizer selects the true bit
        # with probability e^(eps/2) / (e^(eps/2) + 1)
        table = QualityScoreTable(np.array([[1.0, 0.0], [0.0, 1.0]]), [(0, 1)])
        for eps in (0.3, 1.0, 2.5):
            res = exp_mech_probs(table, eps, 0, "sensitivity")
            want = math.exp(eps / 2) / (math.exp(eps / 2) + 1.0)
            assert not res.degenerate
            assert res.probs[0] == pytest.approx(want, abs=1e-12)

    def test_counting_scores_range_normalizer(self):
        table = QualityScoreTable(np.array([[3.0, 1.0], [2.0, 1.0]]), [(0, 1)])
        assert quality_range(table) == 1.0
        res = exp_mech_probs(table, 1.0, 0, "range")
        want = np.exp([3.0, 1.0])
        assert np.allclose(res.probs, want / want.sum(), atol=1e-12)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            table = QualityScoreTable(rng.normal(size=(3, 5)) * 50, [(0, 2)])
            res = exp_mech_probs(table, 2.0, 1, "range")
            assert abs(res.probs.sum() - 1.0) <= 1e-12


class TestCountingQuery:
    def test_all_zero_matrix_uniform(self):
        probs = counting_query_mech(np.zeros((4, 3)), 1.0)
        assert np.allclose(probs, np.full(3, 1 / 3), atol=1e-15)

    def test_single_row_example(self):
        # one row [1, 0], remove it: t = log((e + 1) / 2)
        x = np.array([[1, 0]])
        x_prime = np.empty((0, 2))
        t = cq_t_value(x, x_prime, 1.0)
        assert t == pytest.approx(0.620114506958278, abs=1e-12)

    def test_log_ratios_on_endpoints(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n, d = int(rng.integers(1, 21)), int(rng.integers(1, 9))
            eps = float(rng.uniform(0.1, 2.0))
            x = rng.integers(0, 2, size=(n, d))
            xp = np.vstack([x, rng.integers(0, 2, size=(1, d))])
            t = cq_t_value(x, xp, eps)
            assert 0.0 <= t <= eps + 1e-12
            ratios = (np.log(counting_query_mech(x, eps))
                      - np.log(counting_query_mech(xp, eps)))
            dist = np.minimum(np.abs(ratios - t), np.abs(ratios - (t - eps)))
            assert dist.max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cq_t_value(np.zeros((2, 3)), np.zeros((3, 4)), 1.0)
        with pytest.raises(ValueError):
            cq_t_value(np.zeros((2, 3)), np.zeros((2, 3)), 1.0)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            counting_query_mech(np.array([[0, 2]]), 1.0)

    def test_accepts_json_arrays(self):
        import json
        data = json.loads("[[1, 0], [0, 1], [1, 1]]")
        probs = counting_query_mech(data, 1.0)
        assert abs(probs.sum() - 1.0) <= 1e-12
        t = cq_t_value(data, json.loads("[[1, 0], [0, 1]]"), 1.0)
        assert 0.0 <= t <= 1.0
