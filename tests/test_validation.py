"""Tests for the oracle layer: hockey stick, brute force, simulator, checks."""

import math

import numpy as np
import pytest

from brcomp.adaptive import StrategyTree, delta_adaptive_lb
from brcomp.errors import CapError
from brcomp.grr import FiniteMechanismPair, grr_probs
from brcomp import nonadaptive
from brcomp.nonadaptive import delta_het_fixed_t, delta_hom_fixed_t, delta_opt_nonadaptive_hom
from brcomp.validation import (brute_force_nonadaptive, finite_diff_check,
                               hockey_stick, run_checks, simulate_adaptive_game)


class TestHockeyStick:
    def test_identical_distributions(self):
        pair = FiniteMechanismPair(np.array([0.4, 0.6]), np.array([0.4, 0.6]))
        assert hockey_stick(pair, 0.0) == 0.0

    def test_matches_single_round_formula(self):
        p, q = grr_probs(1.0, 0.5)
        pair = FiniteMechanismPair(np.array([q, 1 - q]), np.array([p, 1 - p]))
        assert hockey_stick(pair, 0.0) == pytest.approx(
            delta_hom_fixed_t(1.0, 1, 0.0, 0.5), abs=1e-12)

    def test_zero_beyond_max_log_ratio(self):
        pair = FiniteMechanismPair(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
        max_ratio = math.log(0.7 / 0.5)
        assert hockey_stick(pair, max_ratio + 1e-9) == 0.0

    def test_nonincreasing_in_eps_g(self):
        rng = np.random.default_rng(1)
        a, b = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        pair = FiniteMechanismPair(a, b)
        grid = np.linspace(-2.0, 2.0, 41)
        vals = [hockey_stick(pair, g) for g in grid]
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


class TestBruteForce:
    def test_single_round_fine_grid(self):
        res = brute_force_nonadaptive([1.0], 0.0, 10 ** 5)
        assert res.delta == pytest.approx(0.244918662403709, abs=1e-9)
        assert res.t[0] == pytest.approx(0.5, abs=1e-4)

    def test_two_rounds_on_diagonal(self):
        res = brute_force_nonadaptive([1.0, 1.0], 0.0, 200)
        assert res.delta == pytest.approx(0.288317262368634, abs=1e-6)

    def test_never_exceeds_exact_optimum(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            eps = float(rng.uniform(0.3, 1.5))
            k = int(rng.integers(1, 3))
            eg = float(rng.uniform(-0.8 * k * eps, 0.8 * k * eps))
            res = brute_force_nonadaptive([eps] * k, eg, 150)
            exact = delta_opt_nonadaptive_hom(eps, k, eg).delta
            assert res.delta <= exact + 1e-12
            assert exact - res.delta <= 1e-4

    def test_size_cap(self):
        with pytest.raises(CapError):
            brute_force_nonadaptive([0.5] * 4, 0.0, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_eps_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            brute_force_nonadaptive([bad, 1.0], 0.5, 10)

    def test_nan_budget_refused(self):
        # it raised IndexError from an empty argmax
        with pytest.raises(ValueError, match="nan"):
            brute_force_nonadaptive([0.3, 0.8], math.nan, 10)

    def test_reported_pair_is_consistent(self):
        # the oracle values t itself; the kernel agrees there to rounding
        for eps, eg in (([0.8, 1.2], 0.1), ([0.3, 0.8], -0.55), ([0.3, 0.8], 0.275)):
            res = brute_force_nonadaptive(eps, eg, 90)
            assert abs(res.delta - delta_het_fixed_t(eps, eg, res.t)) <= 1e-15

    def test_independent_of_the_kernel(self, monkeypatch):
        # a perturbed kernel bracket moves the kernel but not the oracle
        base = brute_force_nonadaptive([0.8, 1.2], 0.1, 90)
        kernel = delta_het_fixed_t([0.8, 1.2], 0.1, base.t)
        real = nonadaptive._log_bracketed

        def perturbed(log_w, a, eps_g):
            return real(log_w, 1.001 * a, eps_g)

        monkeypatch.setattr(nonadaptive, "_log_bracketed", perturbed)
        assert delta_het_fixed_t([0.8, 1.2], 0.1, base.t) != kernel
        res = brute_force_nonadaptive([0.8, 1.2], 0.1, 90)
        assert res.delta == base.delta
        assert np.array_equal(res.t, base.t)

    @pytest.mark.parametrize("eps, eps_g", [([800.0], 100.0), ([250.0] * 3, -100.0)])
    def test_sum_past_float_range_refused(self, eps, eps_g):
        # [800.0] raised IndexError: every grid value was nan
        with pytest.raises(CapError, match="sum"):
            brute_force_nonadaptive(eps, eps_g, 50)

    def test_budget_past_float_range_is_zero(self):
        # math.exp(800) raised OverflowError
        res = brute_force_nonadaptive([0.3, 0.8], 800.0, 50)
        assert res.delta == 0.0


class TestSimulator:
    def test_reproducible(self):
        tree = StrategyTree.constant([1.0, 1.0], [0.5, 0.5])
        a = simulate_adaptive_game(tree, 0.0, 50_000, seed=3)
        b = simulate_adaptive_game(tree, 0.0, 50_000, seed=3)
        assert a.delta_hat == b.delta_hat
        assert a.half_width_95 == b.half_width_95
        c = simulate_adaptive_game(tree, 0.0, 50_000, seed=4)
        assert c.delta_hat != a.delta_hat

    def test_full_offset_strategy_degenerate(self):
        # t = eps makes every step deterministic; past the summed budget the
        # estimate is exactly zero
        tree = StrategyTree.constant([1.0, 1.0], [1.0, 1.0])
        rep = simulate_adaptive_game(tree, 2.5, 20_000, seed=5)
        assert rep.delta_hat == 0.0

    def test_fixed_strategy_matches_analytic(self):
        tree = StrategyTree.constant([1.0, 1.0], [0.5, 0.5])
        rep = simulate_adaptive_game(tree, 0.0, 10 ** 6, seed=11)
        target = delta_hom_fixed_t(1.0, 2, 0.0, 0.5)
        assert abs(rep.delta_hat - target) <= 4 * rep.half_width_95

    def test_adaptive_strategy_matches_tree_value(self):
        res = delta_adaptive_lb([1.0] * 4, 0.5)
        rep = simulate_adaptive_game(res.strategy, 0.5, 10 ** 6, seed=13)
        assert abs(rep.delta_hat - res.delta) <= 4 * rep.half_width_95

    def test_validation(self):
        tree = StrategyTree.constant([1.0], [0.5])
        with pytest.raises(ValueError):
            simulate_adaptive_game(tree, 0.0, 0, seed=1)


class TestFiniteDiff:
    def test_linear_function(self):
        err = finite_diff_check(lambda x: 3.0 * x + 1.0, lambda x: 3.0, [0.1, 1.0, 5.0])
        assert err <= 1e-9

    def test_flags_wrong_derivative(self):
        err = finite_diff_check(lambda x: x * x, lambda x: 3.0 * x, [1.0])
        assert err > 0.3

    def test_skips_unresolvable_points(self):
        # f flat to machine precision: the oracle must abstain, not fail
        err = finite_diff_check(lambda x: 1.0, lambda x: 0.0, [1.0])
        assert err == 0.0


def test_run_checks_fast_all_pass():
    results = run_checks("fast", seed=0)
    failed = [r.check for r in results if not r.passed]
    assert not failed, f"failed checks: {failed}"
    names = {r.check for r in results}
    assert "brute-force-vs-optimum" in names
    assert "mc-fixed-strategy" in names
    d = results[0].as_dict()
    assert set(d) == {"check", "params", "expected", "got", "tol", "pass"}


def test_run_checks_rejects_bad_level():
    with pytest.raises(ValueError):
        run_checks("medium", seed=0)
