"""Tests for the moment-generating-function family of adaptive upper bounds."""

import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brcomp.bounds import (_MAXKL_LOG_FORM, _MAXKL_SERIES_CUTOFF, LambdaSearch,
                           UFunctionKind, _minimize_over_lambda,
                           basic_composition, generic_delta_from_u, h_eps, maxkl, mgf_delta,
                           mgf_epsilon, optkl_delta, optkl_epsilon, quadratic_epsilon,
                           u_function)
from brcomp.cli import EPS_BISECT_TOL, METHODS, method_delta, method_epsilon
from brcomp.errors import CapError
from brcomp.nonadaptive import delta_hom_fixed_t, delta_opt_nonadaptive_hom
from brcomp.rounds import SORTED_COUNT_MIN, SORTED_DISTINCT_MAX, Rounds, _sorted_counts

MAXKL_1 = 0.123301561482245  # frozen 40-digit evaluation at eps = 1


class TestMaxkl:
    def test_value_at_one(self):
        assert maxkl(1.0) == pytest.approx(MAXKL_1, abs=1e-14)

    def test_small_eps_limit(self):
        for eps in (1e-10, 1e-8, 1e-7):
            assert maxkl(eps) / (eps * eps) == pytest.approx(0.125, rel=1e-10, abs=0.0)

    def test_series_matches_direct_form_near_cutoff(self):
        # both branches agree around the switch point
        for eps in (2e-6, 5e-6, 1e-5):
            direct = maxkl(eps)
            series = eps * eps / 8.0 - eps ** 4 / 576.0
            assert direct == pytest.approx(series, rel=1e-6, abs=0.0)

    def test_dominated_by_tanh_bound(self):
        for eps in np.linspace(0.01, 5.0, 200):
            m = maxkl(float(eps))
            assert m <= eps * math.tanh(eps / 2.0) + 1e-15
            assert eps * math.tanh(eps / 2.0) <= eps * eps / 2.0 + 1e-15

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            maxkl(0.0)

    def test_matches_mpmath_across_branches(self):
        # 50-digit r - 1 - log r with r = eps / (e^eps - 1), from 1e-9 to 50
        # and on both sides of each branch switch
        pts = np.geomspace(1e-9, 50.0, 600).tolist()
        for edge in (_MAXKL_SERIES_CUTOFF, _MAXKL_LOG_FORM):
            pts += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1e3)]
        with mp.workdps(50):
            for eps in pts:
                r = mp.mpf(eps) / mp.expm1(mp.mpf(eps))
                want = r - 1 - mp.log(r)
                assert abs(mp.mpf(maxkl(eps)) - want) <= 2e-13 * want, eps

    def test_past_exp_overflow(self):
        # eps / expm1(eps) overflowed above eps = 709.78
        assert maxkl(800.0) == pytest.approx(792.3153882723320727, rel=2e-13, abs=0.0)
        with mp.workdps(50):
            for eps in (710.0, 800.0, 1e4):
                r = mp.mpf(eps) / mp.expm1(mp.mpf(eps))
                want = r - 1 - mp.log(r)
                assert abs(mp.mpf(maxkl(eps)) - want) <= 2e-13 * want, eps


class TestUFunction:
    def test_vanish_at_zero_lambda(self):
        for kind in UFunctionKind:
            assert u_function(kind, 1.0, 1e-9) == pytest.approx(0.0, abs=1e-7)

    def test_dr19_value(self):
        assert u_function(UFunctionKind.DR19, 1.0, 2.0) == pytest.approx(1.5, abs=1e-14)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
    def test_pointwise_ordering(self, eps):
        for lam in np.linspace(0.05, 20.0, 50):
            lam = float(lam)
            general = u_function(UFunctionKind.GENERAL_MGF, eps, lam)
            kl = u_function(UFunctionKind.KL_IMPROVED_DR19, eps, lam)
            dr = u_function(UFunctionKind.DR19, eps, lam)
            drv = u_function(UFunctionKind.IMPROVED_DRV10, eps, lam)
            assert general <= kl + 1e-12
            assert kl <= dr + 1e-12
            assert dr <= drv + 1e-12


class TestHEps:
    def test_vanishes_at_small_lambda(self):
        assert h_eps(1.0, 1e-10) == pytest.approx(0.0, abs=1e-9)

    def test_bounded_by_linear(self):
        for eps in (0.1, 1.0, 3.0):
            for lam in (0.5, 2.0, 10.0, 100.0):
                h = h_eps(eps, lam)
                assert 0.0 <= h <= lam * eps + 1e-12

    def test_against_dense_grid(self):
        # 1e6-point brute-force sup
        from brcomp.grr import one_minus_p, p_of_t
        for eps, lam in ((1.0, 1.0), (0.5, 3.0), (2.0, 0.7)):
            tg = np.linspace(0.0, eps, 10 ** 6)
            vals = lam * (eps - tg) + np.log(p_of_t(eps, tg) * math.exp(-lam * eps)
                                             + one_minus_p(eps, tg))
            vals[0] = 0.0
            assert h_eps(eps, lam) == pytest.approx(float(vals.max()), abs=1e-8)

    def test_huge_lambda_no_overflow(self):
        h = h_eps(1.0, 2000.0)
        assert math.isfinite(h)
        assert 0.0 <= h <= 2000.0


class TestGenericDelta:
    def test_drv10_closed_form(self):
        # quadratic exponent: delta = exp(-(eps_g - k eps^2/2)^2 / (2 k eps^2))
        for eps, k, eps_g in ((0.1, 50, 2.0), (0.3, 20, 3.0), (1.0, 5, 6.0)):
            want = math.exp(-(eps_g - 0.5 * k * eps * eps) ** 2 / (2.0 * k * eps * eps))
            got = generic_delta_from_u(UFunctionKind.IMPROVED_DRV10, [eps] * k, eps_g)
            assert got.delta == pytest.approx(want, rel=1e-6, abs=0.0)

    def test_vacuous_bound_is_one(self):
        res = generic_delta_from_u(UFunctionKind.IMPROVED_DRV10, [1.0] * 5, -3.0)
        assert res.delta == 1.0

    def test_ceiling_flag(self):
        res = generic_delta_from_u(UFunctionKind.GENERAL_MGF, [0.01], 0.01,
                                   LambdaSearch(lambda_max=100.0))
        assert res.at_ceiling
        assert res.lam == 100.0

    def test_rejects_empty_or_negative_eps(self):
        with pytest.raises(ValueError):
            generic_delta_from_u(UFunctionKind.DR19, [], 1.0)
        with pytest.raises(ValueError):
            generic_delta_from_u(UFunctionKind.DR19, [-0.5, 1.0], 1.0)

    @pytest.mark.parametrize("kind", list(UFunctionKind))
    def test_nan_budget_refused(self, kind):
        # it returned 1, a vacuous bound for a budget that answers nothing
        with pytest.raises(ValueError, match="nan"):
            generic_delta_from_u(kind, [0.3, 0.8], math.nan)

    def test_zero_rounds_are_skipped(self):
        # a zero-parameter round is a data-independent no-op
        with_zero = generic_delta_from_u(UFunctionKind.DR19, [0.0, 1.0], 1.0)
        without = generic_delta_from_u(UFunctionKind.DR19, [1.0], 1.0)
        assert with_zero.delta == without.delta
        all_zero = generic_delta_from_u(UFunctionKind.DR19, [0.0, 0.0], 0.5)
        assert all_zero.delta == 0.0
        assert generic_delta_from_u(UFunctionKind.DR19, [0.0], -0.5).delta == 1.0
        assert basic_composition([0.5, 0.0, 0.5]) == 1.0


class TestOptkl:
    def test_basic_branch_wins_at_large_eps(self):
        assert optkl_epsilon([1.0], 1e-6) == pytest.approx(1.0, abs=1e-12)

    def test_kl_branch_wins_for_many_small_rounds(self):
        got = optkl_epsilon([0.01] * 10 ** 4, 1e-6)
        assert got < 100.0  # beats basic composition
        want = 1e4 * maxkl(0.01) + math.sqrt(0.5 * 1e4 * 1e-4 * math.log(1e6))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_delta_near_one_drops_tail_term(self):
        eps = [0.5, 0.7]
        got = optkl_epsilon(eps, 1.0 - 1e-12)
        assert got == pytest.approx(min(sum(eps), maxkl(0.5) + maxkl(0.7)), rel=1e-4, abs=0.0)

    def test_matches_inverted_generic_bound(self):
        # the numerically inverted KL bound reproduces its closed-form branch
        # (the full budget additionally takes the min with basic composition)
        from brcomp.validation import _invert_generic
        rng = np.random.default_rng(19)
        for _ in range(10):
            k = int(rng.integers(1, 40))
            eps = rng.uniform(0.05, 1.2, size=k)
            dg = 10.0 ** rng.uniform(-8, -2)
            branch = (sum(maxkl(e) for e in eps)
                      + math.sqrt(0.5 * float(np.sum(eps * eps)) * math.log(1.0 / dg)))
            inverted = _invert_generic(UFunctionKind.KL_IMPROVED_DR19, eps, dg)
            assert branch == pytest.approx(inverted, rel=1e-6, abs=0.0)
            assert optkl_epsilon(eps, dg) == pytest.approx(
                min(float(np.sum(eps)), branch), rel=1e-12, abs=0.0)

    def test_delta_is_capped_at_basic_composition(self):
        eps = [0.3, 0.8, 0.05]
        total = basic_composition(eps)
        assert optkl_delta(eps, total) == (0.0, 0.0, False, True)
        below = math.nextafter(total, 0.0)
        kl = generic_delta_from_u(UFunctionKind.KL_IMPROVED_DR19, eps, below)
        assert optkl_delta(eps, below) == kl
        assert not kl.capped_at_basic and 0.0 < kl.delta < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            optkl_epsilon([1.0], 0.0)
        with pytest.raises(ValueError):
            optkl_epsilon([1.0], 1.0)


class TestMgf:
    def test_round_trip(self):
        for eps, k, dg in ((1.0, 10, 1e-6), (0.1, 50, 1e-8), (0.5, 3, 1e-4)):
            inv = mgf_epsilon([eps] * k, dg)
            assert not inv.capped_at_basic
            back = mgf_delta([eps] * k, inv.eps_g)
            assert abs(back.delta - dg) <= 1e-8 * dg + 1e-15

    def test_dominates_exact_optimum(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            eps = float(rng.uniform(0.1, 1.0))
            k = int(rng.integers(1, 8))
            eps_g = float(rng.uniform(0.0, k * eps))
            bound = mgf_delta([eps] * k, eps_g).delta
            exact = delta_opt_nonadaptive_hom(eps, k, eps_g).delta
            assert bound >= exact - 1e-12

    def test_below_optkl_on_curve_points(self):
        for eps in (0.01, 0.1, 1.0):
            for k in (1, 10, 100):
                mg = mgf_epsilon([eps] * k, 1e-6).eps_g
                ok = optkl_epsilon([eps] * k, 1e-6)
                assert mg <= ok + 1e-12

    def test_capped_at_basic_flag(self):
        # a single tiny-eps round cannot certify 1e-6 within the lambda window
        res = mgf_epsilon([0.01], 1e-6)
        assert res.capped_at_basic
        assert res.eps_g == pytest.approx(0.01, abs=1e-15)

    def test_ceiling_flag_below_lambda_one(self):
        # a minimum on the edge of a window below lambda = 1 is flagged just
        # as on a window above 1
        low = mgf_delta([0.01], 0.01, LambdaSearch(lambda_max=0.5))
        assert low.lam == 0.5 and low.at_ceiling
        high = mgf_delta([0.01], 0.01, LambdaSearch(lambda_max=100))
        assert high.lam == 100 and high.at_ceiling
        # an interior minimum inside a sub-unit window stays unflagged
        inner = mgf_delta([1.0] * 3, 0.8, LambdaSearch(lambda_max=0.9))
        assert inner.lam == pytest.approx(0.61, abs=0.01) and not inner.at_ceiling
        edge = mgf_delta([1.0] * 3, 1.0, LambdaSearch(lambda_max=0.9))
        assert edge.lam == 0.9 and edge.at_ceiling

    def test_tail_shrinks_with_lambda_ceiling(self):
        # at eps_g = basic budget the bound keeps improving as lambda_max grows
        d_small = mgf_delta([1.0] * 3, 3.0, LambdaSearch(lambda_max=1e2)).delta
        d_large = mgf_delta([1.0] * 3, 3.0, LambdaSearch(lambda_max=1e4)).delta
        assert d_large < d_small

    def test_heterogeneous_round_trip(self):
        eps = [0.3, 0.5, 0.2, 0.9]
        inv = mgf_epsilon(eps, 1e-5)
        back = mgf_delta(eps, inv.eps_g)
        assert abs(back.delta - 1e-5) <= 1e-8 * 1e-5 + 1e-15

    def test_golden_section_matches_dense_lambda_grid(self):
        # the exponent is convex in lambda, so the searched minimum must agree
        # with a 1e4-point grid scan
        for eps, k, eps_g in ((0.5, 6, 2.0), (1.0, 3, 2.5)):
            res = mgf_delta([eps] * k, eps_g)
            lams = np.linspace(res.lam / 20.0, res.lam * 20.0, 10 ** 4)
            grid_min = min(math.exp(-lam * eps_g + k * h_eps(eps, float(lam)))
                           for lam in lams)
            assert res.delta == pytest.approx(grid_min, rel=1e-6, abs=0.0)
            assert res.delta <= grid_min + 1e-18

    def test_domain(self):
        with pytest.raises(ValueError):
            mgf_epsilon([1.0], 2.0)
        with pytest.raises(ValueError, match="nan"):
            mgf_delta([1.0], math.nan)


class TestBasicComposition:
    def test_sum(self):
        assert basic_composition([1.0, 1.0, 1.0]) == 3.0
        assert basic_composition([0.7]) == 0.7

    def test_boundary_matches_fixed_t(self):
        # the fixed-offset loss vanishes exactly at the summed budget
        assert delta_hom_fixed_t(1.0, 3, 3.0, 0.5) == 0.0

    def test_epsilon_examples(self):
        assert basic_composition([0.1] * 30) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_eps_refused(self, bad):
        # nan must not be dropped like a zero round
        for fn in (basic_composition, lambda e: mgf_delta(e, 0.5)):
            for eps_list in ([bad], [bad, 1.0]):
                with pytest.raises(ValueError, match="finite"):
                    fn(eps_list)


def _counted(values) -> list[tuple[str, int]]:
    """Counter(map(float, values)) without its zero key, as (key.hex(), count)
    in key order: what ``Rounds.of`` must hold for every input form."""
    counts = Counter(map(float, values))
    counts.pop(0.0, None)
    return [(e.hex(), n) for e, n in counts.items()]


def _forms(values: list) -> dict:
    """One list of rounds in every accepted container, plus the same values
    held in distinct float objects."""
    return {"list": values, "tuple": tuple(values), "array": np.array(values),
            "iterator": iter(values),
            "distinct": [float.fromhex(float(v).hex()) for v in values]}


_POOL = (0.0, -0.0, 1e-3, 0.1, 0.30000000000000004, 1.0, 2.5, 1e-300, 3, 0)


def _held(rounds: Rounds) -> list[tuple[str, int]]:
    return [(e.hex(), n) for e, n in rounds.groups]


def _check_forms(values: list) -> None:
    """``Rounds.of`` holds what ``Counter(map(float, ...))`` holds, in order
    of first appearance, in every input form, with the order of the
    nonzero rounds kept when they differ."""
    want = _counted(values)
    nonzero = [float(v) for v in values if v != 0.0]
    for name, form in _forms(values).items():
        got = Rounds.of(form)
        assert _held(got) == want, name
        assert all(type(e) is float for e in got.values), name
        assert got.as_list() == nonzero and got.k == len(nonzero), name
        assert (got.order is None) == (len(want) <= 1), name
        assert Rounds.of(got) is got


class TestAsCounts:
    """``Rounds.of`` holds the rounds as counts, recognises an equal list
    with one C-speed count and counts a long unequal one by sorting; every
    input form must give what ``Counter(map(float, ...))`` gives, and keep
    the order of the nonzero rounds."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.sampled_from(_POOL) | st.floats(0.0, 10.0),
                           min_size=1, max_size=30),
           repeat=st.integers(1, 40), equal=st.booleans())
    def test_matches_counter_of_floats(self, values, repeat, equal):
        if equal:
            values = [values[0]] * repeat
        _check_forms(values)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(specials=st.lists(st.sampled_from(_POOL) | st.booleans(), max_size=4),
           n_floats=st.integers(0, SORTED_DISTINCT_MAX + 3),
           size=st.integers(SORTED_COUNT_MIN - 3, SORTED_COUNT_MIN + 3)
           | st.integers(SORTED_COUNT_MIN, 4 * SORTED_COUNT_MIN),
           seed=st.integers(0, 2 ** 32 - 1), blocks=st.booleans())
    def test_long_lists_match_counter_of_floats(self, specials, n_floats, size, seed, blocks):
        # a pool's objects shared over the list, as perfbench builds its
        # lists, with about as many distinct values as the sorted count
        # takes; in blocks, the values past the first few show only late,
        # after the sorted count's early look at the list
        rng = np.random.default_rng(seed)
        pool = specials + (10.0 ** rng.uniform(-3.0, 1.0, n_floats)).tolist()
        assume(pool)
        picks = rng.integers(0, len(pool), size)
        if blocks:
            picks.sort()
        _check_forms([pool[i] for i in picks.tolist()])

    def test_sorted_count_takes_long_lists_of_few_values(self, monkeypatch):
        few = [0.25, 1e-3, 0.5] * SORTED_COUNT_MIN
        taken = []
        monkeypatch.setattr("brcomp.rounds._sorted_counts",
                            lambda order: taken.append(_sorted_counts(order)) or taken[-1])
        assert _held(Rounds.of(few)) == _counted(few)
        assert taken == [{0.25: 1000, 1e-3: 1000, 0.5: 1000}]
        assert list(taken[0]) == [0.25, 1e-3, 0.5]
        Rounds.of(few[:SORTED_COUNT_MIN - 1])
        assert len(taken) == 1
        # past the distinct-value cap, early or late, the hashed count
        # decides, and so it does for an entry struct refuses: float() reads
        # a string, and refuses None
        many = [i / 64 for i in range(1, SORTED_DISTINCT_MAX + 2)]
        assert _sorted_counts(tuple(many * 100)) is None
        assert _sorted_counts(tuple([0.5] * SORTED_COUNT_MIN + many)) is None
        assert _sorted_counts(tuple(few + ["0.5"])) is None
        assert _held(Rounds.of(few + ["0.5"])) == _counted(few + ["0.5"])
        with pytest.raises(TypeError):
            Rounds.of(few + [None])

    @pytest.mark.parametrize("values", [
        [0.1] * 56_000, [0.0, -0.0, 0.0], [-0.0, 0.5, -0.0], [0.0, 0.0, 0.7],
        [2, 2, 2], [2, 2.0, 2], [1, 0.5], [True, 1.0], [0.1, 0.1, 0.2, 0.1],
        [-0.0, 0.0, 3, True, 0.25, 1.0] * SORTED_COUNT_MIN, [0.0] * SORTED_COUNT_MIN + [0.7],
        [-0.0] * SORTED_COUNT_MIN + [0.0, 2, False, 2.0], [True] * SORTED_COUNT_MIN + [1, 0.5],
        [0.1] * SORTED_COUNT_MIN + [0.2] * SORTED_COUNT_MIN,
        [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)] * SORTED_COUNT_MIN])
    def test_examples(self, values):
        want = _counted(values)
        for name, form in _forms(values).items():
            assert _held(Rounds.of(form)) == want, name
        if values and values.count(values[0]) == len(values):
            assert _held(Rounds.equal(values[0], len(values))) == want

    @pytest.mark.parametrize("scalar", [0.5, 3, np.float64(0.5), np.array(0.5)])
    def test_scalar_is_one_round(self, scalar):
        assert list(Rounds.of(scalar).groups) == [(float(scalar), 1)]

    @pytest.mark.parametrize("bad,match", [
        ([math.nan] * 3, "finite"),
        ([float("nan") for _ in range(3)], "finite"),
        (np.full(3, math.nan), "finite"),
        ([math.inf] * 2, "finite"),
        ([0.1, math.inf], "finite"),
        ([-0.1] * 4, "finite"),
        ([0.1, -0.2], "finite"),
        ([], "nonempty"), ((), "nonempty"), (np.array([]), "nonempty"), (iter([]), "nonempty"),
        (np.ones((2, 2)), "1-D"), (np.ones((1, 3)), "1-D"), ([[0.1, 0.2]], "1-D"),
        ([[0.1], [0.2]], "1-D"), ([(0.1, 0.2)] * 3, "1-D"), ([0.1, [0.2]], "1-D"),
        ([np.ones(2)] * 2, "1-D"), (iter([[0.1, 0.2]]), "1-D"),
        ([[0.1, 0.2]] * SORTED_COUNT_MIN, "1-D"), ([0.1, (0.2, 0.3)] * SORTED_COUNT_MIN, "1-D")])
    def test_bad_input_refused(self, bad, match):
        with pytest.raises(ValueError, match=match):
            Rounds.of(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    @pytest.mark.parametrize("at", [0, SORTED_COUNT_MIN, 2 * SORTED_COUNT_MIN - 1])
    def test_bad_entry_of_a_long_list_refused(self, bad, at):
        values = [0.1, 0.2] * SORTED_COUNT_MIN
        values[at] = bad
        for form in _forms(values).values():
            with pytest.raises(ValueError, match="finite"):
                Rounds.of(form)

    def test_two_d_array_refused_by_a_method(self):
        with pytest.raises(ValueError, match="1-D"):
            method_delta("mgf", np.ones((2, 2)), 1.0)

    @pytest.mark.parametrize("eps,k,match", [
        (math.nan, 3, "finite"), (math.inf, 2, "finite"), (-0.1, 4, "finite"),
        (0.1, 0, "nonempty"), (0.1, 2.5, "integer"), (0.1, 2.0, "integer")])
    def test_equal_refuses_like_of(self, eps, k, match):
        # k = 2.5 built a composition of 2.5 rounds, which mgf_delta answered
        with pytest.raises(ValueError, match=match):
            Rounds.equal(eps, k)

    def test_equal_takes_numpy_integers(self):
        assert Rounds.equal(0.1, np.int64(3)) == Rounds.equal(0.1, 3)


# 58 000 rounds: one eps, and seven values in seeded order; pinned below at
# the parent of the equal-list count
_RNG = np.random.default_rng(7)
_SEVEN = (10.0 ** _RNG.uniform(-3.0, -2.0, 7)).tolist()
PIN_LISTS = {"equal": ([1e-3] * 58_000, 0.5),
             "mixed": ([_SEVEN[i] for i in _RNG.integers(0, 7, 58_000).tolist()], 3.0)}
PIN_DELTA_G = 1e-6


class TestLargeListPins:
    """Both directions of every bound on 58 000-entry lists, as float.hex."""

    @pytest.mark.parametrize("name,method,direction,want", [
        ("equal", "basic", "epsilon", "0x1.d000000000001p+5"),
        ("equal", "basic", "delta", "0x1.0000000000000p+0"),
        ("equal", "optkl", "epsilon", "0x1.47caca413d7d6p-1"),
        ("equal", "optkl", "delta", "0x1.e4ba7537758fap-13"),
        ("equal", "dr19", "epsilon", "0x1.52ed9b277b2cep-1"),
        ("equal", "dr19", "delta", "0x1.f352c97de5decp-12"),
        ("equal", "drv10", "epsilon", "0x1.4b810fe3e5abdp+0"),
        ("equal", "drv10", "delta", "0x1.2e88edcfc2a50p-3"),
        ("equal", "mgf", "epsilon", "0x1.47c9a404a04e0p-1"),
        ("equal", "mgf", "delta", "0x1.e4a8c8ee97440p-13"),
        ("mixed", "basic", "epsilon", "0x1.f5fd56d674bf2p+7"),
        ("mixed", "basic", "delta", "0x1.0000000000000p+0"),
        ("mixed", "optkl", "epsilon", "0x1.b2a433baa5ed6p+1"),
        ("mixed", "optkl", "delta", "0x1.9a18af5412754p-16"),
        ("mixed", "dr19", "epsilon", "0x1.fa3572099deeep+1"),
        ("mixed", "dr19", "delta", "0x1.1ebff87ad5059p-10"),
        ("mixed", "drv10", "epsilon", "0x1.ca7f4931afd20p+2"),
        ("mixed", "drv10", "delta", "0x1.7473d0ee1e761p-3"),
        ("mixed", "mgf", "epsilon", "0x1.b2a0ed3eafe54p+1"),
        ("mixed", "mgf", "delta", "0x1.99e196773c097p-16")])
    def test_value(self, name, method, direction, want):
        eps_list, eps_g = PIN_LISTS[name]
        if direction == "epsilon":
            got = method_epsilon(method, eps_list, PIN_DELTA_G)[0]
        else:
            got = method_delta(method, eps_list, eps_g)[0]
        assert got.hex() == want


class TestSummedBudgetRoundsUp:
    """basic composition's budget is the smallest float at or above the exact
    sum of the rounds, so delta = 0 is never read below that sum."""

    def test_tenth_times_ten(self):
        # 1.0 sits 5.6e-17 below the sum of ten 0.1s; basic read delta = 0 there
        assert basic_composition([0.1] * 10) == math.nextafter(1.0, 2.0)
        assert method_delta("basic", [0.1] * 10, 1.0)[0] == 1.0
        assert 0.0 < method_delta("optkl", [0.1] * 10, 1.0)[0] < 1.0

    def test_past_the_float_range(self):
        # math.fsum raised OverflowError on the unequal pair
        assert basic_composition([1e308] * 3) == basic_composition([1e308, 1.7e308]) == math.inf

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.sampled_from((0.1, 0.3, 1e-3, 0.7, 1e-300, 0.0))
                           | st.floats(0.0, 10.0), min_size=1, max_size=12),
           repeat=st.integers(1, 5000))
    def test_basic_round_trip(self, values, repeat):
        assume(any(values))
        eps_list = values * repeat
        eps_g = method_epsilon("basic", eps_list, 1e-6)[0]
        below = math.nextafter(eps_g, -math.inf)
        assert Fraction(below) < sum(map(Fraction, values)) * repeat <= Fraction(eps_g)
        assert method_delta("basic", eps_list, eps_g)[0] == 0.0
        assert method_delta("basic", eps_list, below)[0] == 1.0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("eps_list", [[0.1] * 2, [0.3, 0.8]])
def test_each_bound_query_counts_its_list_once(monkeypatch, method, eps_list):
    """One ``Rounds`` build per query of every method in both directions,
    bisected budgets included: the search hands its rounds to every
    evaluation."""
    builds = []
    validated = Rounds._validated.__func__

    def counted(cls, *args):
        builds.append(args)
        return validated(cls, *args)
    monkeypatch.setattr(Rounds, "_validated", classmethod(counted))
    total = sum(eps_list)
    queries = [] if method.startswith("edge") else [
        lambda: method_epsilon(method, eps_list, 1e-6)]
    # below, at and above the summed budget (optkl's basic branch)
    queries += [lambda g=g: method_delta(method, eps_list, g)
                for g in (0.5 * total, total, 2.0 * total)]
    for query in queries:
        builds.clear()
        try:
            query()
        except (CapError, ValueError):   # edge-* outside its region or on unequal eps
            pass
        assert len(builds) == 1


def test_lambda_search_validation():
    with pytest.raises(ValueError):
        LambdaSearch(lambda_max=0.0)


@pytest.mark.parametrize("fn, args", [
    (maxkl, (math.inf,)), (maxkl, (math.nan,)), (h_eps, (1.0, math.inf)),
    (h_eps, (math.inf, 1.0)), (u_function, (UFunctionKind.DR19, math.inf, 1.0)),
    (u_function, (UFunctionKind.DR19, 1.0, math.inf)),
    (u_function, (UFunctionKind.KL_IMPROVED_DR19, -0.5, 1.0))])
def test_scalar_bound_refuses_non_finite(fn, args):
    # maxkl(inf) and h_eps(1, inf) were nan; u_function checked no eps
    with pytest.raises(ValueError, match="finite and positive"):
        fn(*args)


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_lambda_search_refuses_bad_windows(bad):
    with pytest.raises(ValueError, match="lambda_max"):
        LambdaSearch(lambda_max=bad)


class TestLambdaWindowCeiling:
    """at_ceiling is set exactly when the minimizer sits on lambda_max: a
    window edge 1 % above the free minimizer leaves it inside and unflagged,
    one 1 % below it binds."""

    def test_mgf_delta_on_both_sides(self):
        for eps_list, eps_g in (([0.5] * 6, 2.0), ([1.0] * 3, 0.8), ([0.1] * 40, 3.0),
                                ([0.3, 0.5, 0.2, 0.9], 1.5)):
            free = mgf_delta(eps_list, eps_g)
            assert not free.at_ceiling
            above = mgf_delta(eps_list, eps_g, LambdaSearch(lambda_max=1.01 * free.lam))
            assert not above.at_ceiling and above.lam == pytest.approx(free.lam, rel=1e-6, abs=0.0)
            assert above.delta == pytest.approx(free.delta, rel=1e-12, abs=0.0)
            edge = free.lam / 1.01
            below = mgf_delta(eps_list, eps_g, LambdaSearch(lambda_max=edge))
            assert below.at_ceiling and below.lam == edge
            assert below.delta > free.delta

    def test_mgf_epsilon_on_both_sides(self):
        for eps_list, delta_g in (([0.1] * 40, 1e-6), ([1.0] * 10, 1e-3), ([0.5] * 3, 0.3),
                                  ([2.0] * 10, 0.05), ([0.3, 0.5, 0.2, 0.9], 1e-2)):
            free = mgf_epsilon(eps_list, delta_g)
            assert not free.at_ceiling and not free.capped_at_basic
            above = mgf_epsilon(eps_list, delta_g, LambdaSearch(lambda_max=1.01 * free.lam))
            assert not above.at_ceiling and above.lam == pytest.approx(free.lam, rel=1e-6, abs=0.0)
            assert above.eps_g == pytest.approx(free.eps_g, rel=1e-12, abs=0.0)
            edge = free.lam / 1.01
            below = mgf_epsilon(eps_list, delta_g, LambdaSearch(lambda_max=edge))
            assert below.at_ceiling and below.lam == edge
            assert below.eps_g > free.eps_g


# ---------------------------------------------------------------------------
# closed forms against independent references
# ---------------------------------------------------------------------------


def _mp_h_sup(eps, lam, iters=120):
    """sup over t in [0, eps] of the per-step log-MGF, by golden section on
    the original t-objective at 60 digits (unimodal: concave in e^-t)."""
    with mp.workdps(60):
        eps, lam = mp.mpf(eps), mp.mpf(lam)
        e_lam, den = mp.exp(-lam * eps), -mp.expm1(-eps)

        def f(t):
            p = (mp.exp(-t) - mp.exp(-eps)) / den
            return lam * (eps - t) + mp.log(p * e_lam + 1 - p)

        inv_phi = (mp.sqrt(5) - 1) / 2
        a, b = mp.mpf(0), eps
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(iters):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = f(d)
        return max(fc, fd, mp.mpf(0))


class TestHEpsClosedForm:
    def test_outward_and_tight_against_mpmath(self):
        rng = np.random.default_rng(2024)
        log_eps = rng.uniform(-4.0, math.log10(6.0), 1000)
        log_lam = rng.uniform(-3.0, 5.0, 1000)
        pts = list(zip((10.0 ** log_eps).tolist(), (10.0 ** log_lam).tolist()))
        pts += [(1e-4, 1e-3), (1e-4, 1e5), (6.0, 1e-3), (6.0, 1e5), (1e-4, 1e4)]
        for eps, lam in pts:
            excess = float(mp.mpf(h_eps(eps, lam)) - _mp_h_sup(eps, lam))
            assert 0.0 <= excess <= 1e-14 * max(1.0, lam * eps), (eps, lam, excess)

    def test_underflowing_moment(self):
        # lambda * eps below the smallest subnormal: the sup is ~0, never negative
        h = h_eps(1e-200, 1e-200)
        assert 0.0 <= h <= 1e-15


def _numeric_delta(kind, eps_list, eps_g, search):
    """The former numerical path: golden-section search of the u_function exponent."""
    counts = Counter(e for e in eps_list if e > 0.0)
    _, val, _ = _minimize_over_lambda(
        lambda lam: -lam * eps_g + math.fsum(n * u_function(kind, e, lam)
                                             for e, n in counts.items()), search)
    return math.exp(val) if val < 0.0 else 1.0


def _numeric_epsilon(kind, eps_list, delta_g, search):
    """The former budget inversion: bisection of the numerical delta over a
    symmetric bracket grown by doubling."""
    span = basic_composition(eps_list)
    lo, hi = -span, span
    while _numeric_delta(kind, eps_list, hi, search) > delta_g:
        hi *= 2.0
    for _ in range(math.ceil(math.log2((hi - lo) / EPS_BISECT_TOL))):
        mid = 0.5 * (lo + hi)
        if _numeric_delta(kind, eps_list, mid, search) > delta_g:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _random_cases(seed, n):
    """(kind, eps_list, delta_g, search): homogeneous and heterogeneous lists,
    and a lambda window that binds in about a third of the cases."""
    rng = np.random.default_rng(seed)
    kinds = [UFunctionKind.IMPROVED_DRV10, UFunctionKind.DR19,
             UFunctionKind.KL_IMPROVED_DR19]
    for j in range(n):
        kind = kinds[j % 3]
        k = int(rng.integers(1, 300))
        if j % 2:
            eps_list = (10.0 ** rng.uniform(-3.0, 0.3, size=k)).tolist()
        else:
            eps_list = [10.0 ** float(rng.uniform(-3.0, 0.3))] * k
        delta_g = 10.0 ** float(rng.uniform(-12.0, -1.0))
        search = LambdaSearch()
        if j % 3 == 2:
            free = quadratic_epsilon(kind, eps_list, delta_g).lam
            search = LambdaSearch(lambda_max=free / float(rng.uniform(1.5, 50.0)))
        yield kind, eps_list, delta_g, search


class TestQuadraticClosedForms:
    def test_epsilon_matches_numerical_inversion(self):
        bound_seen = 0
        for kind, eps_list, delta_g, search in _random_cases(5, 36):
            res = quadratic_epsilon(kind, eps_list, delta_g, search)
            bound_seen += res.at_ceiling
            old = _numeric_epsilon(kind, eps_list, delta_g, search)
            assert abs(res.eps_g - old) <= 4 * EPS_BISECT_TOL, (kind, len(eps_list))
        assert bound_seen >= 10

    def test_delta_matches_numerical_search(self):
        rng = np.random.default_rng(6)
        for kind, eps_list, delta_g, search in _random_cases(6, 60):
            centre = quadratic_epsilon(kind, eps_list, delta_g, search).eps_g
            for eps_g in (centre * float(rng.uniform(0.3, 2.0)), -centre):
                got = generic_delta_from_u(kind, eps_list, eps_g, search)
                old = _numeric_delta(kind, eps_list, eps_g, search)
                assert got.delta == pytest.approx(old, rel=1e-9, abs=0.0), (kind, eps_g)
                assert got.lam <= search.lambda_max

    def test_ceiling_flag_when_window_binds(self):
        res = generic_delta_from_u(UFunctionKind.DR19, [0.01], 1.0,
                                   LambdaSearch(lambda_max=100.0))
        assert res.at_ceiling and res.lam == 100.0
        a, b = 0.125e-4, 0.5e-4
        assert res.delta == pytest.approx(math.exp(100.0 * (100.0 * a + b - 1.0)),
                                          rel=1e-14, abs=0.0)
        free = generic_delta_from_u(UFunctionKind.DR19, [0.01], 1.0)
        assert not free.at_ceiling and free.delta < res.delta

    def test_budget_round_trips_through_cli(self):
        method_of = {UFunctionKind.IMPROVED_DRV10: "drv10", UFunctionKind.DR19: "dr19",
                     UFunctionKind.KL_IMPROVED_DR19: "optkl"}
        for kind, eps_list, delta_g, search in _random_cases(7, 45):
            budget, _ = method_epsilon(method_of[kind], eps_list, delta_g, search=search)
            back, _ = method_delta(method_of[kind], eps_list, budget, search=search)
            assert back <= delta_g * (1.0 + 1e-12), (method_of[kind], len(eps_list))

    def test_rejects_general_mgf(self):
        with pytest.raises(ValueError):
            quadratic_epsilon(UFunctionKind.GENERAL_MGF, [1.0], 1e-6)

    def test_underflowing_quadratic_coefficient(self):
        # eps^2 underflows to 0 below eps ~ 1e-162: the lambda window's edge binds
        res = quadratic_epsilon(UFunctionKind.DR19, [1e-170], 1e-6)
        assert res.at_ceiling
        assert res.eps_g == pytest.approx(math.log(1e6) / 1e6, rel=1e-12, abs=0.0)
        assert generic_delta_from_u(UFunctionKind.DR19, [1e-170], 1e-5).at_ceiling
