"""Tests for the moment-generating-function family of adaptive upper bounds."""

import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from brcomp.bounds import (_MAXKL_LOG_FORM, _MAXKL_SERIES_CUTOFF, LambdaSearch,
                           UFunctionKind, _minimize_over_lambda, basic_composition,
                           generic_delta_from_u, h_eps, maxkl, mgf_delta, mgf_epsilon,
                           optkl_epsilon, quadratic_epsilon, u_function)
from brcomp.cli import EPS_BISECT_TOL, Options, method_delta, method_epsilon
from brcomp.nonadaptive import delta_hom_fixed_t, delta_opt_nonadaptive_hom

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


def test_lambda_search_validation():
    with pytest.raises(ValueError):
        LambdaSearch(lambda_max=0.0)


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
            opts = Options(lambda_max=search.lambda_max)
            budget, _ = method_epsilon(method_of[kind], eps_list, delta_g, opts)
            back, _ = method_delta(method_of[kind], eps_list, budget, opts)
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
