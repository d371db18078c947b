"""Tests for the exact nonadaptive optimum and the DP baselines."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brcomp import nonadaptive
from brcomp.cli import method_delta, method_epsilon
from brcomp.errors import CapError
from brcomp.grr import grr_probs
from brcomp.nonadaptive import (TAIL_LOG2, TIE_RTOL, _log_binom, _stable_logs,
                                budget_seed, candidate_points, delta_het_fixed_t, delta_hom_fixed_t,
                                delta_opt_nonadaptive_hom, df_ell_dt, dp_optcomp_het,
                                dp_optcomp_hom, f_ell, f_ell_magnitude, fixed_t_inverse,
                                fixed_t_sums, nonadaptive_recursion_check)
from brcomp.validation import finite_diff_check, hockey_stick
from brcomp.grr import FiniteMechanismPair

# frozen from a 40-digit evaluation
DELTA_1_1_HALF_0 = 0.244918662403709   # k=1, eps=1, t=0.5, eps_g=0
DELTA_OPT_1_2_0 = 0.288317262368634    # optimum for k=2, eps=1, eps_g=0


class TestDeltaHomFixedT:
    def test_beyond_basic_composition_is_zero(self):
        for t in (0.0, 0.3, 1.0):
            assert delta_hom_fixed_t(1.0, 3, 3.0, t) == 0.0
            assert delta_hom_fixed_t(1.0, 3, 5.0, t) == 0.0

    def test_below_negated_budget_is_constant(self):
        for t in (0.0, 0.7, 1.0):
            assert delta_hom_fixed_t(1.0, 3, -3.0, t) == pytest.approx(
                -math.expm1(-3.0), abs=1e-12)

    def test_two_round_midpoint(self):
        # only the empty-subset term survives: p^2 (e - 1)
        got = delta_hom_fixed_t(1.0, 2, 0.0, 0.5)
        assert got == pytest.approx(0.24491866240371, abs=1e-12)
        p, _ = grr_probs(1.0, 0.5)
        assert got == pytest.approx(p * p * math.expm1(1.0), abs=1e-12)

    def test_single_round(self):
        assert delta_hom_fixed_t(1.0, 1, 0.0, 0.5) == pytest.approx(
            DELTA_1_1_HALF_0, abs=1e-12)

    @pytest.mark.parametrize("eps, k, match", [
        (math.inf, 2, "finite"), (math.nan, 2, "finite"), (0.5, 2.0, "integer"),
        (0.5, 2.5, "integer")])
    def test_scalar_inputs_refused(self, eps, k, match):
        # at eps = inf delta was 0; a float k raised TypeError from a slice
        with pytest.raises(ValueError, match=match):
            delta_opt_nonadaptive_hom(eps, k, 0.1)
        with pytest.raises(ValueError, match=match):
            delta_hom_fixed_t(eps, k, 0.1, 0.25)

    def test_numpy_integer_k(self):
        got, want = (delta_opt_nonadaptive_hom(0.5, k, 0.1) for k in (np.int64(2), 2))
        assert (got.delta, got.t) == (want.delta, want.t)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_hom_fixed_t(1.0, 2, 0.0, 1.5)
        with pytest.raises(ValueError):
            delta_hom_fixed_t(0.0, 2, 0.0, 0.0)
        with pytest.raises(ValueError):
            delta_hom_fixed_t(1.0, 0, 0.0, 0.5)

    def test_recursion_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            eps = float(rng.uniform(0.05, 2.5))
            k = int(rng.integers(1, 15))
            t = float(rng.uniform(0.0, eps))
            eps_g = float(rng.uniform(-1.2 * k * eps, 1.2 * k * eps))
            lhs, rhs = nonadaptive_recursion_check(eps, k, eps_g, t)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_recursion_check_past_exp_overflow(self):
        # the k = 1 base case at eps_g > 709 is 0, not an OverflowError
        assert nonadaptive_recursion_check(1.0, 1, 800.0, 0.5) == (0.0, 0.0)

    def test_scalar_offset_sums_as_in_a_scan(self):
        # a scalar offset's whole row is scaled by np.exp(top), as a block's
        # rows are; math.exp(top) differed in the last bit on about 4 % of
        # these draws, so delta at an argmax t could differ from the scan's
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(3000):
            k = int(rng.integers(1, 141))
            eps = float(10.0 ** rng.uniform(-2.0, 0.5))
            eps_g = float(rng.uniform(-1.0, 1.0)) * k * eps
            t = rng.uniform(0.0, eps, 2)
            if nonadaptive._windowed(k, t.size):
                continue
            checked += 1
            alone = fixed_t_sums(eps, k, eps_g, float(t[0])).values
            assert alone.tobytes() == fixed_t_sums(eps, k, eps_g, t).values[:1].tobytes(), \
                (eps, k, eps_g, float(t[0]))
        assert checked > 2000

    def test_large_k_no_underflow(self):
        # direct products would underflow at this size; log-space must not
        v = delta_hom_fixed_t(0.01, 10 ** 5, 5.0, 0.005)
        assert 0.0 < v < 1.0


class TestCandidatePoints:
    def test_three_round_example(self):
        cands = candidate_points(1.0, 2, 0.0)
        assert [c.ell for c in cands] == [0, 1, 2]
        assert cands[0].t == pytest.approx(1.0 / 3.0)
        assert cands[1].t == pytest.approx(2.0 / 3.0)
        assert cands[2].t == 1.0

    def test_single_round(self):
        cands = candidate_points(1.0, 1, 0.0)
        assert [c.t for c in cands] == pytest.approx([0.5, 1.0])

    def test_all_clamped_beyond_budget(self):
        assert all(c.t == 1.0 for c in candidate_points(1.0, 4, 10.0))

    def test_nan_budget_refused(self):
        # every offset was nan
        with pytest.raises(ValueError, match="nan"):
            candidate_points(0.5, 2, math.nan)


class TestDeltaOpt:
    def test_single_round_optimum(self):
        res = delta_opt_nonadaptive_hom(1.0, 1, 0.0)
        assert res.delta == pytest.approx(DELTA_1_1_HALF_0, abs=1e-12)
        assert res.t == pytest.approx(0.5, abs=1e-12)

    def test_two_round_exact_tie(self):
        res = delta_opt_nonadaptive_hom(1.0, 2, 0.0)
        assert res.delta == pytest.approx(DELTA_OPT_1_2_0, abs=1e-12)
        assert res.t == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.maximizers == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-12)

    def test_zero_beyond_basic(self):
        assert delta_opt_nonadaptive_hom(0.1, 50, 5.0).delta == 0.0
        assert delta_opt_nonadaptive_hom(0.1, 50, 6.0).delta == 0.0

    def test_constant_below_negated_budget(self):
        res = delta_opt_nonadaptive_hom(0.5, 4, -2.0)
        assert res.delta == pytest.approx(-math.expm1(-2.0), abs=1e-12)

    def test_nonincreasing_in_eps_g_and_zero_iff_boundary(self):
        eps, k = 0.8, 5
        grid = np.linspace(-1.2 * k * eps, 1.2 * k * eps, 41)
        vals = [delta_opt_nonadaptive_hom(eps, k, g).delta for g in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < 1.0 for v in vals)
        for g, v in zip(grid, vals):
            assert (v == 0.0) == (g >= k * eps)

    def test_argmax_is_an_interior_candidate(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            eps = float(rng.uniform(0.1, 2.0))
            k = int(rng.integers(1, 30))
            # keep eps_g where the optimum is distinguishable from 1 in floats
            lim = min(0.95 * k * eps, 20.0)
            eps_g = float(rng.uniform(-lim, lim))
            res = delta_opt_nonadaptive_hom(eps, k, eps_g)
            cands = [c.t for c in candidate_points(eps, k, eps_g)]
            assert 0.0 < res.t < eps
            assert min(abs(res.t - c) for c in cands) <= 1e-12

    @pytest.mark.parametrize("eps,k,eps_g", [(0.01, 2000, 1.5), (2.0, 100, 150.0)])
    def test_argmax_of_tiny_delta_checked_in_mpmath(self, eps, k, eps_g):
        # delta is far below 1e-12 here, so only a relative tie test keeps the
        # reported offset and maximizer set true
        res = delta_opt_nonadaptive_hom(eps, k, eps_g)
        cands = sorted({c.t for c in candidate_points(eps, k, eps_g) if 0.0 < c.t < eps})
        vals = np.array([delta_hom_fixed_t(eps, k, eps_g, t) for t in cands])
        # the float values are accurate far beyond 1e-4 relative, so the
        # true argmax lies in this band; rank the band at 40 digits
        band = [t for t, v in zip(cands, vals) if v >= vals.max() * (1.0 - 1e-4)]
        exact = {t: _mp_delta_fixed_t(eps, k, eps_g, t) for t in band + [res.t]}
        best = max(band, key=exact.get)
        assert res.t == best
        assert res.maximizers == [best]
        assert float(exact[best]) == pytest.approx(res.delta, rel=1e-9, abs=0.0)

    def test_scan_masks_the_clipped_distinct_candidates(self, monkeypatch):
        # the scan keeps the interior offsets with one mask, unclipped and
        # unsorted; they must equal the sorted, distinct interior offsets of
        # the clipped candidates
        class Scanned(Exception):
            pass

        def capture(eps, k, eps_g, t):
            raise Scanned(t)
        monkeypatch.setattr(nonadaptive, "_scan_values", capture)

        def scanned(eps, k, eps_g):
            try:
                delta_opt_nonadaptive_hom(eps, k, eps_g)
            except Scanned as exc:
                return exc.args[0]
            return np.empty(0)

        rng = np.random.default_rng(9)
        cases = []
        for _ in range(3000):
            k = int(round(10.0 ** rng.uniform(0.0, 5.0)))
            eps = float(10.0 ** rng.uniform(-4.0, 1.0))
            cases.append((eps, k, float(rng.uniform(-k * eps, k * eps))))
        for eps in (1e-4, 0.1, 1.0, 7.3):
            for k in (1, 2, 40, 10 ** 5):
                edge = k * eps
                cases += [(eps, k, float(rng.uniform(-edge, edge))),
                          (eps, k, math.nextafter(edge, 0.0)),
                          (eps, k, math.nextafter(-edge, 0.0))]
        # eps_g on a multiple of eps puts an offset exactly on 0 or on eps
        cases += [(0.5, k, j * 0.5) for k in (1, 4, 7) for j in range(1 - k, k)]
        for eps, k, eps_g in cases:
            want = _candidate_offsets(eps, k, eps_g)
            assert np.array_equal(scanned(eps, k, eps_g), want), (eps, k, eps_g)

    def test_sandwich_between_dp_baselines(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            eps = float(rng.uniform(0.1, 2.0))
            k = int(rng.integers(1, 20))
            eps_g = float(rng.uniform(-k * eps, k * eps))
            mid = delta_opt_nonadaptive_hom(eps, k, eps_g).delta
            lo = dp_optcomp_hom(eps / 2.0, k, eps_g)
            hi = dp_optcomp_hom(eps, k, eps_g)
            assert lo <= mid + 1e-12
            assert mid <= hi + 1e-12


class TestWholeRowScan:
    """A scan that sums whole rows reads its (eps, k) constants from a bounded
    cache; delta, t and the maximizers are those of fixed_t_sums' values at
    the same offsets, bit for bit."""

    def test_equals_fixed_t_sums_rows(self):
        rng = np.random.default_rng(61)
        high_eps = 0
        for j in range(1500):
            k = int(rng.integers(1, 151))
            # every fifth eps in (600, 1000]: p underflows at the larger offsets
            eps = (float(rng.uniform(600.0, 1000.0)) if j % 5 == 0
                   else float(10.0 ** rng.uniform(-2.5, 0.7)))
            eps_g = float(rng.uniform(-1.0, 1.0)) * k * eps
            res = delta_opt_nonadaptive_hom(eps, k, eps_g)
            want = _oracle_opt(eps, k, eps_g, lambda *q: fixed_t_sums(*q).values)
            assert (res.delta.hex(), res.t.hex(), [x.hex() for x in res.maximizers]) == \
                (want[0].hex(), want[1].hex(), [x.hex() for x in want[2]]), (eps, k, eps_g)
            if res.maximizers and not nonadaptive._windowed(k, k + 1):
                # the scalar rows of the tied offsets give delta too
                alone = max(float(fixed_t_sums(eps, k, eps_g, x).values) for x in res.maximizers)
                assert min(alone, 1.0).hex() == res.delta.hex(), (eps, k, eps_g)
            high_eps += eps > 600.0 and max(res.maximizers, default=0.0) > 750.0
        assert high_eps > 50

    def test_constants_read_only_and_cache_bounded(self):
        c = nonadaptive._row_consts(0.3, 12)
        assert nonadaptive._row_consts(0.3, 12) is c
        for a in (c.i, c.k_i, c.i_eps, c.lbin, c.ell_eps):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
        cache = nonadaptive._cached_row_consts
        cap = cache.cache_info().maxsize
        assert cap is not None
        for j in range(3 * cap):
            delta_opt_nonadaptive_hom(0.1 + j * 1e-3, 5, 0.2)
        assert cache.cache_info().currsize <= cap
        # a scan sums whole rows, and reads the cache, up to k = 140 (as a
        # budget seed is refused there); from 141 it forms its constants per
        # call, past the cache
        assert [budget_seed(0.1, k, 1e-6) is None for k in (140, 141)] == [True, False]
        for k, cached in ((140, True), (141, False)):
            delta_opt_nonadaptive_hom(0.1, k, 0.5)
            before = cache.cache_info()
            delta_opt_nonadaptive_hom(0.1, k, 0.5)
            after = cache.cache_info()
            assert after.misses == before.misses
            assert (after.hits > before.hits) == cached, k
            assert (nonadaptive._row_consts(0.1, k) is nonadaptive._row_consts(0.1, k)) == cached

    def test_one_read_only_log_binom_per_k(self, monkeypatch):
        # every reader of log C(k, i) gets the one memo's array for k
        eps, k, eps_g = 0.1, 500, 1.0
        lbin = _log_binom(k)
        assert not lbin.flags.writeable
        with pytest.raises(ValueError):
            lbin[0] = 1.0
        assert _log_binom(k) is lbin
        read = []
        monkeypatch.setattr(nonadaptive, "_log_binom",
                            lambda n: read.append(_log_binom(n)) or read[-1])
        t = np.array([0.02, 0.05])
        win = nonadaptive._windows(eps, k, eps_g, t, *_stable_logs(eps, t))
        consts = nonadaptive._form_row_consts(eps, k)
        fixed_t_inverse(eps, k, 0.05, 1e-6)
        assert len(read) == 3
        assert all(a is lbin for a in read + [win.lbin, consts.lbin])


class TestAveragingAndEqualT:
    def test_averaging_increases_delta(self):
        # replacing (t1, t2) by their mean strictly increases the loss when
        # eps_g < sum t < eps_g + k eps and t1 != t2
        rng = np.random.default_rng(23)
        done = 0
        while done < 40:
            eps = float(rng.uniform(0.3, 1.5))
            k = int(rng.integers(2, 5))
            t = rng.uniform(0.0, eps, size=k)
            if abs(t[0] - t[1]) < 0.2 * eps:
                continue
            eps_g = float(t.sum() - rng.uniform(0.05, 0.95) * k * eps)
            if not (eps_g < t.sum() < eps_g + k * eps):
                continue
            base = delta_het_fixed_t([eps] * k, eps_g, t)
            avg = t.copy()
            avg[0] = avg[1] = 0.5 * (t[0] + t[1])
            assert delta_het_fixed_t([eps] * k, eps_g, avg) > base
            done += 1

    def test_grid_max_on_diagonal(self):
        # brute-force argmax over [0, eps]^k sits on the equal-offset diagonal
        from brcomp.validation import brute_force_nonadaptive
        for k in (2, 3):
            res = brute_force_nonadaptive([1.0] * k, 0.2, 60, refine_rounds=0)
            spread = res.t.max() - res.t.min()
            assert spread <= 1.0 / 59 + 1e-12

    def test_grid_argmax_near_candidate(self):
        from brcomp.validation import brute_force_nonadaptive
        for eps_g in (-0.5, 0.0, 0.8):
            res = brute_force_nonadaptive([1.0, 1.0], eps_g, 120, refine_rounds=0)
            cands = [c.t for c in candidate_points(1.0, 2, eps_g)]
            assert min(abs(res.t[0] - c) for c in cands) <= 1.0 / 119 + 1e-12


class TestFEllDerivative:
    def test_zero_at_interior_candidate(self):
        for eps, k, eps_g in ((1.0, 4, 0.3), (0.5, 6, -0.4)):
            for ell in range(k):
                t = (eps_g + (ell + 1) * eps) / (k + 1)
                if 0.0 < t < eps:
                    assert abs(df_ell_dt(eps, k, eps_g, ell, t)) <= 1e-9

    def test_boundary_values(self):
        # at t=0 the (1-p) factor kills every ell >= 1 term
        for ell in (1, 2, 3):
            assert df_ell_dt(1.0, 4, 0.2, ell, 0.0) == 0.0
        # ell = 0 keeps the pure-p expression alive
        expect = 4 * (math.exp(0.2) - math.exp(-1.0)) / -math.expm1(-1.0)
        assert df_ell_dt(1.0, 4, 0.2, 0, 0.0) == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_matches_finite_differences(self):
        from brcomp.nonadaptive import f_ell_magnitude
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            eps = float(rng.uniform(0.1, 2.0))
            k = int(rng.integers(1, 21))
            ell = int(rng.integers(0, k + 1))
            eps_g = float(rng.uniform(-k * eps, k * eps))
            pts = rng.uniform(0.1 * eps, 0.9 * eps, size=3)
            worst = max(worst, finite_diff_check(
                lambda t: f_ell(eps, k, eps_g, ell, t),
                lambda t: df_ell_dt(eps, k, eps_g, ell, t), pts,
                h_scale=1e-6 * min(1.0, eps),
                f_noise=lambda t: 4e-14 * f_ell_magnitude(eps, k, eps_g, ell, t)))
        assert worst < 1e-6

    def test_f_ell_past_float_range_refused(self):
        # the first case's signed terms are finite but their sum, 1 - e^735, is
        # not (fsum raised OverflowError); the second returned -inf with a warning
        with pytest.raises(ValueError, match="eps_g=734.99"):
            f_ell(0.9192464006818158, 300, 734.9924001188303, 300, 0.168082123786025)
        with pytest.raises(ValueError, match="eps_g=800.0"):
            f_ell(1.0, 3, 800.0, 1, 0.5)

    def test_f_ell_magnitude_past_float_range_refused(self):
        with pytest.raises(ValueError, match="eps_g=800.0"):
            f_ell_magnitude(1.0, 3, 800.0, 1, 0.5)

    def test_df_ell_past_float_range_refused(self):
        # it returned inf with a numpy overflow warning
        with pytest.raises(ValueError, match="eps_g=800.0"):
            df_ell_dt(1.0, 3, 800.0, 1, 0.5)

    def test_f_ell_touches_delta(self):
        # wherever at least one bracket is positive, some partial sum equals
        # the clamped value
        eps, k, eps_g = 1.0, 5, 0.7
        for t in np.linspace(0.05, 0.95, 7):
            if k * t <= eps_g:
                continue
            target = delta_hom_fixed_t(eps, k, eps_g, t)
            vals = [f_ell(eps, k, eps_g, ell, t) for ell in range(k + 1)]
            assert min(abs(v - target) for v in vals) <= 1e-10


    def test_large_k_in_log_space(self):
        # k = 2000 used to overflow converting C(k, i) to float
        eps, k, eps_g, t = 0.01, 2000, 1.5, 0.005
        for ell in (0, 700, 1000, 1999):
            got = f_ell(eps, k, eps_g, ell, t)
            want = _mp_f_ell(eps, k, eps_g, ell, t)
            assert abs(got - float(want)) <= 1e-10 * f_ell_magnitude(eps, k, eps_g, ell, t)
            d_want = _mp_df_ell(eps, k, eps_g, ell, t)
            assert df_ell_dt(eps, k, eps_g, ell, t) == pytest.approx(float(d_want), rel=1e-10,
                                                                     abs=0.0)
        # the full sum is E_q[1] - e^eps_g E_p[1]
        assert f_ell(eps, k, eps_g, k, t) == pytest.approx(-math.expm1(eps_g), rel=1e-10, abs=0.0)


def _mp_probs(eps, t):
    eps, t = mp.mpf(eps), mp.mpf(t)
    p = (mp.exp(-t) - mp.exp(-eps)) / -mp.expm1(-eps)
    return p, mp.exp(t) * p


def _mp_sum_terms(eps, k, eps_g, t, indices):
    """sum over the given i of C(k,i) (q^(k-i) (1-q)^i - e^eps_g p^(k-i) (1-p)^i),
    the signed terms of f_ell, at 40 digits."""
    with mp.workdps(40):
        p, q = _mp_probs(eps, t)
        eg = mp.exp(eps_g)
        return mp.fsum(mp.binomial(k, i) * (q ** (k - i) * (1 - q) ** i
                                            - eg * p ** (k - i) * (1 - p) ** i)
                       for i in indices)


def _mp_delta_fixed_t(eps, k, eps_g, t):
    """delta_k(t, eps_g): only the positive brackets count."""
    return _mp_sum_terms(eps, k, eps_g, t,
                         [i for i in range(k + 1) if k * t - i * eps > eps_g])


def _mp_f_ell(eps, k, eps_g, ell, t):
    return _mp_sum_terms(eps, k, eps_g, t, range(ell + 1))


def _mp_df_ell(eps, k, eps_g, ell, t):
    with mp.workdps(40):
        p, _ = _mp_probs(eps, t)
        return ((k - ell) * mp.binomial(k, ell) * p ** (k - 1 - ell) * (1 - p) ** ell
                * (mp.exp(eps_g - t) - mp.exp(k * mp.mpf(t) - (ell + 1) * mp.mpf(eps)))
                / -mp.expm1(-eps))


# ---------------------------------------------------------------------------
# The windowed kernel against the O(k^2) whole-row oracle
# ---------------------------------------------------------------------------


def _oracle_values(eps, k, eps_g, t):
    """delta_k(t_j, eps_g) by summing every one of the k+1 terms of each row:
    the candidate scan as it stood before windowing, kept as the reference
    (with the bracket's log taken through expm1, as the kernel does)."""
    t = np.asarray(t, dtype=float)
    i = np.arange(k + 1)
    lbin = _log_binom(k)
    block = max(1, (1 << 19) // (k + 1))
    values = np.empty(t.size)
    for lo in range(0, t.size, block):
        tb = t[lo:lo + block]
        lp, lomp = _stable_logs(eps, tb)
        a = k * tb[:, None] - i[None, :] * eps
        mask = a > eps_g
        with np.errstate(divide="ignore", invalid="ignore"):
            lterm = (lbin[None, :] + (k - i)[None, :] * lp[:, None]
                     + i[None, :] * lomp[:, None]
                     + a + np.log(-np.expm1(np.minimum(eps_g - a, 0.0))))
        lterm = np.where(mask, lterm, -np.inf)
        m = lterm.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            vb = np.exp(m[:, 0]) * np.exp(lterm - m).sum(axis=1)
        values[lo:lo + block] = np.where(np.isfinite(m[:, 0]), vb, 0.0)
    return values


def _oracle_opt(eps, k, eps_g, values_at=_oracle_values):
    """(delta, t, maximizers) of the optimum over candidate values, whole-row
    oracle ones unless ``values_at(eps, k, eps_g, t)`` gives others."""
    endpoint = -math.expm1(eps_g) if eps_g < 0.0 else 0.0
    if eps_g >= k * eps:
        return 0.0, 0.0, []
    if eps_g <= -k * eps:
        return endpoint, 0.0, []
    t = np.unique(np.clip((eps_g + (np.arange(k + 1) + 1.0) * eps) / (k + 1), 0.0, eps))
    t = t[(t > 0.0) & (t < eps)]
    if t.size == 0:
        return endpoint, 0.0, []
    values = values_at(eps, k, eps_g, t)
    best = float(values.max())
    if best <= endpoint:
        return endpoint, 0.0, []
    winners = np.flatnonzero(values >= best * (1.0 - TIE_RTOL))
    return min(best, 1.0), float(t[winners[0]]), [float(x) for x in t[winners]]


def _assert_close(got, want, rel=1e-15):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= rel * want), (got, want)


def _assert_certified(res):
    # every window's certified omitted mass is at most 2^-60 of its sum
    assert np.all(res.omitted <= 2.0 ** TAIL_LOG2 * res.values)


def _draw_case(rng, k_max=10 ** 4):
    """k log-uniform in [1, k_max], eps in [1e-3, 3] and eps_g = k eps v^3
    with v uniform on (-1, 1): across (-k eps, k eps), but most draws land
    where delta is neither 1 nor 0."""
    k = int(round(10.0 ** rng.uniform(0.0, math.log10(k_max))))
    eps = float(rng.uniform(1e-3, 3.0))
    return eps, k, float(k * eps * rng.uniform(-1.0, 1.0) ** 3)


def _candidate_offsets(eps, k, eps_g):
    t = np.unique(np.clip((eps_g + (np.arange(k + 1) + 1.0) * eps) / (k + 1), 0.0, eps))
    return t[(t > 0.0) & (t < eps)]


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWindowedKernel:
    def test_optimum_matches_whole_row_oracle(self):
        rng = np.random.default_rng(101)
        windowed = 0
        for _ in range(60):
            eps, k, eps_g = _draw_case(rng)
            res = delta_opt_nonadaptive_hom(eps, k, eps_g)
            want, t, maximizers = _oracle_opt(eps, k, eps_g)
            _assert_close(res.delta, want)
            assert res.t == t and res.maximizers == maximizers
            cands = np.unique([c.t for c in candidate_points(eps, k, eps_g)
                               if 0.0 < c.t < eps])
            if cands.size:
                got = fixed_t_sums(eps, k, eps_g, cands)
                _assert_certified(got)
                windowed += nonadaptive._windowed(k, cands.size)
        assert windowed >= 20

    def test_fixed_t_matches_whole_row_oracle(self):
        rng = np.random.default_rng(103)
        for _ in range(80):
            eps, k, eps_g = _draw_case(rng)
            t = rng.uniform(0.0, eps, size=int(rng.integers(1, 65)))
            t = t[t > 0.0]
            res = fixed_t_sums(eps, k, eps_g, t)
            _assert_close(res.values, _oracle_values(eps, k, eps_g, t))
            _assert_certified(res)
            _assert_close(delta_hom_fixed_t(eps, k, eps_g, float(t[0])),
                          min(_oracle_values(eps, k, eps_g, t[:1])[0], 1.0))

    def test_single_offset_windows_above_the_dense_size(self):
        # one offset is summed whole up to _DENSE_ELEMS terms, windowed beyond
        eps, eps_g, t = 0.02, 3.0, 0.0093
        for k in (8000, 20000):
            res = fixed_t_sums(eps, k, eps_g, t)
            assert res.values.shape == () and res.omitted.shape == ()
            assert nonadaptive._windowed(k, 1) == (k >= 8192)
            _assert_close(res.values, _oracle_values(eps, k, eps_g, [t])[0])
            _assert_certified(res)

    def test_skewed_rows_widen_their_windows(self):
        # eps = 3 puts q near 0 or 1 at most offsets: the binomial is skewed
        # and the first window's tail bound fails for some of them
        eps, k, eps_g = 3.0, 300, -100.0
        t = np.linspace(0.0, eps, 41)[1:-1]
        res = fixed_t_sums(eps, k, eps_g, t)
        assert res.passes >= 2
        _assert_close(res.values, _oracle_values(eps, k, eps_g, t))
        _assert_certified(res)

    def test_narrow_first_windows_widen_to_the_same_values(self, monkeypatch):
        # windows of half a standard deviation fail the certificate almost
        # everywhere; doubling them, up to the whole row, must reproduce the
        # oracle exactly as wide ones do
        monkeypatch.setattr(nonadaptive, "WINDOW_SDS", 0.5)
        monkeypatch.setattr(nonadaptive, "WINDOW_PAD", 0)
        rng = np.random.default_rng(107)
        for eps, k, eps_g in ((0.1, 2000, 1.0), (1.0, 500, 20.0), (0.01, 5000, -0.3)):
            t = np.sort(rng.uniform(0.0, eps, 48))
            res = fixed_t_sums(eps, k, eps_g, t)
            assert res.passes >= 4
            _assert_close(res.values, _oracle_values(eps, k, eps_g, t))
            _assert_certified(res)
            opt = delta_opt_nonadaptive_hom(eps, k, eps_g)
            want, t_star, maximizers = _oracle_opt(eps, k, eps_g)
            _assert_close(opt.delta, want)
            assert (opt.t, opt.maximizers) == (t_star, maximizers)

    def test_block_size_caps_the_temporaries(self):
        # many offsets at large k are evaluated in several blocks, whose
        # buffers are allocated once per pass
        eps, k, eps_g = 0.01, 30000, 2.0
        t = np.linspace(0.0, eps, 601)[1:-1]
        res, peak = _traced_peak(fixed_t_sums, eps, k, eps_g, t)
        assert t.size * 2 * math.ceil(11 * math.sqrt(k) / 2) > nonadaptive._BLOCK_ELEMS
        _assert_close(res.values, _oracle_values(eps, k, eps_g, t))
        _assert_certified(res)
        assert peak < 8e6
        # a whole candidate scan: 10^4 windows of about 1100 terms each
        assert _traced_peak(delta_opt_nonadaptive_hom, 0.01, 10 ** 4, 1.5)[1] < 8e6

    def test_block_size_changes_no_bit(self, monkeypatch):
        # a row's terms and sum do not depend on the block that holds it: one
        # row per block (2^8 terms), the default, and the old 2^19-term blocks
        cases = [(3.0, 300, -100.0, np.linspace(0.0, 3.0, 401)[1:-1]),   # widens
                 (0.0586, 445, 1.0, None), (0.0063, 783, 0.1, None),
                 (0.0108, 3163, 1.666, None), (0.01, 10 ** 4, 1.5, None),
                 (0.3, 140, 3.0, np.linspace(0.0, 0.3, 2002)[1:-1]),     # whole rows
                 (1.0, 40, 0.5, np.linspace(0.0, 1.0, 5002)[1:-1])]
        results = []
        for block in (1 << 8, 1 << 15, 1 << 19):
            monkeypatch.setattr(nonadaptive, "_BLOCK_ELEMS", block)
            results.append([])
            for eps, k, eps_g, t in cases:
                res = fixed_t_sums(eps, k, eps_g, _candidate_offsets(eps, k, eps_g)
                                   if t is None else t)
                assert nonadaptive._windowed(k, res.values.size) == (k > 150)
                results[-1].append((res.values.tobytes(), res.omitted.tobytes(), res.passes))
        assert results[0][0][2] >= 2
        assert results[0] == results[1] == results[2]

    def test_no_positive_term_is_zero(self):
        res = fixed_t_sums(0.1, 1000, 50.0, np.array([0.01, 0.05]))
        assert res.values.tolist() == [0.0, 0.0] and res.omitted.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("eps,k,eps_g", [(0.3, 100, 3.0), (0.1, 1000, 4.0),
                                             (0.01, 10 ** 4, 1.5)])
    def test_mpmath_references_at_scale(self, eps, k, eps_g):
        # the float log-binomial table is a running sum of logs whose rounding
        # grows with k (about 4e-10 relative at k = 1e4), hence the tolerance
        rel = 1e-13 * k
        t = 0.37 * eps
        want = _mp_delta_fixed_t(eps, k, eps_g, t)
        assert delta_hom_fixed_t(eps, k, eps_g, t) == pytest.approx(float(want), rel=rel, abs=0.0)
        res = delta_opt_nonadaptive_hom(eps, k, eps_g)
        want = _mp_delta_fixed_t(eps, k, eps_g, res.t)
        assert res.delta == pytest.approx(float(want), rel=rel, abs=0.0)
        assert 1e-4 < res.delta < 0.1

    @pytest.mark.parametrize("eps,k,eps_g,rel", [
        (1.955095612066733e-06, 34, 6.646324784990641e-05, 1e-10),
        (0.01, 1, 0.009995, 1e-14)])
    def test_bracket_near_zero_checked_in_mpmath(self, eps, k, eps_g, rel):
        # at the maximizing offset e^a - e^eps_g is small next to e^a, where
        # log1p(-exp(eps_g - a)) errs by about ulp/|eps_g - a| relative (it
        # read 2.5e-7 and 1.6e-11 off here)
        res = delta_opt_nonadaptive_hom(eps, k, eps_g)
        want = _mp_delta_fixed_t(eps, k, eps_g, res.t)
        assert res.delta == pytest.approx(float(want), rel=rel, abs=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(600, 4000), eps=st.floats(1e-3, 3.0),
           z=st.floats(-3.0, 30.0), shift=st.floats(-14.0, 0.5))
    def test_windowed_delta_nonincreasing_in_eps_g(self, k, eps, z, shift):
        # eps_g sits z standard deviations of the summed privacy loss above
        # its mean at t = eps/2, where delta is neither 1 nor 0; the second
        # budget is up to 3 eps higher, so the last positive index m, and
        # with it a window's upper edge, moves between the two.  Each log
        # term carries rounding of order 1e-16 (k + k eps) in absolute terms
        # (the binomial, power and bracket logs), which bounds how far two
        # nearby evaluations can disagree in the wrong direction.
        ts = np.linspace(0.0, eps, 18)[1:-1]
        eps_g = k * 0.5 * eps * math.tanh(0.25 * eps) + z * 0.5 * eps * math.sqrt(k)
        higher = eps_g + eps * 10.0 ** shift * 3.0
        slack = 1.0 + 1e-15 * k * (1.0 + eps)
        assert nonadaptive._windowed(k, ts.size)
        lo = fixed_t_sums(eps, k, eps_g, ts).values
        hi = fixed_t_sums(eps, k, higher, ts).values
        assert np.all(hi <= lo * slack)
        opt_lo = delta_opt_nonadaptive_hom(eps, k, eps_g).delta
        opt_hi = delta_opt_nonadaptive_hom(eps, k, higher).delta
        assert opt_hi <= opt_lo * slack


def _full_sums(eps, k, eps_g, t, keep):
    """The full-setting sums of the candidates in the mask ``keep`` alone,
    padded as in a scan of all of ``t``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        win = nonadaptive._windows(eps, k, eps_g, t, *_stable_logs(eps, t))
        return nonadaptive._window_sums(eps, k, eps_g, win, nonadaptive.WINDOW_SDS,
                                        TAIL_LOG2, keep)


def _windowed_draws(seed, n):
    """n seeded ``_draw_case`` queries with k in [200, 8000] whose candidate
    scan is windowed."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < n:
        eps, k, eps_g = _draw_case(rng, 8000)
        if k >= 200 and nonadaptive._windowed(k, _candidate_offsets(eps, k, eps_g).size):
            out.append((eps, k, eps_g))
    return out


WIDENS = (3.0, 300, -100.0)       # skewed rows: the lowest 31 offsets' full windows widen
TIED = (0.05, 300, 0.0)           # delta(t) = delta(eps - t) at eps_g = 0: t and eps - t tie
NEAR_TIES = [(0.05, 300, 3e-8), (0.05, 300, 1e-7)]   # two maximizers 1.7e-11, 5.8e-11 apart


def _large_draws(seed, n):
    """n seeded ``_draw_case`` queries with k in [10^4, 2 10^4]."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < n:
        eps, k, eps_g = _draw_case(rng, 2 * 10 ** 4)
        if k >= 10 ** 4:
            out.append((eps, k, eps_g))
    return out


class TestScreenedScan:
    """The candidate scan screens every row with narrow windows and sums only
    the rows in play at the full settings; each row's full-setting sum must
    not depend on which rows share its passes."""

    def test_row_sums_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(211)
        widened = 0
        for eps, k, eps_g in _windowed_draws(212, 25) + [WIDENS, TIED]:
            t = _candidate_offsets(eps, k, eps_g)
            whole = fixed_t_sums(eps, k, eps_g, t).values
            subset = rng.random(t.size) < 0.3
            part = _full_sums(eps, k, eps_g, t, subset).values
            assert part[subset].tobytes() == whole[subset].tobytes()
            assert not part[~subset].any()
            tops = np.flatnonzero(whole >= whole.max() * (1.0 - TIE_RTOL))
            for j in np.concatenate(([0], tops[:2], rng.choice(t.size, 4, replace=False))):
                alone = _full_sums(eps, k, eps_g, t, np.arange(t.size) == j)
                assert alone.values[j].tobytes() == whole[j].tobytes()
                widened += alone.passes > 1
            if (eps, k, eps_g) == TIED:
                assert tops.size == 2 and t[tops[0]] + t[tops[1]] == pytest.approx(eps)
        assert widened > 0

    @pytest.mark.parametrize("screen_sds", [nonadaptive.SCREEN_SDS, 11.0])
    def test_equals_the_one_stage_scan(self, monkeypatch, screen_sds):
        # a screen as tight as the full windows keeps only rows whose bound
        # reaches the maximum less TIE_RTOL: the near ties test that allowance
        monkeypatch.setattr(nonadaptive, "SCREEN_SDS", screen_sds)
        stages = []
        inner = nonadaptive._window_sums

        def counted(*args):
            stages.append(args[4])
            return inner(*args)
        monkeypatch.setattr(nonadaptive, "_window_sums", counted)
        cases = (_windowed_draws(213, 40) + [WIDENS, TIED] + NEAR_TIES
                 + [(0.01, 10 ** 4, 1.5)] + _large_draws(214, 2))
        for eps, k, eps_g in cases:
            stages.clear()
            res = delta_opt_nonadaptive_hom(eps, k, eps_g)
            # every case is windowed: the screen, then the full sums
            assert stages == [screen_sds, nonadaptive.WINDOW_SDS], (eps, k, eps_g)
            want = _oracle_opt(eps, k, eps_g, lambda *q: fixed_t_sums(*q).values)
            assert (res.delta.hex(), res.t.hex(), [x.hex() for x in res.maximizers]) == \
                (want[0].hex(), want[1].hex(), [x.hex() for x in want[2]]), (eps, k, eps_g)
        for eps, k, eps_g in [TIED] + NEAR_TIES:
            assert len(delta_opt_nonadaptive_hom(eps, k, eps_g).maximizers) == 2

    def test_in_play_keeps_ties_and_rounding(self):
        # a row's bound may fall short of the largest screened value by the
        # tie tolerance, and then by up to the rounding margin, and stay
        best = 0.3
        edge = best * (1.0 - TIE_RTOL)
        v = np.array([best, edge, edge * (1.0 - 1e-13), edge * (1.0 - 1e-11), 0.0])
        w = np.array([0.0, 0.0, 0.0, 0.0, edge])
        assert nonadaptive._in_play(v, w).tolist() == [True, True, True, False, True]

    def test_sums_about_a_fifth_of_the_terms(self, monkeypatch):
        terms = [0]
        inner = nonadaptive._window_pass

        def counted(*args):
            terms[0] += args[7].size * args[9]   # rows times padded width
            return inner(*args)
        monkeypatch.setattr(nonadaptive, "_window_pass", counted)
        eps, k, eps_g = 0.023981130017311256, 6950, 5.109616377129443
        fixed_t_sums(eps, k, eps_g, _candidate_offsets(eps, k, eps_g))
        one_stage, terms[0] = terms[0], 0
        delta_opt_nonadaptive_hom(eps, k, eps_g)
        assert terms[0] <= 0.35 * one_stage


class TestBudgetSeed:
    """``budget_seed`` follows each scan's maximizer along its path to the
    budget where its value meets delta_g (``_candidate_root``)."""

    def test_none_where_the_scan_sums_whole_rows(self):
        assert budget_seed(0.1, 140, 1e-6) is None
        assert isinstance(budget_seed(0.1, 141, 1e-6), float)

    def test_candidate_root_brackets_the_exact_crossing(self):
        # from the half-DP budget, the maximizer's root: at 40 digits its
        # value is above delta_g just below the root and below it just
        # above, in the ordinary regime and near the path's end
        rng = np.random.default_rng(217)
        cases = [(0.001, 141, 1e-300), (20.0, 1000, 1e-50)]
        while len(cases) < 8:
            eps, k, _ = _draw_case(rng, 2000)
            if k >= 141:
                cases.append((eps, k, float(10.0 ** rng.uniform(-12.0, -1.0))))
        for eps, k, delta_g in cases:
            x = fixed_t_inverse(eps, k, eps / 2.0, delta_g)
            res = delta_opt_nonadaptive_hom(eps, k, x)
            assert res.delta > delta_g, (eps, k, delta_g)
            ell = round((res.t * (k + 1) - x) / eps) - 1
            assert (x + (ell + 1.0) * eps) / (k + 1) == res.t
            root = nonadaptive._candidate_root(eps, k, ell, x, res.delta, delta_g)
            assert x < root < (k - ell) * eps

            def exact(x):
                return _mp_delta_fixed_t(eps, k, x, (x + (ell + 1.0) * eps) / (k + 1))
            h = 1e-9 * max(1.0, abs(root))
            assert exact(root - h) > delta_g > exact(root + h), (eps, k, delta_g)


class TestLargeKPinned:
    """Outputs past the golden CLI table's largest k (1000), as float.hex,
    recorded before the windowed kernel moved to cache-sized blocks: the
    delta sizes and the br-optcomp budget sizes of perfbench's large-k batch."""

    @pytest.mark.parametrize("args,want", [
        ((0.01, 10 ** 4, 1.5),
         ("0x1.9cd6cd412ace7p-12", "0x1.4afd3ea41aaa9p-8", ["0x1.4afd3ea41aaa9p-8"])),
        ((0.023981130017311256, 6950, 5.109616377129443),
         ("0x1.6631a9fcb8240p-22", "0x1.90e2754162ba7p-7", ["0x1.90e2754162ba7p-7"])),
        ((0.010795228945202708, 3163, 1.6663714160370844),
         ("0x1.46d86cd1157b8p-29", "0x1.6d39006c010fcp-8", ["0x1.6d39006c010fcp-8"])),
        ((0.0022787643503527264, 1419, 0.2584064120363239),
         ("0x1.cdc6d5760eaedp-38", "0x1.3a6a22bace72cp-10", ["0x1.3a6a22bace72cp-10"]))])
    def test_optimum(self, args, want):
        res = delta_opt_nonadaptive_hom(*args)
        assert (res.delta.hex(), res.t.hex(), [x.hex() for x in res.maximizers]) == want

    @pytest.mark.parametrize("eps,k,delta_g,want", [
        (0.0018346359799883717, 256, 7.338195220043259e-06, "0x1.603aff0000000p-5"),
        (0.05860183814522001, 445, 3.713554841240882e-08, "0x1.a02ee9cc00000p+1"),
        (0.006320696739302674, 783, 5.031145762475223e-07, "0x1.725e974000000p-2")])
    def test_br_optcomp_budget(self, eps, k, delta_g, want):
        assert method_epsilon("br-optcomp", [eps] * k, delta_g)[0].hex() == want


class TestHeterogeneous:
    def test_matches_homogeneous(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            eps = float(rng.uniform(0.2, 1.5))
            k = int(rng.integers(1, 9))
            t = float(rng.uniform(0.0, eps))
            eps_g = float(rng.uniform(-k * eps, k * eps))
            het = delta_het_fixed_t([eps] * k, eps_g, [t] * k)
            hom = delta_hom_fixed_t(eps, k, eps_g, t)
            assert het == pytest.approx(hom, abs=1e-10)

    def test_midpoints_give_dp_optimum(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            eps = rng.uniform(0.2, 1.5, size=k)
            eps_g = float(rng.uniform(-eps.sum(), eps.sum()))
            # both sides share the grouped sum, so the DP side is the old subset form
            lhs = delta_het_fixed_t(eps, eps_g, eps / 2.0)
            rhs = _subset_dp_optcomp_het(eps / 2.0, eps_g)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_single_round_value(self):
        p, _ = grr_probs(1.0, 0.5)
        assert delta_het_fixed_t([1.0], 0.0, [0.5]) == pytest.approx(
            p * math.expm1(0.5), abs=1e-12)

    def test_offsets_on_interval_ends(self):
        # at t = 0 or t = eps one of log p, log(1 - p) is -inf; every round is
        # then certain and the loss is the endpoint value max(1 - e^eps_g, 0)
        for t in ([0.0, 0.0], [0.3, 0.8], [0.0, 0.8]):
            assert delta_het_fixed_t([0.3, 0.8], -0.5, t) == pytest.approx(
                -math.expm1(-0.5), rel=1e-14, abs=0.0)
            assert delta_het_fixed_t([0.3, 0.8], 0.5, t) == 0.0
        for t in (0.0, 0.7):
            assert delta_het_fixed_t([0.7] * 3, -0.2, [t] * 3) == pytest.approx(
                delta_hom_fixed_t(0.7, 3, -0.2, t), rel=1e-14, abs=0.0)

    def test_size_cap(self):
        # 26 distinct rounds need 2^26 terms; repeats of one value are one group
        eps = 0.1 + 0.01 * np.arange(26)
        with pytest.raises(CapError):
            delta_het_fixed_t(eps, 0.0, eps / 2.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_het_fixed_t([1.0, 1.0], 0.0, [0.5])
        with pytest.raises(ValueError):
            delta_het_fixed_t([1.0, 1.0], 0.0, [0.5, 1.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_eps_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            delta_het_fixed_t([bad, 1.0], 0.5, [0.5, 0.5])


class TestDpBaselines:
    def test_hom_matches_half_parameter_example(self):
        assert dp_optcomp_hom(0.5, 2, 0.0) == pytest.approx(0.24491866240371, abs=1e-12)

    def test_zero_beyond_basic(self):
        assert dp_optcomp_hom(0.5, 4, 2.0) == 0.0
        assert dp_optcomp_het([0.5, 0.5], 1.0) == 0.0

    def test_single_round_matches_hockey_stick(self):
        # one eps-DP round: worst pair is two-outcome randomized response
        for eps_dp in (0.3, 1.0, 2.0):
            a = math.exp(eps_dp) / (1.0 + math.exp(eps_dp))
            pair = FiniteMechanismPair(np.array([a, 1 - a]), np.array([1 - a, a]))
            assert dp_optcomp_hom(eps_dp, 1, 0.0) == pytest.approx(
                hockey_stick(pair, 0.0), abs=1e-12)

    def test_het_matches_hom(self):
        # both are midpoint forms of the fixed-offset kernel; the reference is
        # the randomized-response sum, which shares no code with them
        rng = np.random.default_rng(47)
        for _ in range(20):
            eps = float(rng.uniform(0.1, 1.5))
            k = int(rng.integers(1, 10))
            eps_g = float(rng.uniform(-k * eps, k * eps))
            want = float(_mp_dp_closed(eps, k, eps_g))
            assert dp_optcomp_het([eps] * k, eps_g) == pytest.approx(want, abs=1e-10)
            assert dp_optcomp_hom(eps, k, eps_g) == pytest.approx(want, abs=1e-10)

    def test_het_pair(self):
        assert dp_optcomp_het([0.5, 0.5], 0.0) == pytest.approx(
            dp_optcomp_hom(0.5, 2, 0.0), abs=1e-12)

    def test_het_size_cap(self):
        with pytest.raises(CapError):
            dp_optcomp_het(0.1 + 0.01 * np.arange(26), 0.0)

    def test_range_past_float_range_refused(self):
        # 2 eps overflowed: the equal form refused eps = inf as not finite, and
        # the grouped sum gave 0 with a RuntimeWarning; the largest eps whose
        # range is a float still answers
        for eps in (1e308, float.fromhex("0x1.0p+1023")):
            with pytest.raises(CapError, match="past the float range"):
                dp_optcomp_hom(eps, 1, 0.0)
            with pytest.raises(CapError, match="past the float range"):
                dp_optcomp_het([eps, 1.0], 0.0)
        below = math.nextafter(float.fromhex("0x1.0p+1023"), 0.0)
        assert dp_optcomp_hom(below, 1, 0.0) == 1.0
        assert dp_optcomp_het([below, 1.0], 0.0) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_het_non_finite_eps_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dp_optcomp_het([bad, 1.0], 0.5)


def _mp_fixed_t_root(eps, k, t, delta_g, start):
    """The eps_g at which delta_k(t, eps_g) = delta_g, at 40 digits.

    In u = e^(eps_g) the sum is convex, decreasing and piecewise linear, so
    Newton steps in u from ``start`` land on the root's piece and then on the
    root; the sum is formed from mp.binomial and the mp probabilities."""
    with mp.workdps(40):
        p, _ = _mp_probs(eps, t)
        w = [mp.binomial(k, i) * p ** (k - i) * (1 - p) ** i for i in range(k + 1)]
        ea = [mp.exp(k * mp.mpf(t) - i * mp.mpf(eps)) for i in range(k + 1)]
        u = mp.exp(mp.mpf(start))
        for _ in range(50):
            pos = [(wi, e) for wi, e in zip(w, ea) if e > u]
            u_next = (mp.fsum(wi * e for wi, e in pos) - delta_g) / mp.fsum(wi for wi, _ in pos)
            if u_next == u:
                return mp.log(u)
            u = u_next
        raise AssertionError("Newton steps did not settle")


class TestFixedTInverse:
    @pytest.mark.parametrize("eps,k,t_frac,delta_g", [
        (0.2, 1, 0.5, 1e-6), (1.0, 1, 0.37, 0.05), (1.0, 10, 0.37, 1e-3),
        (0.1, 1000, 0.37, 1e-9), (0.02, 10 ** 4, 0.5, 1e-6)])
    def test_against_40_digit_root(self, eps, k, t_frac, delta_g):
        # the root is a log-ratio of two sums of the kernel's log weights, and
        # log C(k, i) is a running sum of logs whose rounding grows with k
        # (see test_mpmath_references_at_scale): 2e-14 k absolute, against a
        # measured 1.4e-16 at k = 10, 6.7e-13 at 1e3 and 6.6e-11 at 1e4
        t = t_frac * eps
        got = fixed_t_inverse(eps, k, t, delta_g)
        want = _mp_fixed_t_root(eps, k, t, delta_g, got)
        assert got == pytest.approx(float(want), rel=0.0, abs=2e-14 * k)

    def test_is_the_kernels_root(self):
        # on either side of the answer the kernel's sum brackets the target
        for eps, k, t, delta_g in ((2.0, 3, 1.0, 1e-9), (0.02, 50000, 0.01, 1e-6),
                                   (20.0, 100, 10.0, 1e-3)):
            x = fixed_t_inverse(eps, k, t, delta_g)
            gap = 1e-12 * max(1.0, abs(x))
            assert delta_hom_fixed_t(eps, k, x + gap, t) < delta_g < \
                delta_hom_fixed_t(eps, k, x - gap, t)

    @pytest.mark.parametrize("args", [(0.0, 2, 0.1, 1e-6), (1.0, 2, 0.0, 1e-6),
                                      (1.0, 2, 1.0, 1e-6), (1.0, 2, 0.5, 0.0),
                                      (1.0, 2, 0.5, 1.0)])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            fixed_t_inverse(*args)


# ---------------------------------------------------------------------------
# The grouped sum against the 2^k subset enumerators it replaced
# ---------------------------------------------------------------------------


def _subset_chunks(k: int):
    total = 1 << k
    step = 1 << min(20, k)
    for lo in range(0, total, step):
        yield np.arange(lo, min(lo + step, total), dtype=np.int64)


def _subset_delta_het_fixed_t(eps_list, eps_g, t_list):
    """The 2^k mask loop that ``delta_het_fixed_t`` ran before the grouped sum."""
    eps = np.asarray(eps_list, dtype=float)
    t = np.asarray(t_list, dtype=float)
    k = eps.size
    with np.errstate(divide="ignore"):   # the log of p = 0 at t = eps, or of 1 - p = 0 at t = 0
        lp, lomp = _stable_logs(eps, t)
    tsum = float(t.sum())
    total = 0.0
    for masks in _subset_chunks(k):
        sum_eps_s = np.zeros(masks.shape, dtype=float)
        log_w = np.zeros(masks.shape, dtype=float)
        for b in range(k):
            inset = ((masks >> b) & 1).astype(float)
            sum_eps_s += inset * eps[b]
            # select, not blend: at t = 0 or t = eps one log is -inf, and 0 * -inf is nan
            log_w += np.where(inset, lomp[b], lp[b])
        a = tsum - sum_eps_s
        mask = a > eps_g
        with np.errstate(invalid="ignore", divide="ignore"):
            lterm = log_w + a + np.log1p(-np.exp(np.minimum(eps_g - a, 0.0)))
        total += float(np.exp(lterm[mask & np.isfinite(lterm)]).sum())
    return min(max(total, 0.0), 1.0)


def _subset_dp_optcomp_het(eps_list, eps_g):
    """The 2^k subset-sum form that ``dp_optcomp_het`` ran before the grouped sum."""
    eps = np.asarray(eps_list, dtype=float)
    k = eps.size
    tot = float(eps.sum())
    # log prod (1 + e^eps) = sum eps + log1p(e^-eps), stable for large eps
    log_denom = float(np.sum(eps + np.log1p(np.exp(-eps))))
    log_total = -np.inf
    for masks in _subset_chunks(k):
        s = np.zeros(masks.shape, dtype=float)
        for b in range(k):
            s += ((masks >> b) & 1).astype(float) * eps[b]
        # term positive iff 2 s > eps_g + tot
        mask = 2.0 * s > eps_g + tot
        if not mask.any():
            continue
        s = s[mask]
        lterm = s + np.log1p(-np.exp(np.minimum(eps_g + tot - 2.0 * s, 0.0)))
        m = float(lterm.max())
        chunk = m + math.log(np.exp(lterm - m).sum())
        log_total = chunk if log_total == -np.inf else (
            max(log_total, chunk) + math.log1p(math.exp(-abs(log_total - chunk))))
    if log_total == -np.inf:
        return 0.0
    return min(math.exp(log_total - log_denom), 1.0)


def _mp_grouped(eps_list, eps_g, t_list, dps=40):
    """The fixed-offset loss as a sum over per-group counts, at ``dps`` digits."""
    groups = {}
    for pair in zip(map(float, eps_list), map(float, t_list)):
        groups[pair] = groups.get(pair, 0) + 1
    with mp.workdps(dps):
        tsum, eg = mp.fsum(mp.mpf(x) for x in t_list), mp.exp(mp.mpf(eps_g))
        # one (log weight, range taken off sum t) list per group, over its counts
        rows = []
        for (e, t), n in groups.items():
            p, _ = _mp_probs(e, t)
            rows.append([(mp.binomial(n, i) * p ** (n - i) * (1 - p) ** i, i * mp.mpf(e))
                         for i in range(n + 1)])
        terms = [(mp.mpf(1), mp.mpf(0))]
        for row in rows:
            terms = [(w * v, d + e) for w, d in terms for v, e in row]
        return mp.fsum(w * (mp.exp(tsum - d) - eg) for w, d in terms
                       if w and tsum - d > mp.mpf(eps_g))


def _mp_dp_closed(eps_dp, k, eps_g, dps=40):
    """Optimal composition of k eps_dp-DP rounds as the randomized-response sum
    sum_l C(k, l) max(e^((k-l) eps_dp) - e^(eps_g + l eps_dp), 0) / (1 + e^eps_dp)^k."""
    with mp.workdps(dps):
        e, eg = mp.mpf(eps_dp), mp.mpf(eps_g)
        return mp.fsum(mp.binomial(k, l) * (mp.exp((k - l) * e) - mp.exp(eg + l * e))
                       for l in range(k + 1) if (k - 2 * l) * e > eg) / (1 + mp.exp(e)) ** k


def _random_list(rng, k_max=14):
    """k <= k_max rounds drawn from 1..k distinct values log-uniform on
    [1e-9, 3], offsets at 0, eps or interior fractions of each value."""
    k = int(rng.integers(1, k_max + 1))
    m = int(rng.integers(1, k + 1))
    vals = 10.0 ** rng.uniform(-9.0, math.log10(3.0), m)
    fracs = rng.choice([0.0, 1.0, 0.5, 0.3, 0.9], m)
    pick = np.concatenate([np.arange(m), rng.integers(0, m, k - m)])
    rng.shuffle(pick)
    return vals[pick], (vals * fracs)[pick]


class TestGroupedSum:
    def test_matches_subset_oracles(self):
        # the oracles form log(1 - e^x) as log1p(-exp(x)), which errs by about
        # ulp/|x| relative; a list whose every eps is tiny puts every bracket
        # near x = 0, so here each list holds one round of eps >= 0.01 (the
        # tiny lists are checked in mpmath below)
        rng = np.random.default_rng(211)
        zeros = 0
        for _ in range(600):
            eps, t = _random_list(rng)
            eps[0] = 10.0 ** rng.uniform(-2.0, math.log10(3.0))
            t[0] = eps[0] * rng.choice([0.0, 1.0, 0.4])
            eps_g = float(eps.sum() * rng.uniform(-1.0, 1.0))
            for got, want in ((delta_het_fixed_t(eps, eps_g, t),
                               _subset_delta_het_fixed_t(eps, eps_g, t)),
                              (dp_optcomp_het(eps, eps_g), _subset_dp_optcomp_het(eps, eps_g))):
                assert (got == 0.0) == (want == 0.0), (eps, t, eps_g)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (eps, t, eps_g)
                zeros += got == 0.0
        assert zeros >= 50

    def test_tiny_eps_lists_in_mpmath(self):
        rng = np.random.default_rng(223)
        for _ in range(40):
            eps, t = _random_list(rng, k_max=6)
            eps, t = eps * 1e-6, t * 1e-6
            eps_g = float(eps.sum() * rng.uniform(-1.0, 1.0))
            want = _mp_grouped(eps, eps_g, t)
            assert delta_het_fixed_t(eps, eps_g, t) == pytest.approx(float(want), rel=1e-13,
                                                                      abs=0.0)

    def test_tiny_eps_dp_in_mpmath(self):
        # the subset-sum form read 2.8e-8 relative off here; the one positive
        # term's log is about -21, whose rounding alone is a few 1e-15 relative
        want = _mp_grouped([2e-9, 4e-9], 1e-9, [1e-9, 2e-9], dps=50)
        assert dp_optcomp_het([1e-9, 2e-9], 1e-9) == pytest.approx(float(want), rel=5e-15,
                                                                   abs=0.0)

    def test_two_groups_of_200_in_mpmath(self):
        # log C(200, i) from the running-sum table is off by up to 3.7e-13
        # (see test_mpmath_references_at_scale), and every term inherits it
        eps = [0.05] * 200 + [0.12] * 200
        t = [0.02] * 200 + [0.07] * 200
        for eps_g in (2.0, 6.0):
            want = _mp_grouped(eps, eps_g, t)
            assert 1e-12 < want < 0.5
            assert delta_het_fixed_t(eps, eps_g, t) == pytest.approx(float(want), rel=1e-12,
                                                                      abs=0.0)
        want = _mp_grouped([0.1] * 200 + [0.24] * 200, 6.0, eps)
        assert dp_optcomp_het(eps, 6.0) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [26, 200, 1000])
    def test_one_group_matches_homogeneous_kernel(self, k):
        # one group forms every log term as the homogeneous kernel does (its
        # correctly rounded sum of offsets is k t), so the two differ only in
        # how the terms are added up
        for eps, frac in ((0.1, 0.37), (1.3, 0.5), (0.01, 0.8)):
            for eps_g in np.linspace(-0.6, 0.8, 5) * k * eps:
                hom = delta_hom_fixed_t(eps, k, eps_g, frac * eps)
                het = delta_het_fixed_t([eps] * k, eps_g, [frac * eps] * k)
                assert het == pytest.approx(hom, rel=2e-15, abs=0.0)
                assert dp_optcomp_het([eps] * k, eps_g) == pytest.approx(
                    dp_optcomp_hom(eps, k, eps_g), rel=2e-15, abs=0.0)

    def test_blocks_reproduce_one_pass(self, monkeypatch):
        # with blocks of 16 terms the groups past the first few are laid out
        # by the outer, per-block path
        rng = np.random.default_rng(227)
        cases = [_random_list(rng) for _ in range(30)]
        cases.append((np.array([0.3] * 40 + [0.7] * 3), np.array([0.1] * 40 + [0.2] * 3)))
        want = [delta_het_fixed_t(e, 0.2 * e.sum(), t) for e, t in cases]
        monkeypatch.setattr(nonadaptive, "_GROUP_BLOCK_ELEMS", 16)
        for (e, t), w in zip(cases, want):
            assert delta_het_fixed_t(e, 0.2 * e.sum(), t) == pytest.approx(w, rel=1e-14, abs=0.0)

    def test_summed_budget_reads_the_exact_tail(self):
        # math.fsum of these rounds lies 1.67e-16 below their exact sum, so the
        # loss at that budget is positive: 5.27e-17 and 1.76e-17 at 60 digits.
        # The kernel reads 1.41e-16 and 4.68e-17
        eps_list = [0.875, 0.455, 1.011]
        for method, half in (("dp-optcomp", 1.0), ("dp-optcomp-half", 0.5)):
            eps = [e * half for e in eps_list]
            budget = math.fsum(eps)
            want = float(_mp_grouped([2.0 * e for e in eps], budget, eps, dps=60))
            got = method_delta(method, eps_list, budget)[0]
            assert want > 0.0 and got > 0.0
            assert abs(got - want) <= 1e-16, (method, got, want)

    def test_repeats_lift_the_cap(self):
        # one group of 26, and two groups of 1000 rounds (1001^2 terms)
        assert dp_optcomp_het([0.1] * 26, 0.5) == pytest.approx(
            dp_optcomp_hom(0.1, 26, 0.5), rel=1e-14, abs=0.0)
        assert 0.0 < dp_optcomp_het([0.1] * 1000 + [0.05] * 1000, 3.0) < 1.0
        with pytest.raises(CapError):   # 6001^2 > 2^25 terms
            dp_optcomp_het([0.1] * 6000 + [0.2] * 6000, 0.0)


class TestUnderflowingP:
    # past t ~ 745, p = e^-t q is 0 in floats; log p is then -t + log q
    @pytest.mark.parametrize("fn,args,want", [
        (dp_optcomp_hom, (800.0, 1, 100.0), [(1600.0, 800.0)]),
        (delta_hom_fixed_t, (800.0, 1, 100.0, 760.0), [(800.0, 760.0)]),
        (dp_optcomp_het, ([800.0, 0.3], 100.0), [(1600.0, 800.0), (0.6, 0.3)])])
    def test_large_offsets_in_mpmath(self, fn, args, want):
        eps, t = zip(*want)
        ref = _mp_grouped(eps, 100.0, t, dps=50)
        assert fn(*args) == pytest.approx(float(ref), rel=1e-12, abs=0.0)
        assert float(ref) == 1.0


class TestNanRefused:
    @pytest.mark.parametrize("call", [
        lambda: delta_hom_fixed_t(1.0, 2, math.nan, 0.5),
        lambda: delta_opt_nonadaptive_hom(1.0, 2, math.nan),
        lambda: delta_het_fixed_t([0.3, 0.8], math.nan, [0.1, 0.4]),
        lambda: dp_optcomp_hom(0.5, 2, math.nan),
        lambda: dp_optcomp_het([0.3, 0.8], math.nan)],
        ids=["delta_hom_fixed_t", "delta_opt_nonadaptive_hom", "delta_het_fixed_t",
             "dp_optcomp_hom", "dp_optcomp_het"])
    def test_nan_budget(self, call):
        with pytest.raises(ValueError, match="nan"):
            call()

    def test_nan_offset(self):
        with pytest.raises(ValueError):
            delta_het_fixed_t([0.3, 0.8], 0.0, [math.nan, 0.1])
