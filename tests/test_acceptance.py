"""Acceptance suite: every release gate in one module, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The long poles are the budget-curve ordering sweep
(criterion 5), about a minute of budget inversions, and the brute force
(criterion 1); everything else is seconds.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from brcomp.adaptive import (AdaptiveSolverConfig, StrategyTree, adaptive_edge_high,
                             adaptive_edge_low, delta_adaptive_lb, gap_certificate)
from brcomp.bounds import UFunctionKind, maxkl
from brcomp.cli import curve_rows, method_delta
from brcomp.grr import counting_query_mech, cq_t_value, one_minus_q, q_of_t
from brcomp.nonadaptive import (delta_hom_fixed_t, delta_opt_nonadaptive_hom,
                                df_ell_dt, f_ell, f_ell_magnitude)
from brcomp.optim import golden_max
from brcomp.validation import (_invert_generic, brute_force_nonadaptive,
                               finite_diff_check, simulate_adaptive_game)


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence_nonadaptive_optimum():
    start = time.time()
    worst = 0.0
    for eps in (0.1, 1.0):
        for k in (1, 2, 3):
            for eps_g in np.linspace(-0.9 * k * eps, 0.9 * k * eps, 7):
                eps_g = float(eps_g)
                bf = brute_force_nonadaptive([eps] * k, eps_g, 400, refine_rounds=2)
                exact = delta_opt_nonadaptive_hom(eps, k, eps_g).delta
                worst = max(worst, abs(bf.delta - exact))
    elapsed = time.time() - start
    report("criterion-1 oracle equivalence",
           worst <= 1e-5 and elapsed < 120.0,
           f"max |brute force - closed form| = {worst:.3e} (tol 1e-5), "
           f"runtime {elapsed:.1f}s (< 120s)")


def test_criterion_2_dp_correspondence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        eps = float(rng.uniform(0.1, 2.0))
        k = int(rng.integers(1, 11))
        eps_g = float(rng.uniform(-0.9 * k * eps, 0.9 * k * eps))
        lhs = delta_hom_fixed_t(eps, k, eps_g, eps / 2.0)
        # the DP optimum as the randomized-response sum over l of C(k, l)
        # max(e^((k-l) e) - e^(eps_g + l e), 0) / (1 + e^e)^k at e = eps / 2
        with mp.workdps(40):
            e, eg = mp.mpf(eps) / 2, mp.mpf(eps_g)
            rhs = mp.fsum(mp.binomial(k, l) * (mp.exp((k - l) * e) - mp.exp(eg + l * e))
                          for l in range(k + 1) if (k - 2 * l) * e > eg) / (1 + mp.exp(e)) ** k
        worst = max(worst, abs(lhs - float(rhs)))
    report("criterion-2 DP correspondence", worst <= 1e-10,
           f"max |midpoint fixed-t - DP closed form| = {worst:.3e} (tol 1e-10)")


def test_criterion_3_derivative_identity():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        eps = float(rng.uniform(0.1, 2.0))
        k = int(rng.integers(1, 21))
        ell = int(rng.integers(0, k + 1))
        eps_g = float(rng.uniform(-k * eps, k * eps))
        pts = rng.uniform(0.1 * eps, 0.9 * eps, size=1)
        worst = max(worst, finite_diff_check(
            lambda t: f_ell(eps, k, eps_g, ell, t),
            lambda t: df_ell_dt(eps, k, eps_g, ell, t), pts,
            h_scale=1e-6 * min(1.0, eps),
            f_noise=lambda t: 4e-14 * f_ell_magnitude(eps, k, eps_g, ell, t)))
    report("criterion-3 derivative identity", worst < 1e-6,
           f"max relative error over 200 tuples = {worst:.3e} (tol 1e-6)")


def test_criterion_4_adaptivity_gap_certificates():
    start = time.time()
    cfg = AdaptiveSolverConfig(t_grid=64)
    strict_ok, agree_ok = [], []
    for k in (4, 5, 6):
        for eps_g in (0.0, (k - 3) / 2.0, float(k - 3)):
            cert = gap_certificate(1.0, k, eps_g, cfg)
            strict_ok.append(cert.strict and cert.gap > 1e-7)
        for eps_g in (float(k - 1), 0.99 * k):
            cert = gap_certificate(1.0, k, eps_g, cfg)
            agree_ok.append(abs(cert.gap) <= 1e-6)
    base_ok = []
    for eps_g in (-0.4, -0.2, 0.0, 0.2, 0.4):
        base_ok.append(gap_certificate(1.0, 2, eps_g, cfg).strict)
    elapsed = time.time() - start
    report("criterion-4 adaptivity gap",
           all(strict_ok) and all(agree_ok) and all(base_ok) and elapsed < 600.0,
           f"strict in gap window {sum(strict_ok)}/9, "
           f"agreement beyond (k-1)eps {sum(agree_ok)}/6, "
           f"k=2 base cases {sum(base_ok)}/5, runtime {elapsed:.1f}s (< 600s)")


CHAIN = ["dp-optcomp-half", "br-optcomp", "mgf", "optkl", "dr19", "drv10"]
FIG_METHODS = CHAIN + ["dp-optcomp"]


def test_criterion_5_budget_curve_ordering():
    start = time.time()
    violations = []
    for eps in (0.01, 0.1, 1.0):
        rows = curve_rows(FIG_METHODS, eps, 500, 1e-6)
        by = {(r.method, r.k): r.eps_g for r in rows}
        for k in range(1, 501):
            for a, b in zip(CHAIN, CHAIN[1:]):
                if not by[(a, k)] <= by[(b, k)]:
                    violations.append((eps, k, a, b))
            if not by[("br-optcomp", k)] <= by[("dp-optcomp", k)]:
                violations.append((eps, k, "br-optcomp", "dp-optcomp"))
    elapsed = time.time() - start
    report("criterion-5 budget-curve ordering", not violations,
           f"{len(violations)} ordering violations over 3 x 500 x 6 comparisons "
           f"(runtime {elapsed:.0f}s); first few: {violations[:3]}")


def _max_rounds_within_budget(method, eps, eps_g, delta_g):
    def fits(k):
        return method_delta(method, [eps] * k, eps_g)[0] <= delta_g

    hi = 64
    while fits(hi):
        hi *= 2
    lo = hi // 2 if hi > 64 else 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_6_query_budget_factor():
    k_br = _max_rounds_within_budget("br-optcomp", 0.01, 1.0, 1e-6)
    k_dp = _max_rounds_within_budget("dp-optcomp", 0.01, 1.0, 1e-6)
    ratio = k_br / k_dp
    report("criterion-6 query budget factor", 3.0 <= ratio <= 5.0,
           f"max rounds {k_br} (BR) vs {k_dp} (DP), ratio {ratio:.2f} in [3, 5]")


def test_criterion_7_optkl_closed_form_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 51))
        eps = rng.uniform(0.05, 1.5, size=k)
        dg = 10.0 ** rng.uniform(-8, -2)
        closed = (sum(maxkl(float(e)) for e in eps)
                  + math.sqrt(0.5 * float(np.sum(eps * eps)) * math.log(1.0 / dg)))
        inverted = _invert_generic(UFunctionKind.KL_IMPROVED_DR19, eps, dg)
        worst = max(worst, abs(closed - inverted) / closed)
    report("criterion-7 KL-bound closed form", worst <= 1e-6,
           f"max relative error over 50 heterogeneous instances = {worst:.3e}")


def test_criterion_8_monte_carlo_consistency():
    start = time.time()
    tree = StrategyTree.constant([1.0, 1.0], [0.5, 0.5])
    rep = simulate_adaptive_game(tree, 0.0, 10 ** 7, seed=808)
    err = abs(rep.delta_hat - 0.24492)
    elapsed = time.time() - start
    report("criterion-8 Monte Carlo consistency",
           err <= 4 * rep.half_width_95 and elapsed < 60.0,
           f"|estimate - 0.24492| = {err:.2e} vs 4 half-widths "
           f"{4 * rep.half_width_95:.2e}, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_9_counting_query_equivalence():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(1, 21)), int(rng.integers(1, 9))
        eps = float(rng.uniform(0.1, 2.0))
        x = rng.integers(0, 2, size=(n, d))
        xp = np.vstack([x, rng.integers(0, 2, size=(1, d))])
        t = cq_t_value(x, xp, eps)
        ratios = (np.log(counting_query_mech(x, eps))
                  - np.log(counting_query_mech(xp, eps)))
        worst = max(worst, float(np.minimum(np.abs(ratios - t),
                                            np.abs(ratios - (t - eps))).max()))
    report("criterion-9 counting-query equivalence", worst <= 1e-12,
           f"max endpoint distance over 100 matrices = {worst:.3e} (tol 1e-12)")


def test_criterion_10_edge_closed_forms():
    cfg = AdaptiveSolverConfig(t_grid=256)
    worst_solver = 0.0
    for k in (1, 2, 3, 4):
        for eps in (0.5, 1.0):
            eg = (k - 1) * eps + 0.25 * eps
            worst_solver = max(worst_solver, abs(
                adaptive_edge_high(eps, k, eg)
                - delta_adaptive_lb([eps] * k, eg, cfg).delta))
            eg = -(k - 1) * eps - 0.25 * eps
            worst_solver = max(worst_solver, abs(
                adaptive_edge_low(eps, k, eg)
                - delta_adaptive_lb([eps] * k, eg, cfg).delta))

    # equal-offset reduction against a full 3-D grid of the raw objectives
    eps, k = 1.0, 3
    eg_hi = (k - 1) * eps + 0.3

    def hi_obj(tv):
        s = float(np.sum(tv))
        if s <= eg_hi:
            return 0.0
        return float(np.prod([q_of_t(eps, x) for x in tv])) * -math.expm1(eg_hi - s)

    eg_lo = -(k - 1) * eps - 0.3

    def lo_obj(tv):
        s = float(np.sum(tv))
        if s >= eg_lo + k * eps:
            return 0.0
        w = float(np.prod([one_minus_q(eps, x) for x in tv]))
        return w * math.expm1(eg_lo + k * eps - s)

    worst_grid = max(
        abs(adaptive_edge_high(eps, k, eg_hi) - _grid_polish_max(hi_obj, eps, k)),
        abs(adaptive_edge_low(eps, k, eg_lo)
            - (-math.expm1(eg_lo) + _grid_polish_max(lo_obj, eps, k))))
    report("criterion-10 edge closed forms",
           worst_solver <= 1e-6 and worst_grid <= 1e-6,
           f"max |edge - solver| = {worst_solver:.3e}, "
           f"max |equal-offset - 3-D grid| = {worst_grid:.3e} (tol 1e-6)")


def _grid_polish_max(obj, eps, k, n=70, rounds=3):
    grid = np.linspace(0.0, eps, n)
    mesh = np.stack(np.meshgrid(*([grid] * k), indexing="ij"), axis=-1).reshape(-1, k)
    vals = np.array([obj(row) for row in mesh])
    j = int(vals.argmax())
    best, argt = float(vals[j]), mesh[j].copy()
    h = eps / (n - 1)
    for _ in range(rounds):
        for i in range(k):
            def line(x):
                trial = argt.copy()
                trial[i] = x
                return obj(trial)
            x, v = golden_max(line, max(0.0, argt[i] - h), min(eps, argt[i] + h), 50)
            if v > best:
                best, argt[i] = v, x
    return best
