"""Efficiently computable upper bounds for adaptive composition.

Every bound here has the Chernoff shape

    delta(eps_g) <= inf_{lambda > 0} exp(-lambda eps_g + sum_i U(eps_i, lambda))

for a per-step function U bounding the log moment generating function of
the privacy-loss increment.  Four U variants are provided, ordered from
loosest to tightest:

    IMPROVED_DRV10     (1/2) eps^2 (lambda^2 + lambda)
    DR19               (1/2) eps^2 (lambda^2 / 4 + lambda)
    KL_IMPROVED_DR19   (1/8) eps^2 lambda^2 + lambda * maxkl(eps)
    GENERAL_MGF        h_eps(lambda), the exact worst-case per-step log-MGF

A smaller U gives a tighter bound.  ``maxkl`` is the largest KL divergence
of a GRR output pair over the offset t, and ``h_eps`` takes the worst case
over t of the exact per-step log-MGF.

Closed forms replace numerical search wherever one exists:

- ``h_eps`` is the value at the stationary point of an objective that is
  concave in ``u = e^(-t)``, plus an outward rounding margin.
- The first three U are quadratic, ``a lambda^2 + b lambda`` summed over the
  rounds, so the exponent's minimum over ``(0, lambda_max]`` is
  ``-(eps_g - b)^2 / 4a`` at ``lambda = (eps_g - b) / 2a`` (clamped to the
  window), and the budget certifying ``delta_g`` is ``b + 2 sqrt(a L)`` with
  ``L = log(1/delta_g)`` (``quadratic_epsilon``).
- Only GENERAL_MGF searches over lambda: its exponent is convex but has no
  closed-form minimizer.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# golden_max stays bound here for code that looks it up through this module
# (perfbench's tracer patches every binding site)
from .optim import golden_max, golden_min, iters_for_rel_tol  # noqa: F401

_MAXKL_SERIES_CUTOFF = 1e-6
# h_eps is raised by this many machine epsilons (2^-52) times
# lambda*eps + log1p(lambda) + 1, which bounds the magnitudes of the terms it
# sums; against 60-digit mpmath the largest error measured over eps in
# [1e-4, 6], lambda in [1e-3, 1e5] is 1.02 such units
_H_MARGIN_ULPS = 2.0


def maxkl(eps: float) -> float:
    """max over t in [0, eps] of KL(Bern(q_t) || Bern(p_t)).

    Equals ``r - 1 - log(r)`` with ``r = eps / (e^eps - 1)``.  Below the
    series cutoff the direct form loses all significant digits, so the
    expansion ``eps^2/8 - eps^4/576`` is used instead (exact to double
    precision there).
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps < _MAXKL_SERIES_CUTOFF:
        return eps * eps / 8.0 - eps ** 4 / 576.0
    x = eps / math.expm1(eps) - 1.0
    return x - math.log1p(x)


class UFunctionKind(enum.Enum):
    IMPROVED_DRV10 = "improved_drv10"
    DR19 = "dr19"
    KL_IMPROVED_DR19 = "kl_improved_dr19"
    GENERAL_MGF = "general_mgf"


def h_eps(eps: float, lam: float) -> float:
    """Worst-case per-step log-MGF of the privacy loss at moment lambda:

        sup over t in [0, eps] of
            lambda (eps - t) + log(1 + p_t (e^(-lambda eps) - 1)).

    With ``u = e^(-t)``, ``A = 1 - e^(-eps (1 + lambda))`` and
    ``B = 1 - e^(-lambda eps)`` the objective is
    ``lambda (eps + log u) + log(A - u B) - log(1 - e^(-eps))``, strictly
    concave in u and zero at both ends ``u = e^(-eps)`` and ``u = 1``.  So its
    stationary point ``u* = lambda A / ((1 + lambda) B)`` lies inside and is
    the maximizer, with ``A - u* B = A / (1 + lambda)``.  Both logarithms are
    formed with log1p, and only decaying exponentials are formed, so large
    lambda*eps underflows harmlessly rather than overflowing.

    The value is used as an upper bound, so it is raised by a rounding
    margin proportional to the magnitudes of the summed terms; it is never
    below the exact supremum.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    lam_eps = lam * eps
    margin = _H_MARGIN_ULPS * 2.0 ** -52 * (lam_eps + math.log1p(lam) + 1.0)
    big_b = -math.expm1(-lam_eps)
    if big_b == 0.0:  # lambda*eps underflows; the sup is below lambda*eps
        return margin
    one_minus_e = -math.expm1(-eps)
    # log u* = log(lambda / (1 + lambda)) + log(A / B)
    log_u = math.log1p(math.exp(-lam_eps) * one_minus_e / big_b) - math.log1p(1.0 / lam)
    # log of A / ((1 + lambda)(1 - e^(-eps))), the MGF's inner term at u*
    log_inner = math.log1p(math.exp(-eps) * big_b / one_minus_e) - math.log1p(lam)
    return max(lam * (eps + log_u) + log_inner, 0.0) + margin


# lambda^2 and lambda coefficients of the quadratic per-step bounds
_QUADRATIC = {
    UFunctionKind.IMPROVED_DRV10: (lambda e: 0.5 * e * e, lambda e: 0.5 * e * e),
    UFunctionKind.DR19: (lambda e: 0.125 * e * e, lambda e: 0.5 * e * e),
    UFunctionKind.KL_IMPROVED_DR19: (lambda e: 0.125 * e * e, maxkl),
}


def u_function(kind: UFunctionKind, eps: float, lam: float) -> float:
    """Value of the named per-step bound at (eps, lambda)."""
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if kind is UFunctionKind.GENERAL_MGF:
        return h_eps(eps, lam)
    if kind not in _QUADRATIC:
        raise ValueError(f"unknown U-function kind {kind!r}")
    a, b = _QUADRATIC[kind]
    return a(eps) * lam * lam + b(eps) * lam


@dataclass(frozen=True)
class LambdaSearch:
    """The lambda window (0, lambda_max] of every bound, and the precision of
    the numerical search that GENERAL_MGF needs."""

    lambda_max: float = 1e6
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.lambda_max > 0.0:
            raise ValueError("lambda_max must be positive")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")


_DEFAULT_SEARCH = LambdaSearch()


class UBoundResult(NamedTuple):
    delta: float
    lam: float           # minimizing lambda
    at_ceiling: bool     # True when the minimum sits on lambda_max


class EpsilonResult(NamedTuple):
    eps_g: float
    lam: float
    capped_at_basic: bool     # True when basic composition was the binding bound
    at_ceiling: bool = False  # True when the certifying lambda sits on lambda_max


def _sum_h(eps_counts: Counter, lam: float) -> float:
    return math.fsum(n * h_eps(e, lam) for e, n in eps_counts.items())


def _quadratic_coeffs(kind: UFunctionKind, eps_counts: Counter) -> tuple[float, float]:
    """(a, b) with sum_i U(eps_i, lambda) = a lambda^2 + b lambda."""
    if kind not in _QUADRATIC:
        raise ValueError(f"{kind!r} is not a quadratic bound")
    fa, fb = _QUADRATIC[kind]
    return (math.fsum(n * fa(e) for e, n in eps_counts.items()),
            math.fsum(n * fb(e) for e, n in eps_counts.items()))


def _minimize_over_lambda(obj, search: LambdaSearch) -> tuple[float, float, bool]:
    """Minimize a unimodal objective over (0, lambda_max].

    Brackets the minimum by doubling (or halving) from lambda = 1 until the
    objective turns upward, then golden-sections.  Returns
    (argmin, value, hit_ceiling).
    """
    lmax = search.lambda_max
    lam = min(1.0, lmax)
    f_cur = obj(lam)
    if lam < lmax and obj(min(2.0 * lam, lmax)) < f_cur:
        while lam < lmax:
            nxt = min(2.0 * lam, lmax)
            f_nxt = obj(nxt)
            if f_nxt >= f_cur:
                break
            lam, f_cur = nxt, f_nxt
    else:
        while lam > 1e-12:
            nxt = lam / 2.0
            f_nxt = obj(nxt)
            if f_nxt >= f_cur:
                break
            lam, f_cur = nxt, f_nxt
    # either branch can end on the window edge: doubling up to it, or (when
    # lambda_max < 1) halving that never improved on it
    hit_ceiling = lam >= lmax and f_cur <= obj(lmax * 0.999)
    lo, hi = lam / 4.0, min(4.0 * lam, lmax)
    iters = iters_for_rel_tol(search.rel_tol)
    x, v = golden_min(obj, lo, hi, iters)
    if f_cur < v:
        x, v = lam, f_cur
    if hit_ceiling and x >= 0.99 * lmax:
        return lmax, min(v, obj(lmax)), True
    return x, v, False


def _as_counts(eps_list: Sequence[float]) -> Counter:
    """Multiplicities of the per-round parameters.

    Zero entries are dropped: a zero-parameter round is data independent and
    contributes nothing to any of the bounds (U(0, lambda) = 0 exactly).
    """
    eps = [float(e) for e in np.atleast_1d(np.asarray(eps_list, dtype=float))]
    if not eps:
        raise ValueError("eps_list must be nonempty")
    if any(e < 0 for e in eps):
        raise ValueError("eps must be nonnegative")
    return Counter(e for e in eps if e > 0.0)


def generic_delta_from_u(kind: UFunctionKind, eps_list: Sequence[float],
                         eps_g: float,
                         search: LambdaSearch = _DEFAULT_SEARCH) -> UBoundResult:
    """inf over lambda in (0, lambda_max] of exp(-lambda eps_g + sum_i U(eps_i, lambda)).

    For the quadratic kinds the exponent ``a lambda^2 - (eps_g - b) lambda``
    is minimized in closed form at ``lambda = (eps_g - b) / 2a``, clamped to
    the window (``at_ceiling`` reports the clamp).  GENERAL_MGF's exponent is
    convex, so a doubling bracket plus golden section finds its minimum.
    When the exponent is positive for every lambda the bound is vacuous and
    1 is returned.
    """
    counts = _as_counts(eps_list)
    if not counts:  # every round was a zero-parameter no-op
        return UBoundResult(0.0 if eps_g > 0.0 else 1.0, 0.0, False)
    if kind is UFunctionKind.GENERAL_MGF:
        lam, val, ceiling = _minimize_over_lambda(
            lambda lam: -lam * eps_g + _sum_h(counts, lam), search)
    else:
        a, b = _quadratic_coeffs(kind, counts)
        gain = eps_g - b
        if not gain > 0.0:  # the infimum is approached only as lambda -> 0
            return UBoundResult(1.0, 0.0, False)
        lam = gain / (2.0 * a) if a > 0.0 else math.inf  # a underflows below eps ~ 1e-162
        ceiling = lam >= search.lambda_max
        lam = min(lam, search.lambda_max)
        val = lam * (a * lam - gain)
    return UBoundResult(math.exp(val) if val < 0.0 else 1.0, lam, ceiling)


def basic_composition(eps_list: Sequence[float]) -> float:
    """Budget under plain summation: eps_g = sum eps_i, with delta = 0."""
    counts = _as_counts(eps_list)
    return math.fsum(e * n for e, n in counts.items())


def _log_inv_delta(delta_g: float) -> float:
    if not 0.0 < delta_g < 1.0:
        raise ValueError(f"delta_g must lie in (0, 1), got {delta_g}")
    return -math.log(delta_g)


def quadratic_epsilon(kind: UFunctionKind, eps_list: Sequence[float], delta_g: float,
                      search: LambdaSearch = _DEFAULT_SEARCH) -> EpsilonResult:
    """Smallest eps_g at which a quadratic bound certifies delta_g.

    delta(eps_g) <= delta_g holds iff some lambda in the window satisfies
    eps_g >= a lambda + b + L / lambda with ``L = log(1/delta_g)``.  The
    right side is least at ``lambda = sqrt(L / a)``, where it equals
    ``b + 2 sqrt(a L)``; when that lambda exceeds lambda_max the window's
    edge is used instead.  The budget is not capped at basic composition.
    """
    big_l = _log_inv_delta(delta_g)
    counts = _as_counts(eps_list)
    if not counts:
        return EpsilonResult(0.0, 0.0, False)
    a, b = _quadratic_coeffs(kind, counts)
    lam = math.sqrt(big_l / a) if a > 0.0 else math.inf
    if lam > search.lambda_max:
        lam = search.lambda_max
        return EpsilonResult(a * lam + b + big_l / lam, lam, False, True)
    return EpsilonResult(b + 2.0 * math.sqrt(a * big_l), lam, False)


def optkl_epsilon(eps_list: Sequence[float], delta_g: float,
                  search: LambdaSearch = _DEFAULT_SEARCH) -> float:
    """Adaptive budget from the KL-improved bound, in closed form:

        min( sum eps_i,
             sum maxkl(eps_i) + sqrt( (1/2) sum eps_i^2 log(1/delta_g) ) ),

    the second term taken over the lambda window (``quadratic_epsilon``).
    """
    kl = quadratic_epsilon(UFunctionKind.KL_IMPROVED_DR19, eps_list, delta_g, search)
    return min(basic_composition(eps_list), kl.eps_g)


def mgf_delta(eps_list: Sequence[float], eps_g: float,
              search: LambdaSearch = _DEFAULT_SEARCH) -> UBoundResult:
    """The tightest of the four bounds: GENERAL_MGF through the generic machinery."""
    return generic_delta_from_u(UFunctionKind.GENERAL_MGF, eps_list, eps_g, search)


def mgf_epsilon(eps_list: Sequence[float], delta_g: float,
                search: LambdaSearch = _DEFAULT_SEARCH) -> EpsilonResult:
    """Smallest eps_g at which the MGF bound certifies delta_g.

    delta(eps_g) <= delta_g holds iff some lambda satisfies
    eps_g >= (sum_i h_eps_i(lambda) + log(1/delta_g)) / lambda, so the
    inversion is the direct minimization of that ratio (the objective is
    unimodal: its derivative's numerator is nondecreasing in lambda).  The
    result never exceeds basic composition; when the search cannot beat the
    basic budget within the lambda window, the basic value is returned with
    the cap flagged.
    """
    big_l = _log_inv_delta(delta_g)
    counts = _as_counts(eps_list)
    if not counts:
        return EpsilonResult(0.0, 0.0, True)

    def ratio(lam):
        return (_sum_h(counts, lam) + big_l) / lam

    lam, val, ceiling = _minimize_over_lambda(ratio, search)
    basic = basic_composition(eps_list)
    if val >= basic:
        return EpsilonResult(basic, lam, True, ceiling)
    return EpsilonResult(max(val, 0.0), lam, False, ceiling)
