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
  closed-form minimizer.  One golden section over ``log lambda`` on the
  fixed window ``[1e-12, lambda_max]`` finds it (``_minimize_over_lambda``);
  the minimum sits on the window's ceiling exactly when the search returns
  the upper endpoint.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .nonadaptive import _validate_budget
# golden_max stays bound here for code that looks it up through this module
# (perfbench's tracer patches every binding site)
from .optim import golden_max, golden_min, iters_for_rel_tol  # noqa: F401

_MAXKL_SERIES_CUTOFF = 5e-3
_MAXKL_LOG_FORM = 2.0
# GENERAL_MGF's lambda search: golden section over log lambda from
# lambda = 1e-12 to lambda_max, until the bracket is this wide in log lambda
_LOG_LAMBDA_MIN = math.log(1e-12)
_LOG_LAMBDA_TOL = 1e-10
# h_eps is raised by this many machine epsilons (2^-52) times
# lambda*eps + log1p(lambda) + 1, which bounds the magnitudes of the terms it
# sums; against 60-digit mpmath the largest error measured over eps in
# [1e-4, 6], lambda in [1e-3, 1e5] is 1.02 such units
_H_MARGIN_ULPS = 2.0


def maxkl(eps: float) -> float:
    """max over t in [0, eps] of KL(Bern(q_t) || Bern(p_t)).

    Equals ``r - 1 - log(r)`` with ``r = eps / (e^eps - 1)``.  The direct
    form ``x - log1p(x)``, ``x = r - 1``, cancels as x -> 0 (1e-9 relative
    at eps = 1e-6) and fails as x -> -1 (eps > 37), so below the series
    cutoff the expansion ``eps^2/8 - eps^4/576 + eps^6/25920`` is used, and
    above 2 ``-log r`` is formed as ``eps + log1p(-e^-eps) - log(eps)`` and r
    as ``eps e^-eps / (1 - e^-eps)``.  Against 50 digits it is within 2e-13
    relative from eps = 1e-9 to 10^4.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps < _MAXKL_SERIES_CUTOFF:
        e2 = eps * eps
        return e2 / 8.0 - e2 * e2 / 576.0 + e2 * e2 * e2 / 25920.0
    if eps > _MAXKL_LOG_FORM:
        r = eps * math.exp(-eps) / -math.expm1(-eps)   # e^eps overflows past 709.78
        return (r - 1.0) + eps + math.log1p(-math.exp(-eps)) - math.log(eps)
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
    """The lambda window (0, lambda_max] of every bound."""

    lambda_max: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.lambda_max < math.inf:
            raise ValueError(f"lambda_max must be positive and finite, got {self.lambda_max}")


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
    """Minimize an objective unimodal in log lambda over [1e-12, lambda_max].

    One golden section over ``x = log lambda`` on that fixed window, run
    until the bracket is ``_LOG_LAMBDA_TOL`` wide.  The upper endpoint is
    evaluated at exactly lambda_max, and ``golden_min`` keeps the best point
    it sees, endpoints included, so the minimum sits on the ceiling exactly
    when the returned point is that endpoint.  Returns
    (argmin, value, at_ceiling).
    """
    lmax = search.lambda_max
    hi = math.log(lmax)
    lo = min(_LOG_LAMBDA_MIN, hi)
    iters = iters_for_rel_tol(_LOG_LAMBDA_TOL / max(hi - lo, _LOG_LAMBDA_TOL))
    x, v = golden_min(lambda x: obj(lmax if x == hi else math.exp(x)), lo, hi, iters)
    if x == hi:
        return lmax, v, True
    return math.exp(x), v, False


def _as_counts(eps_list: Sequence[float]) -> Counter:
    """Multiplicities of the per-round parameters.

    Zero entries are dropped: a zero-parameter round is data independent and
    contributes nothing to any of the bounds (U(0, lambda) = 0 exactly).
    """
    counts = Counter(np.atleast_1d(np.asarray(eps_list, dtype=float)).tolist())
    if not counts:
        raise ValueError("eps_list must be nonempty")
    # checked once per distinct value; a nan entry is never merged away
    if not all(0.0 <= e < math.inf for e in counts):
        raise ValueError("eps must be finite and nonnegative")
    counts.pop(0.0, None)
    return counts


def generic_delta_from_u(kind: UFunctionKind, eps_list: Sequence[float],
                         eps_g: float,
                         search: LambdaSearch = _DEFAULT_SEARCH) -> UBoundResult:
    """inf over lambda in (0, lambda_max] of exp(-lambda eps_g + sum_i U(eps_i, lambda)).

    For the quadratic kinds the exponent ``a lambda^2 - (eps_g - b) lambda``
    is minimized in closed form at ``lambda = (eps_g - b) / 2a``, clamped to
    the window (``at_ceiling`` reports the clamp).  GENERAL_MGF's exponent is
    convex in lambda, hence unimodal in log lambda, and one golden section
    over log lambda on the window finds its minimum.
    When the exponent is positive for every lambda the bound is vacuous and
    1 is returned.
    """
    counts = _as_counts(eps_list)
    _validate_budget(eps_g)
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
    inversion is the direct minimization of that ratio by the same golden
    section over log lambda as ``mgf_delta`` (the ratio is unimodal in
    lambda, hence in log lambda: its derivative's numerator is nondecreasing
    in lambda).  ``at_ceiling`` reports a minimizer on lambda_max.  The
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
