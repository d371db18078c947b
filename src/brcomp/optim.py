"""One golden-section search and one bisection.

The golden section serves ``mgf``'s lambda search (over log lambda, see
``bounds``) and the adaptive solver's one-dimensional searches.  Both
directions track the best point ever evaluated, endpoints included, so a
caller using the result as a certified bound can never lose value to the
final interval midpoint.  The bisection serves every budget inversion that
has no closed form.
"""

from __future__ import annotations

import math

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo: float, hi: float, iters: int = 48) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, value) best-seen."""
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    xb, fb = a, f(a)
    fhi = f(b)
    if fhi > fb:
        xb, fb = b, fhi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fb:
            xb, fb = c, fc
        if fd > fb:
            xb, fb = d, fd
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    return xb, fb


def golden_min(f, lo: float, hi: float, iters: int = 48) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi]; returns (argmin, value) best-seen."""
    x, v = golden_max(lambda t: -f(t), lo, hi, iters)
    return x, -v


def iters_for_rel_tol(rel_tol: float) -> int:
    """Golden-section iterations needed to shrink a bracket by rel_tol."""
    return max(1, math.ceil(math.log(rel_tol) / math.log(INV_PHI)))


def bisect_nonincreasing(f, level: float, lo: float, hi: float, iters: int) -> float:
    """Where a nonincreasing f falls to ``level``: halve [lo, hi] ``iters``
    times, keeping f(lo) > level >= f(hi), and return the final midpoint.

    The midpoints depend only on (lo, hi) and the comparisons, so callers
    that share a bracket share the midpoint sequence.
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
