"""One golden-section search and one bisection.

The golden section serves ``mgf``'s lambda search (over log lambda, see
``bounds``) and the adaptive edge forms' one-dimensional searches.  Both
directions track the best point ever evaluated, endpoints included, so a
caller using the result as a certified bound can never lose value to the
final interval midpoint.  ``golden_max_batch`` runs the same search on
arrays of brackets in lockstep, for the adaptive solver's per-node
refinement.  The bisection serves every budget inversion that has no
closed form.
"""

from __future__ import annotations

import math

import numpy as np

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


def golden_max_batch(f, lo: np.ndarray, hi: np.ndarray,
                     iters: int = 48) -> tuple[np.ndarray, np.ndarray]:
    """``golden_max`` elementwise over arrays of brackets.

    ``f`` maps an array of points to the array of their values.  Each
    element takes the scalar search's steps and keeps its best-seen point,
    so it returns the scalar search's result bit for bit.
    """
    swap = ~(lo <= hi)
    a, b = np.where(swap, hi, lo), np.where(swap, lo, hi)
    xb, fb = a, f(a)
    fhi = f(b)
    up = fhi > fb
    xb, fb = np.where(up, b, xb), np.where(up, fhi, fb)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    # the scalar loop compares c and d with the best before each step; the
    # point it kept from the step before can no longer win, so only the
    # points evaluated since the last comparison are compared
    unseen = [(c, fc), (d, fd)]
    for _ in range(iters):
        for x, fx in unseen:
            up = fx > fb
            xb, fb = np.where(up, x, xb), np.where(up, fx, fb)
        # keep [a, d], where c becomes d and the new point c; or keep [c, b],
        # where d becomes c and the new point d
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = INV_PHI * (b - a)
        new = np.where(left, b - step, a + step)
        fnew = f(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
        unseen = [(new, fnew)]
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
