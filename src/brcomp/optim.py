"""One golden-section search and one budget-lattice search.

The golden section serves ``mgf``'s lambda search (over log lambda, see
``bounds``) and the brute-force oracle's coordinate polish.  Both
directions track the best point ever evaluated, endpoints included, so a
caller using the result as a certified bound can never lose value to the
final interval midpoint.  ``golden_max_batch`` runs the same search on
arrays of brackets in lockstep, for the adaptive solver's per-node
refinement.  ``lattice_search`` serves every budget inversion that has no
closed form, and confirms the ones that do.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnreachableTargetError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
BUDGET_STEP = 2.0 ** -30   # the budget lattice's step, below the 1e-9 budget tolerance
_LATTICE_INDEX_CAP = 1 << 53   # past this index j * step is no longer exactly a float


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


def golden_max_batch(f, lo: np.ndarray, hi: np.ndarray, iters: int = 48,
                     x0: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """``golden_max`` elementwise over arrays of brackets.

    ``f`` takes points stacked on a new leading axis, shape (P,) +
    ``lo.shape``, and returns their values in that shape; a point's value
    must not depend on the others.  Each element takes the scalar search's
    steps and keeps its best-seen point, so it returns the scalar search's
    (argmax, value) bit for bit.

    ``f`` is called 1 + floor(iters / 2) times.  The opening call evaluates
    both ends, both interior points and, when given, the points ``x0``
    (shaped like ``lo``), whose values are then returned third.  Each later
    call serves two steps: with a step's new point it evaluates both points
    the next step can make, d - phi (d - a) if that step keeps [a, d] and
    c + phi (b - c) if it keeps [c, b], each formed by the operations the
    step itself would use.  As in the scalar search, the last step's point
    is never compared, so an odd ``iters`` makes no call for it.
    """
    swap = ~(lo <= hi)
    a, b = np.where(swap, hi, lo), np.where(swap, lo, hi)
    step = INV_PHI * (b - a)
    opening = np.stack([a, b, b - step, a + step] + ([] if x0 is None else [x0]))
    values = f(opening)
    # each point over its value on a leading axis of 2, so that one copyto
    # moves both: best, then b, c and d
    pv = np.stack([opening[:4], values[:4]])
    best, pb, pc, pd = pv.swapaxes(0, 1)
    (c, d), (fc, fd) = pv[:, 2:]

    def compare(p):
        np.copyto(best, p, where=p[1] > best[1])

    def narrow():
        # keep [a, d] where fc > fd, else [c, b]
        left = fc > fd
        right = ~left
        np.copyto(a, c, where=right)
        np.copyto(b, d, where=left)
        return left, right

    def move(left, right, p):
        # in [a, d] c becomes d and the new point p becomes c; in [c, b] d
        # becomes c and p becomes d
        np.copyto(pd, pc, where=left)
        np.copyto(pc, pd, where=right)
        np.copyto(pc, p, where=left)
        np.copyto(pd, p, where=right)

    # the scalar loop compares c and d with the best before each step; the
    # point it kept from the step before can no longer win, so each point
    # is compared once, before the step after the one that made it
    compare(pb)
    if iters:
        compare(pc)
        compare(pd)
    for i in range(0, iters - 1, 2):
        left, right = narrow()
        s = INV_PHI * (b - a)
        pts = np.empty((2, 3) + a.shape)
        new = pts[:, 0]
        np.add(a, s, out=new[0])
        np.subtract(b, s, out=new[0], where=left)
        # d and c after this step give the next step's point in [a, d] and in [c, b]
        d_next, c_next = np.where(left, c, new[0]), np.where(left, new[0], d)
        np.subtract(d_next, INV_PHI * (d_next - a), out=pts[0, 1])
        np.add(c_next, INV_PHI * (b - c_next), out=pts[0, 2])
        pts[1] = f(pts[0])
        move(left, right, new)
        compare(new)
        # the step after is already evaluated: its point and value are the
        # [a, d] candidate where it keeps [a, d], else the [c, b] one
        left, right = narrow()
        new = pts[:, 2]
        np.copyto(new, pts[:, 1], where=left)
        move(left, right, new)
        if i + 2 < iters:
            compare(new)
    xb, fb = best.copy()
    return (xb, fb, *values[4:].copy())


def golden_min(f, lo: float, hi: float, iters: int = 48) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi]; returns (argmin, value) best-seen."""
    x, v = golden_max(lambda t: -f(t), lo, hi, iters)
    return x, -v


def iters_for_rel_tol(rel_tol: float) -> int:
    """Golden-section iterations needed to shrink a bracket by rel_tol."""
    return max(1, math.ceil(math.log(rel_tol) / math.log(INV_PHI)))


def budget_step(bound: float) -> float:
    """The lattice step for budgets within +-``bound``: ``BUDGET_STEP``, or the
    power of two that keeps every lattice point up to 8 ``bound`` a float."""
    return max(BUDGET_STEP, math.ldexp(1.0, math.frexp(bound)[1] - 50))


def lattice_search(f, level: float, lo: float, hi: float, step: float,
                   seed: float | None = None) -> tuple[float, str]:
    """The smallest lattice point x = j * step above ``lo`` with f(x) <= level.

    ``f`` must be nonincreasing on the lattice, and f(lo) > level is the
    caller's check.  The answer is confirmed by f(x) <= level < f(x - step),
    both evaluated here (where x - step is at or below ``lo``, the caller's
    f(lo) > level stands in).  So it does not depend on the search path, and
    two functions ordered pointwise on the lattice give answers ordered the
    same way.

    A ``seed`` estimates the crossing.  Its lattice point and the one below
    are evaluated first, and when they confirm it the path is
    ``"closed-form"``.  Otherwise their values narrow the bracket, and j is
    bisected (path ``"bisection"``).  The upper end ``hi`` is evaluated only
    when a bisection needs it; while f(hi) > level the bracket moves up and
    doubles.  Returns (x, path).
    """
    lo_j, hi_j = math.floor(lo / step), None   # f > level at lo_j; f <= level at hi_j
    if seed is not None and math.isfinite(seed):
        j = max(lo_j + 1, math.ceil(min(seed, hi) / step))
        if f(j * step) > level:
            lo_j = j
        elif j - 1 == lo_j or f((j - 1) * step) > level:
            return j * step, "closed-form"
        else:
            hi_j = j - 1
    if hi_j is None:
        hi_j = max(lo_j + 1, math.ceil(hi / step))
        while f(hi_j * step) > level:
            lo_j, hi_j = hi_j, 3 * hi_j - 2 * lo_j
            if abs(hi_j) >= _LATTICE_INDEX_CAP:
                raise UnreachableTargetError("no budget on the lattice reaches the target", 0.0)
    while hi_j - lo_j > 1:
        mid = (lo_j + hi_j) // 2
        if f(mid * step) > level:
            lo_j = mid
        else:
            hi_j = mid
    return hi_j * step, "bisection"
