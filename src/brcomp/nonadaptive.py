"""Exact optimal nonadaptive composition of bounded-range mechanisms.

For k mechanisms with the same parameter eps, the worst-case additive loss
at a global log-ratio budget ``eps_g`` reduces to a one-parameter family:
with ``p = p_of_t(eps, t)``,

    delta_k(t, eps_g) = sum_i C(k,i) p^(k-i) (1-p)^i
                        * max(e^(k t - i eps) - e^(eps_g), 0)

and the optimum over t is attained at one of the candidate points

    t_ell = (eps_g + (ell + 1) eps) / (k + 1),   ell = 0..k,

each clamped to [0, eps].  One kernel, ``fixed_t_sums``, evaluates the sum
at many offsets at once.  With ``q = e^t p`` each positive term is at most
the Bin(k, 1-q) probability of its index, so it sums only a window of
O(sqrt k) terms around that distribution's mode and certifies the rest: a
geometric tail bound at each window edge must stay below 2^-60 of the
window's sum, or the window is widened.  Scanning every candidate so costs
O(k^1.5) instead of O(k^2); for k up to about 150 a window would span the
whole row, and whole rows are summed.  The scan first screens the
candidates with narrower windows, whose sums plus certified omitted mass
bound each value from above, and sums in full only those that can be
within TIE_RTOL of the maximum.  At a fixed offset the sum is piecewise
linear in e^(eps_g), so ``fixed_t_inverse`` gives the budget for a target
delta in closed form; ``budget_seed`` finds the optimum's from a few scans,
following each maximizer's offset as it moves with the budget.

The heterogeneous fixed-t value and the optimal composition of plain
eps_i-DP mechanisms are one sum over per-group counts of equal (eps, t)
rounds (capped at 2^25 terms); no efficient heterogeneous optimum is given.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapError
from .grr import q_of_t
from .rounds import Rounds

SUBSET_CAP = 25          # the grouped sum refuses above 2^25 terms
# candidates whose values agree to this relative tolerance count as tied:
# well above the kernel's rounding noise, well below the relative gap
# between neighbouring candidates near the maximum
TIE_RTOL = 1e-10
# fixed_t_sums windows: first half-width in standard deviations of Bin(k, 1-q)
# plus a few terms for the skewed rows near q = 0 or 1; the certified mass
# left outside a window must stay below 2^TAIL_LOG2 of the window's sum
WINDOW_SDS = 11.0
WINDOW_PAD = 4
TAIL_LOG2 = -60
# the candidate scan's screen (``_scan_values``): its window half-width in
# standard deviations, and the rounding margin of the test that keeps a
# candidate in play
SCREEN_SDS = 2.0
SCREEN_MARGIN = 1e-12
# fixed_t_sums evaluates rows in blocks of at most this many terms.  A
# windowed pass allocates its four float buffers (8 bytes a term) and one
# mask once and refills them in place, so a block's working set, with the
# gathered rows of log C(k, i) and i, is about 1.6 MB and stays in a 2 MB L2
# cache.  On such a host a k = 6950 scan took 61 ms at 2^15 terms, 66 ms at
# 2^17 and 87 ms at 2^19.  The size changes no result: a row's terms and sum
# do not depend on the block that holds it.
_BLOCK_ELEMS = 1 << 15
_GROUP_BLOCK_ELEMS = 1 << 19   # the grouped sum's terms per block; its layout depends on it
_DENSE_ELEMS = 1 << 13   # below this many terms in all, whole rows beat windows
_P_NORMAL_EPS = 600.0    # below this range p = e^-t q is a normal float for all t
_FLOAT_MIN = float(np.finfo(float).min)


_log_fact_table = np.zeros(1)   # log(j!) for j < its size; only ever replaced by a longer one


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) for j = 0..n, a read-only slice of one table that grows by
    doubling.  ``np.cumsum`` adds in index order, so a prefix of a longer
    table is bit-identical to the table built for n alone."""
    global _log_fact_table
    if _log_fact_table.size <= n:
        size = max(n + 1, 2 * _log_fact_table.size)
        table = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
        table.flags.writeable = False
        _log_fact_table = table
    return _log_fact_table[:n + 1]


def _log_choose(n, i):
    """log C(n, i) for integers (or integer arrays that broadcast) 0 <= i <= n:
    the one place the binomial weights are formed."""
    lf = _log_factorials(n.max() if isinstance(n, np.ndarray) else n)
    return lf[n] - lf[i] - lf[n - i]


def _log_binom(k: int) -> np.ndarray:
    """log C(k, i) for i = 0..k."""
    return _log_choose(k, np.arange(k + 1))


# (k, log C(k, i)) at the latest windowed size, replaced whole: a budget seed
# or a dp-optcomp budget evaluates one k 5-30 times, and forming the row took
# 7 us at k = 783 and 1.2 ms at k = 10^5, where it holds 0.8 MB
_latest_log_binom: tuple[int, np.ndarray] | None = None


def _windowed_log_binom(k: int) -> np.ndarray:
    """``_log_binom(k)``, read-only, from the one-entry memo that ``_windows``
    and the uncached ``_form_row_consts`` share."""
    global _latest_log_binom
    memo = _latest_log_binom
    if memo is None or memo[0] != k:
        lbin = _log_binom(k)
        lbin.flags.writeable = False
        memo = _latest_log_binom = (k, lbin)
    return memo[1]


def _validate_hom(eps: float, k: int) -> None:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not isinstance(k, (int, np.integer)) or k < 1:   # a float k, even 2.0, does not pass
        raise ValueError(f"k must be a positive integer, got {k!r}")


def _validate_eps_list(eps_list: Sequence[float]) -> np.ndarray:
    """Per-round parameters as a float array: a nonempty 1-D list whose
    entries are all finite and positive (no zero round: each is paired
    with an offset or a tree level)."""
    eps = np.asarray(eps_list, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("eps_list must be a nonempty 1-D sequence")
    if not np.isfinite(eps).all():
        raise ValueError("all eps must be finite")
    if (eps <= 0).any():
        raise ValueError("all eps must be positive")
    return eps


def _validate_budget(eps_g: float) -> None:
    if math.isnan(eps_g):
        raise ValueError("eps_g must not be nan")


def _endpoint_value(eps_g: float) -> float:
    """max(1 - e^(eps_g), 0): the loss at t = 0 or t = eps, for every k."""
    return -math.expm1(eps_g) if eps_g < 0.0 else 0.0


def _stable_logs(eps, t, em1=None) -> tuple[np.ndarray, np.ndarray]:
    """log(p) and log(1-p), each taken on the stably computed side.

    ``eps`` may be a scalar or an array matching ``t`` (one pair per round),
    and ``em1`` is expm1(-eps) when the caller holds it (``_RowConsts``).
    p and 1 - p are ``grr.p_of_t`` and ``grr.one_minus_p`` over that one
    denominator.  Where p leaves the normal floats (t past about 670),
    log p = log q - t.  At t = 0 or eps a log is of 0: callers run this
    under their ``np.errstate``.
    """
    t = np.asarray(t, dtype=float)
    if em1 is None:
        em1 = np.expm1(-eps)
    minus_t = np.negative(t)
    q = np.expm1(t - eps) / em1
    p = np.exp(minus_t) * q
    omp = np.expm1(minus_t) / em1
    lp = np.where(p > 0.5, np.log1p(-omp), np.log(p))
    lomp = np.where(omp > 0.5, np.log1p(-p), np.log(omp))
    if (eps.max() if isinstance(eps, np.ndarray) else eps) > _P_NORMAL_EPS:
        lp = np.where(p < np.finfo(float).tiny, np.log(q) - t, lp)
    return lp, lomp


class FixedTSums(NamedTuple):
    values: np.ndarray    # delta_k(t_j, eps_g) per offset, before any clamp to 1
    omitted: np.ndarray   # certified bound on the positive mass left outside each window
                          # (both 1-D for an array of offsets, scalars for one offset)
    passes: int           # window evaluations spent (1 when no window had to widen)


def _last_positive(eps: float, k: int, eps_g: float, t: np.ndarray) -> np.ndarray:
    """Largest i with ``k t - i eps > eps_g`` as evaluated in floats (-1 if none).

    The float brackets decrease in i, so the positive terms are exactly
    ``i <= m``; the division's estimate is off by at most one either way.
    """
    m = np.clip(np.floor((k * t - eps_g) / eps), -1, k).astype(np.int64)
    m += (m < k) & (k * t - (m + 1) * eps > eps_g)
    m -= (m >= 0) & ~(k * t - m * eps > eps_g)
    return m


def _log_bracketed(log_w, a, eps_g) -> np.ndarray:
    """log(e^log_w (e^a - e^eps_g)), -inf where dropped (a <= eps_g).

    log(1 - e^x), x = eps_g - a, is log(-expm1(x)): log1p(-exp(x)) errs by about
    ulp/|x| relative as x -> 0-.  ``log_w``, a caller's temporary, is overwritten."""
    lterm = np.add(log_w, a, out=log_w) + np.log(-np.expm1(eps_g - a))
    return np.where(a > eps_g, lterm, -np.inf)


def _log_tail(k: int, lbin, lq, l1mq, edge, step: int) -> np.ndarray:
    """log of ``B_edge r / (1 - r)``, the geometric bound on the B-mass beyond
    ``edge`` in direction ``step`` (-1 or +1); +inf where the ratio r of
    consecutive B terms at the edge is not below 1."""
    if step < 0:
        log_r = np.log(edge) - np.log(k - edge + 1) + lq - l1mq
    else:
        log_r = np.log(k - edge) - np.log(edge + 1) + l1mq - lq
    log_b = lbin[edge] + (k - edge) * lq + edge * l1mq
    tail = log_b + log_r - np.log(-np.expm1(np.minimum(log_r, 0.0)))
    return np.where(log_r < 0.0, tail, np.inf)


def _windowed(k: int, n_offsets: int) -> bool:
    """Whether fixed_t_sums windows the rows.  Not when all the rows together
    hold fewer terms than the window bookkeeping costs, nor when even the
    widest first window would span the row (k up to about 150).  Whole rows
    are their own path because of that cost: at k <= 100 a windowed scan
    took 110-350 us more per call than one over whole rows (2-core Xeon,
    numpy 2.4), and a perfbench ``curve`` batch (k <= 40) makes about 8000
    scans."""
    return (n_offsets * (k + 1) > _DENSE_ELEMS
            and 2 * (math.ceil(WINDOW_SDS * math.sqrt(k) / 2.0) + WINDOW_PAD) + 1 <= k)


def fixed_t_sums(eps: float, k: int, eps_g: float, t) -> FixedTSums:
    """delta_k(t_j, eps_g) at each offset t_j in (0, eps): the one binomial kernel.

    With ``q = e^t p`` every positive term obeys
    ``T_i <= B_i = C(k,i) q^(k-i) (1-q)^i``, the Bin(k, 1-q) pmf, and the
    positive terms are exactly ``i <= m(t)``.  Each offset sums the terms in
    a window of ``[0, m]`` centred on ``min(mode, m)`` with half-width
    ``WINDOW_SDS`` standard deviations plus ``WINDOW_PAD`` terms, so a scan
    over O(k) offsets costs O(k^1.5).  The mass left out on each side is
    bounded by the geometric tail ``B_edge r / (1 - r)``, r the ratio of
    consecutive B terms at the edge (below 1 away from the mode); a window
    whose bound exceeds ``2^TAIL_LOG2`` of its sum is doubled until the
    bound holds, at worst up to the whole of ``[0, m]``.  All the rows of a
    pass are padded to one width, the widest window over every offset given
    at that pass's half-widths: so a row's bits depend on the other offsets
    only through that width, and ``_scan_values`` can sum a subset of a
    candidate scan with each row's bits as in the whole scan.  Small rows are
    summed whole in one pass (see ``_windowed``).  Work runs in blocks of at
    most ``_BLOCK_ELEMS`` terms (or one row).  The block is sized so that its
    buffers fit a core's L2 cache: a windowed pass allocates them once and
    refills them in place for each block, with the operations in
    ``_dense_rows``' order, so every value, bound and pass count is the same
    bit for bit at any block size.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not _windowed(k, t.size):
            c = _row_consts(eps, k)
            return _row_sums(k, eps_g, t, *_stable_logs(eps, t, c.em1), c)
        lp, lomp = _stable_logs(eps, t)
        win = _windows(eps, k, eps_g, t.reshape(-1), lp.reshape(-1), lomp.reshape(-1))
        res = _window_sums(eps, k, eps_g, win, WINDOW_SDS, TAIL_LOG2)
    return res._replace(values=res.values.reshape(t.shape),
                        omitted=res.omitted.reshape(t.shape))


def fixed_t_inverse(eps: float, k: int, t: float, delta_g: float) -> float:
    """The budget eps_g at which delta_k(t, eps_g) = delta_g, in closed form.

    With u = e^(eps_g) the sum is piecewise linear: where the positive terms
    are exactly i <= m it is A_m - u B_m, with A_m = sum_{i<=m} w_i e^(a_i),
    B_m = sum_{i<=m} w_i, w_i the binomial weights and a_i = k t - i eps.
    Both are prefix log-sums (``np.logaddexp.accumulate``) over the kernel's
    own log weights.  Piece m's root, log(A_m - delta_g) - log B_m, is the
    answer on the first piece where it is at least the piece's lower end
    a_(m+1): one O(k) pass.  -inf when delta_g is not below A_k, the sum's
    limit as eps_g -> -inf.
    """
    _validate_hom(eps, k)
    if not 0.0 < t < eps:
        raise ValueError(f"t must lie in (0, eps={eps}), got {t}")
    if not 0.0 < delta_g < 1.0:
        raise ValueError(f"delta_g must lie in (0, 1), got {delta_g}")
    i = np.arange(k + 1)
    a = k * t - i * eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lp, lomp = _stable_logs(eps, t)
        log_w = _log_binom(k) + (k - i) * lp + i * lomp
        log_a = np.logaddexp.accumulate(log_w + a)
        # nan where A_m < delta_g, -inf where they are equal
        root = (log_a + np.log(-np.expm1(math.log(delta_g) - log_a))
                - np.logaddexp.accumulate(log_w))
        hit = np.flatnonzero(root >= np.append(a[1:], -np.inf))
    return float(root[hit[0]]) if hit.size else -math.inf


class _RowConsts(NamedTuple):
    """What whole rows at one (eps, k) read besides their offsets, formed once
    per pair by ``_row_consts``.  Every array is read-only."""
    i: np.ndarray         # i = 0..k, as floats
    k_i: np.ndarray       # k - i
    i_eps: np.ndarray     # i eps
    lbin: np.ndarray      # log C(k, i)
    ell_eps: np.ndarray   # (ell + 1) eps, ell = 0..k: the candidate offsets are (eps_g + this)/(k + 1)
    em1: float            # expm1(-eps), the denominator of p and 1 - p


def _form_row_consts(eps, k) -> _RowConsts:
    n = np.arange(k + 2, dtype=float)
    n_eps = n * eps   # past the float range a term's i eps is inf, and its bracket dropped
    i = n[:-1]
    lbin = _log_binom(k) if k <= _ROW_CONSTS_K_MAX else _windowed_log_binom(k)
    consts = _RowConsts(i, k - i, n_eps[:-1], lbin, n_eps[1:], np.expm1(-eps))
    for a in consts[:-1]:
        a.flags.writeable = False
    return consts


# the constants of the most recent pairs at k up to _ROW_CONSTS_K_MAX, where every
# scan sums whole rows: a budget bisection scans one pair some 30 times in a row,
# and forming its constants was a sixth of a k <= 40 scan (a perfbench curve
# batch hit the cache 15928 times and missed 720 at 4 entries or 16, 480 at 64).
# The windowed sizes form theirs per call, a small share of their O(k^1.5) work
_ROW_CONSTS_K_MAX = 150
_cached_row_consts = functools.lru_cache(maxsize=16)(_form_row_consts)


def _row_consts(eps, k) -> _RowConsts:
    """The ``_RowConsts`` of (eps, k), from the cache at whole-row sizes.  Past
    the float range i eps overflows: call it where that is ignored."""
    return (_cached_row_consts if k <= _ROW_CONSTS_K_MAX else _form_row_consts)(eps, k)


def _row_sums(k, eps_g, t, lp, lomp, c: _RowConsts) -> FixedTSums:
    """fixed_t_sums over whole rows, in blocks of offsets.  A row's log terms
    are ``((lbin_i + (k - i) lp) + i lomp) + a_i`` with a_i = k t - i eps,
    plus log(-expm1(eps_g - a_i)) (see ``_log_bracketed``), and -inf where
    a_i <= eps_g.  Its sum is ``exp(top)`` times the sum of
    ``exp(term - top)``, top the largest log term; a row with no term sums
    to 0.  A scalar offset runs as one 1-D row on numpy scalars, the
    cheapest form for the many single evaluations of a bisection: as a 2-D
    block of one row it cost 1-6 us more per call at k <= 100 (2-core Xeon,
    numpy 2.4).  The rows are formed in place from the constants ``c`` of
    (eps, k)."""
    if t.ndim == 0:
        return FixedTSums(_dense_rows(k * float(t), lp, lomp, eps_g, c), np.float64(0.0), 1)
    values = np.empty(t.size)
    step = max(1, _BLOCK_ELEMS // (k + 1))
    for s in range(0, t.size, step):
        b = slice(s, s + step)
        values[b] = _dense_rows(k * t[b, None], lp[b, None], lomp[b, None], eps_g, c)
    return FixedTSums(values, np.zeros(t.size), 1)


def _dense_rows(kt, lp, lomp, eps_g, c: _RowConsts):
    """The sums of whole rows of terms for offsets in (0, eps) whose k t, log
    p and log(1 - p) are scalars (one 1-D row) or columns (a 2-D block), in
    ``_window_pass``' order."""
    log_w = np.multiply(c.k_i, lp)
    np.add(c.lbin, log_w, out=log_w)
    x = np.multiply(c.i, lomp)
    log_w += x
    a = np.subtract(kt, c.i_eps)
    log_w += a
    # log(-expm1(eps_g - a)), the log of 0 (-inf) where a <= eps_g drops the term
    np.subtract(eps_g, a, out=x)
    np.expm1(x, out=x)
    np.negative(x, out=x)
    np.maximum(x, 0.0, out=x)
    np.log(x, out=x)
    log_w += x
    # a row with no term has top -inf; the float minimum in its place makes
    # its sum 0 * 0, not nan
    top = np.maximum(log_w.max(axis=-1), _FLOAT_MIN)
    log_w -= top[..., None]
    np.exp(log_w, out=log_w)
    return np.exp(top) * log_w.sum(axis=-1)


class _Windows(NamedTuple):
    """What every window pass over a set of offsets reads, formed once per set."""
    t: np.ndarray
    lp: np.ndarray        # log p and log(1 - p), as _stable_logs gives them
    lomp: np.ndarray
    lq: np.ndarray        # log q and log(1 - q)
    l1mq: np.ndarray
    m: np.ndarray         # the last positive index (-1 for a row with no term)
    centre: np.ndarray    # min(mode of Bin(k, 1 - q), m)
    sd: np.ndarray        # the standard deviation of Bin(k, 1 - q)
    lbin: np.ndarray      # log C(k, i), i = 0..k


def _windows(eps, k, eps_g, t, lp, lomp) -> _Windows:
    m = _last_positive(eps, k, eps_g, t)
    lq, l1mq = t + lp, (t - eps) + lomp
    centre = np.minimum(np.floor((k + 1) * np.exp(l1mq)).astype(np.int64), m)
    return _Windows(t, lp, lomp, lq, l1mq, m, centre, np.sqrt(k * np.exp(lq + l1mq)),
                    _windowed_log_binom(k))


def _window_sums(eps, k, eps_g, win: _Windows, sds, tail_log2, keep=None) -> FixedTSums:
    """fixed_t_sums over certified windows, widening the ones that fail: the
    rows of ``win`` (those in the mask ``keep``, if given), with first
    windows of ``sds`` standard deviations and a certificate of
    ``2^tail_log2`` (at +inf no window widens).

    A row in pass p has failed every earlier pass, so its half-width is its
    first one times 2^p.  Every row of the pass is padded to one width: the
    widest window at that half-width over all of ``win`` (from ``centre``,
    the half-widths and ``m``, with no evaluation).  So the width does not
    depend on ``keep``: a row gets the same bits whichever other rows are
    evaluated with it (numpy's pairwise row sum depends on the row length)."""
    m, centre, lbin = win.m, win.centre, win.lbin
    first = np.ceil(sds * win.sd).astype(np.int64) + WINDOW_PAD
    values, omitted = np.zeros(m.size), np.zeros(m.size)
    rows = np.flatnonzero(m >= 0 if keep is None else (m >= 0) & keep)
    log_cap = tail_log2 * math.log(2.0)
    passes = 0
    while rows.size:
        half = first << passes
        width = 1 + int(np.max(np.minimum(centre + half, m) - np.maximum(centre - half, 0),
                               initial=-1))
        passes += 1
        lo = np.maximum(centre[rows] - half[rows], 0)
        hi = np.minimum(centre[rows] + half[rows], m[rows])
        top, tot = _window_pass(eps, k, eps_g, k * win.t[rows], win.lp[rows], win.lomp[rows],
                                lbin, lo, hi - lo, width)
        lq_r, l1mq_r = win.lq[rows], win.l1mq[rows]
        log_tail = np.logaddexp(
            np.where(lo > 0, _log_tail(k, lbin, lq_r, l1mq_r, lo, -1), -np.inf),
            np.where(hi < m[rows], _log_tail(k, lbin, lq_r, l1mq_r, hi, +1), -np.inf))
        log_sum = top + np.log(tot)   # -inf for a row with no term
        ok = log_tail <= log_sum + log_cap
        values[rows[ok]] = np.exp(top[ok]) * tot[ok]
        omitted[rows[ok]] = np.exp(log_tail[ok])
        rows = rows[~ok]
    return FixedTSums(values, omitted, passes)


def _sliding_rows(x: np.ndarray, width: int) -> np.ndarray:
    """A read-only view whose row j is ``x[j:j + width]``; indexing it by an
    array of starts gathers each row with one contiguous copy."""
    rows = np.ndarray((x.size - width + 1, width), x.dtype, x, strides=2 * x.strides)
    rows.flags.writeable = False
    return rows


def _window_pass(eps, k, eps_g, kt, lp, lomp, lbin, lo, span, width):
    """Per row of terms lo..lo+span: the largest log term and the sum of
    exp(term - largest), in ``_dense_rows``' operation order.  Every row is
    padded to ``width`` > every span, which ``_window_sums`` fixes per pass
    for all the rows it could be given.  Blocks of rows are computed in place
    in buffers allocated once per pass; only the gathers of log C(k, i) and
    i, one contiguous copy per row, make a block-sized temporary."""
    offs = np.arange(width)
    n = min(max(1, _BLOCK_ELEMS // width), lo.size)
    i, log_w, a, x = (np.empty((n, width)) for _ in range(4))
    dropped = np.empty((n, width), dtype=bool)
    # the padding past index k is read, then dropped
    lbin_rows = _sliding_rows(np.concatenate((lbin, np.zeros(width))), width)
    i_rows = _sliding_rows(np.arange(k + 1 + width, dtype=float), width)
    top, tot = np.empty(lo.size), np.empty(lo.size)
    for s in range(0, lo.size, n):
        b = slice(s, s + n)
        r = min(n, lo.size - s)
        i_b, w_b, a_b, x_b, drop_b = (buf[:r] for buf in (i, log_w, a, x, dropped))
        np.copyto(i_b, i_rows[lo[b]])
        # log w = (lbin_i + (k - i) lp) + i lomp
        np.subtract(k, i_b, out=w_b)
        np.multiply(w_b, lp[b, None], out=w_b)
        np.add(lbin_rows[lo[b]], w_b, out=w_b)
        np.multiply(i_b, lomp[b, None], out=x_b)
        np.add(w_b, x_b, out=w_b)
        # a = k t - i eps; log T = (log w + a) + log(-expm1(eps_g - a))
        np.multiply(i_b, eps, out=a_b)
        np.subtract(kt[b, None], a_b, out=a_b)
        np.add(w_b, a_b, out=w_b)
        np.subtract(eps_g, a_b, out=x_b)
        np.expm1(x_b, out=x_b)
        np.negative(x_b, out=x_b)
        np.log(x_b, out=x_b)
        np.add(w_b, x_b, out=w_b)
        np.greater(offs, span[b, None], out=drop_b)
        np.copyto(w_b, -np.inf, where=drop_b)
        # the row's largest log term and the sum of exp(term - largest)
        np.max(w_b, axis=1, out=top[b])
        np.subtract(w_b, top[b, None], out=w_b)
        np.exp(w_b, out=w_b)
        np.sum(w_b, axis=1, out=tot[b])
    return top, np.where(np.isfinite(top), tot, 0.0)


def delta_hom_fixed_t(eps: float, k: int, eps_g: float, t: float) -> float:
    """Additive loss of k-fold composition at a fixed offset t.

    Evaluates the binomial sum in log space through ``fixed_t_sums``; terms
    whose bracket ``e^(kt - i eps) - e^(eps_g)`` is nonpositive are skipped.
    Refused (``CapError``) where k t is past the float range.
    """
    _validate_hom(eps, k)
    _validate_budget(eps_g)
    if not 0.0 <= t <= eps:
        raise ValueError(f"t must lie in [0, eps={eps}], got {t}")
    if t == 0.0 or t == eps:
        return _endpoint_value(eps_g)
    if k * t == math.inf:
        raise CapError(f"k t at k={k}, t={t!r} is past the float range")
    if not k * t > eps_g:   # even the i = 0 bracket is nonpositive
        return 0.0
    return float(min(fixed_t_sums(eps, k, eps_g, t).values, 1.0))


def _check_numerators(eps: float, k: int) -> None:
    if (k + 1) * eps == math.inf:
        raise CapError(f"the candidate offsets at eps={eps!r}, k={k} are past the float range")


class Candidate(NamedTuple):
    ell: int
    t: float


def candidate_points(eps: float, k: int, eps_g: float) -> list[Candidate]:
    """The k+1 stationary offsets (eps_g + (ell+1) eps)/(k+1), clamped to [0, eps].
    Refused (``CapError``) where (k + 1) eps is past the float range: an
    offset whose numerator overflowed would be clamped to eps, not given."""
    _validate_hom(eps, k)
    _validate_budget(eps_g)
    _check_numerators(eps, k)
    out = []
    for ell in range(k + 1):
        t = (eps_g + (ell + 1) * eps) / (k + 1)
        out.append(Candidate(ell, min(max(t, 0.0), eps)))
    return out


class OptResult(NamedTuple):
    delta: float
    t: float                  # maximizing offset (smallest candidate on ties)
    maximizers: list[float]   # all candidate offsets within TIE_RTOL of the max


def delta_opt_nonadaptive_hom(eps: float, k: int, eps_g: float) -> OptResult:
    """Optimal nonadaptive composition for k equal-parameter BR mechanisms.

    Maximizes ``delta_hom_fixed_t`` over the candidate offsets (plus the
    interval endpoints, which always evaluate to ``max(1 - e^(eps_g), 0)``).
    Outside ``(-k eps, k eps)`` the value is that constant for every t and is
    returned directly.  The candidates' values come from ``_scan_values``:
    every one that can be within TIE_RTOL of the maximum sums a certified
    window of O(sqrt k) terms, so the total work is O(k^1.5) (O(k^2) for k up
    to about 150, where a window spans the row).  Refused (``CapError``)
    where (k + 1) eps, the largest candidate's numerator, is past the float
    range: a candidate lost to it would leave the maximizers untrue.
    """
    _validate_hom(eps, k)
    _validate_budget(eps_g)
    if eps_g >= k * eps:
        return OptResult(0.0, 0.0, [])
    if eps_g <= -k * eps:
        return OptResult(-math.expm1(eps_g), 0.0, [])
    _check_numerators(eps, k)
    endpoint_value = _endpoint_value(eps_g)

    # the numerators (ell + 1) eps come from the cache at the whole-row sizes;
    # a windowed scan reads no other constant, so it forms only these
    t = np.add(eps_g, _row_consts(eps, k).ell_eps if k <= _ROW_CONSTS_K_MAX
               else np.arange(1.0, k + 2) * eps)
    t /= k + 1
    # the offsets rise by eps/(k+1), far above their rounding, so those
    # inside (0, eps) are already sorted and distinct: one slice
    t = t[t.searchsorted(0.0, "right"):t.searchsorted(eps)]
    if t.size == 0:
        return OptResult(endpoint_value, 0.0, [])
    values = _scan_values(eps, k, eps_g, t)
    best = float(values.max())
    if best <= endpoint_value:
        return OptResult(endpoint_value, 0.0, [])
    winners = t[values >= best * (1.0 - TIE_RTOL)].tolist()
    return OptResult(min(best, 1.0), winners[0], winners)


def _scan_values(eps: float, k: int, eps_g: float, t: np.ndarray) -> np.ndarray:
    """``fixed_t_sums(eps, k, eps_g, t).values`` at every candidate offset t
    that can be within TIE_RTOL of their maximum, and 0 at the others.

    Small scans sum whole rows.  A windowed scan first screens every row
    over windows of ``SCREEN_SDS`` standard deviations, in one pass that
    never widens, giving value v and certified omitted mass w.  Both stages
    form each term identically, so v + w bounds a row's full value from
    above and the largest v bounds the maximum from below, up to the
    rounding of the sums, which ``SCREEN_MARGIN`` covers.  A row stays in
    play while ``_in_play`` holds, so no row dropped is within TIE_RTOL of
    the maximum; a loose bound just keeps its row.  The second stage sums
    the rows in play at the full settings, with widths fixed by the query
    alone, so each gets the bits that scanning every row would give it: the
    maximum and the tied set are the one-stage scan's.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not _windowed(k, t.size):
            c = _row_consts(eps, k)
            return _row_sums(k, eps_g, t, *_stable_logs(eps, t, c.em1), c).values
        win = _windows(eps, k, eps_g, t, *_stable_logs(eps, t))
        v, w, _ = _window_sums(eps, k, eps_g, win, SCREEN_SDS, math.inf)
        return _window_sums(eps, k, eps_g, win, WINDOW_SDS, TAIL_LOG2, _in_play(v, w)).values


def _in_play(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The screened rows that can be within TIE_RTOL of the maximum:
    (v + w)(1 + margin) >= max v (1 - TIE_RTOL)(1 - margin)."""
    return (v + w) * (1.0 + SCREEN_MARGIN) >= v.max() * ((1.0 - TIE_RTOL) * (1.0 - SCREEN_MARGIN))


def budget_seed(eps: float, k: int, delta_g: float) -> float | None:
    """An estimate of the least x with ``delta_opt_nonadaptive_hom(eps, k,
    x) <= delta_g``, for a lattice search to confirm; None where the scan
    sums whole rows (k up to 140).  From the larger of two lower bounds, the
    endpoints' budget log(1 - delta_g) and the half-DP one, x moves to the
    budget of the scan's maximizer at x (``_candidate_root``), a strategy's
    and so a lower bound too, until a scan shows delta_g met, names the
    candidate just solved for (their sums differ by rounding only) or x
    stops rising."""
    if not _windowed(k, k + 1):
        return None
    half = fixed_t_inverse(eps, k, eps / 2.0, delta_g) if eps / 2.0 > 0.0 else -math.inf
    x, solved = max(half, math.log1p(-delta_g)), None
    while True:
        res = delta_opt_nonadaptive_hom(eps, k, x)
        if res.delta <= delta_g or not res.maximizers:   # below delta_g, or at an endpoint
            return x
        ell = round((res.t * (k + 1) - x) / eps) - 1
        if ell == solved or not (root := _candidate_root(eps, k, ell, x, res.delta, delta_g)) > x:
            return x
        x, solved = root, ell


def _candidate_root(eps: float, k: int, ell: int, x: float, value: float,
                    delta_g: float) -> float:
    """The least budget found above x at which candidate ell, its offset
    (x + (ell + 1) eps)/(k + 1) moving with the budget, is worth at most
    delta_g, within a few ulps of one where it is worth more (``value`` at
    x).  On this path ``df_ell_dt`` vanishes, so the value falls as x rises,
    with slope -e^x sum_{i<=ell} w_i, to 0 at x = end = (k - ell) eps, as
    (end - x)^(k-ell+1) near it.  So y = log(value/delta_g) is searched over
    z = log(end - x): a step of y/(k - ell + 1), then secants (at most 4
    times the step before) until y <= 0, then Illinois false position,
    bisecting in z while the lower end's value underflows to 0."""
    c, end, log_dg = (ell + 1.0) * eps, (k - ell) * eps, math.log(delta_g)

    def excess(x):
        t = (x + c) / (k + 1)
        v = fixed_t_sums(eps, k, x, t).values if t < eps else 0.0
        return math.log(v) - log_dg if v > 0.0 else -math.inf

    def toward_end(x, dz):   # the budget at z(x) + dz, exact near x = 0
        return x - (end - x) * math.expm1(dz)

    def dz(x0, x1):   # z(x1) - z(x0) for x0 < x1 < end, exact for x1 near x0 or near end
        d, e = x1 - x0, end - x0
        return math.log1p(-d / e) if d < 0.5 * e else math.log((end - x1) / e)

    def tol(x):
        return 8.0 * math.ulp(max(1.0, abs(x)))

    xa, ya = x, math.log(value) - log_dg
    step, last = -ya / (k - ell + 1), math.nextafter(end, -math.inf)
    while True:
        xb = min(max(toward_end(xa, step), xa + tol(xa)), last)
        yb = excess(xb) if xb > xa else -math.inf
        if not yb > 0.0:
            break
        span = dz(xa, xb)
        step = max(yb * span / (ya - yb) if ya > yb else -math.inf, 4.0 * span)
        xa, ya = xb, yb
    side = 0
    while xb - xa > 2.0 * tol(xb):
        span = dz(xa, xb)
        nx = toward_end(xa, 0.5 * span) if math.isinf(yb) else toward_end(xb, yb * span / (ya - yb))
        nx = min(max(nx, xa + tol(xa)), xb - tol(xb))
        y = excess(nx)
        if y > 0.0:
            xa, ya, yb, side = nx, y, yb * (0.5 if side > 0 else 1.0), 1
        else:
            xb, yb, ya, side = nx, y, ya * (0.5 if side < 0 else 1.0), -1
    return xb


# ---------------------------------------------------------------------------
# F_ell and its derivative
# ---------------------------------------------------------------------------


def _check_ell_t(eps: float, k: int, ell: int, t: float) -> None:
    _validate_hom(eps, k)
    if not 0 <= ell <= k:
        raise ValueError(f"ell must lie in [0, k={k}], got {ell}")
    if not 0.0 <= t <= eps:
        raise ValueError(f"t must lie in [0, eps={eps}], got {t}")


def _log_weights(lbin, i, n_p, lp, lomp) -> np.ndarray:
    """log( C p^n_p (1-p)^i ) from lbin = log C, with 0 * log(0) taken as 0:
    at t = 0 or t = eps the weights select, never blend."""
    with np.errstate(invalid="ignore"):
        return (lbin + np.where(n_p > 0, n_p * lp, 0.0)
                + np.where(i > 0, i * lomp, 0.0))


def _signed_log_diff(x, y) -> tuple[np.ndarray, np.ndarray]:
    """log|e^x - e^y| and the sign of e^x - e^y."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        mag = np.maximum(x, y) + np.log(-np.expm1(-np.abs(x - y)))
    return mag, np.sign(x - y)


def _f_ell_terms(eps: float, k: int, eps_g: float, ell: int, t: float) -> np.ndarray:
    """The ell+1 signed terms of ``f_ell``, each formed in log space."""
    _check_ell_t(eps, k, ell, t)
    i = np.arange(ell + 1)
    mag, sign = _signed_log_diff(k * t - i * eps, eps_g)
    with np.errstate(divide="ignore", over="ignore"):
        log_w = _log_weights(_log_choose(k, i), i, k - i, *_stable_logs(eps, t))
        return sign * np.exp(log_w + mag)


def _finite_sum(terms, eps_g: float) -> float:
    """The exactly rounded sum of ``terms``; ``ValueError`` where it is not a finite float."""
    try:
        value = math.fsum(np.atleast_1d(terms).tolist())
    except (OverflowError, ValueError):   # a finite sum past the floats, or inf - inf
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the value at eps_g={eps_g!r} is past the float range")
    return value


def f_ell(eps: float, k: int, eps_g: float, ell: int, t: float) -> float:
    """Partial sum sum_{i<=ell} C(k,i) p^(k-i) (1-p)^i (e^(kt - i eps) - e^(eps_g)).

    Unlike ``delta_hom_fixed_t`` the brackets are kept signed, which makes
    the sum differentiable in t.  Each term is formed in log space, so large
    k neither overflows the binomial nor underflows the powers; the signed
    sum is exactly rounded, and refused where it leaves the floats (eps_g past ~709).
    """
    return _finite_sum(_f_ell_terms(eps, k, eps_g, ell, t), eps_g)


def f_ell_magnitude(eps: float, k: int, eps_g: float, ell: int, t: float) -> float:
    """Sum of absolute term magnitudes of ``f_ell``.

    The signed sum can cancel, so its evaluation noise scales with this
    quantity (roughly 1e-14 of it) rather than with the value itself;
    derivative oracles use it as a resolution floor.
    """
    return _finite_sum(np.abs(_f_ell_terms(eps, k, eps_g, ell, t)), eps_g)


def df_ell_dt(eps: float, k: int, eps_g: float, ell: int, t: float) -> float:
    """Closed-form t-derivative of ``f_ell``:

        (k - ell) C(k, ell) p^(k-1-ell) (1-p)^ell
        * (e^(eps_g - t) - e^(kt - (ell+1) eps)) / (1 - e^(-eps))

    formed in log space like ``f_ell``, and refused like it past the floats.
    """
    _check_ell_t(eps, k, ell, t)
    if ell == k:
        return 0.0
    mag, sign = _signed_log_diff(eps_g - t, k * t - (ell + 1) * eps)
    with np.errstate(divide="ignore", over="ignore"):
        log_w = _log_weights(_log_choose(k, ell), ell, k - 1 - ell, *_stable_logs(eps, t))
        return _finite_sum(sign * (k - ell) * np.exp(log_w + mag - math.log(-math.expm1(-eps))),
                           eps_g)


# ---------------------------------------------------------------------------
# Heterogeneous fixed-t value and DP baselines (one grouped sum)
# ---------------------------------------------------------------------------


def _grouped_sum(groups: dict[tuple[float, float], int], eps_g: float) -> float:
    """delta(t, eps_g) for per-round ranges eps_i and offsets t_i, over counts.

    ``groups`` maps each distinct (eps_j, t_j), in order of first appearance, to the
    count n_j of its rounds; the callers form it.  A term depends only on how many
    i_j of its n_j rounds take the (1 - p) side: weight
    prod_j C(n_j, i_j) p_j^(n_j - i_j) (1 - p_j)^i_j, bracket e^(sum t - sum_j i_j eps_j)
    - e^(eps_g).  Term r has i_j = (r // stride_j) % (n_j + 1), so distinct pairs keep
    the subsets' mask order.  The first groups that fit in ``_GROUP_BLOCK_ELEMS`` terms are
    laid out once by outer sums (dividing every term's index is 3x slower at 9 groups and
    15x at 20); each block adds the other groups' shares for a run of their counts.
    """
    _validate_budget(eps_g)
    sizes = [n + 1 for n in groups.values()]
    total = math.prod(sizes)
    if total > 1 << SUBSET_CAP:
        raise CapError(f"grouped sum over {total} terms refused (cap 2^{SUBSET_CAP})")
    n = np.array(list(groups.values()))[:, None]      # one row per group
    i = np.minimum(np.arange(max(sizes)), n)          # counts 0..n_j, the last repeated
    g_eps, g_t = np.array(list(groups)).T[:, :, None]
    # per (group, count): the log weight and the ranges taken off sum t
    with np.errstate(divide="ignore"):   # log p or log(1 - p) of 0 at an offset on an end
        table = np.array([_log_weights(_log_choose(n, i), i, n - i,
                                       *_stable_logs(g_eps, g_t)), i * g_eps])
    fast, inner = 0, np.zeros((2, 1))
    while fast < len(sizes) and inner.shape[1] * sizes[fast] <= _GROUP_BLOCK_ELEMS:
        inner = (table[:, fast, :sizes[fast], None] + inner[:, None]).reshape(2, -1)
        fast += 1
    n_outer, step = total // inner.shape[1], _GROUP_BLOCK_ELEMS // inner.shape[1]
    # one group: exactly k t.  Not math.fsum: it moved 8 of the 9 golden heterogeneous
    # entries it changed farther from their 50-digit values
    tsum = sum(n_j * t_j for (_, t_j), n_j in groups.items())
    parts = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, n_outer, step):
            q = np.arange(lo, min(lo + step, n_outer))
            outer, stride = np.zeros((2, q.size)), 1
            for j in range(fast, len(sizes)):
                outer += table[:, j, q // stride % sizes[j]]
                stride *= sizes[j]
            log_w, drop = (inner[:, None] + outer[:, :, None]).reshape(2, -1)
            parts.append(np.exp(_log_bracketed(log_w, tsum - drop, eps_g)).sum())
    return min(math.fsum(parts), 1.0)


def delta_het_fixed_t(eps_list: Sequence[float], eps_g: float,
                      t_list: Sequence[float]) -> float:
    """Fixed-offset additive loss for heterogeneous parameters (grouped sum)."""
    eps = _validate_eps_list(eps_list)
    t = np.asarray(t_list, dtype=float)
    if t.shape != eps.shape:
        raise ValueError("t_list must match eps_list in length")
    if not ((t >= 0) & (t <= eps)).all():
        raise ValueError("each t must lie in [0, eps_i]")
    return _grouped_sum(Counter(zip(eps.tolist(), t.tolist())), eps_g)


def dp_optcomp_hom(eps_dp: float, k: int, eps_g: float) -> float:
    """Optimal composition of k eps_dp-DP mechanisms.

    A fixed offset at the interval midpoint is exactly the DP worst case, so
    this is ``delta_hom_fixed_t`` with range 2*eps_dp and t = eps_dp.
    Refused (``CapError``) where 2*eps_dp is past the float range.
    """
    if 2.0 * eps_dp == math.inf and eps_dp < math.inf:
        raise CapError(f"the range 2 eps at eps={eps_dp!r} is past the float range")
    return delta_hom_fixed_t(2.0 * eps_dp, k, eps_g, eps_dp)


def dp_optcomp_het(eps_list: Sequence[float], eps_g: float) -> float:
    """Optimal composition of eps_i-DP mechanisms: as in ``dp_optcomp_hom``,
    the fixed-offset loss at ranges 2*eps_i and midpoint offsets eps_i, one
    group per distinct eps_i of ``Rounds.of(eps_list)``, and refused like it."""
    rounds = Rounds.of(eps_list)
    if not rounds.values or min(rounds.values) == 0.0:   # a halved subnormal eps is 0
        raise ValueError("all eps must be positive")
    if 2.0 * max(rounds.values) == math.inf:
        raise CapError(f"the range 2 eps at eps={max(rounds.values)!r} is past the float range")
    return _grouped_sum({(2.0 * e, e): n for e, n in rounds.groups}, eps_g)


def nonadaptive_recursion_check(eps: float, k: int, eps_g: float, t: float) -> tuple[float, float]:
    """Both sides of the one-step recursion

        delta_k(t, eps_g) = q_t delta_{k-1}(t, eps_g - t)
                            + (1 - q_t) delta_{k-1}(t, eps_g + eps - t)

    with base case max(1 - e^(eps_g), 0).  Used by validation suites.
    """
    lhs = delta_hom_fixed_t(eps, k, eps_g, t)
    q = float(q_of_t(eps, t))
    if k == 1:
        d0 = _endpoint_value(eps_g - t)
        d1 = _endpoint_value(eps_g + eps - t)
    else:
        d0 = delta_hom_fixed_t(eps, k - 1, eps_g - t, t)
        d1 = delta_hom_fixed_t(eps, k - 1, eps_g + eps - t, t)
    return lhs, q * d0 + (1.0 - q) * d1
