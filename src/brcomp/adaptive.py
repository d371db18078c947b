"""Adaptive-optimal composition: certified lower bounds and gap certificates.

When the offset t of each GRR round may depend on earlier outcomes, the
optimal loss satisfies the recursion

    delta_k(x) = sup_t [ q_t delta_{k-1}(x - t) + (1 - q_t) delta_{k-1}(x + eps - t) ]

with base case max(1 - e^x, 0).  Exact evaluation is intractable, but any
concrete outcome-indexed choice of offsets (a strategy tree) is feasible,
so its exactly evaluated loss is a rigorous LOWER bound on the adaptive
optimum.

``delta_adaptive_lb`` is one pipeline: candidate trees, then per-node
golden-section coordinate ascent, then the first tree of greatest exactly
evaluated loss, whose loss is the reported value.  The candidates live as
per-depth offset arrays, one row per tree in the evaluator's order
(``_eval_order``), from their construction through the ascent; only the
winner becomes a ``StrategyTree``, the public answer type, so each answer
builds one tree and evaluates it once.  For equal per-round eps
the candidates are the argmax tree of a grid dynamic program and the
interior candidate constant trees.  With offsets on a uniform grid of
``t_grid`` points per round, every reachable budget lies on an integer
lattice ``eps_g + m * eps/(t_grid - 1)``, so the grid recursion collapses
to an exact dynamic program over lattice offsets (budgets are indexed by
the integer m).  For unequal eps the candidates are nine constant trees.

The ascent sweeps the depths in order.  At each depth one lockstep golden
search (``optim.golden_max_batch``) refines every node of that depth in
every candidate tree.  This equals refining each tree alone in preorder,
bit for bit: a node's objective depends only on its ancestors' offsets
(through its budget) and on its own subtree, both orders refine every
ancestor before a node and no descendant, and nodes of one depth have
disjoint subtrees.  One level-wise evaluator, ``_level_values``, serves
the searches and ``StrategyTree.value``.  A search hands it candidate
offsets stacked on a leading axis, which broadcast against the budgets and
the deeper levels: one opening call takes the four opening points and the
current offsets, and each later call a step's new point with both points
the next step can make, so a search of n steps makes 1 + floor(n/2) calls.

Closed-form edge regions: for eps_g beyond (k-1)*eps in either direction
the recursion collapses to an equal-offset product form (log q_t and
log(1 - q_t) are both concave in t) that is stationary at a nonadaptive
candidate offset, so adapting gains nothing and the value is a closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapError
from .grr import q_of_t
from .nonadaptive import (_endpoint_value, _validate_budget, _validate_eps_list,
                          _validate_hom, candidate_points, delta_opt_nonadaptive_hom)
from .optim import golden_max_batch

STRATEGY_DEPTH_CAP = 20
GAP_STRICT_TOL = 1e-7   # certified gap must exceed this to be reported strict
_MAX_SWEEPS = 4
_DP_BLOCK = 16  # grid offsets per pass of the lattice DP (its arrays hold this many rows)


@dataclass(frozen=True)
class AdaptiveSolverConfig:
    t_grid: int = 64          # grid points per round, endpoints included
    refine_iters: int = 20    # golden-section iterations per node refinement
    depth_cap: int = 6        # largest k accepted by the exact solver

    def __post_init__(self):
        if self.t_grid < 2:
            raise ValueError("t_grid must be at least 2")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be nonnegative")
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be positive")


@dataclass(frozen=True)
class StrategyTree:
    """Outcome-indexed offsets for a k-round composition.

    Heap layout: the root is node 0; after outcome y in {0, 1} at node i,
    play continues at node 2i + 1 (y = 1, the q-branch) or 2i + 2 (y = 0).
    ``t_nodes`` has 2^k - 1 entries.
    """

    eps_list: tuple[float, ...]
    t_nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        object.__setattr__(self, "eps_list", eps)
        t = np.asarray(self.t_nodes, dtype=float).copy()
        object.__setattr__(self, "t_nodes", t)
        k = len(eps)
        if k > STRATEGY_DEPTH_CAP:
            raise CapError(f"strategy depth {k} exceeds cap {STRATEGY_DEPTH_CAP}")
        if not all(0.0 < e < math.inf for e in eps):
            raise ValueError("all eps must be positive and finite")
        if t.shape != ((1 << k) - 1,):
            raise ValueError(f"t_nodes must have length 2^{k} - 1")
        for depth in range(k):
            lo, hi = (1 << depth) - 1, (1 << (depth + 1)) - 1
            seg = t[lo:hi]
            if not ((seg >= 0) & (seg <= eps[depth])).all():
                raise ValueError(f"offsets at depth {depth} must lie in [0, {eps[depth]}]")

    @property
    def depth(self) -> int:
        return len(self.eps_list)

    @classmethod
    def constant(cls, eps_list: Sequence[float], t_list: Sequence[float]) -> "StrategyTree":
        """Nonadaptive tree: the same offset at every node of a given depth."""
        eps = [float(e) for e in eps_list]
        k = len(eps)
        t_nodes = np.empty((1 << k) - 1)
        for depth, t in enumerate(t_list):
            t_nodes[(1 << depth) - 1:(1 << (depth + 1)) - 1] = t
        return cls(tuple(eps), t_nodes)

    def t_for_prefix(self, prefix: Sequence[int]) -> float:
        """The offset played after the outcomes ``prefix``, each 0 or 1, of
        fewer than ``depth`` rounds."""
        if len(prefix) >= self.depth:
            raise ValueError(f"a prefix of a depth-{self.depth} tree has at most "
                             f"{self.depth - 1} outcomes, got {len(prefix)}")
        node = 0
        for y in prefix:
            if y not in (0, 1):
                raise ValueError(f"an outcome must be 0 or 1, got {y!r}")
            node = 2 * node + 1 + (1 - int(y))
        return float(self.t_nodes[node])

    def _levels(self) -> list[np.ndarray]:
        """The offsets of each depth d as a (1, 2^d) array, in the
        evaluator's order (``_eval_order``)."""
        return [self.t_nodes[(1 << d) - 1:(1 << (d + 1)) - 1][_eval_order(d)][None, :]
                for d in range(self.depth)]

    def value(self, eps_g: float) -> float:
        """Exact loss of this strategy at budget eps_g (sums 2^k outcome paths)."""
        levels = [_level(e, tl) for e, tl in zip(self.eps_list, self._levels())]
        return float(_level_values(np.full((1, 1), float(eps_g)), levels)[0, 0])


@functools.lru_cache(maxsize=None)
def _eval_order(depth: int) -> np.ndarray:
    """The heap positions, within their depth, of the nodes of ``depth`` in
    the evaluator's order: there the children of the node at position i of
    n sit at i (q-branch) and n + i, so that each level is two contiguous
    halves.  The order is the bit reversal of the position, its own inverse."""
    order = np.zeros(1, dtype=np.intp)
    for _ in range(depth):
        order = np.concatenate([2 * order, 2 * order + 1])
    order.flags.writeable = False   # one array serves every caller
    return order


def _level(eps: float, t: np.ndarray, branch: np.ndarray | None = None) -> tuple:
    """One level of offsets ``t`` as ``_level_values`` reads it: (t, q, 1 - q,
    branch), where ``branch`` is the column (0.0, eps)."""
    q = q_of_t(eps, t)
    return t, q, 1.0 - q, np.array([[0.0], [eps]]) if branch is None else branch


def _children(x: np.ndarray, t: np.ndarray, branch: np.ndarray) -> np.ndarray:
    """Budgets one level down, for n nodes on the last axis: node i's
    q-branch child i gets x - t, its other child n + i gets (x + eps) - t,
    where ``branch`` is the column (0.0, eps).  ``x`` and ``t`` broadcast.

    The q-branch is formed as (x + 0.0) - t, which differs from x - t only
    in the sign of a zero budget, and every later step and the endpoint
    treat both zeros alike."""
    y = (x[..., None, :] + branch) - t[..., None, :]
    return y.reshape(y.shape[:-2] + (-1,))


def _endpoint_values(x: np.ndarray) -> np.ndarray:
    """``_endpoint_value`` elementwise, through math.expm1.  np.expm1 gives
    the same bits at every array length and offset, but not the same bits
    as math.expm1 (they differ on about a tenth of inputs in [-3, 0]), and
    the golden outputs and the recursive oracles are pinned to math.expm1."""
    out = np.zeros(x.shape)
    neg = x < 0.0
    xn = x[neg].tolist()
    out[neg] = -np.fromiter(map(math.expm1, xn), float, len(xn))
    return out


def _level_values(x: np.ndarray, levels: Sequence[tuple]) -> np.ndarray:
    """Exact loss of every subtree whose root budgets are ``x``.

    ``levels[j]`` is the j-th level below the roots as ``_level`` forms it,
    in the order ``_children`` makes, with 2^j nodes per root on the last
    axis.  All arrays broadcast on the leading axes, so B trees, or P
    candidate offsets of the top level for B trees, are evaluated at once.
    Each node's value is ``q v1 + (1 - q) v0`` over its children's values,
    summed in the same order as the recursion over outcome paths, so a
    tree's value does not depend on what shares the call.
    """
    for t, _, _, branch in levels:
        x = _children(x, t, branch)
    v = _endpoint_values(x)
    for _, q, r, _ in reversed(levels):
        n = q.shape[-1]
        v = q * v[..., :n] + r * v[..., n:]
    return v


# ---------------------------------------------------------------------------
# Homogeneous lattice dynamic program
# ---------------------------------------------------------------------------


def _lattice_dp(eps: float, k: int, eps_g: float, t_grid: int):
    """Grid-offset recursion on the exact integer lattice.

    Returns (value at eps_g, per-level argmax tables).  Budgets at depth d
    are eps_g + m*h with integer m, h = eps/(t_grid - 1); offsets t = j*h.
    """
    h = eps / (t_grid - 1)
    span = k * (t_grid - 1)
    v = _endpoint_values(eps_g + np.arange(-span, span + 1) * h)
    q = np.asarray(q_of_t(eps, np.arange(t_grid) * h), dtype=float)
    argmax_tables = []
    for remaining in range(1, k + 1):
        size = 2 * (k - remaining) * (t_grid - 1) + 1   # budgets m = -need..need
        # row r of win is v[r:r + size]: offset j reads the q-branch (budget - t)
        # from row (t_grid - 1) - j and the other branch (budget + eps - t)
        # from t_grid - 1 rows further
        win = np.lib.stride_tricks.sliding_window_view(v, size)
        best = np.full(size, -np.inf)
        best_j = np.zeros(size, dtype=np.int64)
        cols = np.arange(size)
        # offsets in blocks of _DP_BLOCK rows; argmax and the strict > keep
        # the smallest j among equal values
        for j0 in range(0, t_grid, _DP_BLOCK):
            j = np.arange(j0, min(j0 + _DP_BLOCK, t_grid))
            cand = win[(t_grid - 1) - j] * q[j, None]
            cand += win[2 * (t_grid - 1) - j] * (1.0 - q[j, None])
            top = cand.argmax(axis=0)
            cand = cand[top, cols]
            upd = cand > best
            best[upd] = cand[upd]
            best_j[upd] = j0 + top[upd]
        argmax_tables.append(best_j)
        v = best
    return float(v[0]), argmax_tables, h


def _refine(t: list[np.ndarray], eps_list: Sequence[float], eps_g: float,
            brackets: Sequence[Sequence[float]], iters: int) -> np.ndarray:
    """Per-node golden-section coordinate ascent on candidate trees, one
    pass per bracket; returns each tree's exactly evaluated loss, which no
    pass decreases.

    ``t[d]`` holds the offsets of depth d, one row per tree in the
    evaluator's order (``_eval_order``), and is refined in place.  A sweep
    runs one lockstep golden search per depth, over all nodes of that depth
    in all trees still improving (see the module docstring for why this
    equals a preorder sweep of each tree alone).  Within a pass a tree stops
    once a sweep gains at most 1e-15, and keeps the offsets of that sweep.
    """
    x0 = np.full((len(t[0]), 1), float(eps_g))
    value = _level_values(x0, [_level(e, tl) for e, tl in zip(eps_list, t)])[:, 0]
    for bracket in brackets:
        active = np.arange(len(value))
        for _ in range(_MAX_SWEEPS):
            levels = [_level(e, tl[active]) for e, tl in zip(eps_list, t)]
            x = x0[active]
            for d, eps in enumerate(eps_list):
                branch, below = levels[d][3], levels[d + 1:]

                def obj(s):
                    return _level_values(x, [_level(eps, s, branch)] + below)

                t0 = levels[d][0]
                lo = np.maximum(t0 - bracket[d], 0.0)
                hi = np.minimum(t0 + bracket[d], eps)
                t_best, v_best, v0 = golden_max_batch(obj, lo, hi, iters, t0)
                np.copyto(t_best, t0, where=~(v_best > v0))
                levels[d] = _level(eps, t_best, branch)
                x = _children(x, t_best, branch)
            new_value = _level_values(x0[active], levels)[:, 0]
            for tl, level in zip(t, levels):
                tl[active] = level[0]
            improving = ~(new_value <= value[active] + 1e-15)
            value[active] = new_value
            active = active[improving]
            if active.size == 0:
                break
    return value


@dataclass(frozen=True)
class AdaptiveLowerBound:
    delta: float
    strategy: StrategyTree
    t_grid: int
    refine_iters: int


def _candidates(eps: list[float], eps_g: float, t_grid: int) -> tuple[list[np.ndarray], list]:
    """``delta_adaptive_lb``'s candidate trees as per-depth offset arrays, one
    row per tree in the evaluator's order, and the brackets of their
    refinement passes."""
    k = len(eps)
    if eps.count(eps[0]) == k:
        _, tables, h = _lattice_dp(eps[0], k, eps_g, t_grid)
        # the nonadaptive optimum is itself a feasible strategy: seed every
        # interior candidate offset as a constant tree so the bound can never
        # land below it
        const = np.array([c.t for c in candidate_points(eps[0], k, eps_g)
                          if 0.0 < c.t < eps[0]]).reshape(-1, 1)
        # play the argmax tables level by level: m is the budget index
        # (budget eps_g + m h) of each node of a depth, in the evaluator's order
        t, m = [], np.zeros(1, dtype=np.int64)
        for d in range(k):
            j = tables[k - d - 1][m + d * (t_grid - 1)]
            # (t_grid - 1) * h can round above eps
            t.append(np.concatenate([np.minimum(j * h, eps[0])[None], const.repeat(1 << d, 1)]))
            m = np.concatenate([m - j, m - j + (t_grid - 1)])
        brackets = [[h] * k]
    else:
        frac = np.linspace(0.1, 0.9, 9)[:, None]
        t = [(frac * e).repeat(1 << d, 1) for d, e in enumerate(eps)]
        brackets = [eps, [e / t_grid for e in eps]]
    return t, brackets


def delta_adaptive_lb(eps_list: Sequence[float], eps_g: float,
                      cfg: AdaptiveSolverConfig = AdaptiveSolverConfig()) -> AdaptiveLowerBound:
    """Certified lower bound on the adaptive-optimal loss.

    The value is the exactly evaluated loss of the returned strategy, a
    feasible one, so it never exceeds the true adaptive optimum.  The
    candidate trees are per-depth offset arrays, one row per tree, refined
    by ``_refine``; the strategy is the one ``StrategyTree`` built from the
    first row of greatest loss.  For equal eps the candidates are the
    lattice-DP argmax tree and the interior candidate constant trees,
    refined within one grid step.  For unequal eps (no common lattice) they
    are nine constant trees, refined within each round's eps and then
    within eps / t_grid; this certifies a bound but need not approach the
    optimum.  Refused (``CapError``) where a budget it forms is past the
    float range.
    """
    _validate_budget(eps_g)
    k = len(eps_list)
    if k == 0:
        return AdaptiveLowerBound(_endpoint_value(eps_g), StrategyTree((), np.empty(0)),
                                  cfg.t_grid, cfg.refine_iters)
    cap = min(cfg.depth_cap, STRATEGY_DEPTH_CAP)
    if k > cap:
        raise CapError(f"k={k} exceeds the adaptive solver depth cap {cap}")
    eps = _validate_eps_list(eps_list).tolist()
    # a budget past the float range (eps_g and the summed eps near the float
    # maximum) would be inf, and a loss formed from it untrue
    try:
        with np.errstate(over="raise"):
            t, brackets = _candidates(eps, eps_g, cfg.t_grid)
            value = _refine(t, eps, eps_g, brackets if cfg.refine_iters > 0 else [],
                            cfg.refine_iters)
    except FloatingPointError:
        raise CapError("a budget of the adaptive solver is past the float range") from None
    best = int(np.argmax(value))
    tree = StrategyTree(tuple(eps), np.concatenate([tl[best][_eval_order(d)]
                                                    for d, tl in enumerate(t)]))
    return AdaptiveLowerBound(tree.value(eps_g), tree, cfg.t_grid, cfg.refine_iters)


# ---------------------------------------------------------------------------
# Closed-form edge regions
# ---------------------------------------------------------------------------


def _exact_ratio(eps: float, k: int, eps_g: float, a: int, b: int) -> float:
    """(a eps_g + b eps)/(k+1), correctly rounded: eps_g and b eps can nearly
    cancel, so the sum is formed exactly from the floats' integer ratios and
    rounded once, by the integer division."""
    ng, dg = float(eps_g).as_integer_ratio()
    ne, de = float(eps).as_integer_ratio()
    return (a * ng * de + b * ne * dg) / (dg * de * (k + 1))


def _edge_offset(eps: float, k: int, eps_g: float, high: bool) -> float | None:
    """Check an edge query and return its stationary offset (eps_g + ell eps)/(k+1),
    ell = 1 above and k below; None where it leaves (0, eps), which the
    1e-12 slack admits, and the value is the endpoint value."""
    _validate_hom(eps, k)
    _validate_budget(eps_g)
    if (eps_g if high else -eps_g) < (k - 1) * eps - 1e-12:
        rel = f">= (k-1)*eps = {(k - 1) * eps}" if high else f"<= -(k-1)*eps = {-(k - 1) * eps}"
        raise ValueError(f"edge form requires eps_g {rel}")
    if math.isinf(eps_g):
        return None
    t = _exact_ratio(eps, k, eps_g, 1, 1 if high else k)
    return t if 0.0 < t < eps else None


def adaptive_edge_high(eps: float, k: int, eps_g: float) -> float:
    """Adaptive optimum for eps_g >= (k-1)*eps:

        sup over offsets of (prod_i q_{t_i}) * max(1 - e^(eps_g - sum t_i), 0).

    log q_t is concave in t, so equal offsets are best for a fixed sum, and
    the equal-offset form is stationary at t_0 = (eps_g + eps)/(k+1).  With
    u = t_0 - eps, q_{t_0} = expm1(u)/expm1(-eps) and the bracket is 1 - e^u.
    """
    if _edge_offset(eps, k, eps_g, high=True) is None:
        return _endpoint_value(eps_g)
    u = _exact_ratio(eps, k, eps_g, 1, -k)
    return (math.expm1(u) / math.expm1(-eps)) ** k * -math.expm1(u)


def adaptive_edge_low(eps: float, k: int, eps_g: float) -> float:
    """Adaptive optimum for eps_g <= -(k-1)*eps:

        1 - e^(eps_g) + sup over offsets of
            (prod_i (1 - q_{t_i})) * (e^(eps_g + k eps - sum t_i) - 1),

    with the same equal-offset reduction (log(1 - q_t) is concave in t),
    stationary at t = (eps_g + k eps)/(k+1), where 1 - q_t =
    e^(t - eps) expm1(-t)/expm1(-eps) and the bracket is e^t - 1.
    """
    t = _edge_offset(eps, k, eps_g, high=False)
    if t is None:
        return _endpoint_value(eps_g)
    log_scale = _exact_ratio(eps, k, eps_g, k, -k)   # k (t - eps)
    return (-math.expm1(eps_g)
            + math.exp(log_scale) * (math.expm1(-t) / math.expm1(-eps)) ** k * math.expm1(t))


# ---------------------------------------------------------------------------
# Gap certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapCertificate:
    delta_nonadaptive: float
    t_nonadaptive: float
    delta_adaptive_lb: float
    gap: float
    strict: bool
    t_grid: int
    refine_iters: int

    def as_dict(self) -> dict:
        return asdict(self)


def gap_certificate(eps: float, k: int, eps_g: float,
                    cfg: AdaptiveSolverConfig = AdaptiveSolverConfig()) -> GapCertificate:
    """Compare the exact nonadaptive optimum against the adaptive lower bound.

    The nonadaptive value is exact and the adaptive value is the loss of a
    feasible strategy, so ``strict=True`` (lower bound exceeding the exact
    nonadaptive optimum by more than the certification tolerance) is a
    rigorous certificate that adapting to outcomes loses strictly more.
    """
    if k < 2:
        raise ValueError("gap certification needs k >= 2")
    non = delta_opt_nonadaptive_hom(eps, k, eps_g)
    lb = delta_adaptive_lb([eps] * k, eps_g, cfg)
    gap = lb.delta - non.delta
    return GapCertificate(non.delta, non.t, lb.delta, gap, gap > GAP_STRICT_TOL,
                          cfg.t_grid, cfg.refine_iters)
