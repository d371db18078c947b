"""Adaptive-optimal composition: certified lower bounds and gap certificates.

When the offset t of each GRR round may depend on earlier outcomes, the
optimal loss satisfies the recursion

    delta_k(x) = sup_t [ q_t delta_{k-1}(x - t) + (1 - q_t) delta_{k-1}(x + eps - t) ]

with base case max(1 - e^x, 0).  Exact evaluation is intractable, but any
concrete outcome-indexed choice of offsets (a strategy tree) is feasible,
so its exactly evaluated loss is a rigorous LOWER bound on the adaptive
optimum.

The solver restricts offsets to a uniform grid of ``t_grid`` points per
round.  For equal per-round eps, every reachable budget then lies on an
integer lattice ``eps_g + m * eps/(t_grid - 1)``, so the grid recursion
collapses to an exact dynamic program over lattice offsets (identical
values, no quantization: budgets are indexed by the integer m).  The
realized argmax tree is then tightened by per-node golden-section
coordinate ascent, which can only increase the certified value.

Closed-form edge regions: for eps_g beyond (k-1)*eps in either direction
the recursion collapses to a product form whose supremum is attained at
equal offsets (log q_t and log(1 - q_t) are both concave in t), leaving a
one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapError
from .grr import q_of_t
from .nonadaptive import (_endpoint_value, _validate_hom, candidate_points,
                          delta_opt_nonadaptive_hom)
from .optim import golden_max

STRATEGY_DEPTH_CAP = 20
GAP_STRICT_TOL = 1e-7   # certified gap must exceed this to be reported strict
_MAX_SWEEPS = 4


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
        if any(e <= 0 for e in eps):
            raise ValueError("all eps must be positive")
        if t.shape != ((1 << k) - 1,):
            raise ValueError(f"t_nodes must have length 2^{k} - 1")
        for depth in range(k):
            lo, hi = (1 << depth) - 1, (1 << (depth + 1)) - 1
            seg = t[lo:hi]
            if ((seg < 0) | (seg > eps[depth])).any():
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
        node = 0
        for y in prefix:
            node = 2 * node + 1 + (1 - int(y))
        return float(self.t_nodes[node])

    def value(self, eps_g: float) -> float:
        """Exact loss of this strategy at budget eps_g (sums 2^k outcome paths)."""
        return _subtree_value(self.t_nodes, self.eps_list, 0, 0, eps_g)


def _subtree_value(t_nodes: np.ndarray, eps_list: Sequence[float],
                   node: int, depth: int, x: float) -> float:
    if depth == len(eps_list):
        return _endpoint_value(x)
    eps = eps_list[depth]
    t = float(t_nodes[node])
    q = float(q_of_t(eps, t))
    v1 = _subtree_value(t_nodes, eps_list, 2 * node + 1, depth + 1, x - t)
    v0 = _subtree_value(t_nodes, eps_list, 2 * node + 2, depth + 1, x + eps - t)
    return q * v1 + (1.0 - q) * v0


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
    v = np.array([_endpoint_value(eps_g + m * h) for m in range(-span, span + 1)])
    q = np.asarray(q_of_t(eps, np.arange(t_grid) * h), dtype=float)
    argmax_tables = []
    for remaining in range(1, k + 1):
        need = (k - remaining) * (t_grid - 1)
        prev_span = (k - remaining + 1) * (t_grid - 1)
        mm = np.arange(-need, need + 1)
        best = np.full(mm.shape, -np.inf)
        best_j = np.zeros(mm.shape, dtype=np.int64)
        for j in range(t_grid):
            i1 = mm - j + prev_span                 # q-branch: budget - t
            i0 = i1 + (t_grid - 1)                  # other branch: budget + eps - t
            cand = q[j] * v[i1] + (1.0 - q[j]) * v[i0]
            upd = cand > best
            best[upd] = cand[upd]
            best_j[upd] = j
        argmax_tables.append(best_j)
        v = best
    return float(v[0]), argmax_tables, h


def _tree_from_dp(eps: float, k: int, argmax_tables, h: float, t_grid: int) -> StrategyTree:
    t_nodes = np.zeros((1 << k) - 1)

    def walk(node: int, depth: int, m: int) -> None:
        remaining = k - depth
        if remaining == 0:
            return
        table = argmax_tables[remaining - 1]
        j = int(table[m + depth * (t_grid - 1)])
        t_nodes[node] = min(j * h, eps)  # (t_grid - 1) * h can round above eps
        walk(2 * node + 1, depth + 1, m - j)
        walk(2 * node + 2, depth + 1, m - j + (t_grid - 1))

    walk(0, 0, 0)
    return StrategyTree((eps,) * k, t_nodes)


def _refine_tree(tree: StrategyTree, eps_g: float, bracket: Sequence[float],
                 iters: int) -> StrategyTree:
    """Per-node golden-section coordinate ascent; value never decreases."""
    t_nodes = tree.t_nodes.copy()
    eps_list = tree.eps_list
    k = len(eps_list)

    def ascend_once() -> float:
        def walk(node: int, depth: int, x: float) -> None:
            if depth == k:
                return
            eps = eps_list[depth]
            left, right = 2 * node + 1, 2 * node + 2

            def obj(t):
                q = float(q_of_t(eps, t))
                return (q * _subtree_value(t_nodes, eps_list, left, depth + 1, x - t)
                        + (1.0 - q) * _subtree_value(t_nodes, eps_list, right, depth + 1,
                                                     x + eps - t))

            t0 = float(t_nodes[node])
            lo = max(0.0, t0 - bracket[depth])
            hi = min(eps, t0 + bracket[depth])
            t_best, v_best = golden_max(obj, lo, hi, iters)
            if v_best > obj(t0):
                t_nodes[node] = t_best
            t = float(t_nodes[node])
            walk(left, depth + 1, x - t)
            walk(right, depth + 1, x + eps - t)

        walk(0, 0, eps_g)
        return _subtree_value(t_nodes, eps_list, 0, 0, eps_g)

    value = tree.value(eps_g)
    for _ in range(_MAX_SWEEPS):
        new_value = ascend_once()
        if new_value <= value + 1e-15:
            break
        value = new_value
    return StrategyTree(eps_list, t_nodes)


@dataclass(frozen=True)
class AdaptiveLowerBound:
    delta: float
    strategy: StrategyTree
    t_grid: int
    refine_iters: int


def delta_adaptive_lb(eps_list: Sequence[float], eps_g: float,
                      cfg: AdaptiveSolverConfig = AdaptiveSolverConfig()) -> AdaptiveLowerBound:
    """Certified lower bound on the adaptive-optimal loss.

    Every value returned is the exactly evaluated loss of a concrete
    feasible strategy, so it never exceeds the true adaptive optimum.  For
    equal per-round eps the strategy comes from the exact lattice dynamic
    program over the offset grid, then coordinate refinement; for unequal
    eps (where no common lattice exists) it comes from multistart
    coordinate ascent on constant-offset trees, which certifies a bound but
    need not approach the optimum.
    """
    eps = [float(e) for e in eps_list]
    k = len(eps)
    if k == 0:
        return AdaptiveLowerBound(_endpoint_value(eps_g), StrategyTree((), np.empty(0)),
                                  cfg.t_grid, cfg.refine_iters)
    if k > cfg.depth_cap:
        raise CapError(f"k={k} exceeds the adaptive solver depth cap {cfg.depth_cap}")
    if any(e <= 0 for e in eps):
        raise ValueError("all eps must be positive")

    homogeneous = all(e == eps[0] for e in eps)
    if homogeneous:
        grid_value, tables, h = _lattice_dp(eps[0], k, eps_g, cfg.t_grid)
        tree = _tree_from_dp(eps[0], k, tables, h, cfg.t_grid)
        if cfg.refine_iters > 0:
            refined = _refine_tree(tree, eps_g, [h] * k, cfg.refine_iters)
            if refined.value(eps_g) > grid_value:
                tree = refined
        best_value = max(grid_value, tree.value(eps_g))
        # the nonadaptive optimum is itself a feasible strategy: seed every
        # interior candidate offset as a constant tree so the bound can never
        # land below it
        for cand in candidate_points(eps[0], k, eps_g):
            if not 0.0 < cand.t < eps[0]:
                continue
            const = StrategyTree.constant(eps, [cand.t] * k)
            if cfg.refine_iters > 0:
                const = _refine_tree(const, eps_g, [h] * k, cfg.refine_iters)
            v = const.value(eps_g)
            if v > best_value:
                best_value, tree = v, const
        return AdaptiveLowerBound(best_value, tree, cfg.t_grid, cfg.refine_iters)

    best_tree = None
    best_value = -1.0
    for frac in np.linspace(0.1, 0.9, 9):
        tree = StrategyTree.constant(eps, [frac * e for e in eps])
        if cfg.refine_iters > 0:
            tree = _refine_tree(tree, eps_g, [e for e in eps], cfg.refine_iters)
            tree = _refine_tree(tree, eps_g, [e / cfg.t_grid for e in eps],
                                cfg.refine_iters)
        v = tree.value(eps_g)
        if v > best_value:
            best_value, best_tree = v, tree
    return AdaptiveLowerBound(best_value, best_tree, cfg.t_grid, cfg.refine_iters)


# ---------------------------------------------------------------------------
# Closed-form edge regions
# ---------------------------------------------------------------------------


def adaptive_edge_high(eps: float, k: int, eps_g: float) -> float:
    """Adaptive optimum for eps_g >= (k-1)*eps:

        sup over offsets of (prod_i q_{t_i}) * max(1 - e^(eps_g - sum t_i), 0),

    reduced to equal offsets t_i = s/k (log q_t is concave in t, so the
    product is maximized at equal offsets for a fixed sum) and solved by a
    one-dimensional golden section over s.
    """
    _validate_hom(eps, k)
    if eps_g < (k - 1) * eps - 1e-12:
        raise ValueError(f"edge form requires eps_g >= (k-1)*eps = {(k - 1) * eps}")
    if eps_g >= k * eps:
        return 0.0

    def obj(s):
        if s <= eps_g:
            return 0.0
        logq = k * math.log(float(q_of_t(eps, s / k))) if s / k < eps else -math.inf
        if logq == -math.inf:
            return 0.0
        return math.exp(logq) * -math.expm1(eps_g - s)

    lo = max(eps_g, 0.0)
    _, best = golden_max(obj, lo, k * eps, iters=64)
    return max(best, 0.0)


def adaptive_edge_low(eps: float, k: int, eps_g: float) -> float:
    """Adaptive optimum for eps_g <= -(k-1)*eps:

        1 - e^(eps_g) + sup over offsets of
            (prod_i (1 - q_{t_i})) * (e^(eps_g + k eps - sum t_i) - 1),

    with the same equal-offset reduction (log(1 - q_t) is concave in t).
    """
    _validate_hom(eps, k)
    if eps_g > -(k - 1) * eps + 1e-12:
        raise ValueError(f"edge form requires eps_g <= -(k-1)*eps = {-(k - 1) * eps}")
    constant = -math.expm1(eps_g)
    hi = eps_g + k * eps
    if hi <= 0.0:
        return constant

    def obj(s):
        if s >= hi or s <= 0.0:
            return 0.0
        omq = 1.0 - float(q_of_t(eps, s / k))
        if omq <= 0.0:
            return 0.0
        return math.exp(k * math.log(omq)) * math.expm1(hi - s)

    _, best = golden_max(obj, 0.0, hi, iters=64)
    return constant + max(best, 0.0)


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
        return {
            "delta_nonadaptive": self.delta_nonadaptive,
            "t_nonadaptive": self.t_nonadaptive,
            "delta_adaptive_lb": self.delta_adaptive_lb,
            "gap": self.gap,
            "strict": self.strict,
            "t_grid": self.t_grid,
            "refine_iters": self.refine_iters,
        }


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
