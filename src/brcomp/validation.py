"""First-principles oracles: hockey-stick divergence, grid brute force,
Monte Carlo play of the adaptive composition game, and the check suite
behind the ``validate`` command.

Everything here is deliberately independent of the closed-form machinery it
cross-checks: the brute force maximizes its own subset sum of the fixed-offset
loss over a product grid through ``p_of_t`` and ``one_minus_p``, whose formulas
are all it shares with the kernels (they evaluate them over an expm1(-eps)
formed once); the simulator just plays the game and counts tail events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bounds, nonadaptive
from .adaptive import (AdaptiveSolverConfig, StrategyTree, adaptive_edge_high,
                       adaptive_edge_low, delta_adaptive_lb, gap_certificate)
from .errors import CapError
from .grr import (FiniteMechanismPair, counting_query_mech, cq_t_value, grr_probs,
                  one_minus_p, one_minus_q, p_of_t, q_of_t)
from .nonadaptive import (_validate_budget, _validate_eps_list, delta_hom_fixed_t,
                          delta_opt_nonadaptive_hom)
from .optim import budget_step, golden_max, lattice_search
from .rounds import Rounds

BRUTE_FORCE_CAP = 3
_SHARD = 1 << 19   # elements per block: Monte Carlo samples, brute-force grid points
_EXP_CAP = 700.0   # the brute force refuses sum(eps) past this: e^x stays a finite float


def _exp_or_inf(x: float) -> float:
    """e^x, and inf where it is past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def hockey_stick(pair: FiniteMechanismPair, eps_g: float) -> float:
    """sum_y max(P(y) - e^(eps_g) Q(y), 0) for a finite mechanism pair.

    Where e^(eps_g) is past the float range each e^(eps_g) Q(y) is formed
    in log space: at eps_g = +inf the sum is the P-mass where Q is 0.  A nan
    budget is refused (``ValueError``)."""
    _validate_budget(eps_g)
    q = pair.probs_x_prime
    scale = _exp_or_inf(eps_g)
    if scale < math.inf:
        scaled = scale * q
    else:
        # log 0 and inf - inf where Q is 0, and inf where e^(eps_g) Q overflows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = np.where(q > 0.0, np.exp(eps_g + np.log(q)), 0.0)
    return float(np.maximum(pair.probs_x - scaled, 0.0).sum())


class BruteForceResult(NamedTuple):
    delta: float
    t: np.ndarray


def brute_force_nonadaptive(eps_list: Sequence[float], eps_g: float,
                            grid_points: int, refine_rounds: int = 2) -> BruteForceResult:
    """Maximize the fixed-offset loss over a full product grid (k <= 3).

    The vectorized grid scan's argmax is polished by ``refine_rounds`` rounds
    of coordinate-wise golden search within one grid spacing; ``delta`` is
    the best value ``_grid_eval`` saw.  A list with sum(eps) above
    ``_EXP_CAP`` raises ``CapError``: e^(sum t) must stay a finite float.
    """
    eps = _validate_eps_list(eps_list)
    _validate_budget(eps_g)
    if eps.size > BRUTE_FORCE_CAP:
        raise CapError(f"full grid search supports k <= {BRUTE_FORCE_CAP}, got {eps.size}")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if eps.sum() > _EXP_CAP:
        raise CapError(f"the grid oracle supports sum(eps) <= {_EXP_CAP:g}, got {eps.sum():g}")
    # every bracket is <= 0 past the cap, so clamping e^(eps_g) there is exact
    scale = math.exp(min(eps_g, _EXP_CAP))

    grids = [np.linspace(0.0, e, grid_points) for e in eps]
    # blocks of leading-axis offsets, each broadcast against the other axes
    axes = np.meshgrid(*grids, indexing="ij", sparse=True)
    rows = max(1, _SHARD // grid_points ** (eps.size - 1))
    best, t = -1.0, None
    for s in range(0, grid_points, rows):
        vals = _grid_eval(eps, scale, [axes[0][s:s + rows], *axes[1:]])
        j = np.unravel_index(vals.argmax(), vals.shape)
        if vals[j] > best:
            best = float(vals[j])
            t = np.array([g[i] for g, i in zip(grids, (s + j[0], *j[1:]))])

    spacing = eps / (grid_points - 1)
    for _ in range(refine_rounds):
        for i in range(eps.size):
            def obj(x):
                return float(_grid_eval(eps, scale, [*t[:i], x, *t[i + 1:]]))
            x, v = golden_max(obj, max(0.0, t[i] - spacing[i]),
                              min(eps[i], t[i] + spacing[i]), iters=40)
            if v > best:
                t[i], best = x, v
    return BruteForceResult(best, t)


def _grid_eval(eps, scale, t):
    """Subset-sum loss at per-round offsets ``t`` that broadcast (sparse grid
    axes or one vector): sum over S of
    prod_{i not in S} p_i prod_{i in S} (1-p_i) * max(e^(sum t - sum_S eps) - scale, 0)."""
    p, omp = ([f(e, x) for e, x in zip(eps, t)] for f in (p_of_t, one_minus_p))
    exp_t = math.prod(np.exp(x) for x in t)
    total = 0.0
    for mask in range(1 << eps.size):
        w, drop = 1.0, 0.0
        for i, (e, q, o) in enumerate(zip(eps, p, omp)):
            w, drop = (w * o, drop + e) if (mask >> i) & 1 else (w * q, drop)
        total = total + w * np.maximum(exp_t * math.exp(-drop) - scale, 0.0)
    return total


# ---------------------------------------------------------------------------
# Monte Carlo play of the composition game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationReport:
    delta_hat: float
    n_samples: int
    seed: int
    half_width_95: float

    def __post_init__(self):
        if self.half_width_95 < 0:
            raise ValueError("half_width_95 must be nonnegative")


def simulate_adaptive_game(strategy: StrategyTree, eps_g: float, n: int,
                           seed: int) -> SimulationReport:
    """Empirical hockey-stick estimate for one deterministic strategy.

    Plays n games under each branch with paired uniforms.  The outcome bit
    y=1 is the q-branch (loss step +t), y=0 the complementary branch (loss
    step t - eps).  The estimate is

        mean[ 1{L_Q > eps_g} - e^(eps_g) 1{L_P > eps_g} ]

    over paired plays, with a normal-approximation 95% half width.
    Bit-exactly reproducible for a fixed (seed, n): the stream is sharded
    with seeds derived as (seed, shard index).  Where e^(eps_g) is past the
    float range the estimate is 0 if no play's loss exceeds eps_g, and
    refused (``CapError``) otherwise.  A nan budget is refused
    (``ValueError``).
    """
    if n < 1:
        raise ValueError("n must be positive")
    _validate_budget(eps_g)
    k = strategy.depth
    eps = np.asarray(strategy.eps_list, dtype=float)
    t_nodes = strategy.t_nodes
    scale = _exp_or_inf(eps_g)
    total = 0.0
    total_sq = 0.0
    done = 0
    shard = 0
    while done < n:
        m = min(_SHARD, n - done)
        rng = np.random.default_rng([seed, shard])
        u = rng.random((m, k))
        loss_q = np.zeros(m)
        loss_p = np.zeros(m)
        node_q = np.zeros(m, dtype=np.int64)
        node_p = np.zeros(m, dtype=np.int64)
        for d in range(k):
            tq = t_nodes[node_q]
            tp = t_nodes[node_p]
            yq = u[:, d] < q_of_t(eps[d], tq)
            yp = u[:, d] < p_of_t(eps[d], tp)
            loss_q += np.where(yq, tq, tq - eps[d])
            loss_p += np.where(yp, tp, tp - eps[d])
            node_q = 2 * node_q + np.where(yq, 1, 2)
            node_p = 2 * node_p + np.where(yp, 1, 2)
        over_q, over_p = loss_q > eps_g, loss_p > eps_g
        if scale == math.inf and (over_q.any() or over_p.any()):
            raise CapError(f"a play's loss exceeds eps_g={eps_g!r}, where e^(eps_g) "
                           "is past the float range")
        x = over_q - np.where(over_p, scale, 0.0)
        total += float(x.sum())
        total_sq += float((x * x).sum())
        done += m
        shard += 1
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1)
    return SimulationReport(mean, n, seed, 1.96 * math.sqrt(var / n))


def finite_diff_check(f: Callable[[float], float], df: Callable[[float], float],
                      points: Sequence[float], h_scale: float = 1e-6,
                      f_noise: Callable[[float], float] | None = None) -> float:
    """Worst relative error of a claimed derivative against central differences.

    A centered difference cannot resolve derivatives whose step response is
    comparable to f's own evaluation noise, so such points are skipped
    rather than reported as (meaningless) disagreements.  The noise floor is
    1e8 ulps of f's local magnitude; callers whose f suffers internal
    cancellation can pass ``f_noise(x)`` returning an absolute noise bound,
    which is honored with a 4e6 resolution factor.
    """
    worst = 0.0
    for x in points:
        h = h_scale * max(1.0, abs(x))
        fp, fm = f(x + h), f(x - h)
        scale = max(abs(fp), abs(fm), 1e-300)
        floor = 1e8 * 2.3e-16 * scale
        if f_noise is not None:
            floor = max(floor, 4e6 * f_noise(x))
        if abs(fp - fm) < floor:
            continue
        fd = (fp - fm) / (2.0 * h)
        d = df(x)
        worst = max(worst, abs(d - fd) / max(abs(d), abs(fd), 1e-12))
    return worst


# ---------------------------------------------------------------------------
# Check suite for the `validate` command
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check: str
    params: dict
    expected: str
    got: float
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return {"check": self.check, "params": self.params, "expected": self.expected,
                "got": self.got, "tol": self.tol, "pass": self.passed}


def _leq(name, params, got, tol) -> CheckResult:
    return CheckResult(name, params, f"<= {tol:g}", float(got), tol, bool(got <= tol))


def run_checks(level: str = "fast", seed: int = 0) -> list[CheckResult]:
    """The oracle suite: each check pits an independent computation against
    the closed-form implementations.  Deterministic for a fixed seed."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    full = level == "full"
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    # GRR identities q = e^t p and 1-q = e^(t-eps)(1-p)
    worst = 0.0
    for eps in (1e-6, 0.1, 1.0, 5.0):
        t = np.linspace(0.0, eps, 1000)
        p, q = p_of_t(eps, t), q_of_t(eps, t)
        worst = max(worst, float(np.abs(q - np.exp(t) * p).max()))
        worst = max(worst, float(np.abs(one_minus_q(eps, t)
                                        - np.exp(t - eps) * one_minus_p(eps, t)).max()))
    out.append(_leq("grr-identities", {"eps": [1e-6, 0.1, 1.0, 5.0]}, worst, 1e-12))

    # symmetry q_{eps,t} = 1 - p_{eps,eps-t}
    worst = 0.0
    for eps in (0.1, 1.0, 3.0):
        t = np.linspace(0.0, eps, 1000)
        worst = max(worst, float(np.abs(q_of_t(eps, t) - (1.0 - p_of_t(eps, eps - t))).max()))
    out.append(_leq("grr-symmetry", {"grid": 1000}, worst, 1e-12))

    # hockey stick of a GRR pair equals the k=1 fixed-offset formula
    worst = 0.0
    for _ in range(50):
        eps = float(rng.uniform(0.05, 3.0))
        t = float(rng.uniform(0.0, eps))
        eg = float(rng.uniform(-1.5 * eps, 1.5 * eps))
        p, q = grr_probs(eps, t)
        pair = FiniteMechanismPair(np.array([q, 1 - q]), np.array([p, 1 - p]))
        worst = max(worst, abs(hockey_stick(pair, eg) - delta_hom_fixed_t(eps, 1, eg, t)))
    out.append(_leq("hockey-stick-vs-formula", {"cases": 50}, worst, 1e-12))

    # brute force against the candidate-point optimum
    worst = 0.0
    cases = [(0.5, 1), (1.0, 2)] + ([(1.0, 3)] if full else [])
    for eps, k in cases:
        for frac in (-0.5, 0.0, 0.5):
            eg = frac * k * eps
            bf = brute_force_nonadaptive([eps] * k, eg, 200 if k < 3 else 150)
            worst = max(worst, abs(bf.delta - delta_opt_nonadaptive_hom(eps, k, eg).delta))
    out.append(_leq("brute-force-vs-optimum", {"cases": cases}, worst, 1e-5))

    # one-step recursion of the fixed-offset loss
    worst = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 2.0))
        k = int(rng.integers(1, 12))
        t = float(rng.uniform(0.0, eps))
        eg = float(rng.uniform(-1.2 * k * eps, 1.2 * k * eps))
        lhs, rhs = nonadaptive.nonadaptive_recursion_check(eps, k, eg, t)
        worst = max(worst, abs(lhs - rhs))
    out.append(_leq("fixed-offset-recursion", {"cases": 100}, worst, 1e-10))

    # closed-form derivative of the partial sums
    worst = 0.0
    for _ in range(100 if not full else 200):
        eps = float(rng.uniform(0.1, 2.0))
        k = int(rng.integers(1, 21))
        ell = int(rng.integers(0, k + 1))
        eg = float(rng.uniform(-k * eps, k * eps))
        pts = rng.uniform(0.1 * eps, 0.9 * eps, size=3)
        worst = max(worst, finite_diff_check(
            lambda t: nonadaptive.f_ell(eps, k, eg, ell, t),
            lambda t: nonadaptive.df_ell_dt(eps, k, eg, ell, t), pts,
            h_scale=1e-6 * min(1.0, eps),
            f_noise=lambda t: 4e-14 * nonadaptive.f_ell_magnitude(eps, k, eg, ell, t)))
    out.append(_leq("derivative-closed-form", {"tuples": 100}, worst, 1e-6))

    # both midpoint forms against DP optimal composition at e (Kairouz et al. 2015's sum)
    worst = 0.0
    for _ in range(20):
        e = float(rng.uniform(0.1, 2.0)) / 2.0
        k = int(rng.integers(1, 11))
        eg = float(rng.uniform(-1.8 * k * e, 1.8 * k * e))
        rhs = math.fsum(math.comb(k, l) * (math.exp((k - l) * e) - math.exp(eg + l * e))
                        for l in range(k + 1) if (k - 2 * l) * e > eg) / (1.0 + math.exp(e)) ** k
        worst = max(worst, abs(delta_hom_fixed_t(2.0 * e, k, eg, e) - rhs),
                    abs(nonadaptive.dp_optcomp_het([e] * k, eg) - rhs))
    out.append(_leq("midpoint-vs-dp-optimal", {"cases": 20}, worst, 1e-10))

    # pointwise ordering of the per-step bounds
    violations = 0
    for eps in (0.01, 0.1, 1.0):
        for lam in np.linspace(0.05, 20.0, 40):
            h = bounds.h_eps(eps, lam)
            kl = bounds.u_function(bounds.UFunctionKind.KL_IMPROVED_DR19, eps, lam)
            dr = bounds.u_function(bounds.UFunctionKind.DR19, eps, lam)
            drv = bounds.u_function(bounds.UFunctionKind.IMPROVED_DRV10, eps, lam)
            if not (h <= kl + 1e-12 and kl <= dr + 1e-12 and dr <= drv + 1e-12):
                violations += 1
    out.append(_leq("u-function-ordering", {"grid": "3x40"}, violations, 0))

    # worst-case per-step log-MGF against a dense grid
    worst = 0.0
    npts = 10 ** 6 if full else 10 ** 5
    for eps, lam in ((1.0, 1.0), (0.1, 5.0), (2.0, 0.5)):
        tg = np.linspace(0.0, eps, npts)
        dense = lam * (eps - tg) + np.log(p_of_t(eps, tg) * math.exp(-lam * eps)
                                          + one_minus_p(eps, tg))
        dense[0] = 0.0
        worst = max(worst, abs(bounds.h_eps(eps, lam) - float(dense.max())))
    out.append(_leq("per-step-mgf-vs-dense-grid", {"points": npts}, worst, 1e-8))

    # exact per-step MGF never exceeds exp(h) and touches it at the argmax
    worst = 0.0
    for eps, lam in ((0.5, 2.0), (1.0, 1.0)):
        tg = np.linspace(1e-9, eps - 1e-9, 20001)
        p, q = p_of_t(eps, tg), q_of_t(eps, tg)
        mgf = (p ** (lam + 1) * q ** (-lam)
               + one_minus_p(eps, tg) ** (lam + 1) * one_minus_q(eps, tg) ** (-lam))
        hval = math.exp(bounds.h_eps(eps, lam))
        worst = max(worst, float(mgf.max()) - hval, hval - float(mgf.max()))
    out.append(_leq("per-step-mgf-exact-form", {"grid": 20001}, abs(worst), 1e-6))

    # closed-form budget from the KL bound vs numerically inverted generic bound
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 20))
        eps_list = rng.uniform(0.05, 1.0, size=k)
        dg = 10.0 ** rng.uniform(-8, -2)
        closed = (sum(bounds.maxkl(e) for e in eps_list)
                  + math.sqrt(0.5 * float(np.sum(eps_list ** 2)) * math.log(1.0 / dg)))
        inverted = _invert_generic(bounds.UFunctionKind.KL_IMPROVED_DR19, eps_list, dg)
        worst = max(worst, abs(closed - inverted) / max(closed, 1e-12))
    out.append(_leq("kl-budget-closed-form", {"cases": 10}, worst, 1e-6))

    # edge closed forms against the adaptive solver
    worst = 0.0
    cfg = AdaptiveSolverConfig(t_grid=128 if not full else 256)
    for k in (1, 2, 3):
        for eps in (0.5, 1.0):
            eg_hi = (k - 1) * eps + 0.3 * eps
            worst = max(worst, abs(adaptive_edge_high(eps, k, eg_hi)
                                   - delta_adaptive_lb([eps] * k, eg_hi, cfg).delta))
            eg_lo = -(k - 1) * eps - 0.3 * eps
            worst = max(worst, abs(adaptive_edge_low(eps, k, eg_lo)
                                   - delta_adaptive_lb([eps] * k, eg_lo, cfg).delta))
    out.append(_leq("edge-forms-vs-solver", {"k": [1, 2, 3]}, worst, 1e-6))

    # upper bounds dominate both exact optima
    worst = 0.0
    for _ in range(10):
        eps = float(rng.uniform(0.1, 1.0))
        k = int(rng.integers(1, 6))
        eg = float(rng.uniform(0.0, k * eps))
        mg = bounds.mgf_delta([eps] * k, eg).delta
        worst = max(worst, delta_opt_nonadaptive_hom(eps, k, eg).delta - mg)
        worst = max(worst, delta_adaptive_lb([eps] * k, eg,
                                             AdaptiveSolverConfig(t_grid=32)).delta - mg)
    out.append(_leq("mgf-bound-soundness", {"cases": 10}, worst, 1e-10))

    # counting-query log-ratios sit on the two interval endpoints
    worst = 0.0
    for _ in range(30):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        eps = float(rng.uniform(0.1, 2.0))
        x = rng.integers(0, 2, size=(n, d))
        row = rng.integers(0, 2, size=(1, d))
        xp = np.vstack([x, row])
        t = cq_t_value(x, xp, eps)
        ratios = np.log(counting_query_mech(x, eps)) - np.log(counting_query_mech(xp, eps))
        worst = max(worst, float(np.minimum(np.abs(ratios - t),
                                            np.abs(ratios - (t - eps))).max()))
    out.append(_leq("counting-query-endpoints", {"cases": 30}, worst, 1e-12))

    # merging outcomes never increases the hockey stick
    worst = 0.0
    for _ in range(30):
        m = int(rng.integers(2, 10))
        a = rng.dirichlet(np.ones(m))
        b = rng.dirichlet(np.ones(m))
        groups = rng.integers(0, max(m // 2, 1), size=m)
        eg = float(rng.uniform(-1.0, 1.0))
        pair = FiniteMechanismPair(a, b)
        merged = FiniteMechanismPair(np.bincount(groups, weights=a),
                                     np.bincount(groups, weights=b))
        worst = max(worst, hockey_stick(merged, eg) - hockey_stick(pair, eg))
    out.append(_leq("post-processing-contraction", {"cases": 30}, worst, 1e-12))

    # Monte Carlo play of a fixed midpoint strategy against the analytic value
    n = 10 ** 7 if full else 2 * 10 ** 5
    tree = StrategyTree.constant([1.0, 1.0], [0.5, 0.5])
    rep = simulate_adaptive_game(tree, 0.0, n, seed=seed + 1)
    target = delta_hom_fixed_t(1.0, 2, 0.0, 0.5)
    err = abs(rep.delta_hat - target)
    out.append(CheckResult("mc-fixed-strategy", {"n": n, "seed": seed + 1},
                           f"within 4 half-widths ({4 * rep.half_width_95:.2e})",
                           err, 4 * rep.half_width_95, err <= 4 * rep.half_width_95))

    if full:
        cert = gap_certificate(1.0, 4, 0.5)
        out.append(CheckResult("adaptivity-gap-strict", {"eps": 1.0, "k": 4, "eps_g": 0.5},
                               "gap > 1e-7", cert.gap, 1e-7, cert.strict))
        cert2 = gap_certificate(1.0, 2, 0.0)
        out.append(CheckResult("adaptivity-gap-k2", {"eps": 1.0, "k": 2, "eps_g": 0.0},
                               "gap > 1e-7", cert2.gap, 1e-7, cert2.strict))
    return out


def _invert_generic(kind, eps_list, delta_g: float) -> float:
    """Lattice inversion of the generic bound, for cross-checking closed forms."""
    rounds = Rounds.of(eps_list)   # built once, not once per lattice evaluation

    def delta(eps_g: float) -> float:
        return bounds.generic_delta_from_u(kind, rounds, eps_g).delta

    hi = bounds.basic_composition(rounds) + 10.0
    return lattice_search(delta, delta_g, 0.0, hi, budget_step(hi))[0]
