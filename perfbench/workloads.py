"""Seeded workloads of the brcomp benchmark: inputs, execution and output checks.

A workload is a fixed batch of operations generated from the seed.  The
benchmark calls only the public API, looking each function up through its
module at call time so that the tracer's wrappers are seen.

Parameters that drive an operation's cost strongly (``k``, the number of
distinct ``eps`` in a list, and a gap certificate's ``eps`` and budget
fraction) sit on a jittered grid: one value near the centre of each equal
stratum, moved by the seed within a small share of the stratum.  Parameters
that barely move the cost are drawn across the whole of each stratum (Latin
hypercube).  Full-width draws of ``k`` would let the cost of one batch vary
by several times between seeds, because cost grows with ``k`` or ``k^2``.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple

import numpy as np

from brcomp import adaptive, bounds, cli, validation

WORKLOADS = ("curve", "large-k", "gap", "validate")

# acceptance-criterion-5 method set and its ordering chain
CURVE_METHODS = ("dp-optcomp-half", "br-optcomp", "mgf", "optkl", "dr19", "drv10",
                 "dp-optcomp")
CHAIN = ("dp-optcomp-half", "br-optcomp", "mgf", "optkl", "dr19", "drv10")
CURVE_K = 40
CURVE_TABLES_PER_DECADE = 2

LARGE_K_METHODS = ("mgf", "dr19", "drv10", "optkl", "basic", "dp-optcomp")
LARGE_K_STRATA = 4            # per (method, direction): k on a log grid over [1e3, 1e5]
BR_STRATA = 3                 # br-optcomp: delta over [1e3, 1e4], epsilon over [200, 1e3]
LARGE_K_EPS = (-3.0, -1.0)    # log10 range of per-round eps

GAP_COUNTS = {3: 8, 4: 8, 5: 6, 6: 4, 7: 3, 8: 2}
GAP_CFG = adaptive.AdaptiveSolverConfig(depth_cap=8)

VALIDATE_SUITES = 4

COST_JITTER = 0.05            # share of a stratum the seed may move a cost driver
LOG_DELTA = (-9.0, -4.0)      # log10 range of delta_g

# Tolerances against the reference values.  They admit the more accurate
# answers planned for the program: budgets to a few bisection tolerances,
# upper-bound deltas to 1e-6 relative (h_eps reads up to 4.5e-7 high).
BUDGET_ABS_TOL = 4 * cli.EPS_BISECT_TOL
BOUND_REL_TOL = 1e-6
EXACT_REL_TOL = 1e-9
EXACT_METHODS = ("br-optcomp", "dp-optcomp", "dp-optcomp-half", "basic")


class Op(NamedTuple):
    kind: str     # "curve", "epsilon", "delta", "gap" or "validate"
    args: tuple


# ---------------------------------------------------------------------------
# input generation (uses only numpy, so the program sees nothing but inputs)
# ---------------------------------------------------------------------------


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's batch for this seed; the same seed gives the same batch."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"curve": _curve_ops, "large-k": _large_k_ops, "gap": _gap_ops,
            "validate": _validate_ops}[workload](rng)


def inputs_digest(ops: list[Op]) -> str:
    return hashlib.sha256(repr(ops).encode()).hexdigest()


def _grid(rng, n: int, lo: float, hi: float, jitter: float = 0.5) -> list[float]:
    """One value per equal stratum of [lo, hi], within +-jitter of a stratum
    width of its centre, in seeded order.  jitter=0.5 spans each stratum."""
    width = (hi - lo) / n
    vals = lo + width * (np.arange(n) + 0.5 + rng.uniform(-jitter, jitter, n))
    return [float(v) for v in rng.permutation(vals)]


def _curve_ops(rng) -> list[Op]:
    n = 3 * CURVE_TABLES_PER_DECADE
    log_dg = _grid(rng, n, *LOG_DELTA)
    ops = []
    for d, decade in enumerate((-2, -1, 0)):
        for j, off in enumerate(_grid(rng, CURVE_TABLES_PER_DECADE, -0.3, 0.3)):
            dg = 10.0 ** log_dg[d * CURVE_TABLES_PER_DECADE + j]
            ops.append(Op("curve", (10.0 ** (decade + off), CURVE_K, dg)))
    return ops


def _maxkl(e: float) -> float:
    x = e / math.expm1(e) - 1.0
    return x - math.log1p(x)


def _optkl_budget(eps_list: list[float], delta: float) -> float:
    """Closed-form KL-bound budget; delta queries are asked at this budget so
    their answers land in a useful range."""
    vals, counts = np.unique(np.asarray(eps_list), return_counts=True)
    bias = math.fsum(n * _maxkl(e) for e, n in zip(vals.tolist(), counts.tolist()))
    var = math.fsum(n * e * e for e, n in zip(vals.tolist(), counts.tolist()))
    basic = math.fsum(n * e for e, n in zip(vals.tolist(), counts.tolist()))
    return min(basic, bias + math.sqrt(0.5 * var * math.log(1.0 / delta)))


def _eps_list(rng, k: int, log_eps: float, n: int = 1) -> list[float]:
    """k per-round parameters taking n distinct values, in seeded order."""
    if n == 1:
        return [10.0 ** log_eps] * k
    vals = [10.0 ** log_eps] + [10.0 ** float(v) for v in rng.uniform(*LARGE_K_EPS, n - 1)]
    counts = rng.multinomial(k - n, rng.dirichlet(np.ones(n))) + 1
    return [vals[i] for i in rng.permutation(np.repeat(np.arange(n), counts)).tolist()]


def _large_k_ops(rng) -> list[Op]:
    ops = []
    for method in LARGE_K_METHODS:
        for direction in ("epsilon", "delta"):
            log_k = _grid(rng, LARGE_K_STRATA, 3.0, 5.0, COST_JITTER)
            log_eps = _grid(rng, LARGE_K_STRATA, *LARGE_K_EPS)
            log_dg = _grid(rng, LARGE_K_STRATA, *LOG_DELTA)
            # half the lists hold 3-7 distinct eps; mgf's cost grows with
            # their number.  dp-optcomp has no efficient heterogeneous form
            # (it enumerates subsets up to k = 25), so its lists are equal.
            het = [int(v) for v in _grid(rng, LARGE_K_STRATA // 2, 2.0, 9.0, COST_JITTER)]
            n_distinct = [1] * LARGE_K_STRATA if method == "dp-optcomp" else \
                rng.permutation(het + [1] * (LARGE_K_STRATA - len(het))).tolist()
            for lk, le, ldg, n in zip(log_k, log_eps, log_dg, n_distinct):
                eps_list = _eps_list(rng, round(10.0 ** lk), le, n)
                ops.append(_query(direction, method, eps_list, 10.0 ** ldg))
    for direction, lo, hi in (("delta", 3.0, 4.0), ("epsilon", math.log10(200.0), 3.0)):
        log_eps = _grid(rng, BR_STRATA, *LARGE_K_EPS)
        log_dg = _grid(rng, BR_STRATA, *LOG_DELTA)
        for lk, le, ldg in zip(_grid(rng, BR_STRATA, lo, hi, COST_JITTER), log_eps, log_dg):
            ops.append(_query(direction, "br-optcomp", _eps_list(rng, round(10.0 ** lk), le),
                              10.0 ** ldg))
    return ops


def _query(direction: str, method: str, eps_list: list[float], delta: float) -> Op:
    if direction == "epsilon":
        return Op("epsilon", (method, eps_list, delta))
    return Op("delta", (method, eps_list, _optkl_budget(eps_list, delta)))


def _gap_ops(rng) -> list[Op]:
    ops = []
    for k, n in GAP_COUNTS.items():
        # the budget runs across and beyond the gap window [0, (k-1) eps];
        # both it and eps move the refinement cost steeply
        fracs = _grid(rng, n, -0.25, 1.25, COST_JITTER)
        for e, f in zip(_grid(rng, n, 0.1, 1.0, COST_JITTER), fracs):
            ops.append(Op("gap", (e, k, f * (k - 1) * e)))
    return ops


def _validate_ops(rng) -> list[Op]:
    return [Op("validate", (int(s),)) for s in rng.integers(0, 2 ** 31, VALIDATE_SUITES)]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def warm_up() -> None:
    """One small call through every curve method: fills lazy caches such as
    nonadaptive._log_factorials and numpy's first-call paths."""
    cli.curve_rows(CURVE_METHODS, 0.1, 4, 1e-6)


def run_op(op: Op):
    """Execute one operation; the result holds plain numbers only."""
    a = op.args
    if op.kind == "curve":
        rows = cli.curve_rows(CURVE_METHODS, a[0], a[1], a[2])
        return tuple((r.method, r.k, r.eps_g) for r in rows)
    if op.kind == "epsilon":
        return cli.method_epsilon(*a)[0]
    if op.kind == "delta":
        return cli.method_delta(*a)[0]
    if op.kind == "gap":
        cert = adaptive.gap_certificate(a[0], a[1], a[2], GAP_CFG)
        return cert.delta_nonadaptive, cert.delta_adaptive_lb
    if op.kind == "validate":
        return tuple((r.check, r.got, r.passed) for r in validation.run_checks("fast", a[0]))
    raise ValueError(f"unknown operation kind {op.kind!r}")


# ---------------------------------------------------------------------------
# output checks; each returns None on success or the reason for failure
# ---------------------------------------------------------------------------


def check_op(op: Op, out) -> str | None:
    a = op.args
    if op.kind == "curve":
        by = {(m, k): eg for m, k, eg in out}
        for k in range(1, a[1] + 1):
            for lo, hi in zip(CHAIN, CHAIN[1:]):
                if not by[(lo, k)] <= by[(hi, k)]:
                    return f"k={k}: {lo} {by[(lo, k)]!r} > {hi} {by[(hi, k)]!r}"
            if not by[("br-optcomp", k)] <= by[("dp-optcomp", k)]:
                return f"k={k}: br-optcomp above dp-optcomp"
        return None
    if op.kind == "epsilon":
        method, eps_list, delta_g = a
        back = cli.method_delta(method, eps_list, out + BUDGET_ABS_TOL)[0]
        if not back <= delta_g * (1.0 + EXACT_REL_TOL):
            return f"{method} budget {out!r} gives delta {back!r} > {delta_g!r}"
        return None
    if op.kind == "delta":
        if not 0.0 <= out <= 1.0:
            return f"delta {out!r} outside [0, 1]"
        if op.args[0] == "br-optcomp":
            upper = bounds.mgf_delta(a[1], a[2]).delta
            if not out <= upper * (1.0 + EXACT_REL_TOL):
                return f"br-optcomp delta {out!r} above the mgf bound {upper!r}"
        return None
    if op.kind == "gap":
        non, lb = out
        upper = bounds.mgf_delta([a[0]] * a[1], a[2]).delta
        if not non <= lb * (1.0 + EXACT_REL_TOL) + 1e-15:
            return f"nonadaptive {non!r} above adaptive lower bound {lb!r}"
        if not lb <= upper * (1.0 + EXACT_REL_TOL):
            return f"adaptive lower bound {lb!r} above mgf {upper!r}"
        return None
    failed = [name for name, _, passed in out if not passed]
    return f"failed checks {failed}" if failed else None


# ---------------------------------------------------------------------------
# reference values recorded for the default seed
# ---------------------------------------------------------------------------


def reference_form(op: Op, out):
    """The part of an output compared against the recorded reference."""
    if op.kind == "validate":
        return [[name, passed] for name, _, passed in out]
    if op.kind == "curve":
        return [[m, k, eg] for m, k, eg in out]
    return list(out) if isinstance(out, tuple) else out


def compare_reference(op: Op, out, ref) -> str | None:
    got = reference_form(op, out)
    if op.kind == "validate":
        return None if got == ref else f"checks {got} differ from reference {ref}"
    if op.kind == "curve":
        for (m, k, eg), (rm, rk, reg) in zip(got, ref):
            if (m, k) != (rm, rk) or not _budget_close(m, eg, reg):
                return f"{m} k={k}: {eg!r} differs from reference {reg!r}"
        return None if len(got) == len(ref) else "row count differs from reference"
    if op.kind == "epsilon":
        return None if _budget_close(op.args[0], got, ref) else \
            f"budget {got!r} differs from reference {ref!r}"
    if op.kind == "delta":
        rel = EXACT_REL_TOL if op.args[0] in EXACT_METHODS else BOUND_REL_TOL
        return None if _rel_close(got, ref, rel) else f"delta {got!r} differs from reference {ref!r}"
    # gap: the nonadaptive value is exact; the lower bound depends on the solver
    if _rel_close(got[0], ref[0], EXACT_REL_TOL) and _rel_close(got[1], ref[1], BOUND_REL_TOL):
        return None
    return f"certificate {got} differs from reference {ref}"


def _budget_close(method: str, got: float, ref: float) -> bool:
    if method in EXACT_METHODS:
        return abs(got - ref) <= BUDGET_ABS_TOL
    return abs(got - ref) <= max(BUDGET_ABS_TOL, BOUND_REL_TOL * abs(ref))


def _rel_close(got: float, ref: float, rel: float) -> bool:
    return abs(got - ref) <= rel * max(abs(ref), 1e-300)
