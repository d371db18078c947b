"""Command-line accountant: delta/epsilon queries, budget curves, gap
certificates, and the validation suite.

Each query builds its ``Rounds`` once.  An ``epsilon`` answer with no
closed form is the smallest point of a fixed budget lattice at which the
method's own delta is at most delta_g, checked there and one step below
(``_bisect_epsilon``).  Where a closed form or a seed estimates the
crossing, the lattice search only confirms it (path ``closed-form``).

Exit codes: 0 success, 2 domain error (bad arguments, unreachable target),
3 size/depth-cap refusal, 4 unwritable output path.  Stdout carries data
only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass

from . import bounds, validation
from .adaptive import (AdaptiveSolverConfig, adaptive_edge_high, adaptive_edge_low,
                       delta_adaptive_lb, gap_certificate)
from .errors import CapError, UnreachableTargetError
from .nonadaptive import (TIE_RTOL, _validate_budget, budget_seed, delta_het_fixed_t,
                          delta_opt_nonadaptive_hom, dp_optcomp_het, dp_optcomp_hom,
                          fixed_t_inverse)
from .optim import budget_step, lattice_search
from .rounds import Rounds
from .validation import brute_force_nonadaptive

METHODS = ("basic", "dp-optcomp", "dp-optcomp-half", "br-optcomp", "adaptive-lb",
           "dr19", "drv10", "optkl", "mgf", "edge-high", "edge-low")

CURVE_K_CAP = 10 ** 5
# the budget tolerance that perfbench's BUDGET_ABS_TOL and the tests allow; no
# solver reads it, and budgets move on the finer lattice (optim.BUDGET_STEP)
EPS_BISECT_TOL = 1e-9
TINY_PRINT = 1e-300

_U_KIND = {"dr19": bounds.UFunctionKind.DR19,
           "drv10": bounds.UFunctionKind.IMPROVED_DRV10}


@dataclass(frozen=True)
class CurveRow:
    k: int
    method: str
    eps: float
    delta_g: float
    eps_g: float
    solver_meta: str


def method_delta(method: str, eps_list, eps_g: float,
                 cfg: AdaptiveSolverConfig = AdaptiveSolverConfig(),
                 search: bounds.LambdaSearch = bounds.LambdaSearch(), *,
                 target: float | None = None) -> tuple[float, dict]:
    """Additive loss of the named method at budget eps_g, plus solver metadata.

    ``eps_list`` is a ``Rounds`` or anything ``Rounds.of`` accepts.  ``cfg``
    configures ``adaptive-lb`` and ``search`` the bounds' lambda window.
    A ``target`` says that the value is only compared with it, as in a
    budget bisection: equal-eps ``br-optcomp`` then skips its comparison
    with half-DP, which costs an evaluation.  The value does not change.
    """
    rounds = Rounds.of(eps_list)
    if method == "basic":
        _validate_budget(eps_g)
        ok = eps_g >= bounds.basic_composition(rounds)
        return (0.0 if ok else 1.0), {"note": "no guarantee below the summed budget"}
    if method in _U_KIND:
        res = bounds.generic_delta_from_u(_U_KIND[method], rounds, eps_g, search)
        return res.delta, {"lambda": res.lam, "at_ceiling": res.at_ceiling}
    if method == "optkl":
        res = bounds.optkl_delta(rounds, eps_g, search)
        if res.capped_at_basic:
            return 0.0, {"branch": "basic"}
        return res.delta, {"lambda": res.lam}
    if method == "mgf":
        res = bounds.mgf_delta(rounds, eps_g, search)
        return res.delta, {"lambda": res.lam, "at_ceiling": res.at_ceiling}
    if not rounds.values:
        raise ValueError("every round has eps = 0; nothing to compose")
    eps0, k = rounds.values[0], rounds.k
    if method in ("dp-optcomp", "dp-optcomp-half"):
        half = method == "dp-optcomp-half"
        if rounds.equal_eps:
            return dp_optcomp_hom(eps0 / 2.0 if half else eps0, k, eps_g), {}
        return dp_optcomp_het(rounds.halved() if half else rounds, eps_g), {"form": "subset-sum"}
    if method == "br-optcomp":
        if rounds.equal_eps:
            res = delta_opt_nonadaptive_hom(eps0, k, eps_g)
            meta = {"t": res.t}
            if target is None and math.isclose(res.delta, dp_optcomp_hom(eps0 / 2.0, k, eps_g),
                                               rel_tol=TIE_RTOL):
                meta["coincides_with_half_dp"] = True
            return res.delta, meta
        if k <= validation.BRUTE_FORCE_CAP:
            eps = rounds.as_list()
            t = brute_force_nonadaptive(eps, eps_g, 400).t   # valued by the finer kernel
            return delta_het_fixed_t(eps, eps_g, t), {"form": "grid-oracle", "t": t.tolist(),
                                                        "kind": "lower-bound"}
        raise CapError("heterogeneous optimal composition has no known efficient "
                       f"algorithm; grid oracle supports k <= {validation.BRUTE_FORCE_CAP}")
    if method == "adaptive-lb":
        res = delta_adaptive_lb(rounds.as_list(), eps_g, cfg)
        return res.delta, {"t_grid": res.t_grid, "refine_iters": res.refine_iters,
                           "kind": "lower-bound"}
    if method not in ("edge-high", "edge-low"):
        raise ValueError(f"unknown method {method!r}")
    if not rounds.equal_eps:
        raise CapError(f"method {method} supports equal per-round eps only")
    edge = adaptive_edge_high if method == "edge-high" else adaptive_edge_low
    return edge(eps0, k, eps_g), {}


def method_epsilon(method: str, eps_list, delta_g: float,
                   cfg: AdaptiveSolverConfig = AdaptiveSolverConfig(),
                   search: bounds.LambdaSearch = bounds.LambdaSearch()) -> tuple[float, dict]:
    """Smallest budget at which the named method certifies delta_g."""
    if not 0.0 < delta_g < 1.0:
        raise ValueError(f"delta_g must lie in (0, 1), got {delta_g}")
    if method in ("edge-high", "edge-low"):
        raise ValueError(f"method {method} supports the delta direction only")
    rounds = Rounds.of(eps_list)
    if method == "basic":
        return bounds.basic_composition(rounds), {"closed_form": True}
    if method == "optkl":
        return bounds.optkl_epsilon(rounds, delta_g, search), {"closed_form": True}
    if method in _U_KIND:
        res = bounds.quadratic_epsilon(_U_KIND[method], rounds, delta_g, search)
        return res.eps_g, {"closed_form": True, "lambda": res.lam,
                           "at_ceiling": res.at_ceiling}
    if method == "mgf":
        res = bounds.mgf_epsilon(rounds, delta_g, search)
        return res.eps_g, {"lambda": res.lam, "capped_at_basic": res.capped_at_basic}
    return _bisect_epsilon(method, rounds, delta_g, cfg, search)


def _bisect_epsilon(method: str, rounds: Rounds, delta_g: float, cfg: AdaptiveSolverConfig,
                    search: bounds.LambdaSearch) -> tuple[float, dict]:
    """The method's budget: the smallest point of the budget lattice
    (``optim.budget_step``, 2^-30 below a summed eps of 2^20) at which its
    own delta is <= delta_g, confirmed there and one step below.

    Equal-eps ``dp-optcomp``, ``dp-optcomp-half`` and, where its scan
    windows the rows, ``br-optcomp`` seed the search (``_closed_form_budget``),
    which confirms the seed with two evaluations (path ``closed-form``); the
    others bisect the lattice over [-sum eps, sum eps].  Where delta is
    nonincreasing on the lattice the answer does not depend on the path.
    The methods share the lattice for given rounds, so a pointwise delta
    ordering between two such methods (half-DP <= br-optcomp <= DP) carries
    over to their budgets.  Were the lower delta's budget x above the
    other's, then at x - step, at or above the other's budget, the other
    delta would be <= delta_g (it is nonincreasing) yet at least the lower
    one, which exceeds delta_g.
    """
    # rounded to nearest, not up: the bracket certifies nothing, and it fixes the search path
    try:
        span = math.fsum(e * n for e, n in rounds.groups)
    except OverflowError:   # finite products whose sum is not
        span = math.inf
    if span == math.inf:
        raise CapError("the summed eps is past the float range; no budget lattice spans it")
    if not span > 0.0:
        raise ValueError("zero-width budget bracket: every round has eps = 0")

    def delta(eps_g: float) -> float:
        return method_delta(method, rounds, eps_g, cfg, search, target=delta_g)[0]

    d_lo = delta(-span)
    if delta_g > d_lo:
        raise UnreachableTargetError(
            f"delta_g={delta_g} exceeds the largest achievable value {d_lo}", d_lo)
    step = budget_step(span)
    eps_g, path = lattice_search(delta, delta_g, -span, span, step,
                                 _closed_form_budget(method, rounds, delta_g))
    return eps_g, {"budget_step": step, "path": path}


def _closed_form_budget(method: str, rounds: Rounds, delta_g: float) -> float | None:
    """An estimate of the budget at equal eps: ``budget_seed``'s for
    ``br-optcomp`` (None at small k), and for the DP baselines the closed
    form ``fixed_t_inverse`` of their loss, the sum at the midpoint offset."""
    if not rounds.equal_eps or method not in ("br-optcomp", "dp-optcomp", "dp-optcomp-half"):
        return None
    e, k = rounds.values[0], rounds.k
    if method == "br-optcomp":
        return budget_seed(e, k, delta_g)
    e = e if method == "dp-optcomp" else e / 2.0
    return fixed_t_inverse(2.0 * e, k, e, delta_g)


def curve_rows(methods, eps: float, k_max: int, delta_g: float,
               cfg: AdaptiveSolverConfig = AdaptiveSolverConfig(),
               search: bounds.LambdaSearch = bounds.LambdaSearch()) -> list[CurveRow]:
    """One row per (method, k): the budget at which the method certifies delta_g."""
    if not methods:
        raise ValueError("no method given")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if k_max > CURVE_K_CAP:
        raise CapError(f"k_max exceeds the curve cap {CURVE_K_CAP}")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is listed more than once")
    rows = []
    for method in methods:
        for k in range(1, k_max + 1):
            eg, meta = method_epsilon(method, Rounds.equal(eps, k), delta_g, cfg, search)
            rows.append(CurveRow(k, method, eps, delta_g, eg, _meta_str(meta)))
    return sorted(rows, key=lambda r: (r.method, r.k))


def _meta_str(meta: dict) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(meta.items()))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _print_value(value: float, meta: dict) -> None:
    if 0.0 < value < TINY_PRINT:
        meta = dict(meta, underflow=f"value {value:.3e} below {TINY_PRINT:g}")
        value = 0.0
    print(f"{value:.12g}")
    if meta:
        print(f"# {_meta_str(meta)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="brcomp",
                                 description="Composition accountant for bounded-range mechanisms")
    sub = ap.add_subparsers(dest="command", required=True)

    # only flags the handler reads: curve sweeps k over equal rounds (no
    # --eps-file, --k), and gap runs no lambda search (no --lambda-max)
    def common(p, rounds=True, lambda_max=True):
        # a negative number as Python 3.13 tests for one, and -inf or -nan in
        # any case float() takes: else argparse reads -1e-3 (before 3.13), as
        # ``epsilon`` can print a budget, or -inf (in every version) as a
        # flag, and a value that ``_checked_flags`` refuses never reaches it
        p._negative_number_matcher = re.compile(r"-(\.?\d|(inf(inity)?|nan)$)", re.IGNORECASE)
        p.add_argument("--eps", type=float, help="per-round parameter (equal rounds)")
        if rounds:
            p.add_argument("--eps-file", help="newline-separated per-round parameters")
            p.add_argument("--k", type=int, help="number of rounds (with --eps)")
        p.add_argument("--t-grid", type=int, default=AdaptiveSolverConfig.t_grid)
        p.add_argument("--depth-cap", type=int, default=AdaptiveSolverConfig.depth_cap)
        if lambda_max:
            p.add_argument("--lambda-max", type=float, default=bounds.LambdaSearch.lambda_max)

    p = sub.add_parser("delta", help="loss at a fixed budget")
    common(p)
    p.add_argument("--eps-g", type=float, required=True)
    p.add_argument("--method", required=True, choices=METHODS)

    p = sub.add_parser("epsilon", help="budget at a fixed loss target")
    common(p)
    p.add_argument("--delta-g", type=float, required=True)
    p.add_argument("--method", required=True, choices=METHODS)

    p = sub.add_parser("curve", help="budget-vs-k table for several methods")
    common(p, rounds=False)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--delta-g", type=float, required=True)
    p.add_argument("--methods", required=True,
                   help="comma-separated subset of: " + ",".join(METHODS))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (stdout when omitted)")

    p = sub.add_parser("gap", help="certify the adaptivity gap")
    common(p, lambda_max=False)
    p.add_argument("--eps-g", type=float, required=True)

    p = sub.add_parser("validate", help="run the oracle validation suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "json"), default="table")
    return ap


def _load_eps(args) -> Rounds:
    if args.eps_file:
        try:
            with open(args.eps_file) as fh:
                eps = [float(line) for line in fh if line.strip()]
        except OSError as exc:
            raise ValueError(f"cannot read eps file: {exc}") from exc
        if not eps:
            raise ValueError("eps file contains no values")
        return _composable(Rounds.of(eps), len(eps))
    if args.eps is None:
        raise ValueError("provide --eps (with --k) or --eps-file")
    k = 1 if args.k is None else args.k
    if k < 1:
        raise ValueError(f"--k must be at least 1, got {k}")
    return _composable(Rounds.equal(args.eps, k), k)


def _composable(rounds: Rounds, entries: int) -> Rounds:
    """The rounds to compose, out of ``entries`` given: the zero ones are
    reported as skipped, and at least one must be left."""
    dropped = entries - rounds.k
    if dropped:
        # a zero-parameter round is data independent; it composes as a no-op
        print(f"# skipped {dropped} zero eps entr{'y' if dropped == 1 else 'ies'}",
              file=sys.stderr)
    if not rounds.values:
        raise ValueError("all eps entries are zero; nothing to compose")
    return rounds


def _checked_flags(args) -> tuple[AdaptiveSolverConfig, bounds.LambdaSearch]:
    """A command's flags, checked once whichever method reads them: a finite --eps
    and --eps-g (argparse's float takes nan and inf), and the solver configs."""
    for name in ("eps", "eps_g"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    return (AdaptiveSolverConfig(t_grid=args.t_grid, depth_cap=args.depth_cap),
            bounds.LambdaSearch(getattr(args, "lambda_max", bounds.LambdaSearch.lambda_max)))


def _cmd_query(args) -> int:
    """``delta`` (the loss at --eps-g) or ``epsilon`` (the budget at --delta-g)."""
    cfg, search = _checked_flags(args)
    fn, target = ((method_delta, args.eps_g) if args.command == "delta"
                  else (method_epsilon, args.delta_g))
    value, meta = fn(args.method, _load_eps(args), target, cfg, search)
    _print_value(value, dict(meta, method=args.method))
    return 0


def _cmd_curve(args) -> int:
    cfg, search = _checked_flags(args)
    if args.eps is None:
        raise ValueError("curve requires --eps (equal per-round parameters)")
    eps = _composable(Rounds.equal(args.eps, 1), 1).values[0]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = curve_rows(methods, eps, args.k_max, args.delta_g, cfg, search)
    if args.format == "json":
        text = json.dumps([row.__dict__ for row in rows], indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["k", "method", "eps", "delta_g", "eps_g", "solver_meta"])
        for r in rows:
            w.writerow([r.k, r.method, f"{r.eps:.12g}", f"{r.delta_g:.12g}",
                        f"{r.eps_g:.12g}", r.solver_meta])
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 4
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gap(args) -> int:
    cfg, _ = _checked_flags(args)
    rounds = _load_eps(args)
    if not rounds.equal_eps:
        raise CapError("gap certification supports equal per-round eps only")
    cert = gap_certificate(rounds.values[0], rounds.k, args.eps_g, cfg)
    print(json.dumps(cert.as_dict()))
    return 0


def _cmd_validate(args) -> int:
    results = validation.run_checks(args.level, args.seed)
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        width = max(len(r.check) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.check:<{width}}  got={r.got:.3e}  tol={r.tol:.3e}")
    failed = [r for r in results if not r.passed]
    print(f"# {len(results) - len(failed)}/{len(results)} checks passed", file=sys.stderr)
    return 0 if not failed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"delta": _cmd_query, "epsilon": _cmd_query, "curve": _cmd_curve,
               "gap": _cmd_gap, "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except UnreachableTargetError as exc:
        print(f"error: {exc} (boundary value {exc.boundary:.12g})", file=sys.stderr)
        return 2
    except CapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
