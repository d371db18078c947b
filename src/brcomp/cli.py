"""Command-line accountant: delta/epsilon queries, budget curves, gap
certificates, and the validation suite.

An ``epsilon`` answer with no closed form is the smallest point of a fixed
budget lattice at which the method's own delta is at most delta_g, checked
there and one step below (``_bisect_epsilon``).

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
import sys
from dataclasses import dataclass

from . import bounds, validation
from .adaptive import (AdaptiveSolverConfig, adaptive_edge_high, adaptive_edge_low,
                       delta_adaptive_lb, gap_certificate)
from .errors import CapError, UnreachableTargetError
from .nonadaptive import (TIE_RTOL, _equal_eps, delta_het_fixed_t, delta_opt_nonadaptive_hom,
                          dp_optcomp_het, dp_optcomp_hom, fixed_t_inverse)
from .optim import budget_step, lattice_search
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


@dataclass(frozen=True)
class Options:
    t_grid: int = AdaptiveSolverConfig.t_grid
    depth_cap: int = AdaptiveSolverConfig.depth_cap
    lambda_max: float = bounds.LambdaSearch.lambda_max

    def solver_cfg(self) -> AdaptiveSolverConfig:
        return AdaptiveSolverConfig(t_grid=self.t_grid, depth_cap=self.depth_cap)

    def search(self) -> bounds.LambdaSearch:
        return bounds.LambdaSearch(lambda_max=self.lambda_max)


def method_delta(method: str, eps_list, eps_g: float,
                 opts: Options = Options(), *, describe: bool = True) -> tuple[float, dict]:
    """Additive loss of the named method at budget eps_g, plus solver metadata.

    ``describe=False`` skips metadata that costs extra evaluations (the
    ``br-optcomp`` comparison with half-DP); bisection only needs the value.
    """
    k = len(eps_list)
    if k == 0:
        raise ValueError("eps_list must be nonempty")
    eps0 = eps_list[0]
    hom = _equal_eps(eps_list)
    if method == "basic":
        ok = eps_g >= bounds.basic_composition(eps_list) - 1e-15
        return (0.0 if ok else 1.0), {"note": "no guarantee below the summed budget"}
    if method == "dp-optcomp":
        if hom:
            return dp_optcomp_hom(eps0, k, eps_g), {}
        return dp_optcomp_het(eps_list, eps_g), {"form": "subset-sum"}
    if method == "dp-optcomp-half":
        if hom:
            return dp_optcomp_hom(eps0 / 2.0, k, eps_g), {}
        return dp_optcomp_het([e / 2.0 for e in eps_list], eps_g), {"form": "subset-sum"}
    if method == "br-optcomp":
        if hom:
            res = delta_opt_nonadaptive_hom(eps0, k, eps_g)
            meta = {"t": res.t}
            if describe and math.isclose(res.delta, dp_optcomp_hom(eps0 / 2.0, k, eps_g),
                                         rel_tol=TIE_RTOL):
                meta["coincides_with_half_dp"] = True
            return res.delta, meta
        if k <= validation.BRUTE_FORCE_CAP:
            t = brute_force_nonadaptive(eps_list, eps_g, 400).t   # valued by the finer kernel
            return delta_het_fixed_t(eps_list, eps_g, t), {"form": "grid-oracle", "t": t.tolist()}
        raise CapError("heterogeneous optimal composition has no known efficient "
                       f"algorithm; grid oracle supports k <= {validation.BRUTE_FORCE_CAP}")
    if method == "adaptive-lb":
        res = delta_adaptive_lb(eps_list, eps_g, opts.solver_cfg())
        return res.delta, {"t_grid": res.t_grid, "refine_iters": res.refine_iters,
                           "kind": "lower-bound"}
    if method in _U_KIND:
        res = bounds.generic_delta_from_u(_U_KIND[method], eps_list, eps_g, opts.search())
        return res.delta, {"lambda": res.lam, "at_ceiling": res.at_ceiling}
    if method == "optkl":
        if eps_g >= bounds.basic_composition(eps_list) - 1e-15:
            return 0.0, {"branch": "basic"}
        res = bounds.generic_delta_from_u(bounds.UFunctionKind.KL_IMPROVED_DR19,
                                          eps_list, eps_g, opts.search())
        return res.delta, {"lambda": res.lam}
    if method == "mgf":
        res = bounds.mgf_delta(eps_list, eps_g, opts.search())
        return res.delta, {"lambda": res.lam, "at_ceiling": res.at_ceiling}
    if method == "edge-high":
        _require_hom(method, hom)
        return adaptive_edge_high(eps0, k, eps_g), {}
    if method == "edge-low":
        _require_hom(method, hom)
        return adaptive_edge_low(eps0, k, eps_g), {}
    raise ValueError(f"unknown method {method!r}")


def _require_hom(method: str, hom: bool) -> None:
    if not hom:
        raise CapError(f"method {method} supports equal per-round eps only")


def method_epsilon(method: str, eps_list, delta_g: float,
                   opts: Options = Options()) -> tuple[float, dict]:
    """Smallest budget at which the named method certifies delta_g."""
    if not 0.0 < delta_g < 1.0:
        raise ValueError(f"delta_g must lie in (0, 1), got {delta_g}")
    if method in ("edge-high", "edge-low"):
        raise ValueError(f"method {method} supports the delta direction only")
    if method == "basic":
        return bounds.basic_composition(eps_list), {"closed_form": True}
    if method == "optkl":
        return bounds.optkl_epsilon(eps_list, delta_g, opts.search()), {"closed_form": True}
    if method in _U_KIND:
        res = bounds.quadratic_epsilon(_U_KIND[method], eps_list, delta_g, opts.search())
        return res.eps_g, {"closed_form": True, "lambda": res.lam,
                           "at_ceiling": res.at_ceiling}
    if method == "mgf":
        res = bounds.mgf_epsilon(eps_list, delta_g, opts.search())
        return res.eps_g, {"lambda": res.lam, "capped_at_basic": res.capped_at_basic}
    return _bisect_epsilon(method, eps_list, delta_g, opts)


def _bisect_epsilon(method: str, eps_list, delta_g: float, opts: Options) -> tuple[float, dict]:
    """The method's budget: the smallest point of the budget lattice
    (``optim.budget_step``, 2^-30 below a summed eps of 2^20) at which its
    own delta is <= delta_g, confirmed there and one step below.

    Equal-eps ``dp-optcomp`` and ``dp-optcomp-half`` seed the search with
    the closed form ``fixed_t_inverse`` at the midpoint offset (path
    ``closed-form``); the other methods bisect the lattice over
    [-sum eps, sum eps].  Where delta is nonincreasing on the lattice the
    answer does not depend on the path.  The methods share the lattice for
    a given eps_list, so a pointwise delta ordering between two such
    methods (half-DP <= br-optcomp <= DP) carries over to their budgets.
    Were the lower delta's budget x above the other's, then at x - step,
    at or above the other's budget, the other delta would be <= delta_g
    (it is nonincreasing) yet at least the lower one, which exceeds delta_g.
    """
    span = bounds.basic_composition(eps_list)
    if not span > 0.0:
        raise ValueError("zero-width budget bracket: every round has eps = 0")

    def delta(eps_g: float) -> float:
        return method_delta(method, eps_list, eps_g, opts, describe=False)[0]

    d_lo = delta(-span)
    if delta_g > d_lo:
        raise UnreachableTargetError(
            f"delta_g={delta_g} exceeds the largest achievable value {d_lo}", d_lo)
    step = budget_step(span)
    eps_g, path = lattice_search(delta, delta_g, -span, span, step,
                                 _closed_form_budget(method, eps_list, delta_g))
    return eps_g, {"budget_step": step, "path": path}


def _closed_form_budget(method: str, eps_list, delta_g: float) -> float | None:
    """The DP baselines' budget at equal eps: their loss is the fixed-offset
    sum at the midpoint, which ``fixed_t_inverse`` inverts.  None otherwise."""
    if method not in ("dp-optcomp", "dp-optcomp-half") or not _equal_eps(eps_list):
        return None
    e = eps_list[0] if method == "dp-optcomp" else eps_list[0] / 2.0
    return fixed_t_inverse(2.0 * e, len(eps_list), e, delta_g)


def curve_rows(methods, eps: float, k_max: int, delta_g: float,
               opts: Options = Options()) -> list[CurveRow]:
    """One row per (method, k): the budget at which the method certifies delta_g."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if k_max > CURVE_K_CAP:
        raise CapError(f"k_max exceeds the curve cap {CURVE_K_CAP}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    rows = []
    for method in methods:
        for k in range(1, k_max + 1):
            eg, meta = method_epsilon(method, [eps] * k, delta_g, opts)
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
        p.add_argument("--eps", type=float, help="per-round parameter (equal rounds)")
        if rounds:
            p.add_argument("--eps-file", help="newline-separated per-round parameters")
            p.add_argument("--k", type=int, help="number of rounds (with --eps)")
        p.add_argument("--t-grid", type=int, default=Options.t_grid)
        p.add_argument("--depth-cap", type=int, default=Options.depth_cap)
        if lambda_max:
            p.add_argument("--lambda-max", type=float, default=Options.lambda_max)

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


def _load_eps(args) -> list[float]:
    if args.eps_file:
        try:
            with open(args.eps_file) as fh:
                eps = [float(line) for line in fh if line.strip()]
        except OSError as exc:
            raise ValueError(f"cannot read eps file: {exc}") from exc
        if not eps:
            raise ValueError("eps file contains no values")
    else:
        if args.eps is None:
            raise ValueError("provide --eps (with --k) or --eps-file")
        k = 1 if args.k is None else args.k
        if k < 1:
            raise ValueError(f"--k must be at least 1, got {k}")
        eps = [args.eps] * k
    if not all(0.0 <= e < math.inf for e in eps):
        raise ValueError("eps must be finite and nonnegative")
    dropped = sum(1 for e in eps if e == 0.0)
    if dropped:
        # a zero-parameter round is data independent; it composes as a no-op
        print(f"# skipped {dropped} zero eps entr{'y' if dropped == 1 else 'ies'}",
              file=sys.stderr)
        eps = [e for e in eps if e > 0.0]
    if not eps:
        raise ValueError("all eps entries are zero; nothing to compose")
    return eps


def _opts(args) -> Options:
    return Options(t_grid=args.t_grid, depth_cap=args.depth_cap, lambda_max=args.lambda_max)


def _cmd_delta(args) -> int:
    value, meta = method_delta(args.method, _load_eps(args), args.eps_g, _opts(args))
    _print_value(value, dict(meta, method=args.method))
    return 0


def _cmd_epsilon(args) -> int:
    value, meta = method_epsilon(args.method, _load_eps(args), args.delta_g, _opts(args))
    _print_value(value, dict(meta, method=args.method))
    return 0


def _cmd_curve(args) -> int:
    if args.eps is None:
        raise ValueError("curve requires --eps (equal per-round parameters)")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = curve_rows(methods, args.eps, args.k_max, args.delta_g, _opts(args))
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
    eps_list = _load_eps(args)
    if not _equal_eps(eps_list):
        raise CapError("gap certification supports equal per-round eps only")
    cert = gap_certificate(eps_list[0], len(eps_list), args.eps_g,
                           AdaptiveSolverConfig(t_grid=args.t_grid, depth_cap=args.depth_cap))
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


def _require_finite(args) -> None:
    """argparse's float accepts nan and inf; refuse them for --eps and --eps-g."""
    for name in ("eps", "eps_g"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"delta": _cmd_delta, "epsilon": _cmd_epsilon, "curve": _cmd_curve,
               "gap": _cmd_gap, "validate": _cmd_validate}[args.command]
    try:
        _require_finite(args)
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
