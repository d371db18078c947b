"""Kernel-layer bench: the fixed-t binomial kernel, the delta optimum and eps counting.

Each source tree is measured in fresh interpreters, and the results land in
one JSON file keyed by label:

    python3 bench/bench_kernel.py                                  # this checkout's src/
    python3 bench/bench_kernel.py --src OLD/src:parent --src src:change --out BENCH_kernel.json

It records, per tree (each must define ``brcomp.rounds``,
``nonadaptive._window_pass``, whose calls give the term counts from their
rows and padded width, and ``nonadaptive._window_sums``, one call per stage
of a scan):

- ``fixed_t_sums`` over every candidate offset at k = 445, 783, 3163 and
  6950 (the br-optcomp sizes of perfbench's large-k batch at seed 0): time,
  the terms evaluated (windows times their padded width, summed over
  passes) and the passes;
- ``delta_opt_nonadaptive_hom`` at the same four inputs: time, the
  terms of each stage of its scan (one stage in a tree without screening),
  the rows each stage sums (the last stage's are the rows that survive the
  screen), and delta and t as float.hex;
- ``method_epsilon("br-optcomp", ...)`` at the three br-optcomp epsilon
  inputs of the same batch (k = 256, 445 and 783): time, the
  ``method_delta`` evaluations, the candidate scans
  (``delta_opt_nonadaptive_hom`` calls, through ``cli`` or within
  ``nonadaptive``, as a budget seed makes them), the single-offset rows
  (``fixed_t_sums`` calls, which only a seed's roots make), the full stages
  of the scans (``_in_play`` calls, one per scan that sums its rows in
  play), the path and the budget as float.hex;
- ``delta_opt_nonadaptive_hom(0.01, k, 1.5)`` at k = 10^4 and 10^5: time,
  the ``tracemalloc`` peak of one more call, its terms and rows per stage,
  and the value as float.hex;
- ``delta_opt_nonadaptive_hom`` over 400 seeded curve-like inputs (eps near
  0.01, 0.1 and 1, k <= 40, eps_g within +-k eps), the small-k candidate
  scan that ``curve`` repeats: time per call, and a sha256 digest of every
  delta and t as float.hex, so that two trees compare bit for bit;
- ``Rounds.of`` on lists of 5, 40, 500, 2000 and 56 000 entries (both sides
  of ``rounds.SORTED_COUNT_MIN``), each once mixed (seven values, fresh float
  objects) and once equal; on 56 000 entries that share seven float objects,
  as perfbench builds its lists, once as a list and once as an array; and on
  56 000 entries drawn from 3000 distinct values: time per call;
- the validated ``Rounds`` builds that one ``method_epsilon`` and one
  ``method_delta`` query make, for every method on an equal and an unequal
  list;
- ``curve_rows(["optkl"], 0.01, 10**5, 1e-6)``, a curve to ``CURVE_K_CAP``
  whose every row is a closed form: its time;
- ``adaptive.delta_adaptive_lb`` with ``AdaptiveSolverConfig(depth_cap=8)``
  on gap-like inputs (equal eps in [0.1, 1], eps_g from -0.25 to 1.25 times
  (k - 1) eps, as perfbench's gap batch draws them) at k = 3..8: per input,
  the time, the calls of the level evaluator
  ``adaptive._level_values`` (each golden objective call is one, and so is
  each tree value) and a sha256 digest of delta and every offset of the
  strategy as float.hex, so that two trees compare bit for bit.

Every time is per call, from ``timeit``: the best of ``TIMEIT_REPEATS``
runs of as many calls as last at least ``MIN_RUN_S`` (one call, for the
slowest).  A single call of a fraction of a millisecond is one noisy
reading on a shared host; so many calls in a run, and the best run, keep
that noise out.  Each time is then given at reference speed, as perfbench
gives its times: scaled by ``CAL_REF_S`` over the time of perfbench's
calibration kernel (Python float arithmetic and small numpy operations),
timed the same way just before and just after the section in the same
interpreter.  So a load that slows the whole interpreter slows the kernel
too and drops out; ``calibration`` records the kernel's raw time per
section.  The trees are measured in ``--repeats`` rounds.  A round
runs each section (``SECTIONS``) in a fresh interpreter per tree, the trees
back to back, and the order of the trees alternates between rounds: the
load of a shared host drifts over seconds to minutes, so the trees read a
section under nearly the same load, and what drift is left spreads over
both.  Each measured field (``MEASURED_FIELDS``: the times and the
allocation peak) is the median over the rounds; every other field, counts
and digests alike, must be equal in every round.  Compare trees measured
in the same invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import timeit
import tracemalloc
from pathlib import Path

# (eps, k, delta_g): the br-optcomp epsilon ops of the large-k batch at seed 0
BUDGET_CASES = [(0.0018346359799883717, 256, 7.338195220043259e-06),
                (0.05860183814522001, 445, 3.713554841240882e-08),
                (0.006320696739302674, 783, 5.031145762475223e-07)]
# (eps, k, eps_g): the large-k delta ops at seed 0, and eps_g at the budgets
# the large-k epsilon ops at k = 445 and 783 return
KERNEL_CASES = [(0.05860183814522001, 445, 3.251431679353118),
                (0.006320696739302674, 783, 0.3616889603435993),
                (0.010795228945202708, 3163, 1.6663714160370844),
                (0.023981130017311256, 6950, 5.109616377129443)]
DELTA_CASES = [(0.01, 10 ** 4, 1.5), (0.01, 10 ** 5, 1.5)]
SCAN_INPUTS = 400
# both sides of rounds.SORTED_COUNT_MIN (1000), and the largest large-k list
COUNT_SIZES = (5, 40, 500, 2000, 56_000)
COUNT_SHARED, COUNT_MANY = 56_000, (56_000, 3000)
BUILD_LISTS = {"equal": [0.1] * 3, "mixed": [0.3, 0.8]}
ADAPTIVE_KS, ADAPTIVE_PER_K = range(3, 9), 3
MIN_RUN_S, TIMEIT_REPEATS = 0.2, 3
# perfbench's calibration kernel (run.py, calibration_time) and its time on
# perfbench's reference host
CAL_LOOPS, CAL_ARRAY_OPS, CAL_REF_S = 8000, 80, 0.0025
# measurements that vary between interpreters: the times, scaled to reference
# speed, the calibration kernel's raw time, and the allocation peak, which
# moves by some bytes
TIME_FIELDS = frozenset({"ms", "s", "us", "us_per_call", "optkl_curve_to_cap_s"})
MEASURED_FIELDS = TIME_FIELDS | {"calibration_ms", "tracemalloc_peak_mb"}


def _per_call_s(fn) -> float:
    """Seconds per call of ``fn``: the best of ``TIMEIT_REPEATS`` timeit runs
    of as many calls as the first call says will last ``MIN_RUN_S``."""
    timer = timeit.Timer(fn)
    number = max(1, math.ceil(MIN_RUN_S / timer.timeit(1)))
    return min(timer.repeat(TIMEIT_REPEATS, number)) / number


def _calibration_s() -> float:
    """Seconds per run of perfbench's calibration kernel, timed like every
    measurement here."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096)

    def kernel():
        s = 0.0
        for i in range(CAL_LOOPS):
            s += math.exp(-i * 1e-3) * math.log1p(i)
        for _ in range(CAL_ARRAY_OPS):
            s += float(np.log1p(np.exp(-x)).sum())
        return s
    return _per_call_s(kernel)


def _at_reference_speed(result, factor: float, field: str | None = None):
    """``result`` with every time field (``TIME_FIELDS``) multiplied by ``factor``."""
    if isinstance(result, dict):
        return {key: _at_reference_speed(value, factor, key) for key, value in result.items()}
    if isinstance(result, list):
        return [_at_reference_speed(value, factor, field) for value in result]
    return result * factor if field in TIME_FIELDS else result


def _count_terms(nonadaptive) -> tuple[list[int], list[list[int]]]:
    """Wrap the kernel's per-pass evaluator, ``_window_pass``, so that each
    call adds the terms it evaluates to the returned one-element list, and
    the per-stage evaluator, ``_window_sums``, so that each call appends its
    [terms, rows of its first pass] to the returned list of stages."""
    terms, stages = [0], []
    inner_pass, inner_sums = nonadaptive._window_pass, nonadaptive._window_sums

    def counted_pass(*args):
        lo, width = args[7], args[9]
        terms[0] += lo.size * width
        if stages and stages[-1][1] is None:
            stages[-1][1] = lo.size
        return inner_pass(*args)

    def counted_sums(*args):
        stages.append([terms[0], None])
        try:
            return inner_sums(*args)
        finally:
            stages[-1][0] = terms[0] - stages[-1][0]
    nonadaptive._window_pass, nonadaptive._window_sums = counted_pass, counted_sums
    return terms, stages


def _fixed_t_sums() -> list[dict]:
    import numpy as np
    from brcomp import nonadaptive

    terms, _ = _count_terms(nonadaptive)
    out = []
    for eps, k, eps_g in KERNEL_CASES:
        t = (eps_g + (np.arange(k + 1) + 1.0) * eps) / (k + 1)
        t = t[(t > 0.0) & (t < eps)]
        terms[0] = 0
        res = nonadaptive.fixed_t_sums(eps, k, eps_g, t)
        out.append({"eps": eps, "k": k, "eps_g": eps_g, "offsets": int(t.size),
                    "terms": terms[0], "passes": res.passes,
                    "ms": 1e3 * _per_call_s(lambda: nonadaptive.fixed_t_sums(eps, k, eps_g, t))})
    return out


def _delta_opt_kernel_cases() -> list[dict]:
    from brcomp import nonadaptive

    _, stages = _count_terms(nonadaptive)
    out = []
    for eps, k, eps_g in KERNEL_CASES:
        stages.clear()
        res = nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g)
        out.append({
            "eps": eps, "k": k, "eps_g": eps_g,
            "stage_terms": [s[0] for s in stages], "stage_rows": [s[1] for s in stages],
            "delta": res.delta.hex(), "t": res.t.hex(),
            "ms": 1e3 * _per_call_s(lambda: nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g))})
    return out


def _br_optcomp_budget() -> list[dict]:
    from brcomp import cli, nonadaptive

    counts = {}

    def count(module, name, field):
        inner = getattr(module, name)

        def counted(*args, **kw):
            counts[field] += 1
            return inner(*args, **kw)
        setattr(module, name, counted)
    count(cli, "method_delta", "method_delta_calls")
    # method_delta scans through cli's name for the kernel, a seed through nonadaptive's
    count(cli, "delta_opt_nonadaptive_hom", "scans")
    count(nonadaptive, "delta_opt_nonadaptive_hom", "scans")
    count(nonadaptive, "fixed_t_sums", "rows")
    # one call in each scan that sums its rows in play
    count(nonadaptive, "_in_play", "full_stages")
    out = []
    for eps, k, delta_g in BUDGET_CASES:
        counts.update(method_delta_calls=0, scans=0, rows=0, full_stages=0)
        budget, meta = cli.method_epsilon("br-optcomp", [eps] * k, delta_g)
        out.append({"eps": eps, "k": k, "delta_g": delta_g, "budget": budget.hex(),
                    "path": meta["path"], **counts,
                    "ms": 1e3 * _per_call_s(
                        lambda: cli.method_epsilon("br-optcomp", [eps] * k, delta_g))})
    return out


def _delta_opt() -> list[dict]:
    from brcomp import nonadaptive

    _, stages = _count_terms(nonadaptive)
    out = []
    for eps, k, eps_g in DELTA_CASES:
        seconds = _per_call_s(lambda: nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g))
        stages.clear()
        tracemalloc.start()
        try:
            res = nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.append({"eps": eps, "k": k, "eps_g": eps_g, "s": seconds,
                    "tracemalloc_peak_mb": peak / 1e6,
                    "stage_terms": [s[0] for s in stages], "stage_rows": [s[1] for s in stages],
                    "delta": res.delta.hex(), "t": res.t.hex()})
    return out


def _candidate_scan() -> dict:
    import numpy as np
    from brcomp import nonadaptive

    rng = np.random.default_rng(1)
    scan = []
    for _ in range(SCAN_INPUTS):
        eps = float(10.0 ** (rng.integers(-2, 1) + rng.uniform(-0.3, 0.3)))
        k = int(rng.integers(1, 41))
        scan.append((eps, k, float(k * eps * rng.uniform(-1.0, 1.0))))

    def sweep():
        return [nonadaptive.delta_opt_nonadaptive_hom(*args) for args in scan]
    digest = hashlib.sha256(
        "\n".join(f"{r.delta.hex()} {r.t.hex()}" for r in sweep()).encode()).hexdigest()
    return {"inputs": SCAN_INPUTS, "us_per_call": 1e6 * _per_call_s(sweep) / SCAN_INPUTS,
            "sha256": digest}


def _as_counts() -> list[dict]:
    import numpy as np
    from brcomp.rounds import Rounds

    rng = np.random.default_rng(0)
    cases = []
    for n in COUNT_SIZES:
        values = 10.0 ** rng.uniform(-3.0, -1.0, 7)
        cases += [(n, "mixed", values[rng.integers(0, 7, n)].tolist()),
                  (n, "equal", [values[0]] * n)]
    # perfbench's shape: seven float objects shared over the list, and the
    # same rounds as an array
    seven = (10.0 ** rng.uniform(-3.0, -1.0, 7)).tolist()
    shared = [seven[i] for i in rng.integers(0, 7, COUNT_SHARED).tolist()]
    cases += [(COUNT_SHARED, "shared", shared), (COUNT_SHARED, "shared-array", np.array(shared))]
    n, distinct = COUNT_MANY
    many = 10.0 ** rng.uniform(-3.0, -1.0, distinct)
    cases.append((n, f"{distinct}-distinct", many[rng.integers(0, distinct, n)].tolist()))
    return [{"entries": n, "list": kind, "us": 1e6 * _per_call_s(lambda: Rounds.of(eps_list))}
            for n, kind, eps_list in cases]


def _optkl_curve_to_cap_s() -> float:
    from brcomp import cli

    return _per_call_s(lambda: cli.curve_rows(["optkl"], 0.01, cli.CURVE_K_CAP, 1e-6))


def _adaptive_lb() -> list[dict]:
    """``delta_adaptive_lb`` at seeded gap-like inputs: time, level evaluator
    calls and a digest of the bound and its strategy."""
    import numpy as np
    from brcomp import adaptive

    cfg = adaptive.AdaptiveSolverConfig(depth_cap=8)
    calls = [0]
    inner = adaptive._level_values

    def counted(*args):
        calls[0] += 1
        return inner(*args)
    rng = np.random.default_rng(2)
    out = []
    for k in ADAPTIVE_KS:
        for _ in range(ADAPTIVE_PER_K):
            eps = float(rng.uniform(0.1, 1.0))
            eps_g = float(rng.uniform(-0.25, 1.25)) * (k - 1) * eps
            adaptive._level_values, calls[0] = counted, 0
            try:
                res = adaptive.delta_adaptive_lb([eps] * k, eps_g, cfg)
            finally:
                adaptive._level_values = inner
            text = " ".join(v.hex() for v in [res.delta, *res.strategy.t_nodes.tolist()])
            out.append({"eps": eps, "k": k, "eps_g": eps_g, "evaluator_calls": calls[0],
                        "sha256": hashlib.sha256(text.encode()).hexdigest(),
                        "ms": 1e3 * _per_call_s(
                            lambda: adaptive.delta_adaptive_lb([eps] * k, eps_g, cfg))})
    return out


def _builds_per_query() -> dict:
    """List builds per query: one epsilon query at delta_g = 1e-6 (not for
    the delta-only edge-*) and one delta query at half the summed eps, per
    method and list.  A refused query (exit 2 or 3) counts the builds made
    before the refusal."""
    from brcomp import cli
    from brcomp.rounds import Rounds

    calls = [0]
    validated = Rounds.__dict__["_validated"]
    inner = Rounds._validated   # called through the class, so the bound original is wrapped

    def counted(*args):
        calls[0] += 1
        return inner(*args)
    Rounds._validated = counted
    out = {}
    try:
        for method in cli.METHODS:
            for kind, eps_list in BUILD_LISTS.items():
                queries = {"delta": lambda: cli.method_delta(method, eps_list,
                                                             0.5 * sum(eps_list))}
                if not method.startswith("edge-"):
                    queries["epsilon"] = lambda: cli.method_epsilon(method, eps_list, 1e-6)
                for name, query in queries.items():
                    calls[0] = 0
                    try:
                        query()
                    except (ValueError, cli.CapError):
                        pass
                    out[f"{method}|{kind}|{name}"] = calls[0]
    finally:
        Rounds._validated = validated
    return out


# the sections in output order; each runs in a child interpreter of its own
SECTIONS = {"fixed_t_sums": _fixed_t_sums, "delta_opt": _delta_opt,
            "candidate_scan": _candidate_scan, "as_counts": _as_counts,
            "delta_opt_kernel_cases": _delta_opt_kernel_cases,
            "br_optcomp_budget": _br_optcomp_budget,
            "builds_per_query": _builds_per_query, "optkl_curve_to_cap_s": _optkl_curve_to_cap_s,
            "adaptive_lb": _adaptive_lb}


def measure(section: str) -> dict:
    """One section's measurements for the brcomp importable in this
    interpreter, at reference speed, and the calibration kernel's time."""
    import numpy as np

    before = _calibration_s()
    result = SECTIONS[section]()
    cal = 0.5 * (before + _calibration_s())
    return {"numpy": np.__version__, "calibration": {section: {"calibration_ms": 1e3 * cal}},
            **_at_reference_speed({section: result}, CAL_REF_S / cal)}


def merge_rounds(rounds: list, field: str | None = None):
    """One tree's rounds as one result: the median of each measured field, and
    every other field as it is, after checking that it is equal in every
    round."""
    first = rounds[0]
    if isinstance(first, dict):
        if any(r.keys() != first.keys() for r in rounds):
            raise ValueError(f"{field}: the rounds have different fields")
        return {key: merge_rounds([r[key] for r in rounds], key) for key in first}
    if field in MEASURED_FIELDS:
        return statistics.median(rounds)
    if isinstance(first, list):
        if any(len(r) != len(first) for r in rounds):
            raise ValueError(f"{field}: the rounds have different lengths")
        return [merge_rounds(list(items), field) for items in zip(*rounds)]
    if any(r != first for r in rounds):
        raise ValueError(f"{field} differs between rounds: {rounds}")
    return first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", metavar="DIR:LABEL",
                    help="a tree's src/ directory and its label "
                         "(default: this checkout's src, labelled change)")
    ap.add_argument("--out", default="BENCH_kernel.json")
    ap.add_argument("--repeats", type=int, default=3, help="rounds over the trees")
    ap.add_argument("--child", choices=SECTIONS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child)))
        return 0
    root = Path(__file__).resolve().parent.parent
    result = {"host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version()},
              "repeats": args.repeats, "trees": {}}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    specs = [spec.rpartition(":") for spec in args.src or [f"{root / 'src'}:change"]]
    rounds = {label: [{} for _ in range(args.repeats)] for _, _, label in specs}
    for r in range(args.repeats):
        for section in SECTIONS:
            for src, _, label in specs if r % 2 == 0 else specs[::-1]:
                env["PYTHONPATH"] = str(Path(src).resolve())
                proc = subprocess.run([sys.executable, __file__, "--child", section],
                                      env=env, capture_output=True, text=True, check=True)
                out = json.loads(proc.stdout)
                rounds[label][r].setdefault("calibration", {}).update(out.pop("calibration"))
                rounds[label][r].update(out)
    for label, runs in rounds.items():
        result["trees"][label] = merge_rounds(runs)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
