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
  6950 (the br-optcomp sizes of perfbench's large-k batch at seed 0): median
  time, the terms evaluated (windows times their padded width, summed over
  passes) and the passes;
- ``delta_opt_nonadaptive_hom`` at the same four inputs: median time, the
  terms of each stage of its scan (one stage in a tree without screening),
  the rows each stage sums (the last stage's are the rows that survive the
  screen), and delta and t as float.hex;
- ``delta_opt_nonadaptive_hom(0.01, k, 1.5)`` at k = 10^4 and 10^5: median
  time, the ``tracemalloc`` peak of one more call, its terms and rows per
  stage, and the value as float.hex;
- ``delta_opt_nonadaptive_hom`` over 400 seeded curve-like inputs (eps near
  0.01, 0.1 and 1, k <= 40, eps_g within +-k eps), the small-k candidate
  scan that ``curve`` repeats: best per-call time over 7 sweeps, and a
  sha256 digest of every delta and t as float.hex, so that two trees
  compare bit for bit;
- ``Rounds.of`` on lists of 5, 40 and 56 000 entries, each once mixed (seven
  values, fresh float objects) and once equal: best time;
- the validated ``Rounds`` builds that one ``method_epsilon`` and one
  ``method_delta`` query make, for every method on an equal and an unequal
  list;
- ``curve_rows(["optkl"], 0.01, 10**5, 1e-6)``, a curve to ``CURVE_K_CAP``
  whose every row is a closed form: the time of one run;
- ``adaptive.delta_adaptive_lb`` with ``AdaptiveSolverConfig(depth_cap=8)``
  on gap-like inputs (equal eps in [0.1, 1], eps_g from -0.25 to 1.25 times
  (k - 1) eps, as perfbench's gap batch draws them) at k = 3..8: per input,
  the median time, the calls of the level evaluator
  ``adaptive._level_values`` (each golden objective call is one, and so is
  each tree value) and a sha256 digest of delta and every offset of the
  strategy as float.hex, so that two trees compare bit for bit.

The trees are measured in ``--repeats`` rounds.  Each round runs every
tree once, in a fresh interpreter that times each measurement once, and
the order of the trees alternates between rounds, so that drift of a
shared host spreads over the trees instead of landing on one.  Each
measured field (``MEASURED_FIELDS``: the times and the allocation peak) is
the median over the rounds; every other field, counts and digests alike,
must be equal in every round.  Compare trees measured in the same
invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
import tracemalloc
from pathlib import Path

# (eps, k, eps_g): the large-k delta ops at seed 0, and eps_g at the budgets
# the large-k epsilon ops at k = 445 and 783 return
KERNEL_CASES = [(0.05860183814522001, 445, 3.251431679353118),
                (0.006320696739302674, 783, 0.3616889603435993),
                (0.010795228945202708, 3163, 1.6663714160370844),
                (0.023981130017311256, 6950, 5.109616377129443)]
DELTA_CASES = [(0.01, 10 ** 4, 1.5), (0.01, 10 ** 5, 1.5)]
SCAN_INPUTS, SCAN_SWEEPS = 400, 7
COUNT_SIZES = (5, 40, 56_000)
BUILD_LISTS = {"equal": [0.1] * 3, "mixed": [0.3, 0.8]}
ADAPTIVE_KS, ADAPTIVE_PER_K = range(3, 9), 3
# measurements that vary between interpreters: the times, and the allocation
# peak, which moves by some bytes
MEASURED_FIELDS = frozenset({"ms", "s", "us", "us_per_call", "optkl_curve_to_cap_s",
                             "tracemalloc_peak_mb"})


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


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


def measure(repeats: int) -> dict:
    """Every measurement for the brcomp importable in this interpreter."""
    import numpy as np
    from brcomp import cli, nonadaptive
    from brcomp.rounds import Rounds

    out = {"numpy": np.__version__, "fixed_t_sums": [], "delta_opt": [], "candidate_scan": {},
           "as_counts": []}
    terms, stages = _count_terms(nonadaptive)
    for eps, k, eps_g in KERNEL_CASES:
        t = (eps_g + (np.arange(k + 1) + 1.0) * eps) / (k + 1)
        t = t[(t > 0.0) & (t < eps)]
        terms[0] = 0
        res = nonadaptive.fixed_t_sums(eps, k, eps_g, t)
        counted = terms[0]
        out["fixed_t_sums"].append({
            "eps": eps, "k": k, "eps_g": eps_g, "offsets": int(t.size),
            "terms": counted, "passes": res.passes,
            "ms": 1e3 * _median_s(lambda: nonadaptive.fixed_t_sums(eps, k, eps_g, t), repeats)})
    out["delta_opt_kernel_cases"] = []
    for eps, k, eps_g in KERNEL_CASES:
        stages.clear()
        res = nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g)
        out["delta_opt_kernel_cases"].append({
            "eps": eps, "k": k, "eps_g": eps_g,
            "stage_terms": [s[0] for s in stages], "stage_rows": [s[1] for s in stages],
            "delta": res.delta.hex(), "t": res.t.hex(),
            "ms": 1e3 * _median_s(lambda: nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g),
                                  repeats)})
    for eps, k, eps_g in DELTA_CASES:
        seconds = _median_s(lambda: nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g), repeats)
        stages.clear()
        tracemalloc.start()
        try:
            res = nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["delta_opt"].append({"eps": eps, "k": k, "eps_g": eps_g, "s": seconds,
                                 "tracemalloc_peak_mb": peak / 1e6,
                                 "stage_terms": [s[0] for s in stages],
                                 "stage_rows": [s[1] for s in stages],
                                 "delta": res.delta.hex(), "t": res.t.hex()})
    rng = np.random.default_rng(1)
    scan = []
    for _ in range(SCAN_INPUTS):
        eps = float(10.0 ** (rng.integers(-2, 1) + rng.uniform(-0.3, 0.3)))
        k = int(rng.integers(1, 41))
        scan.append((eps, k, float(k * eps * rng.uniform(-1.0, 1.0))))

    def sweep():
        return [nonadaptive.delta_opt_nonadaptive_hom(*args) for args in scan]
    best = min(timeit.repeat(sweep, number=1, repeat=SCAN_SWEEPS))
    digest = hashlib.sha256(
        "\n".join(f"{r.delta.hex()} {r.t.hex()}" for r in sweep()).encode()).hexdigest()
    out["candidate_scan"] = {"inputs": SCAN_INPUTS, "us_per_call": 1e6 * best / SCAN_INPUTS,
                             "sha256": digest}
    rng = np.random.default_rng(0)
    for n in COUNT_SIZES:
        values = 10.0 ** rng.uniform(-3.0, -1.0, 7)
        lists = {"mixed": values[rng.integers(0, 7, n)].tolist(), "equal": [values[0]] * n}
        number = max(1, 200_000 // n)
        for kind, eps_list in lists.items():
            best = min(timeit.repeat(lambda: Rounds.of(eps_list), number=number, repeat=5))
            out["as_counts"].append({"entries": n, "list": kind, "us": 1e6 * best / number})
    out["builds_per_query"] = _count_builds(cli)
    start = time.perf_counter()
    cli.curve_rows(["optkl"], 0.01, cli.CURVE_K_CAP, 1e-6)
    out["optkl_curve_to_cap_s"] = time.perf_counter() - start
    out["adaptive_lb"] = _adaptive_lb(repeats)
    return out


def _adaptive_lb(repeats: int) -> list[dict]:
    """``delta_adaptive_lb`` at seeded gap-like inputs: median time, level
    evaluator calls and a digest of the bound and its strategy."""
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
                        "ms": 1e3 * _median_s(
                            lambda: adaptive.delta_adaptive_lb([eps] * k, eps_g, cfg), repeats)})
    return out


def _count_builds(cli) -> dict:
    """List builds per query: one epsilon query at delta_g = 1e-6 (not for
    the delta-only edge-*) and one delta query at half the summed eps, per
    method and list.  A refused query (exit 2 or 3) counts the builds made
    before the refusal."""
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
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.repeats)))
        return 0
    root = Path(__file__).resolve().parent.parent
    result = {"host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version()},
              "repeats": args.repeats, "trees": {}}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    specs = [spec.rpartition(":") for spec in args.src or [f"{root / 'src'}:change"]]
    rounds = {label: [] for _, _, label in specs}
    for r in range(args.repeats):
        for src, _, label in specs if r % 2 == 0 else specs[::-1]:
            env["PYTHONPATH"] = str(Path(src).resolve())
            proc = subprocess.run([sys.executable, __file__, "--child", "--repeats", "1"],
                                  env=env, capture_output=True, text=True, check=True)
            rounds[label].append(json.loads(proc.stdout))
    for label, runs in rounds.items():
        result["trees"][label] = merge_rounds(runs)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
