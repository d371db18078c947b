"""Kernel-layer bench: the fixed-t binomial kernel, the delta optimum and eps counting.

Each source tree is measured in a fresh interpreter, one after another, and
the results land in one JSON file keyed by label:

    python3 bench/bench_kernel.py                                  # this checkout's src/
    python3 bench/bench_kernel.py --src OLD/src:parent --src src:change --out BENCH_kernel.json

It records, per tree (each must define ``nonadaptive._window_pass``, whose
calls give the term counts):

- ``fixed_t_sums`` over every candidate offset at k = 445, 783, 3163 and
  6950 (the br-optcomp sizes of perfbench's large-k batch at seed 0): median
  time, the terms evaluated (windows times their padded width, summed over
  passes) and the passes;
- ``delta_opt_nonadaptive_hom(0.01, k, 1.5)`` at k = 10^4 and 10^5: median
  time, the ``tracemalloc`` peak of one more call, and the value as float.hex;
- ``bounds._as_counts`` on lists of 5, 40 and 56 000 entries: best time.

Times are wall-clock medians over ``--repeats`` runs on a host that may be
shared, so compare trees measured in the same invocation.
"""

from __future__ import annotations

import argparse
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
COUNT_SIZES = (5, 40, 56_000)


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _count_terms(nonadaptive) -> list[int]:
    """Wrap the kernel's per-pass evaluator, ``_window_pass``, so that each
    call adds the terms it evaluates to the returned one-element list."""
    terms = [0]
    inner = nonadaptive._window_pass

    def counted(*args):
        lo, span = args[-2], args[-1]
        terms[0] += lo.size * (int(span.max()) + 1)
        return inner(*args)
    nonadaptive._window_pass = counted
    return terms


def measure(repeats: int) -> dict:
    """Every measurement for the brcomp importable in this interpreter."""
    import numpy as np
    from brcomp import bounds, nonadaptive

    out = {"numpy": np.__version__, "fixed_t_sums": [], "delta_opt": [], "as_counts": []}
    terms = _count_terms(nonadaptive)
    for eps, k, eps_g in KERNEL_CASES:
        t = np.unique(np.clip((eps_g + (np.arange(k + 1) + 1.0) * eps) / (k + 1), 0.0, eps))
        t = t[(t > 0.0) & (t < eps)]
        terms[0] = 0
        res = nonadaptive.fixed_t_sums(eps, k, eps_g, t)
        counted = terms[0]
        out["fixed_t_sums"].append({
            "eps": eps, "k": k, "eps_g": eps_g, "offsets": int(t.size),
            "terms": counted, "passes": res.passes,
            "ms": 1e3 * _median_s(lambda: nonadaptive.fixed_t_sums(eps, k, eps_g, t), repeats)})
    for eps, k, eps_g in DELTA_CASES:
        seconds = _median_s(lambda: nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g), repeats)
        tracemalloc.start()
        try:
            res = nonadaptive.delta_opt_nonadaptive_hom(eps, k, eps_g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["delta_opt"].append({"eps": eps, "k": k, "eps_g": eps_g, "s": seconds,
                                 "tracemalloc_peak_mb": peak / 1e6,
                                 "delta": res.delta.hex(), "t": res.t.hex()})
    rng = np.random.default_rng(0)
    for n in COUNT_SIZES:
        values = 10.0 ** rng.uniform(-3.0, -1.0, 7)
        eps_list = values[rng.integers(0, 7, n)].tolist()
        number = max(1, 200_000 // n)
        best = min(timeit.repeat(lambda: bounds._as_counts(eps_list), number=number, repeat=5))
        out["as_counts"].append({"entries": n, "us": 1e6 * best / number})
    return out


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
    for spec in args.src or [f"{root / 'src'}:change"]:
        src, _, label = spec.rpartition(":")
        env["PYTHONPATH"] = str(Path(src).resolve())
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--repeats", str(args.repeats)],
            env=env, capture_output=True, text=True, check=True)
        result["trees"][label] = json.loads(proc.stdout)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
