"""Span tracing of brcomp's public functions, installed from outside the program.

Each target is wrapped once and the wrapper is bound at every site that
holds the original: the defining module, every ``from .x import f`` binding
in the other brcomp modules, and the package namespace.  Calls that go
through module globals (``cli._bisect_epsilon`` calling ``method_delta``,
``bounds.u_function`` calling ``h_eps``) then reach the wrapper too.

Spans are kept in memory as (target index, start, end, parent span,
operation id) and written out when the run ends.  ``grr``'s scalar
primitives run once per strategy-tree node, so wrapping them would distort
the run; they are not traced.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time

TARGETS = {
    "cli": ("method_epsilon", "method_delta", "curve_rows"),
    "nonadaptive": ("delta_opt_nonadaptive_hom", "delta_hom_fixed_t", "dp_optcomp_hom",
                    "dp_optcomp_het"),
    "bounds": ("h_eps", "generic_delta_from_u", "mgf_epsilon", "mgf_delta", "optkl_epsilon",
               "basic_composition"),
    "adaptive": ("gap_certificate", "delta_adaptive_lb", "StrategyTree.value"),
    "optim": ("golden_max", "golden_min"),
    "validation": ("run_checks", "brute_force_nonadaptive", "simulate_adaptive_game",
                   "finite_diff_check", "hockey_stick"),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
RATIOS = ("cli.evals_per_epsilon", "bounds.h_eps_per_mgf_query")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{n}.{s}" for n in NAMES for s in ("calls", "self_s")]
    return names + [f"{m}.self_s" for m in TARGETS] + list(RATIOS) + ["trace_overhead_frac"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1              # id of the operation now running
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "brcomp" or name.startswith("brcomp.")]
        for idx, name in enumerate(NAMES):
            mod_name, attr = name.split(".", 1)
            owner = importlib.import_module(f"brcomp.{mod_name}")
            if "." in attr:   # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(idx, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(idx, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def _patch(self, obj, key, orig, wrapper) -> None:
        setattr(obj, key, wrapper)
        self._patches.append((obj, key, orig))

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, self.op)

        return traced

    def write(self, path, t0: float) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start_s", "end_s", "parent", "op"])
            for idx, start, end, parent, op in self.spans:
                w.writerow([NAMES[idx], f"{start - t0:.9f}", f"{end - t0:.9f}", parent, op])


def summarize(spans, group_of_op) -> list[dict]:
    """Per-layer metrics for each group of operations (a group is one batch).

    Self time is a span's duration minus the durations of its child spans;
    in one thread the children of a span never overlap each other.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    i_meps, i_mdelta = NAMES.index("cli.method_epsilon"), NAMES.index("cli.method_delta")
    i_h = NAMES.index("bounds.h_eps")
    mgf = {NAMES.index("bounds.mgf_epsilon"), NAMES.index("bounds.mgf_delta")}
    mgf_anc = [-1] * len(spans)     # nearest enclosing mgf query, parents come first
    bisected = set()                # method_epsilon spans that called method_delta
    groups: dict = {}
    for j, (idx, start, end, parent, op) in enumerate(spans):
        g = groups.setdefault(group_of_op(op), {"calls": [0] * len(NAMES),
                                                "self": [0.0] * len(NAMES),
                                                "evals": 0, "h_in_mgf": 0})
        g["calls"][idx] += 1
        g["self"][idx] += end - start - child[j]
        mgf_anc[j] = j if idx in mgf else (mgf_anc[parent] if parent >= 0 else -1)
        if idx == i_mdelta and parent >= 0 and spans[parent][0] == i_meps:
            g["evals"] += 1
            bisected.add(parent)
        if idx == i_h and mgf_anc[j] >= 0:
            g["h_in_mgf"] += 1
    out = []
    for key in sorted(groups):
        g = groups[key]
        n_bisected = sum(1 for j in bisected if group_of_op(spans[j][4]) == key)
        n_mgf = sum(g["calls"][i] for i in mgf)
        m = {}
        for i, name in enumerate(NAMES):
            m[f"{name}.calls"] = g["calls"][i]
            m[f"{name}.self_s"] = g["self"][i]
        for mod in TARGETS:
            m[f"{mod}.self_s"] = sum(g["self"][i] for i, n in enumerate(NAMES)
                                     if n.startswith(mod + "."))
        m["cli.evals_per_epsilon"] = g["evals"] / n_bisected if n_bisected else 0.0
        m["bounds.h_eps_per_mgf_query"] = g["h_in_mgf"] / n_mgf if n_mgf else 0.0
        out.append(m)
    return out
