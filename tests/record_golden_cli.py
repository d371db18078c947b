"""Record the golden CLI outputs that ``tests/test_golden_cli.py`` compares against.

    PYTHONPATH=src python3 tests/record_golden_cli.py

Every method is queried in both directions (``method_delta`` and
``method_epsilon``, the functions behind the ``delta`` and ``epsilon``
commands) over a fixed grid of per-round lists.  A query the method refuses
(exit 2 or 3 at the command line) is recorded as the exception's type name.
Re-record only when a change of output is intended and explained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from brcomp.cli import METHODS, Options, method_delta, method_epsilon
from brcomp.errors import CapError

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

EPS = (0.01, 0.1, 1.0)
KS = (1, 2, 5, 40, 1000)
# two rounds stay within br-optcomp's grid oracle; twelve exceed every
# solver's heterogeneous cap but dp-optcomp's subset sum
HETEROGENEOUS = ((0.3, 0.8), (0.05, 0.3, 0.3, 0.8, 0.05, 1.2, 0.6, 0.3, 0.9, 0.2, 0.4, 0.7))
# budgets as fractions of the summed eps; +-0.9995 reach both edge regions
# up to k = 1000 (edge-high needs eps_g >= (k-1) eps, edge-low the mirror)
EPS_G_FRACTIONS = (-0.9995, -0.5, 0.0, 0.25, 0.9995)
DELTA_GS = (1e-6, 0.05)
# extra lambda windows for mgf, so that its at_ceiling flag is recorded set
MGF_LAMBDA_MAX = (0.5, 10.0)


def eps_lists():
    for eps in EPS:
        for k in KS:
            yield [eps] * k
    for het in HETEROGENEOUS:
        yield list(het)


def _too_slow(method, eps_list, delta_g) -> bool:
    """An adaptive-lb budget at k = 5 bisects a 2-5 s solver; one such query
    is kept so the test stays within its time budget."""
    return (method == "adaptive-lb" and len(eps_list) == 5
            and (eps_list[0], delta_g) != (0.1, DELTA_GS[0]))


def cases():
    """(direction, method, eps_list, target, lambda_max) for every recorded query."""
    for eps_list in eps_lists():
        total = sum(eps_list)
        for method in METHODS:
            windows = (None, *MGF_LAMBDA_MAX) if method == "mgf" else (None,)
            for lmax in windows:
                for frac in EPS_G_FRACTIONS:
                    yield "delta", method, eps_list, frac * total, lmax
                for delta_g in DELTA_GS:
                    if not _too_slow(method, eps_list, delta_g):
                        yield "epsilon", method, eps_list, delta_g, lmax


def key(direction, method, eps_list, target, lmax) -> str:
    hom = all(e == eps_list[0] for e in eps_list)
    spec = f"{eps_list[0]!r}x{len(eps_list)}" if hom else ",".join(map(repr, eps_list))
    return f"{direction}|{method}|{spec}|{target!r}|{lmax!r}"


def run_case(direction, method, eps_list, target, lmax) -> dict:
    opts = Options() if lmax is None else Options(lambda_max=lmax)
    fn = method_delta if direction == "delta" else method_epsilon
    try:
        value, meta = fn(method, eps_list, target, opts)
    except (ValueError, CapError) as exc:  # the CLI's refusals (exit 2 and 3)
        return {"error": type(exc).__name__}
    return {"value": value, "meta": meta}


def record() -> dict:
    return {key(*c): run_case(*c) for c in cases()}


def main() -> int:
    out = record()
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
