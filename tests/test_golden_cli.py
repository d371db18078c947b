"""Golden-output gate: every method, both directions, against recorded outputs.

The outputs in ``golden_cli.json`` were recorded by ``record_golden_cli.py``.
Values and metadata must match bit for bit, refusals by exception type.
``mgf`` is the one exception: its lambda search may move its value by
1e-9 relative, and its flags must stay identical.  Its ``lambda`` metadata
may move by 1e-6 relative, or further where a 50-digit evaluation shows the
new lambda is the better minimizer.  Where a delta bound is vacuous
(value 1) the infimum is approached only as lambda -> 0, so any lambda at
the bottom of the search window is as good as another and lambda is not
compared.
"""

import json
import math
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))

import record_golden_cli as golden  # noqa: E402

MGF_VALUE_RTOL = 1e-9
MGF_LAMBDA_RTOL = 1e-6


def _mp_mgf_objective(direction, eps_list, target, lam):
    """mgf's lambda objective at 50 digits: the delta exponent
    -lambda eps_g + sum_i h(eps_i, lambda), or the budget ratio
    (sum_i h(eps_i, lambda) + log(1/delta_g)) / lambda."""
    with mp.workdps(50):
        lam = mp.mpf(lam)
        total = mp.mpf(0)
        for e in eps_list:
            e = mp.mpf(e)
            big_a, big_b = -mp.expm1(-e * (1 + lam)), -mp.expm1(-lam * e)
            u = lam * big_a / ((1 + lam) * big_b)
            total += lam * (e + mp.log(u)) + mp.log(big_a - u * big_b) - mp.log(-mp.expm1(-e))
        if direction == "delta":
            return -lam * mp.mpf(target) + total
        return (total - mp.log(mp.mpf(target))) / lam


def _mismatch(case, got: dict, want: dict) -> str | None:
    if case[1] != "mgf" or "error" in want or "error" in got:
        return None if got == want else f"got {got}, want {want}"
    if not math.isclose(got["value"], want["value"], rel_tol=MGF_VALUE_RTOL):
        return f"value {got['value']!r} != {want['value']!r}"
    if got["meta"].keys() != want["meta"].keys():
        return f"metadata keys {sorted(got['meta'])} != {sorted(want['meta'])}"
    for name, w in want["meta"].items():
        g = got["meta"][name]
        if name != "lambda":
            if g != w:
                return f"{name} {g!r} != {w!r}"
        elif not math.isclose(g, w, rel_tol=MGF_LAMBDA_RTOL):
            direction, _, eps_list, target, _ = case
            if direction == "delta" and want["value"] == 1.0:
                continue
            if _mp_mgf_objective(direction, eps_list, target, g) > \
                    _mp_mgf_objective(direction, eps_list, target, w):
                return f"lambda {g!r} is a worse minimizer than {w!r}"
    return None


def test_outputs_match_the_golden_file():
    want = json.loads(golden.GOLDEN.read_text())
    cases = list(golden.cases())
    assert {golden.key(*c) for c in cases} == set(want)
    bad = []
    for case in cases:
        name = golden.key(*case)
        # a JSON round trip, so tuples and floats compare as recorded
        got = json.loads(json.dumps(golden.run_case(*case)))
        why = _mismatch(case, got, want[name])
        if why:
            bad.append(f"{name}: {why}")
    assert not bad, f"{len(bad)} of {len(cases)} outputs differ:\n" + "\n".join(bad[:20])
