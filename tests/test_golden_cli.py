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
from brcomp.cli import method_delta  # noqa: E402

MGF_VALUE_RTOL = 1e-9
BISECTED = ("dp-optcomp", "dp-optcomp-half", "br-optcomp", "adaptive-lb")
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


def test_bisected_budgets_are_on_the_safe_side():
    # each lattice budget x certifies its target, and one step below does not:
    # delta(x) <= delta_g < delta(x - 2^-30), both through method_delta
    want = json.loads(golden.GOLDEN.read_text())
    checked = 0
    for case in golden.cases():
        direction, method, eps_list, delta_g, _ = case
        entry = want[golden.key(*case)]
        if direction != "epsilon" or method not in BISECTED or "error" in entry:
            continue
        x, step = entry["value"], 2.0 ** -30
        assert method_delta(method, eps_list, x, describe=False)[0] <= delta_g, case
        assert method_delta(method, eps_list, x - step, describe=False)[0] > delta_g, case
        assert entry["meta"]["budget_step"] == step
        checked += 1
    assert checked == 104


def test_recorder_rewrites_only_the_named_methods(tmp_path, monkeypatch, capsys):
    want = json.loads(golden.GOLDEN.read_text())
    basic = next(n for n in want if n.split("|")[1] == "basic")
    moved = next(n for n in want if n.split("|")[1] == "basic" and n != basic
                 and want[n].get("value") == 1.0)
    other = next(n for n in want if n.split("|")[1] == "dr19")
    stale = {**want, basic: {"error": "stale"}, other: {"error": "stale"},
             moved: {**want[moved], "value": 0.8}}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(stale, indent=1, sort_keys=True) + "\n")
    monkeypatch.setattr(golden, "GOLDEN", path)
    assert golden.main(["--methods", "basic"]) == 0
    # basic is recorded afresh; every other entry, stale or not, is kept byte for byte
    assert path.read_text() == json.dumps({**want, other: {"error": "stale"}},
                                          indent=1, sort_keys=True) + "\n"
    # each re-recorded entry that changed, and only those, is reported
    report = [line for line in capsys.readouterr().err.splitlines() if line.startswith("moved")]
    assert sorted(report) == sorted([
        f"moved {basic}: {{\"error\": \"stale\"}} -> {json.dumps(want[basic], sort_keys=True)}",
        f"moved {moved}: value 0.8 -> 1.0 (rel 2.50e-01)"])
