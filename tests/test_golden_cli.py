"""Golden-output gate: every method, both directions, against recorded outputs.

The outputs in ``golden_cli.json`` were recorded by ``record_golden_cli.py``.
Every entry must match bit for bit: values and metadata, and refusals by
exception type.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import record_golden_cli as golden  # noqa: E402
from brcomp.cli import method_delta  # noqa: E402

BISECTED = ("dp-optcomp", "dp-optcomp-half", "br-optcomp", "adaptive-lb")


def test_outputs_match_the_golden_file():
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.record()
    assert got.keys() == want.keys()
    bad = [f"{name}: got {got[name]}, want {want[name]}" for name in sorted(want)
           if got[name] != want[name]]
    assert not bad, f"{len(bad)} of {len(want)} outputs differ:\n" + "\n".join(bad[:20])


def test_bisected_budgets_are_on_the_safe_side():
    # each lattice budget x certifies its target, and one step below does not:
    # delta(x) <= delta_g < delta(x - 2^-30), both through method_delta and
    # evaluated exactly (no target), so independent of the early stop
    want = json.loads(golden.GOLDEN.read_text())
    checked = 0
    for case in golden.cases():
        direction, method, eps_list, delta_g, _ = case
        entry = want[golden.key(*case)]
        if direction != "epsilon" or method not in BISECTED or "error" in entry:
            continue
        x, step = entry["value"], 2.0 ** -30
        assert method_delta(method, eps_list, x)[0] <= delta_g, case
        assert method_delta(method, eps_list, x - step)[0] > delta_g, case
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
