"""Self-tests of the benchmark: seeded inputs, repeatable traces, unchanged outputs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

import run  # noqa: E402  (puts the checkout's src on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from brcomp import adaptive, bounds, cli, nonadaptive, optim  # noqa: E402
from workloads import Op  # noqa: E402


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, 7)
        assert ops == workloads.make_ops(name, 7), name
        assert ops != workloads.make_ops(name, 8), name


def _small_ops():
    """A cheap operation of every kind, so traced runs stay short."""
    large = workloads.make_ops("large-k", 3)
    cheap = [op for op in large if len(op.args[1]) < 4000 and op.args[0] != "br-optcomp"]
    return [Op("curve", (0.1, 6, 1e-6)), *cheap[:6],
            Op("epsilon", ("br-optcomp", [0.05] * 30, 1e-6)),
            Op("gap", (0.5, 3, 0.4)), Op("validate", (11,))]


def _traced(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outs = [repr(workloads.run_op(op)) for op in ops]
    finally:
        tracer.uninstall()
    counts = {k: v for k, v in tracing.summarize(tracer.spans, lambda op: 0)[0].items()
              if k.endswith(".calls")}
    return outs, counts


def test_traced_counts_repeat_and_outputs_match_untraced():
    ops = _small_ops()
    plain = [repr(workloads.run_op(op)) for op in ops]
    outs1, counts1 = _traced(ops)
    outs2, counts2 = _traced(ops)
    assert outs1 == plain
    assert outs2 == plain
    assert counts1 == counts2
    exercised = {k for k, v in counts1.items() if v}
    for name in tracing.NAMES:
        assert f"{name}.calls" in exercised, name


def test_wrappers_bind_every_site_and_uninstall_restores():
    originals = {"cli.method_delta": cli.method_delta, "bounds.h_eps": bounds.h_eps,
                 "adaptive.delta_opt_nonadaptive_hom": adaptive.delta_opt_nonadaptive_hom,
                 "cli.delta_opt_nonadaptive_hom": cli.delta_opt_nonadaptive_hom,
                 "bounds.golden_max": bounds.golden_max, "optim.golden_max": optim.golden_max}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # each from-import binding and each module-global lookup is wrapped
        for site, orig in originals.items():
            mod, attr = site.split(".")
            assert getattr(sys.modules[f"brcomp.{mod}"], attr) is not orig, site
        cli.method_epsilon("br-optcomp", [0.1] * 5, 1e-6)
        counts = tracing.summarize(tracer.spans, lambda op: 0)[0]
        assert counts["cli.method_delta.calls"] >= 30
        assert counts["nonadaptive.delta_opt_nonadaptive_hom.calls"] == \
            counts["cli.method_delta.calls"]
    finally:
        tracer.uninstall()
    for site, orig in originals.items():
        mod, attr = site.split(".")
        assert getattr(sys.modules[f"brcomp.{mod}"], attr) is orig, site
    assert nonadaptive.delta_opt_nonadaptive_hom is originals["cli.delta_opt_nonadaptive_hom"]


def test_self_time_subtracts_child_spans():
    spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 4.0, 0, 0), (1, 5.0, 6.0, 0, 0),
             (2, 2.0, 3.0, 1, 0)]
    m = tracing.summarize(spans, lambda op: 0)[0]
    assert m[f"{tracing.NAMES[0]}.self_s"] == 10.0 - 3.0 - 1.0
    assert m[f"{tracing.NAMES[1]}.self_s"] == (3.0 - 1.0) + 1.0
    assert m[f"{tracing.NAMES[1]}.calls"] == 2


def test_tail_has_ten_samples_beyond_or_falls_back_to_median():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10) and pct == 75.0
    value, pct, beyond = run.tail([float(i) for i in range(6)])
    assert value == 2.0 and pct == 50.0
