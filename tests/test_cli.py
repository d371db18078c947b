"""End-to-end tests of the command-line surface."""

import argparse
import csv
import io
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brcomp import cli
from brcomp.adaptive import AdaptiveSolverConfig, delta_adaptive_lb
from brcomp.bounds import LambdaSearch
from brcomp.cli import EPS_BISECT_TOL, METHODS, curve_rows, main, method_delta, method_epsilon
from brcomp.errors import CapError, UnreachableTargetError
from brcomp.nonadaptive import (candidate_points, delta_het_fixed_t, delta_hom_fixed_t,
                                delta_opt_nonadaptive_hom)
from brcomp.optim import budget_step, lattice_search
from brcomp.rounds import Rounds

INVERTIBLE = tuple(m for m in METHODS if not m.startswith("edge-"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _answer(fn, method, eps, target):
    """repr of a query's (value, meta), or the name of the refusal (exit 2 or
    3): equal strings mean equal bits."""
    try:
        return repr(fn(method, eps, target))
    except (ValueError, CapError) as exc:
        return type(exc).__name__


class TestEveryInputForm:
    """Every method takes what the bounds take, and drops a zero round the
    same way: each form answers as the plain list does, bit for bit."""

    @pytest.mark.parametrize("direction", ["delta", "epsilon"])
    @pytest.mark.parametrize("method", METHODS)
    def test_forms_answer_as_the_list(self, method, direction):
        fn, target = (method_delta, 0.75) if direction == "delta" else (method_epsilon, 1e-6)
        for eps_list in ([0.5, 0.5], [0.3, 0.8]):
            want = _answer(fn, method, eps_list, target * sum(eps_list)
                           if direction == "delta" else target)
            forms = {"iterator": iter(eps_list), "tuple": tuple(eps_list),
                     "array": np.array(eps_list), "trailing zero": eps_list + [0.0],
                     "zeros between": [0.0, eps_list[0], -0.0, *eps_list[1:]]}
            for name, form in forms.items():
                got = _answer(fn, method, form, target * sum(eps_list)
                              if direction == "delta" else target)
                assert got == want, (eps_list, name)
        assert _answer(fn, method, 0.5, target) == _answer(fn, method, [0.5], target)

    @pytest.mark.parametrize("method", METHODS)
    def test_only_zero_rounds(self, method):
        # the bounds give their no-round values; every other method refuses
        if method in ("basic", "dr19", "drv10", "optkl", "mgf"):
            assert method_delta(method, [0.0, -0.0], 0.5)[0] == 0.0
            assert method_delta(method, [0.0], -0.5)[0] == 1.0
            if method != "basic":
                assert method_epsilon(method, [0.0] * 3, 1e-6)[0] == 0.0
        else:
            with pytest.raises(ValueError):
                method_delta(method, [0.0, -0.0], 0.5)
            with pytest.raises(ValueError):
                method_epsilon(method, [0.0] * 3, 1e-6)


class TestDelta:
    @pytest.mark.parametrize("budget", ["-1e-3", "-2.5E-2", "-1e+1"])
    @pytest.mark.parametrize("argv", [["delta", "--eps", "0.1", "--k", "5",
                                       "--method", "br-optcomp"],
                                      ["gap", "--eps", "0.5", "--k", "3"]])
    def test_negative_budget_in_scientific_notation(self, capsys, argv, budget):
        # argparse before Python 3.13 read such a token as a flag: exit 2,
        # "expected one argument"
        spaced = run_cli(capsys, *argv, "--eps-g", budget)
        assert spaced == run_cli(capsys, *argv, f"--eps-g={budget}")
        assert spaced[0] == 0 and spaced[1]

    def test_br_optcomp_single_round(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--eps", "1", "--k", "1",
                               "--eps-g", "0", "--method", "br-optcomp")
        assert code == 0
        assert float(out) == pytest.approx(0.244918662403709, abs=1e-12)

    def test_boundary_zero(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--eps", "1", "--k", "4",
                               "--eps-g", "4", "--method", "br-optcomp")
        assert code == 0
        assert float(out) == 0.0

    @pytest.mark.parametrize("method", ["basic", "optkl"])
    @pytest.mark.parametrize("eps_list", [[1e-18] * 3, [0.1] * 3, [0.3, 0.8, 0.05]])
    def test_no_zero_loss_below_the_summed_budget(self, method, eps_list):
        # an absolute 1e-15 slack read delta = 0 up to 1e-15 below the sum,
        # and at eps_g = 0 for [1e-18] * 3, where dp-optcomp reads 7.5e-19
        total = math.fsum(eps_list)
        assert method_delta(method, eps_list, total)[0] == 0.0
        for eps_g in (math.nextafter(total, 0.0), total - 1e-15, 0.0):
            assert method_delta(method, eps_list, eps_g)[0] > 0.0, eps_g
        assert method_delta("dp-optcomp", [1e-18] * 3, 0.0)[0] > 0.0

    def test_mgf_far_tail(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--eps", "1", "--k", "30",
                               "--eps-g", "100", "--method", "mgf")
        assert code == 0
        assert 0.0 <= float(out) <= 1.0

    def test_adaptive_depth_cap_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "delta", "--eps", "0.5", "--k", "9",
                               "--eps-g", "0", "--method", "adaptive-lb")
        assert code == 3
        assert "cap" in err

    def test_edge_precondition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "delta", "--eps", "1", "--k", "4",
                               "--eps-g", "0", "--method", "edge-high")
        assert code == 2

    def test_edge_low_past_exp_overflow(self, capsys):
        # e^t at the stationary offset t = 1000 overflowed: a traceback, exit 1
        code, out, _ = run_cli(capsys, "delta", "--eps", "3000", "--k", "2",
                               "--eps-g", "-3000", "--method", "edge-low")
        assert (code, out) == (0, "1\n")

    def test_stdout_is_data_only(self, capsys):
        code, out, err = run_cli(capsys, "delta", "--eps", "1", "--k", "2",
                                 "--eps-g", "0.5", "--method", "br-optcomp")
        assert code == 0
        float(out)  # a single parseable number
        assert err.startswith("#")


class TestEpsilon:
    def test_basic_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "epsilon", "--eps", "0.1", "--k", "30",
                               "--delta-g", "1e-6", "--method", "basic")
        assert code == 0
        assert float(out) == pytest.approx(3.0, abs=1e-12)

    def test_optkl_large_k(self, capsys):
        code, out, _ = run_cli(capsys, "epsilon", "--eps", "0.01", "--k", "10000",
                               "--delta-g", "1e-6", "--method", "optkl")
        assert code == 0
        want = 1e4 * (0.01 / math.expm1(0.01) - 1 - math.log(0.01 / math.expm1(0.01)))
        want += math.sqrt(0.5 * 1e4 * 1e-4 * math.log(1e6))
        assert float(out) == pytest.approx(min(100.0, want), rel=1e-9, abs=0.0)

    def test_round_trip_br(self, capsys):
        code, out, _ = run_cli(capsys, "epsilon", "--eps", "1", "--k", "3",
                               "--delta-g", "1e-4", "--method", "br-optcomp")
        assert code == 0
        eg = float(out)
        code, out2, _ = run_cli(capsys, "delta", "--eps", "1", "--k", "3",
                                "--eps-g", repr(eg), "--method", "br-optcomp")
        assert code == 0
        assert float(out2) == pytest.approx(1e-4, rel=1e-8, abs=0.0)

    # delta is 1 - e^(eps_g - 800) for dp-optcomp and, at the best offset,
    # (1 - e^((eps_g - 800) / 2))^2 for br-optcomp, up to terms of e^-800
    @pytest.mark.parametrize("method,want", [("dp-optcomp", 800.0 + math.log1p(-1e-6)),
                                             ("br-optcomp", 800.0 + 2 * math.log1p(-1e-3))])
    def test_budget_past_p_underflow(self, capsys, method, want):
        # one round of eps = 800: p = e^-t q underflowed to 0 past t ~ 745, so
        # dp-optcomp read delta = 0 everywhere and refused the target
        code, out, _ = run_cli(capsys, "epsilon", "--eps", "800", "--k", "1",
                               "--delta-g", "1e-6", "--method", method)
        assert code == 0
        assert float(out) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("argv", [
        ["epsilon", "--eps", "800", "--k", "2", "--delta-g", "1e-6", "--method", "optkl"],
        ["delta", "--eps", "800", "--k", "2", "--eps-g", "100", "--method", "optkl"]])
    def test_optkl_past_exp_overflow(self, capsys, argv):
        # maxkl raised OverflowError above eps = 709.78 (exit 1)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert math.isfinite(float(out))

    def test_budget_nonincreasing_in_delta_target(self):
        for m in ("br-optcomp", "mgf", "optkl", "dp-optcomp", "dr19"):
            vals = [method_epsilon(m, [0.5] * 5, dg)[0] for dg in (1e-8, 1e-5, 1e-2)]
            assert vals[0] >= vals[1] >= vals[2], m

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(method=st.sampled_from(INVERTIBLE), eps=st.floats(0.01, 2.0),
           k=st.integers(1, 3), log_targets=st.lists(st.floats(-9.0, -3.0), min_size=2,
                                                     max_size=2))
    def test_budget_nonincreasing_in_delta_target_property(self, method, eps, k,
                                                           log_targets):
        assert len(INVERTIBLE) == 9
        tight, loose = sorted(10.0 ** x for x in log_targets)
        assert method_epsilon(method, [eps] * k, tight)[0] >= \
            method_epsilon(method, [eps] * k, loose)[0]

    def test_unreachable_target_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "epsilon", "--eps", "0.1", "--k", "1",
                               "--delta-g", "0.9999", "--method", "br-optcomp")
        assert code == 2
        assert "boundary" in err

    def test_bad_delta_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "epsilon", "--eps", "1", "--k", "2",
                             "--delta-g", "1.5", "--method", "mgf")
        assert code == 2

    def test_edge_methods_refuse_direction(self, capsys):
        code, _, _ = run_cli(capsys, "epsilon", "--eps", "1", "--k", "2",
                             "--delta-g", "1e-6", "--method", "edge-high")
        assert code == 2


    def test_quadratic_bounds_in_closed_form(self, capsys):
        # dr19: a = k eps^2 / 8, b = k eps^2 / 2; budget b + 2 sqrt(a log(1/delta_g))
        code, out, err = run_cli(capsys, "epsilon", "--eps", "0.1", "--k", "50",
                                 "--delta-g", "1e-6", "--method", "dr19")
        assert code == 0
        a, b = 50 * 0.01 / 8, 50 * 0.01 / 2
        assert float(out) == pytest.approx(b + 2 * math.sqrt(a * math.log(1e6)),
                                           rel=1e-11, abs=0.0)
        assert "closed_form=True" in err and "at_ceiling=False" in err

    def test_lambda_max_binds_quadratic_budget(self, capsys):
        code, out, err = run_cli(capsys, "epsilon", "--eps", "0.001", "--k", "1",
                                 "--delta-g", "1e-6", "--method", "drv10",
                                 "--lambda-max", "10")
        assert code == 0
        a = b = 0.5e-6
        assert float(out) == pytest.approx(10 * a + b + math.log(1e6) / 10, rel=1e-11, abs=0.0)
        assert "at_ceiling=True" in err

    def test_zero_eps_rounds_return(self):
        # every round data independent: any positive budget certifies delta_g
        assert method_epsilon("dr19", [0.0], 1e-6)[0] == 0.0
        assert method_epsilon("drv10", [0.0, 0.0], 1e-6)[0] == 0.0

    def test_bisection_refuses_zero_width_bracket(self):
        from brcomp.cli import _bisect_epsilon
        with pytest.raises(ValueError, match="zero-width"):
            _bisect_epsilon("br-optcomp", Rounds.of([0.0]), 1e-6, AdaptiveSolverConfig(),
                            LambdaSearch())

    def test_half_dp_flag_is_relative(self):
        # half-DP is 0 and br-optcomp 2.5e-34 here: they do not coincide
        value, meta = method_delta("br-optcomp", [2.0] * 100, 150.0)
        assert 0.0 < value < 1e-30
        assert "coincides_with_half_dp" not in meta
        # one round at eps_g = 0: the optimum sits at the midpoint offset
        _, meta = method_delta("br-optcomp", [1.0], 0.0)
        assert meta["coincides_with_half_dp"] is True


    def test_bisection_skips_half_dp_metadata(self, monkeypatch):
        # the half-DP comparison only feeds metadata that bisection discards
        import brcomp.cli as cli
        calls = []
        real = cli.dp_optcomp_hom
        monkeypatch.setattr(cli, "dp_optcomp_hom",
                            lambda *a: calls.append(a) or real(*a))
        eps_g, meta = method_epsilon("br-optcomp", [0.1] * 5, 1e-6)
        assert calls == [] and meta == {"budget_step": 2.0 ** -30, "path": "bisection"}
        _, meta = method_delta("br-optcomp", [1.0], 0.0)
        assert len(calls) == 1 and meta["coincides_with_half_dp"] is True
        value, meta = method_delta("br-optcomp", [0.1] * 5, eps_g + EPS_BISECT_TOL,
                                   target=1e-6)
        assert len(calls) == 1 and set(meta) == {"t"}
        assert value <= 1e-6

    @pytest.mark.parametrize("method", ["br-optcomp", "adaptive-lb"])
    def test_summed_eps_past_float_range_refused(self, capsys, method):
        # 2e308 is inf: the lattice search's floor(lo / step) raised OverflowError
        code, out, err = run_cli(capsys, "epsilon", "--eps", "1e308", "--k", "2",
                                 "--delta-g", "1e-6", "--method", method)
        assert (code, out) == (3, "")
        assert "past the float range" in err

    def test_summed_eps_file_past_float_range_refused(self, tmp_path, capsys):
        # each entry is finite, their fsum is not: fsum raised OverflowError
        f = tmp_path / "eps.txt"
        f.write_text("1e308\n1.7e308\n")
        code, out, err = run_cli(capsys, "epsilon", "--eps-file", str(f),
                                 "--delta-g", "1e-6", "--method", "dp-optcomp")
        assert (code, out) == (3, "")
        assert "past the float range" in err


class TestBudgetLattice:
    STEP = 2.0 ** -30

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(method=st.sampled_from(["dp-optcomp", "dp-optcomp-half", "br-optcomp"]),
           eps=st.floats(1e-3, 3.0), k=st.integers(1, 60),
           log_delta_g=st.floats(-12.0, -1.0))
    def test_budget_is_on_the_safe_side(self, method, eps, k, log_delta_g):
        # delta(x) <= delta_g < delta(x - step), both through method_delta and
        # evaluated exactly (no target), so independent of the early stop
        delta_g = 10.0 ** log_delta_g
        try:
            x, meta = method_epsilon(method, [eps] * k, delta_g)
        except UnreachableTargetError as exc:
            assert delta_g > exc.boundary
            return
        assert meta["budget_step"] == self.STEP
        assert method_delta(method, [eps] * k, x)[0] <= delta_g
        assert method_delta(method, [eps] * k, x - self.STEP)[0] > delta_g

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(eps=st.floats(1e-3, 3.0), k=st.integers(141, 3000),
           log_delta_g=st.floats(-12.0, -1.0))
    def test_windowed_br_budget_is_on_the_safe_side(self, eps, k, log_delta_g):
        # where the scan windows its rows the br-optcomp budget is seeded;
        # the seed's lattice point must be the checked crossing
        delta_g = 10.0 ** log_delta_g
        x, meta = method_epsilon("br-optcomp", [eps] * k, delta_g)
        assert meta == {"budget_step": self.STEP, "path": "closed-form"}
        assert method_delta("br-optcomp", [eps] * k, x)[0] <= delta_g
        assert method_delta("br-optcomp", [eps] * k, x - self.STEP)[0] > delta_g

    @pytest.mark.parametrize("delta_g,eps,k,method", [
        *[(delta_g, eps, k, method) for delta_g in (1e-9, 1e-3)
          for eps, k in [(0.5, 1), (0.1, 40), (1.0, 2), (0.01, 10 ** 5), (10.0, 100),
                         (1.0, 1000), (3.0, 500)]
          for method in ("dp-optcomp", "dp-optcomp-half")],
        # br-optcomp is seeded where its scan windows the rows, from k = 141
        *[(delta_g, eps, k, "br-optcomp") for eps, delta_g in [(0.01, 1e-6), (0.3, 1e-3)]
          for k in (140, 141, 150, 151, 1000)],
        # the br-optcomp budgets of perfbench's seed-0 large-k batch
        pytest.param(7.338195220043259e-06, 0.0018346359799883717, 256, "br-optcomp",
                     id="large-k-256"),
        pytest.param(3.713554841240882e-08, 0.05860183814522001, 445, "br-optcomp",
                     id="large-k-445"),
        pytest.param(5.031145762475223e-07, 0.006320696739302674, 783, "br-optcomp",
                     id="large-k-783")])
    def test_seed_never_changes_the_answer(self, monkeypatch, method, eps, k, delta_g):
        # the closed form or seed only starts the search: plain lattice
        # bisection finds the same budget bit for bit, including k = 1e5 and
        # k eps > 700
        import brcomp.cli as cli
        seeded, meta = method_epsilon(method, [eps] * k, delta_g)
        assert meta["path"] == ("bisection" if method == "br-optcomp" and k <= 140
                                else "closed-form")
        monkeypatch.setattr(cli, "_closed_form_budget", lambda *a: None)
        plain, meta = method_epsilon(method, [eps] * k, delta_g)
        assert meta["path"] == "bisection"
        assert seeded == plain

    def test_evaluations_per_budget(self, monkeypatch):
        # a closed-form or seeded budget costs 3 method calls: the
        # reachability check, the seed's lattice point and the one below
        # (the br-optcomp seed's own scans call the kernel directly);
        # bisecting [-0.5, 0.5] on 2^30 lattice steps costs 32
        import brcomp.cli as cli
        calls = []
        real = cli.method_delta
        monkeypatch.setattr(cli, "method_delta", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        method_epsilon("dp-optcomp", [0.1] * 5, 1e-6)
        assert len(calls) == 3
        calls.clear()
        method_epsilon("br-optcomp", [0.1] * 5, 1e-6)
        assert len(calls) == 32
        calls.clear()
        method_epsilon("br-optcomp", [0.1] * 141, 1e-6)
        assert len(calls) == 3

    @pytest.mark.parametrize("seed", [None, 0.3, 0.3 + 2.0 ** -30, 0.3 - 2.0 ** -30, -5.0,
                                      50.0, math.inf, -math.inf, math.nan])
    def test_search_confirms_or_falls_back(self, seed):
        # f crosses the level between lattice points 0.3 - step and 0.3 (a
        # lattice point); any seed, good or bad, gives that answer
        step, x0 = self.STEP, round(0.3 / self.STEP) * self.STEP
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 if x < x0 else 0.0

        x, path = lattice_search(f, 0.5, -1.0, 1.0, step, seed)
        assert x == x0 and f(x) <= 0.5 < f(x - step)
        assert path == ("closed-form" if seed is not None and x0 - step < seed <= x0 else
                        "bisection")
        assert len(set(seen)) == len(seen) - 2   # each point evaluated once, then checked
        assert all(v == round(v / step) * step for v in seen)   # only lattice points

    def test_search_moves_a_low_upper_end(self):
        # f(hi) > level: the bracket moves up and doubles until it holds
        x, path = lattice_search(lambda x: float(x < 3.25), 0.5, -1.0, 1.0, self.STEP)
        assert (x, path) == (3.25, "bisection")
        calls = []
        with pytest.raises(UnreachableTargetError):
            lattice_search(lambda x: calls.append(x) or 1.0, 0.5, -1.0, 1.0, self.STEP)
        assert len(calls) < 30   # until lattice points stop being floats, past 2^23

    def test_budget_past_the_summed_eps(self):
        # delta at the summed eps is 1.4e-16 here, the grouped sum's rounding,
        # so the bracket moves up: the budget is the first lattice point above
        eps_list = [0.875, 0.455, 1.011]
        span = math.fsum(eps_list)   # the bracket end, as basic composition forms it
        assert method_delta("dp-optcomp", eps_list, span)[0] > 1e-17
        x, meta = method_epsilon("dp-optcomp", eps_list, 1e-17)
        assert x - self.STEP < span < x and meta["path"] == "bisection"

    def test_step_keeps_lattice_points_floats(self):
        assert budget_step(1.0) == budget_step(1e5) == self.STEP
        big = budget_step(1e9)
        assert big > self.STEP and 8e9 / big < 2.0 ** 53


class TestHeterogeneous:
    def test_eps_file(self, tmp_path, capsys):
        f = tmp_path / "eps.txt"
        f.write_text("0.5\n0.25\n1.0\n")
        code, out, _ = run_cli(capsys, "epsilon", "--eps-file", str(f),
                               "--delta-g", "1e-6", "--method", "basic")
        assert code == 0
        assert float(out) == pytest.approx(1.75, abs=1e-12)

    def test_br_heterogeneous_oracle_size(self, tmp_path, capsys):
        f = tmp_path / "eps.txt"
        f.write_text("0.5\n0.7\n")
        code, out, _ = run_cli(capsys, "delta", "--eps-file", str(f),
                               "--eps-g", "0.2", "--method", "br-optcomp")
        assert code == 0
        assert 0.0 < float(out) < 1.0

    def test_br_heterogeneous_refuses_large_k(self, tmp_path, capsys):
        f = tmp_path / "eps.txt"
        f.write_text("0.5\n0.7\n0.9\n0.3\n")
        code, _, err = run_cli(capsys, "delta", "--eps-file", str(f),
                               "--eps-g", "0.2", "--method", "br-optcomp")
        assert code == 3
        assert "open problem" in err or "no known efficient" in err

    def test_br_heterogeneous_value_is_kernel_at_oracle_t(self):
        # the oracle's offsets are a feasible strategy, so their loss is a lower bound
        for eps_g in (-0.55, 0.0, 0.275):
            value, meta = method_delta("br-optcomp", [0.3, 0.8], eps_g)
            assert value == delta_het_fixed_t([0.3, 0.8], eps_g, meta["t"])
            assert meta["kind"] == "lower-bound"

    @pytest.mark.parametrize("command, target", [("delta", ["--eps-g", "100"]),
                                                 ("epsilon", ["--delta-g", "1e-6"])])
    def test_br_heterogeneous_past_float_range_exit_3(self, tmp_path, capsys, command, target):
        # the grid oracle raised IndexError (exit 1) once sum(eps) passed ~709
        f = tmp_path / "eps.txt"
        f.write_text("800\n300\n")
        code, _, err = run_cli(capsys, command, "--eps-file", str(f), *target,
                               "--method", "br-optcomp")
        assert code == 3
        assert "sum(eps)" in err

    def test_half_dp_refuses_an_eps_that_halves_to_zero(self):
        # halving 5e-324 gives 0; the grouped sum read nan at a zero range
        with pytest.raises(ValueError, match="positive"):
            method_delta("dp-optcomp-half", [5e-324, 0.5], 0.1)

    def test_br_heterogeneous_budget_past_float_range(self):
        assert method_delta("br-optcomp", [0.3, 0.8], 800.0)[0] == 0.0

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "delta", "--eps-file", "/nonexistent/x.txt",
                             "--eps-g", "0.2", "--method", "basic")
        assert code == 2


class TestBadInput:
    """Input the CLI must refuse with exit 2 instead of computing a number."""

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one(self, capsys, k):
        code, out, err = run_cli(capsys, "delta", "--eps", "1", "--k", k,
                                 "--eps-g", "0.5", "--method", "br-optcomp")
        assert (code, out) == (2, "")
        assert "--k must be at least 1" in err

    @pytest.mark.parametrize("argv", [
        ["delta", "--eps", "nan", "--k", "2", "--eps-g", "0", "--method", "basic"],
        ["delta", "--eps=-inf", "--k", "2", "--eps-g", "0", "--method", "mgf"],
        ["epsilon", "--eps", "inf", "--k", "2", "--delta-g", "1e-6", "--method", "dr19"],
        ["delta", "--eps", "1", "--k", "3", "--eps-g", "nan", "--method", "br-optcomp"],
        ["delta", "--eps", "1", "--k", "3", "--eps-g", "inf", "--method", "adaptive-lb"],
        ["gap", "--eps", "1", "--k", "2", "--eps-g=-inf"],
        ["curve", "--eps", "nan", "--k-max", "2", "--delta-g", "1e-6",
         "--methods", "basic,dr19"],
        ["curve", "--eps", "inf", "--k-max", "2", "--delta-g", "1e-6", "--methods", "mgf"],
    ])
    def test_non_finite_value(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "must be finite" in err

    # every float flag of every command: the other arguments, the flag, and
    # the refusal of a non-finite value
    FLOAT_FLAGS = [
        (["delta", "--k", "3", "--eps-g", "0.1", "--method", "mgf"], "--eps",
         "--eps must be finite"),
        (["delta", "--eps", "0.1", "--k", "3", "--method", "mgf"], "--eps-g",
         "--eps-g must be finite"),
        (["delta", "--eps", "0.1", "--k", "3", "--eps-g", "0.1", "--method", "mgf"],
         "--lambda-max", "lambda_max must be positive and finite"),
        (["epsilon", "--k", "3", "--delta-g", "1e-6", "--method", "mgf"], "--eps",
         "--eps must be finite"),
        (["epsilon", "--eps", "0.1", "--k", "3", "--method", "mgf"], "--delta-g",
         "delta_g must lie in (0, 1)"),
        (["epsilon", "--eps", "0.1", "--k", "3", "--delta-g", "1e-6", "--method", "mgf"],
         "--lambda-max", "lambda_max must be positive and finite"),
        (["curve", "--k-max", "2", "--delta-g", "1e-6", "--methods", "mgf"], "--eps",
         "--eps must be finite"),
        (["curve", "--eps", "0.1", "--k-max", "2", "--methods", "mgf"], "--delta-g",
         "delta_g must lie in (0, 1)"),
        (["curve", "--eps", "0.1", "--k-max", "2", "--delta-g", "1e-6", "--methods", "mgf"],
         "--lambda-max", "lambda_max must be positive and finite"),
        (["gap", "--k", "2", "--eps-g", "0.1"], "--eps", "--eps must be finite"),
        (["gap", "--eps", "0.5", "--k", "2"], "--eps-g", "--eps-g must be finite"),
    ]

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
    @pytest.mark.parametrize("argv,flag,refusal", FLOAT_FLAGS,
                             ids=[f"{argv[0]}{flag}" for argv, flag, _ in FLOAT_FLAGS])
    def test_negative_non_finite_value_reaches_its_check(self, capsys, argv, flag, refusal,
                                                          value):
        # argparse read -inf and -nan as flags: exit 2, "expected one
        # argument", where --flag=-inf got the value's own refusal
        spaced = run_cli(capsys, *argv, flag, value)
        assert spaced == run_cli(capsys, *argv, f"{flag}={value}")
        code, out, err = spaced
        assert (code, out) == (2, "") and refusal in err, err

    @pytest.mark.parametrize("eps, why", [("0", "nothing to compose"),
                                          ("-0.5", "must be finite and nonnegative")])
    @pytest.mark.parametrize("method", METHODS)
    def test_curve_checks_eps_like_delta(self, capsys, method, eps, why):
        # curve printed a table of zero budgets at --eps 0 for most methods
        code, out, err = run_cli(capsys, "curve", f"--eps={eps}", "--k-max", "2",
                                 "--delta-g", "1e-6", "--methods", method)
        assert (code, out) == (2, "")
        assert why in err

    @pytest.mark.parametrize("method", ["mgf", "dr19", "optkl"])
    def test_infinite_lambda_max(self, capsys, method):
        code, out, err = run_cli(capsys, "epsilon", "--eps", "1", "--k", "2", "--delta-g",
                                 "1e-6", "--method", method, "--lambda-max", "inf")
        assert (code, out) == (2, "")
        assert "lambda_max" in err

    # a flag value each solver config refuses, and the config field it names
    BAD_SOLVER_FLAGS = [("--t-grid", "1", "t_grid"), ("--depth-cap", "0", "depth_cap"),
                        ("--lambda-max", "0", "lambda_max"), ("--lambda-max", "-5", "lambda_max")]

    @pytest.mark.parametrize("flag, value, field", BAD_SOLVER_FLAGS)
    @pytest.mark.parametrize("command, target", [("delta", ["--eps-g", "0.1"]),
                                                 ("epsilon", ["--delta-g", "1e-6"])])
    def test_bad_solver_flag_whatever_the_method(self, capsys, command, target,
                                                 flag, value, field):
        # only the methods that read a flag refused it: br-optcomp answered
        # at --lambda-max 0, mgf refused it
        for method in METHODS:
            code, out, err = run_cli(capsys, command, "--eps", "0.1", "--k", "2", *target,
                                     "--method", method, flag, value)
            assert (code, out) == (2, ""), method
            assert field in err, method

    @pytest.mark.parametrize("flag, value, field", BAD_SOLVER_FLAGS)
    def test_bad_solver_flag_in_curve(self, capsys, flag, value, field):
        for method in METHODS:
            code, out, err = run_cli(capsys, "curve", "--eps", "0.1", "--k-max", "2",
                                     "--delta-g", "1e-6", "--methods", method, flag, value)
            assert (code, out) == (2, ""), method
            assert field in err, method

    @pytest.mark.parametrize("flag, value, field", BAD_SOLVER_FLAGS[:2])
    def test_bad_solver_flag_in_gap(self, capsys, flag, value, field):
        code, out, err = run_cli(capsys, "gap", "--eps", "1", "--k", "2", "--eps-g", "0",
                                 flag, value)
        assert (code, out) == (2, "")
        assert field in err

    def test_empty_method_list(self, capsys):
        # it printed the csv header alone and exited 0
        code, out, err = run_cli(capsys, "curve", "--eps", "0.1", "--k-max", "2",
                                 "--delta-g", "1e-6", "--methods", ",")
        assert (code, out) == (2, "")
        assert "no method" in err
        with pytest.raises(ValueError, match="no method"):
            curve_rows([], 0.1, 2, 1e-6)

    def test_repeated_nan_list_refused(self):
        # list.count matches one repeated NaN object by identity, so this list
        # counts as equal eps; the equal-eps solver must still refuse it
        with pytest.raises(ValueError):
            method_delta("dp-optcomp", [math.nan] * 3, 0.1)

    @pytest.mark.parametrize("method", METHODS)
    def test_nan_budget_refused_by_every_method(self, method):
        # basic read nan >= the summed budget as False and returned delta = 1
        with pytest.raises(ValueError, match="eps_g must not be nan"):
            method_delta(method, [0.1] * 3, math.nan)

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_eps_file_entry(self, tmp_path, capsys, entry):
        f = tmp_path / "eps.txt"
        f.write_text(f"0.5\n{entry}\n")
        code, out, err = run_cli(capsys, "delta", "--eps-file", str(f),
                                 "--eps-g", "0.2", "--method", "basic")
        assert (code, out) == (2, "")
        assert "must be finite" in err


class TestNearFloatMax:
    """Near the float maximum a query answers with every maximizer or exits 3,
    and warns of no overflow on the way."""

    @pytest.mark.parametrize("argv", [
        # (k + 1) eps is past the floats: the candidate offset of ell = 1 was
        # lost to it, and t = 3.33e307 reported as the only maximizer
        ["delta", "--eps", "1e308", "--k", "2", "--eps-g", "-5", "--method", "br-optcomp"],
        ["delta", "--eps", "1e308", "--k", "1", "--eps-g", "-5", "--method", "br-optcomp"],
        ["gap", "--eps", "1e308", "--k", "2", "--eps-g", "-5"],
        ["curve", "--eps", "1e308", "--k-max", "2", "--delta-g", "0.5",
         "--methods", "br-optcomp,dp-optcomp"],
        # the lattice DP's budgets eps_g + m h overflowed
        ["delta", "--eps", "1e308", "--k", "2", "--eps-g", "-5", "--method", "adaptive-lb"],
        # k t overflowed, and dp-optcomp printed 0
        ["delta", "--eps", "8e307", "--k", "3", "--eps-g", "-5", "--method", "dp-optcomp"],
        # the range 2 eps overflowed, and a finite --eps was called not finite (exit 2)
        ["delta", "--eps", "1e308", "--k", "1", "--eps-g", "0", "--method", "dp-optcomp"],
        ["epsilon", "--eps", "1e308", "--k", "1", "--delta-g", "1e-6", "--method", "dp-optcomp"],
    ])
    def test_refused(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "past the float range" in err
        assert caught == []

    @pytest.mark.parametrize("argv", [["delta", "--eps-g", "0"], ["epsilon", "--delta-g", "1e-6"]])
    def test_dp_range_past_float_range_refused(self, tmp_path, capsys, argv):
        # the range 2 eps of the first entry overflowed: delta printed 0 (the
        # true value is near 1, dp-optcomp-half prints 1) and epsilon called
        # 0.0 the largest achievable value (exit 2)
        f = tmp_path / "eps.txt"
        f.write_text("1e308\n1.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--eps-file", str(f), "--method",
                                     "dp-optcomp")
        assert (code, out) == (3, "")
        assert "past the float range" in err
        assert caught == []
        code, out, _ = run_cli(capsys, "delta", "--eps-file", str(f), "--eps-g", "0",
                               "--method", "dp-optcomp-half")
        assert (code, float(out)) == (0, 1.0)

    @pytest.mark.parametrize("eps, k", [(5e307, 2), (3e307, 4)])
    def test_every_maximizer_reported(self, eps, k):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = delta_opt_nonadaptive_hom(eps, k, -5.0)
            values = {c.t: delta_hom_fixed_t(eps, k, -5.0, c.t)
                      for c in candidate_points(eps, k, -5.0) if 0.0 < c.t < eps}
        assert caught == []
        assert res.delta == 1.0 and res.maximizers == sorted(values) and len(values) == k
        assert set(values.values()) == {1.0}

    def test_adaptive_budgets_past_float_range_refused(self):
        # the summed eps is a float, eps_g plus it is not
        with pytest.raises(CapError, match="past the float range"):
            delta_adaptive_lb([1e307] * 2, 1.7e308)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert delta_adaptive_lb([5e307] * 2, -5.0).delta == 1.0
        assert caught == []

    def test_candidate_points_past_float_range_refused(self):
        # (ell + 1) eps overflowed, and the interior offset 6.67e307 of ell = 1
        # came back clamped to eps
        with pytest.raises(CapError, match="past the float range"):
            candidate_points(1e308, 2, -5.0)
        assert [c.t for c in candidate_points(5e307, 2, -5.0)] == \
            [(-5.0 + (ell + 1) * 5e307) / 3 for ell in range(3)]


def _eps_value():
    """A per-round eps, log-uniform in [1e-6, 1e5] or near 1e300."""
    return st.one_of(st.floats(-6.0, 5.0).map(lambda x: 10.0 ** x),
                     st.floats(299.0, 301.0).map(lambda x: 10.0 ** x))


class TestNoLeakedException:
    """Every method answers with a loss in [0, 1] or refuses with
    ``ValueError`` or ``CapError``: no other exception leaks out of it."""

    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_answers_or_refuses(self, method, data):
        equal = data.draw(st.booleans(), label="equal")
        # the adaptive solver at k = 5 and the heterogeneous grid oracle at
        # k = 3 take seconds a query
        k_max = 4 if method == "adaptive-lb" else 2 if method == "br-optcomp" and not equal else 50
        k = data.draw(st.integers(1, k_max), label="k")
        eps = ([data.draw(_eps_value(), label="eps")] * k if equal
               else data.draw(st.lists(_eps_value(), min_size=k, max_size=k), label="eps"))
        total = math.fsum(eps)
        if data.draw(st.booleans(), label="edge"):
            # within one mean eps of +-sum eps, where the edge forms apply
            eps_g = (k - 1 + data.draw(st.floats(0.0, 1.0), label="u")) * total / k
            eps_g *= data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        else:
            eps_g = data.draw(st.floats(-1.5, 1.5), label="f") * total
        try:
            value = method_delta(method, eps, eps_g)[0]
        except (ValueError, CapError):
            return
        assert isinstance(value, float) and 0.0 <= value <= 1.0, value


class TestCurve:
    def test_csv_schema_and_sorting(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "curve", "--eps", "0.5", "--k-max", "4",
                             "--delta-g", "1e-6", "--methods", "basic,optkl,mgf",
                             "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["k", "method", "eps", "delta_g", "eps_g", "solver_meta"]
        keys = [(r["method"], int(r["k"])) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 12

    def test_csv_round_trip_recompute(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "curve", "--eps", "1.0", "--k-max", "3",
                             "--delta-g", "1e-5", "--methods", "br-optcomp",
                             "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            for row in csv.DictReader(fh):
                eg, _ = method_epsilon(row["method"], [float(row["eps"])] * int(row["k"]),
                                       float(row["delta_g"]))
                assert abs(eg - float(row["eps_g"])) <= 1e-9

    def test_json_format_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--eps", "0.5", "--k-max", "2",
                               "--delta-g", "1e-6", "--methods", "basic", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["k"] == 1 and rows[0]["eps_g"] == pytest.approx(0.5)

    def test_single_k_matches_epsilon_command(self, capsys):
        rows = curve_rows(["mgf"], 0.3, 1, 1e-6)
        eg, _ = method_epsilon("mgf", [0.3], 1e-6)
        assert rows[0].eps_g == eg

    def test_rows_are_the_epsilon_answers(self, monkeypatch):
        # each row is method_epsilon on the equal list, bit for bit, though
        # curve_rows builds its rounds without a list (adaptive-lb stops at
        # k = 2: its solver takes seconds per budget from k = 5 and refuses k > 6)
        seen = []
        of = Rounds.of.__func__
        monkeypatch.setattr(Rounds, "of", classmethod(
            lambda cls, x: seen.append(type(x)) or of(cls, x)))
        rows = curve_rows([m for m in INVERTIBLE if m != "adaptive-lb"], 0.1, 60, 1e-6)
        rows += curve_rows(["adaptive-lb"], 0.1, 2, 1e-6)
        assert seen and set(seen) == {Rounds}
        monkeypatch.undo()
        assert len(rows) == 60 * (len(INVERTIBLE) - 1) + 2
        for r in rows:
            eg, meta = method_epsilon(r.method, [0.1] * r.k, 1e-6)
            assert (r.eps_g.hex(), r.solver_meta) == (eg.hex(), cli._meta_str(meta)), r

    def test_unwritable_path_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--eps", "0.5", "--k-max", "1",
                               "--delta-g", "1e-6", "--methods", "basic",
                               "--out", "/nonexistent-dir/out.csv")
        assert code == 4

    @pytest.mark.parametrize("methods,named", [("basic,nope", "'nope'"),
                                               ("mgf,basic,mgf", "'mgf'")])
    def test_refuses_unknown_or_repeated_method(self, capsys, methods, named):
        # a repeated method was computed and printed twice
        code, out, err = run_cli(capsys, "curve", "--eps", "0.5", "--k-max", "2",
                                 "--delta-g", "1e-6", "--methods", methods)
        assert (code, out) == (2, "")
        assert named in err
        with pytest.raises(ValueError, match=named):
            curve_rows(methods.split(","), 0.5, 2, 1e-6)

    def test_ordering_small_grid(self):
        methods = ["dp-optcomp-half", "br-optcomp", "mgf", "optkl", "dr19",
                   "drv10", "dp-optcomp"]
        rows = curve_rows(methods, 0.5, 8, 1e-6)
        by = {(r.method, r.k): r.eps_g for r in rows}
        chain = ["dp-optcomp-half", "br-optcomp", "mgf", "optkl", "dr19", "drv10"]
        for k in range(1, 9):
            for a, b in zip(chain, chain[1:]):
                assert by[(a, k)] <= by[(b, k)] + 1e-15, (a, b, k)
            assert by[("br-optcomp", k)] <= by[("dp-optcomp", k)] + 1e-15


class TestGap:
    def test_json_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--eps", "1", "--k", "4",
                               "--eps-g", "0.5")
        assert code == 0
        cert = json.loads(out)
        assert cert["strict"] is True
        assert cert["gap"] > 1e-7
        assert cert["t_grid"] == 64

    def test_not_strict_outside_window(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--eps", "1", "--k", "4",
                               "--eps-g", "3.5")
        assert code == 0
        assert json.loads(out)["strict"] is False

    def test_depth_cap_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "gap", "--eps", "1", "--k", "7", "--eps-g", "0")
        assert code == 3

    def test_json_bytes(self, capsys):
        # the certificate's JSON line, keys in field order
        code, out, _ = run_cli(capsys, "gap", "--eps", "1", "--k", "2", "--eps-g", "0")
        assert code == 0
        assert out == ('{"delta_nonadaptive": 0.2883172623686342, "t_nonadaptive": '
                       '0.3333333333333333, "delta_adaptive_lb": 0.30336526732673813, '
                       '"gap": 0.015048004958103933, "strict": true, "t_grid": 64, '
                       '"refine_iters": 20}\n')

    def test_custom_solver_flags(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--eps", "1", "--k", "2",
                               "--eps-g", "0", "--t-grid", "32")
        assert code == 0
        assert json.loads(out)["t_grid"] == 32


    def test_seed_only_on_validate(self, capsys):
        for cmd in (["delta", "--eps-g", "0", "--method", "basic"],
                    ["epsilon", "--delta-g", "1e-6", "--method", "basic"],
                    ["gap", "--eps-g", "0"]):
            with pytest.raises(SystemExit):
                main(cmd + ["--eps", "1", "--k", "2", "--seed", "3"])
        assert "seed" not in AdaptiveSolverConfig.__dataclass_fields__
        assert "seed" not in LambdaSearch.__dataclass_fields__


class TestValidate:
    def test_fast_table(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--level", "fast", "--seed", "0")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out
        assert "checks passed" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--level", "fast", "--seed", "1",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert all(set(r) == {"check", "params", "expected", "got", "tol", "pass"}
                   for r in report)
        assert all(r["pass"] for r in report)


def test_method_delta_rejects_unknown():
    with pytest.raises(ValueError):
        method_delta("nope", [1.0], 0.0)


@pytest.mark.parametrize("method", METHODS)
def test_method_delta_rejects_empty_list(method):
    # it raised IndexError from eps_list[0]; method_epsilon refuses the same way
    with pytest.raises(ValueError, match="eps_list must be nonempty"):
        method_delta(method, [], 0.0)


# a value and an alternative for every flag without choices (a flag with
# choices takes its first two); a flag missing here fails the test below
FLAG_VALUES = {
    "--eps": ("0.5", "0.6"), "--k": ("3", "4"), "--eps-file": ("a.txt", "b.txt"),
    "--t-grid": ("48", "40"), "--depth-cap": ("5", "4"), "--lambda-max": ("100", "50"),
    "--eps-g": ("0.2", "0.3"), "--delta-g": ("1e-6", "1e-5"), "--k-max": ("3", "4"),
    "--methods": ("basic,mgf", "basic"), "--out": ("a.out", "b.out"), "--seed": ("0", "1"),
}


def _subcommands() -> dict:
    parser = cli._build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flag_lines(sub) -> list[list[str]]:
    """Flag lists that between them give every flag of a subcommand; --eps-file
    replaces --eps and --k, so it goes on a line of its own."""
    flags = [a.option_strings[-1] for a in sub._actions if a.dest != "help"]
    if "--eps-file" not in flags:
        return [flags]
    return [[f for f in flags if f != "--eps-file"],
            [f for f in flags if f not in ("--eps", "--k")]]


class TestEveryFlagIsRead:
    """Every flag a subcommand parses changes what its handler does: the
    arguments it hands the solver, what it prints or what it writes.  A read
    of the attribute is not enough, since a handler can read a flag into an
    object that drops it."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        calls = []

        def stub(name, result):
            def record(*args, **kwargs):
                calls.append((name, repr(args), repr(kwargs)))
                return result
            return record

        for name, result in {"method_delta": (0.5, {}), "method_epsilon": (0.5, {}),
                             "curve_rows": [cli.CurveRow(1, "basic", 0.5, 1e-6, 0.5, "")],
                             "gap_certificate": types.SimpleNamespace(as_dict=dict)}.items():
            monkeypatch.setattr(cli, name, stub(name, result))
        monkeypatch.setattr(cli.validation, "run_checks", stub(
            "run_checks", [cli.validation.CheckResult("c", {}, "", 0.0, 1.0, True)]))
        (tmp_path / "a.txt").write_text("0.5\n0.5\n")   # equal rounds, as gap needs
        (tmp_path / "b.txt").write_text("0.6\n0.6\n0.6\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        dirs = {"--eps-file": tmp_path, "--out": out_dir}

        def effect(command, flags, changed=None):
            actions = {a.option_strings[-1]: a for a in _subcommands()[command]._actions}
            argv = [command]
            for flag in flags:
                choices = actions[flag].choices
                value = (choices[0], choices[1]) if choices else FLAG_VALUES[flag]
                value = value[flag == changed]
                argv += [flag, str(dirs[flag] / value) if flag in dirs else value]
            calls.clear()
            code = main(argv)
            out, err = capsys.readouterr()
            written = {}
            for path in out_dir.iterdir():
                written[path.name] = path.read_text()
                path.unlink()
            return code, list(calls), out, err, written
        return effect

    @pytest.mark.parametrize("command", list(_subcommands()))
    def test_every_flag_changes_the_handler(self, command, run):
        given, read = set(), set()
        for flags in _flag_lines(_subcommands()[command]):
            base = run(command, flags)
            assert base[0] == 0, (flags, base)
            given |= set(flags)
            read |= {f for f in flags if run(command, flags, changed=f) != base}
        assert given == read, f"{command} parses but does not read {sorted(given - read)}"
