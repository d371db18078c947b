"""Tests for the adaptive lower-bound solver, edge forms, and gap certificates."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brcomp import adaptive
from brcomp.adaptive import (_MAX_SWEEPS, AdaptiveSolverConfig, StrategyTree, _eval_order,
                             _lattice_dp, _refine, adaptive_edge_high, adaptive_edge_low,
                             delta_adaptive_lb, gap_certificate)
from brcomp.bounds import mgf_delta
from brcomp.cli import method_delta, method_epsilon
from brcomp.errors import CapError
from brcomp.grr import one_minus_q, q_of_t
from brcomp.nonadaptive import (_endpoint_value, candidate_points, delta_hom_fixed_t,
                                delta_opt_nonadaptive_hom)
from brcomp.optim import golden_max, golden_max_batch


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveSolverConfig(t_grid=1)
    with pytest.raises(ValueError):
        AdaptiveSolverConfig(refine_iters=-1)
    with pytest.raises(ValueError):
        AdaptiveSolverConfig(depth_cap=0)


class TestStrategyTree:
    def test_constant_tree_value_equals_fixed_t(self):
        # a constant-offset tree is exactly the nonadaptive fixed-t strategy
        for eps, k, t, eg in ((1.0, 3, 0.4, 0.2), (0.5, 5, 0.25, -0.3)):
            tree = StrategyTree.constant([eps] * k, [t] * k)
            assert tree.value(eg) == pytest.approx(
                delta_hom_fixed_t(eps, k, eg, t), abs=1e-12)

    def test_prefix_lookup(self):
        t_nodes = np.array([0.1, 0.2, 0.3])
        tree = StrategyTree((1.0, 1.0), t_nodes)
        assert tree.t_for_prefix(()) == 0.1
        assert tree.t_for_prefix((1,)) == 0.2
        assert tree.t_for_prefix((0,)) == 0.3

    @pytest.mark.parametrize("prefix", [(2,), (0.5,), (-1,), (1, 0)])
    def test_prefix_lookup_refuses_bad_outcomes(self, prefix):
        # (2,) read the root's offset and (0.5,) a child's; a prefix as long
        # as the tree raised a bare IndexError
        tree = StrategyTree((1.0, 1.0), np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            tree.t_for_prefix(prefix)

    def test_validation(self):
        with pytest.raises(ValueError):
            StrategyTree((1.0,), np.array([1.5]))  # offset outside [0, eps]
        with pytest.raises(ValueError):
            StrategyTree((1.0, 1.0), np.array([0.5]))  # wrong node count
        with pytest.raises(CapError):
            StrategyTree.constant([1.0] * 21, [0.5] * 21)

    def test_nan_offset_refused(self):
        # a nan offset passed the old `t < 0 or t > eps` test and gave a nan value
        with pytest.raises(ValueError, match="offsets at depth 0"):
            StrategyTree.constant([0.5, 0.5], [math.nan, 0.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_eps_refused(self, bad):
        # NaN passed the old `e <= 0` check and gave a nan value; inf would
        # admit any offset
        with pytest.raises(ValueError, match="finite"):
            StrategyTree.constant([bad], [0.5])


def _oracle_subtree_value(t_nodes, eps_list, node, depth, x):
    """The loss of one subtree by recursion over its outcome paths."""
    if depth == len(eps_list):
        return _endpoint_value(x)
    eps = eps_list[depth]
    t = float(t_nodes[node])
    q = float(q_of_t(eps, t))
    v1 = _oracle_subtree_value(t_nodes, eps_list, 2 * node + 1, depth + 1, x - t)
    v0 = _oracle_subtree_value(t_nodes, eps_list, 2 * node + 2, depth + 1, x + eps - t)
    return q * v1 + (1.0 - q) * v0


def _oracle_refine_tree(tree, eps_g, bracket, iters):
    """Per-node golden coordinate ascent, one tree at a time, nodes in
    preorder.  Returns the refined offsets, the value and the sweep count."""
    t_nodes = tree.t_nodes.copy()
    eps_list = tree.eps_list
    k = len(eps_list)

    def walk(node, depth, x):
        if depth == k:
            return
        eps = eps_list[depth]
        left, right = 2 * node + 1, 2 * node + 2

        def obj(t):
            q = float(q_of_t(eps, t))
            return (q * _oracle_subtree_value(t_nodes, eps_list, left, depth + 1, x - t)
                    + (1.0 - q) * _oracle_subtree_value(t_nodes, eps_list, right, depth + 1,
                                                        x + eps - t))

        t0 = float(t_nodes[node])
        lo = max(0.0, t0 - bracket[depth])
        hi = min(eps, t0 + bracket[depth])
        t_best, v_best = golden_max(obj, lo, hi, iters)
        if v_best > obj(t0):
            t_nodes[node] = t_best
        t = float(t_nodes[node])
        walk(left, depth + 1, x - t)
        walk(right, depth + 1, x + eps - t)

    value = _oracle_subtree_value(t_nodes, eps_list, 0, 0, eps_g)
    for sweeps in range(1, _MAX_SWEEPS + 1):
        walk(0, 0, eps_g)
        new_value = _oracle_subtree_value(t_nodes, eps_list, 0, 0, eps_g)
        if new_value <= value + 1e-15:
            break
        value = new_value
    return t_nodes, new_value, sweeps


def _oracle_lattice_dp(eps, k, eps_g, t_grid):
    """The lattice dynamic program with one pass per grid offset."""
    h = eps / (t_grid - 1)
    span = k * (t_grid - 1)
    v = np.array([_endpoint_value(eps_g + m * h) for m in range(-span, span + 1)])
    q = np.asarray(q_of_t(eps, np.arange(t_grid) * h), dtype=float)
    tables = []
    for remaining in range(1, k + 1):
        need = (k - remaining) * (t_grid - 1)
        prev_span = (k - remaining + 1) * (t_grid - 1)
        mm = np.arange(-need, need + 1)
        best = np.full(mm.shape, -np.inf)
        best_j = np.zeros(mm.shape, dtype=np.int64)
        for j in range(t_grid):
            i1 = mm - j + prev_span
            i0 = i1 + (t_grid - 1)
            cand = q[j] * v[i1] + (1.0 - q[j]) * v[i0]
            upd = cand > best
            best[upd] = cand[upd]
            best_j[upd] = j
        tables.append(best_j)
        v = best
    return float(v[0]), tables


def _random_tree(rng, eps):
    return StrategyTree(eps, np.concatenate([np.empty(0)] + [rng.uniform(0.0, e, 1 << d)
                                                             for d, e in enumerate(eps)]))


def _refine_trees(trees, eps_g, bracket, iters):
    """``_refine`` with one bracket on trees that share ``eps_list``: their
    offsets go in as per-depth arrays, one row per tree in the evaluator's
    order, and come back as trees, with the values ``_refine`` returns."""
    eps = trees[0].eps_list
    t = [np.concatenate(level) for level in zip(*(tree._levels() for tree in trees))]
    values = _refine(t, eps, eps_g, [bracket], iters)
    return [StrategyTree(eps, np.concatenate([tl[b][_eval_order(d)] for d, tl in enumerate(t)]))
            for b in range(len(trees))], values


class TestBatchedRefinement:
    """The level-by-level batch against the one-tree preorder recursion."""

    def test_golden_max_batch_equals_scalar_search(self):
        rng = np.random.default_rng(5)
        # a multimodal quartic and a staircase of ties, made of +, * and
        # comparisons only, so the scalar and the array evaluation round alike
        def quartic(x):
            return (x - 0.2) * (x - 0.45) * (0.9 - x) * (x - 0.05) - 0.01 * x

        def stairs(x):
            return (x > 0.3) * 1.0 + (x > 0.6) * 1.0 - (x > 0.8) * 1.0

        lo = rng.uniform(-0.2, 1.2, 300)
        hi = rng.uniform(-0.2, 1.2, 300)
        hi[:20] = lo[:20]            # empty brackets
        for f in (quartic, stairs):
            for iters in (0, 1, 2, 7, 30):
                xb, fb = golden_max_batch(f, lo, hi, iters)
                want = [golden_max(f, float(a), float(b), iters) for a, b in zip(lo, hi)]
                assert xb.tobytes() == np.array([w[0] for w in want]).tobytes()
                assert fb.tobytes() == np.array([w[1] for w in want]).tobytes()

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("equal_eps", [True, False])
    def test_refinement_equals_recursive_oracle(self, k, equal_eps):
        rng = np.random.default_rng(100 * k + equal_eps)
        eps = ([float(rng.uniform(0.2, 1.5))] * k if equal_eps
               else [float(e) for e in rng.uniform(0.2, 1.5, k)])
        iters = 20 if k <= 6 else 6
        bracket = [e / 8.0 for e in eps]
        cfg = AdaptiveSolverConfig(depth_cap=8)
        for eg in (0.3 * sum(eps), -0.2 * sum(eps)):
            trees = [_random_tree(rng, eps) for _ in range(3 if k <= 6 else 1)]
            trees.append(delta_adaptive_lb(eps, eg, cfg).strategy)
            # with a positive budget every offset within a bracket of 0 loses
            # nothing, so this tree stops after one sweep while the random
            # ones run all of theirs
            trees.append(StrategyTree.constant(eps, [0.0] * k))
            got, values = _refine_trees(trees, eg, bracket, iters)
            sweeps = []
            for tree, refined, got_value in zip(trees, got, values):
                t_nodes, value, n = _oracle_refine_tree(tree, eg, bracket, iters)
                sweeps.append(n)
                assert refined.t_nodes.tobytes() == t_nodes.tobytes()
                assert repr(refined.value(eg)) == repr(float(got_value)) == repr(value)
            if eg > 0.0:
                assert sweeps[-1] == 1 and max(sweeps) == _MAX_SWEEPS

    @pytest.mark.parametrize("iters", [0, 1, 3, 7])
    @pytest.mark.parametrize("equal_eps", [True, False])
    def test_refinement_equals_recursive_oracle_at_few_iters(self, iters, equal_eps):
        # an odd count makes no call for its last step's point; none keeps
        # only the ends and the current offset
        rng = np.random.default_rng(10 * iters + equal_eps)
        k = 4
        eps = ([float(rng.uniform(0.2, 1.5))] * k if equal_eps
               else [float(e) for e in rng.uniform(0.2, 1.5, k)])
        bracket = [e / 4.0 for e in eps]
        for eg in (0.3 * sum(eps), -0.2 * sum(eps)):
            trees = [_random_tree(rng, eps) for _ in range(3)]
            got, values = _refine_trees(trees, eg, bracket, iters)
            for tree, refined, got_value in zip(trees, got, values):
                t_nodes, value, _ = _oracle_refine_tree(tree, eg, bracket, iters)
                assert refined.t_nodes.tobytes() == t_nodes.tobytes()
                assert repr(refined.value(eg)) == repr(float(got_value)) == repr(value)

    @pytest.mark.parametrize("iters", range(8))
    def test_golden_max_batch_calls(self, iters):
        # one opening call of the four points and x0, then one call per two
        # steps: the new point and both points the next step can make.  The
        # last step's point is never compared, so no call evaluates it: an odd
        # count makes no call for it, and an even one ends with a 1-point call
        rng = np.random.default_rng(7)

        def quartic(x):
            return (x - 0.2) * (x - 0.45) * (0.9 - x) * (x - 0.05) - 0.01 * x

        shapes = []

        def f(x):
            shapes.append(x.shape)
            return quartic(x)

        lo = rng.uniform(-0.2, 1.2, (3, 40))
        hi = rng.uniform(-0.2, 1.2, (3, 40))
        x0 = rng.uniform(-0.2, 1.2, (3, 40))
        xb, fb, f0 = golden_max_batch(f, lo, hi, iters, x0)
        assert len(shapes) == 1 + iters // 2
        assert shapes[0] == (5, 3, 40)
        later = [(3, 3, 40)] * (iters // 2)
        if iters % 2 == 0 and iters:
            later[-1] = (1, 3, 40)
        assert shapes[1:] == later
        want = [golden_max(quartic, float(a), float(b), iters)
                for a, b in zip(lo.ravel(), hi.ravel())]
        assert xb.tobytes() == np.array([w[0] for w in want]).reshape(lo.shape).tobytes()
        assert fb.tobytes() == np.array([w[1] for w in want]).reshape(lo.shape).tobytes()
        assert f0.tobytes() == quartic(x0).tobytes()

    def test_sweeps_gaining_little_go_on(self):
        # brackets of 1e-13 gain about 5e-14 per sweep: more than the 1e-15
        # stopping margin, so the trees run more than one sweep
        rng = np.random.default_rng(3)
        eps = [0.7] * 3
        trees = [_random_tree(rng, eps) for _ in range(4)]
        got, values = _refine_trees(trees, 0.3, [1e-13] * 3, 20)
        sweeps = []
        for tree, refined, got_value in zip(trees, got, values):
            t_nodes, value, n = _oracle_refine_tree(tree, 0.3, [1e-13] * 3, 20)
            sweeps.append(n)
            assert refined.t_nodes.tobytes() == t_nodes.tobytes()
            assert repr(refined.value(0.3)) == repr(float(got_value)) == repr(value)
        assert max(sweeps) > 1

    def test_lattice_dp_equals_one_pass_per_offset(self):
        # grids below, at and across the block size; the last budgets make
        # every value 0, so each argmax is a tie that the smallest offset wins
        rng = np.random.default_rng(23)
        for t_grid in (2, 5, 16, 17, 40, 64):
            for k in (1, 3, 6):
                eps = float(rng.uniform(0.1, 1.5))
                for eg in (float(rng.uniform(-k * eps, k * eps)), k * eps + 0.1):
                    value, tables, _ = _lattice_dp(eps, k, eg, t_grid)
                    want_value, want_tables = _oracle_lattice_dp(eps, k, eg, t_grid)
                    assert repr(value) == repr(want_value)
                    assert [t.tolist() for t in tables] == [t.tolist() for t in want_tables]

    def test_tree_value_equals_recursive_sum(self):
        rng = np.random.default_rng(17)
        for k in range(0, 13):
            for equal_eps in (True, False):
                eps = ([float(rng.uniform(0.1, 1.5))] * k if equal_eps
                       else [float(e) for e in rng.uniform(0.1, 1.5, k)])
                tree = _random_tree(rng, eps)
                # the last budget puts every leaf at 0
                for eg in [*rng.uniform(-1.0, 1.0, 3) * max(sum(eps), 1.0), sum(eps) + 0.5]:
                    assert repr(tree.value(eg)) == repr(_oracle_subtree_value(
                        tree.t_nodes, eps, 0, 0, float(eg)))


class TestDeltaAdaptiveLb:
    def test_empty_composition(self):
        assert delta_adaptive_lb([], 0.5).delta == 0.0
        assert delta_adaptive_lb([], -0.5).delta == pytest.approx(
            -math.expm1(-0.5), abs=1e-15)

    def test_single_round_matches_nonadaptive(self):
        # with no outcomes to react to, adapting cannot help
        for eg in (-0.7, 0.0, 0.4):
            lb = delta_adaptive_lb([1.0], eg).delta
            exact = delta_opt_nonadaptive_hom(1.0, 1, eg).delta
            assert lb == pytest.approx(exact, abs=1e-8)

    def test_trivial_regions(self):
        assert delta_adaptive_lb([1.0] * 3, 3.0).delta == pytest.approx(0.0, abs=1e-15)
        assert delta_adaptive_lb([1.0] * 3, -3.0).delta == pytest.approx(
            -math.expm1(-3.0), abs=1e-12)

    def test_never_below_nonadaptive(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            eps = float(rng.uniform(0.3, 1.5))
            k = int(rng.integers(2, 5))
            eg = float(rng.uniform(-0.9 * k * eps, 0.9 * k * eps))
            lb = delta_adaptive_lb([eps] * k, eg).delta
            exact = delta_opt_nonadaptive_hom(eps, k, eg).delta
            assert lb >= exact - 1e-10

    def test_nondecreasing_under_nested_grids(self):
        # grid sizes 2T-1 nest the offsets of size T, so the unrefined
        # lattice-DP tree can only gain feasible strategies
        vals = [delta_adaptive_lb([1.0] * 3, 0.4,
                                  AdaptiveSolverConfig(t_grid=g, refine_iters=0)).delta
                for g in (9, 17, 33, 65)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_depth_cap(self):
        with pytest.raises(CapError):
            delta_adaptive_lb([0.5] * 7, 0.0)

    def test_strategy_depth_cap_refused_before_solving(self, monkeypatch):
        # a depth_cap above STRATEGY_DEPTH_CAP must not let a k the answer's
        # tree refuses reach the lattice DP or the refinement
        def never(*args):
            raise AssertionError("solver ran")
        monkeypatch.setattr(adaptive, "_lattice_dp", never)
        monkeypatch.setattr(adaptive, "_refine", never)
        for eps in ([0.5] * 21, [0.5, 0.25] * 10 + [0.5]):
            with pytest.raises(CapError, match="cap 20"):
                delta_adaptive_lb(eps, 0.0, AdaptiveSolverConfig(depth_cap=25))

    @pytest.mark.parametrize("eps_list", [[0.7] * 4, [0.2, 0.9, 0.5]])
    @pytest.mark.parametrize("refine_iters", [0, 20])
    def test_one_tree_per_answer(self, monkeypatch, eps_list, refine_iters):
        # the candidates are arrays: only the answer is built as a tree, and
        # its value is evaluated once
        calls = {"build": 0, "value": 0}
        post_init, value = StrategyTree.__post_init__, StrategyTree.value

        def counted_post_init(tree):
            calls["build"] += 1
            post_init(tree)

        def counted_value(tree, eps_g):
            calls["value"] += 1
            return value(tree, eps_g)
        monkeypatch.setattr(StrategyTree, "__post_init__", counted_post_init)
        monkeypatch.setattr(StrategyTree, "value", counted_value)
        for eps_g in (-0.4, 0.3, 1.1):
            calls.update(build=0, value=0)
            delta_adaptive_lb(eps_list, eps_g, AdaptiveSolverConfig(refine_iters=refine_iters))
            assert calls == {"build": 1, "value": 1}

    @pytest.mark.parametrize("eps_list", [[0.7] * 4, [0.2, 0.9, 0.5]])
    def test_first_row_of_greatest_value_wins(self, monkeypatch, eps_list):
        # ties are real (budgets where many trees lose the same), and the
        # answer is then the first tied row: the lattice-DP tree, or the
        # smallest constant start
        seen = []

        def tied(t, *args):
            value = _refine(t, *args)
            seen.append(t)
            return np.zeros_like(value)
        monkeypatch.setattr(adaptive, "_refine", tied)
        res = delta_adaptive_lb(eps_list, 0.3)
        (t,) = seen
        assert len(t[0]) > 1
        first = np.concatenate([tl[0][_eval_order(d)] for d, tl in enumerate(t)])
        assert res.strategy.t_nodes.tobytes() == first.tobytes()

    @pytest.mark.parametrize("eps_g", [0.010000000707805157, -0.025])
    def test_no_interior_candidate(self, eps_g):
        # the first is a budget that the epsilon search for [0.01] at
        # delta_g = 1e-6 evaluates; at both the lattice-DP tree is the only
        # candidate, and the empty set of constant trees keeps its shape
        assert not [c for c in candidate_points(0.01, 1, eps_g) if 0.0 < c.t < 0.01]
        res = delta_adaptive_lb([0.01], eps_g)
        assert res.delta == res.strategy.value(eps_g)
        assert res.delta == pytest.approx(delta_opt_nonadaptive_hom(0.01, 1, eps_g).delta,
                                          abs=1e-15)

    def test_no_interior_candidate_budget(self):
        # the golden entry epsilon|adaptive-lb|0.01x1|1e-06
        assert method_epsilon("adaptive-lb", [0.01], 1e-6)[0] == 0.00980048906058073

    def test_reported_strategy_attains_value(self):
        res = delta_adaptive_lb([1.0] * 4, 0.5)
        assert res.strategy.value(0.5) == pytest.approx(res.delta, abs=1e-12)

    def test_value_is_the_strategy_loss(self):
        # the reported floor is the returned strategy's own evaluated loss,
        # bit for bit: every combination of k, equal or unequal eps and
        # refine_iters recurs in each block of 36 calls
        rng = np.random.default_rng(31)
        for i in range(300):
            k = 1 + i % 6
            eps = ([float(rng.uniform(0.05, 1.5))] * k if (i // 6) % 2 == 0
                   else [float(e) for e in rng.uniform(0.05, 1.5, k)])
            eg = float(rng.uniform(-1.0, 1.0)) * sum(eps)
            cfg = AdaptiveSolverConfig(t_grid=int(rng.integers(8, 65)),
                                       refine_iters=(0, 3, 20)[(i // 12) % 3])
            res = delta_adaptive_lb(eps, eg, cfg)
            assert repr(res.delta) == repr(res.strategy.value(eg)), (eps, eg, cfg)

    @pytest.mark.parametrize("eps_list, eps_g, refine_iters, want", [
        # calls whose reported floor once sat one ulp above every strategy
        # the solver held (0.0038801737405280683 for the first)
        ([0.9849891645002338] * 5, 3.0561687484703484, 0, 0.003880173740528063),
        ([0.1] * 2, -0.1, 20, 0.098683208418129),
        ([0.01] * 5, -0.049975000000000006, 20, 0.04874679446641183),
        ([0.1] * 5, -0.49975, 20, 0.39331768866677597),
    ])
    def test_floor_never_above_its_strategy(self, eps_list, eps_g, refine_iters, want):
        res = delta_adaptive_lb(eps_list, eps_g, AdaptiveSolverConfig(refine_iters=refine_iters))
        assert res.delta == want == res.strategy.value(eps_g)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_eps_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            delta_adaptive_lb([bad, 1.0], 0.5)

    def test_nan_budget_refused(self):
        # it returned 0, the optimistic answer
        with pytest.raises(ValueError, match="nan"):
            delta_adaptive_lb([0.3, 0.3], math.nan)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.integers(2, 8), eps=st.floats(0.05, 2.0), frac=st.floats(-1.0, 1.0))
    def test_bound_ordering_chain(self, k, eps, frac):
        # exact nonadaptive optimum <= certified adaptive lower bound <= mgf
        eg = frac * k * eps
        lb = delta_adaptive_lb([eps] * k, eg, AdaptiveSolverConfig(depth_cap=8)).delta
        non = delta_opt_nonadaptive_hom(eps, k, eg).delta
        assert non <= lb * (1.0 + 1e-9) + 1e-15
        assert lb <= mgf_delta([eps] * k, eg).delta * (1.0 + 1e-9)

    def test_heterogeneous_certifies_above_constant_trees(self):
        eps = [0.5, 1.0, 0.25]
        eg = 0.3
        res = delta_adaptive_lb(eps, eg)
        best_const = max(StrategyTree.constant(eps, [f * e for e in eps]).value(eg)
                         for f in np.linspace(0.05, 0.95, 50))
        assert res.delta >= best_const - 1e-9


class TestEdgeForms:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            adaptive_edge_high(1.0, 3, 1.0)   # needs eps_g >= 2
        with pytest.raises(ValueError):
            adaptive_edge_low(1.0, 3, -1.0)   # needs eps_g <= -2

    def test_zero_beyond_basic(self):
        assert adaptive_edge_high(1.0, 2, 2.0) == 0.0
        assert adaptive_edge_high(1.0, 2, 2.5) == 0.0

    def test_constant_below_negated_basic(self):
        assert adaptive_edge_low(1.0, 2, -2.0) == pytest.approx(
            -math.expm1(-2.0), abs=1e-12)
        assert adaptive_edge_low(1.0, 2, -2.5) == pytest.approx(
            -math.expm1(-2.5), abs=1e-12)

    def test_budgets_past_exp_overflow(self):
        # eps_g > 709 overflows e^eps_g; the base case max(1 - e^eps_g, 0) is 0
        # there and must not raise
        assert method_delta("adaptive-lb", [300.0] * 3, 1000.0)[0] == 0.0
        # 800 < k eps, so the loss is not 0: the lower bound meets the edge form
        lb = method_delta("adaptive-lb", [300.0] * 3, 800.0)[0]
        assert lb == pytest.approx(adaptive_edge_high(300.0, 3, 800.0), abs=1e-12)

    def test_single_round_agrees_with_nonadaptive(self):
        assert adaptive_edge_high(1.0, 1, 0.0) == pytest.approx(
            delta_opt_nonadaptive_hom(1.0, 1, 0.0).delta, abs=1e-8)
        assert adaptive_edge_low(1.0, 1, -0.4) == pytest.approx(
            delta_opt_nonadaptive_hom(1.0, 1, -0.4).delta, abs=1e-8)

    def test_no_gap_region_matches_nonadaptive(self):
        # adapting gains nothing once the budget passes (k-1) eps
        assert adaptive_edge_high(1.0, 2, 1.5) == pytest.approx(
            delta_opt_nonadaptive_hom(1.0, 2, 1.5).delta, abs=1e-8)
        assert adaptive_edge_low(1.0, 2, -1.5) == pytest.approx(
            delta_opt_nonadaptive_hom(1.0, 2, -1.5).delta, abs=1e-8)

    @pytest.mark.parametrize("k,eps,eps_g_off", [(2, 1.0, 0.4), (3, 0.7, 0.2), (4, 0.5, 0.3)])
    def test_matches_solver(self, k, eps, eps_g_off):
        cfg = AdaptiveSolverConfig(t_grid=256)
        eg = (k - 1) * eps + eps_g_off
        assert adaptive_edge_high(eps, k, eg) == pytest.approx(
            delta_adaptive_lb([eps] * k, eg, cfg).delta, abs=1e-6)
        eg = -(k - 1) * eps - eps_g_off
        assert adaptive_edge_low(eps, k, eg) == pytest.approx(
            delta_adaptive_lb([eps] * k, eg, cfg).delta, abs=1e-6)

    @pytest.mark.parametrize("high", [True, False])
    def test_closed_form_matches_mpmath(self, high):
        # a ratio of expm1s raised to the k-th power: rounding grows like k ulps
        edge = adaptive_edge_high if high else adaptive_edge_low
        for eps, k, eps_g, want in _edge_cases(1000, 1e-3, 1.0, high,
                                               lambda *c: _mp_edge(*c, high)):
            assert abs(edge(eps, k, eps_g) - want) <= 2 * (k + 1) * 2.0 ** -52 * want, \
                (eps, k, eps_g)

    @pytest.mark.parametrize("high", [True, False])
    def test_equals_nonadaptive_optimum(self, high):
        # adapting gains nothing beyond (k-1) eps: the edge value is the
        # nonadaptive optimum, reached at the same candidate offset
        edge = adaptive_edge_high if high else adaptive_edge_low
        for eps, k, eps_g, want in _edge_cases(150, 1e-6, 0.9, high,
                                               lambda *c: delta_opt_nonadaptive_hom(*c).delta):
            assert edge(eps, k, eps_g) == pytest.approx(want, rel=1e-10, abs=0.0), \
                (eps, k, eps_g)

    def test_slack_clamps_the_stationary_point(self):
        # the precondition's 1e-12 slack admits budgets whose stationary
        # offset leaves (0, eps): past eps the loss is 0, below 0 it is the
        # endpoint value
        assert adaptive_edge_low(1e-13, 1, 5e-13) == 0.0
        assert adaptive_edge_high(1e-13, 2, -9e-13) == _endpoint_value(-9e-13)

    def test_infinite_and_nan_budgets(self):
        assert adaptive_edge_high(1.0, 3, math.inf) == 0.0
        assert adaptive_edge_low(1.0, 3, -math.inf) == 1.0
        for edge in (adaptive_edge_high, adaptive_edge_low):
            with pytest.raises(ValueError, match="nan"):
                edge(1.0, 3, math.nan)

    def test_equal_offset_reduction_vs_full_grid(self):
        # 3-D grid + coordinate polish of the raw product objectives
        eps, k = 1.0, 3
        eg_hi = (k - 1) * eps + 0.3

        def hi_obj(tv):
            s = float(np.sum(tv))
            if s <= eg_hi:
                return 0.0
            w = float(np.prod([q_of_t(eps, x) for x in tv]))
            return w * -math.expm1(eg_hi - s)

        assert adaptive_edge_high(eps, k, eg_hi) == pytest.approx(
            _grid_polish_max(hi_obj, eps, k), abs=1e-6)

        eg_lo = -(k - 1) * eps - 0.3

        def lo_obj(tv):
            s = float(np.sum(tv))
            if s >= eg_lo + k * eps:
                return 0.0
            w = float(np.prod([one_minus_q(eps, x) for x in tv]))
            return w * math.expm1(eg_lo + k * eps - s)

        assert adaptive_edge_low(eps, k, eg_lo) == pytest.approx(
            -math.expm1(eg_lo) + _grid_polish_max(lo_obj, eps, k), abs=1e-6)


def _edge_cases(n, eps_lo, f_hi, high, value):
    """n seeded in-region draws (eps, k, eps_g, value(eps, k, eps_g)) whose
    value is a normal float: k log-uniform in [1, 10^4], eps log-uniform in
    [eps_lo, 5] and |eps_g| = (k - 1 + f) eps with f uniform in [0, f_hi]."""
    rng = np.random.default_rng(7 if high else 8)
    out = []
    while len(out) < n:
        k = int(round(10.0 ** rng.uniform(0.0, 4.0)))
        eps = float(10.0 ** rng.uniform(math.log10(eps_lo), math.log10(5.0)))
        eps_g = (k - 1 + float(rng.uniform(0.0, f_hi))) * eps * (1 if high else -1)
        want = value(eps, k, eps_g)
        if want >= sys.float_info.min:
            out.append((eps, k, eps_g, want))
    return out


def _mp_edge(eps, k, eps_g, high):
    """The edge value at 60 digits: the equal-offset form at its stationary
    offset (eps_g + eps)/(k+1) above or (eps_g + k eps)/(k+1) below, or the
    endpoint value when that offset is not inside (0, eps)."""
    with mp.workdps(60):
        eps, eps_g = mp.mpf(eps), mp.mpf(eps_g)
        t = (eps_g + (1 if high else k) * eps) / (k + 1)
        if not 0 < t < eps:
            return max(-mp.expm1(eps_g), 0)
        ratio = mp.expm1(t - eps if high else -t) / mp.expm1(-eps)
        if high:
            return ratio ** k * -mp.expm1(t - eps)
        return -mp.expm1(eps_g) + mp.exp(k * (t - eps)) * ratio ** k * mp.expm1(t)


def _grid_polish_max(obj, eps, k, n=80, rounds=3):
    """Independent k-dimensional grid search plus coordinate golden polish."""
    grid = np.linspace(0.0, eps, n)
    best, argt = -1.0, None
    mesh = np.stack(np.meshgrid(*([grid] * k), indexing="ij"), axis=-1).reshape(-1, k)
    vals = np.array([obj(row) for row in mesh])
    j = int(vals.argmax())
    best, argt = float(vals[j]), mesh[j].copy()
    h = eps / (n - 1)
    for _ in range(rounds):
        for i in range(k):
            def line(x):
                trial = argt.copy()
                trial[i] = x
                return obj(trial)
            x, v = golden_max(line, max(0.0, argt[i] - h), min(eps, argt[i] + h), 50)
            if v > best:
                best, argt[i] = v, x
    return best


class TestGapCertificate:
    def test_strict_gap_inside_window(self):
        cert = gap_certificate(1.0, 4, 0.5)
        assert cert.strict
        assert cert.gap > 1e-7
        assert cert.delta_adaptive_lb > cert.delta_nonadaptive

    def test_no_gap_beyond_k_minus_one(self):
        cert = gap_certificate(1.0, 4, 3.2)
        assert not cert.strict
        assert abs(cert.gap) <= 1e-6

    def test_two_round_base_case(self):
        cert = gap_certificate(1.0, 2, 0.0)
        assert cert.strict

    @pytest.mark.parametrize("eps, k", [(math.inf, 2), (0.5, 2.0)])
    def test_scalar_inputs_refused(self, eps, k):
        # a float k raised TypeError from a slice
        with pytest.raises(ValueError, match="finite|integer"):
            gap_certificate(eps, k, 0.1)

    def test_nonadaptive_argmax_is_interior_candidate(self):
        cert = gap_certificate(1.0, 4, 0.5)
        cands = [c.t for c in candidate_points(1.0, 4, 0.5)]
        assert 0.0 < cert.t_nonadaptive < 1.0
        assert min(abs(cert.t_nonadaptive - c) for c in cands) <= 1e-12

    def test_nan_budget_refused(self):
        with pytest.raises(ValueError, match="nan"):
            gap_certificate(0.3, 2, math.nan)

    def test_requires_two_rounds(self):
        with pytest.raises(ValueError):
            gap_certificate(1.0, 1, 0.0)

    def test_top_grid_offset_rounding_above_eps(self):
        # (t_grid - 1) * h rounds above eps for this eps; the tree must clamp
        cert = gap_certificate(0.991475588277046, 8, 0.49751113769095595,
                               AdaptiveSolverConfig(depth_cap=8))
        assert cert.delta_nonadaptive <= cert.delta_adaptive_lb * (1.0 + 1e-9) + 1e-15

    def test_mgf_bound_dominates_lower_bound(self):
        for eg in (0.0, 0.5, 1.5):
            lb = delta_adaptive_lb([1.0] * 4, eg).delta
            assert mgf_delta([1.0] * 4, eg).delta >= lb - 1e-12
