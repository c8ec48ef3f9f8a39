"""The global program: worked example values, mass functions as
minimisers, vertex enumeration, and coherence of the resulting lower
expectation operator."""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from credalnet import conditioning, lp, polytope, simplex
from credalnet.credal import MassFunction, vacuous
from credalnet.errors import CapabilityError, ConvergenceError, ModelError
from credalnet.graph import Dag
from credalnet.network import CredalNetwork

from helpers import (bayes_joint, binary_net, chain_dag, highs_minimum,
                     one_gamble, precise_locals, random_binary_net,
                     random_factor, simplex_cut_net)

TOL = 1e-9


def agreement_factor(net):
    return net.factor_from_values(["1", "2"], [1.0, 0.0, 0.0, 1.0])


class TestWorkedExample:
    def test_constraint_count(self, two_coins):
        gp = lp.GlobalPolytope(two_coins)
        assert len(gp.rows) == 8
        assert gp.dump(agreement_factor(two_coins)).count("\neq ") == 1

    def test_agreement_lower_probability(self, two_coins):
        value = lp.lower_expectation_lp(two_coins, agreement_factor(two_coins))
        assert value == pytest.approx(0.25, abs=TOL)

    def test_six_extreme_points(self, two_coins):
        points = lp.enumerate_joint_extreme_points(two_coins)
        assert len(points) == 6
        V = np.array([p.probs for p in points])
        target = np.array([0.125, 0.375, 0.375, 0.125])
        assert np.min(np.max(np.abs(V - target), axis=1)) < TOL

    def test_argmin_is_mass_function(self, two_coins):
        gp = lp.GlobalPolytope(two_coins)
        _, x = gp.minimize(lp.factor_vector(
            two_coins, agreement_factor(two_coins)))
        MassFunction(tuple(two_coins.joint_tuples()), tuple(x))

    def test_dump_deterministic(self, two_coins):
        f = agreement_factor(two_coins)
        text = lp.GlobalPolytope(two_coins).dump(f)
        assert text == lp.GlobalPolytope(two_coins).dump(f)
        assert text.startswith("vars h,h h,t t,h t,t\nmin 1.0 0.0 0.0 1.0\n")
        assert text.count("\nge ") == 8


class TestDegenerateNets:
    def test_all_singleton_locals_reduce_to_bayes(self, rng):
        for _ in range(5):
            dag = chain_dag(3)
            net = binary_net(dag, precise_locals(dag, rng))
            joint = bayes_joint(net)
            f = random_factor(rng, net, net.dag.nodes)
            fv = lp.factor_vector(net, f)
            assert lp.lower_expectation_lp(net, f) == \
                pytest.approx(float(fv @ joint), abs=1e-7)
            points = lp.enumerate_joint_extreme_points(net)
            assert len(points) == 1
            assert np.allclose(points[0].probs, joint, atol=1e-7)

    def test_vacuous_locals_give_full_simplex(self, rng):
        dag = chain_dag(3)
        locs = {("1", ()): vacuous(("0", "1"))}
        for s, cfgs in [("2", [("0",), ("1",)]), ("3", [("0",), ("1",)])]:
            for cfg in cfgs:
                locs[(s, cfg)] = vacuous(("0", "1"))
        net = binary_net(dag, locs)
        points = lp.enumerate_joint_extreme_points(net)
        V = np.sort([tuple(np.round(p.probs, 9)) for p in points], axis=0)
        assert len(points) == 8
        assert np.allclose(np.array([p.probs for p in points]).max(axis=1), 1.0)
        f = random_factor(rng, net, net.dag.nodes)
        fv = lp.factor_vector(net, f)
        assert lp.lower_expectation_lp(net, f) == \
            pytest.approx(float(fv.min()), abs=1e-7)


class TestNonNegativityRedundancy:
    def test_optima_agree(self, rng, two_coins):
        # binary interval rows imply p >= 0: the program over free
        # variables has the same optima
        nets = [two_coins] + [random_binary_net(rng, n) for n in (2, 3, 3, 4)]
        for net in nets:
            gp = lp.GlobalPolytope(net)
            for _ in range(3):
                f = random_factor(rng, net, net.dag.nodes)
                free, _ = highs_minimum(lp.factor_vector(net, f), gp.rows,
                                        free=True)
                assert lp.lower_expectation_lp(net, f) == \
                    pytest.approx(free, abs=TOL)

    def test_argmin_valid_without_nonnegativity_rows(self, rng):
        for n in (2, 3, 4):
            net = random_binary_net(rng, n)
            f = random_factor(rng, net, net.dag.nodes)
            gp = lp.GlobalPolytope(net)
            _, probs = gp.minimize(lp.factor_vector(net, f))
            assert probs.min() >= -1e-7
            assert abs(probs.sum() - 1.0) < 1e-7


class TestVertexEnumerationAgainstLp:
    def test_minimum_over_vertices_matches(self, rng):
        for n in (2, 3):
            net = random_binary_net(rng, n)
            points = lp.enumerate_joint_extreme_points(net)
            V = np.array([p.probs for p in points])
            for _ in range(5):
                f = random_factor(rng, net, net.dag.nodes)
                fv = lp.factor_vector(net, f)
                assert lp.lower_expectation_lp(net, f) == \
                    pytest.approx(float((V @ fv).min()), abs=1e-7)

    def test_capability_guard(self):
        dag = Dag([str(i) for i in range(7)], [])
        locs = {(str(i), ()): vacuous(("0", "1")) for i in range(7)}
        net = CredalNetwork(dag, {str(i): ("0", "1") for i in range(7)}, locs)
        with pytest.raises(CapabilityError):
            lp.enumerate_joint_extreme_points(net)


def greedy_dedup(W, kept):
    """Reference for the vectorised dedup: one point at a time, dropped
    when it is near a kept vertex or an earlier taken point."""
    taken = []
    for w in W:
        if len(kept) and np.min(np.max(np.abs(kept - w), axis=1)) \
                < polytope.DEDUP_RADIUS:
            continue
        if any(np.max(np.abs(u - w)) < polytope.DEDUP_RADIUS for u in taken):
            continue
        taken.append(w)
    return np.array(taken).reshape(-1, W.shape[1])


class TestVertexDedup:
    def test_matches_greedy_reference(self, rng, monkeypatch):
        # clusters of near-duplicates (some closer than the radius, some
        # not) spread over several blocks
        monkeypatch.setattr(polytope, "_DEDUP_BLOCK", 7)
        for _ in range(20):
            centres = rng.uniform(0, 1, size=(6, 4))
            W = centres[rng.integers(0, 6, size=40)] + \
                rng.uniform(-1.5, 1.5, size=(40, 4)) * polytope.DEDUP_RADIUS
            kept = W[[0, 9]] + \
                rng.uniform(-0.3, 0.3, size=(2, 4)) * polytope.DEDUP_RADIUS
            for k in (kept, kept[:0]):
                expect = greedy_dedup(W, k)
                got = polytope._fresh_vertices(W, k)
                assert np.array_equal(got, expect)


class TestCoherence:
    def test_operator_axioms(self, rng):
        for n in (2, 3):
            net = random_binary_net(rng, n)
            gp = lp.GlobalPolytope(net)
            scope = net.dag.nodes
            for _ in range(4):
                f = random_factor(rng, net, scope)
                g = random_factor(rng, net, scope)
                fv, gv = lp.factor_vector(net, f), lp.factor_vector(net, g)
                low = float(gp.minimize(fv)[0])
                # bounds
                assert f.min() - TOL <= low <= f.max() + TOL
                # conjugacy ordering
                up = -float(gp.minimize(-fv)[0])
                assert low <= up + TOL
                # constant additivity
                c = float(rng.normal())
                assert float(gp.minimize(fv + c)[0]) == \
                    pytest.approx(low + c, abs=TOL)
                # positive homogeneity
                lam = float(rng.uniform(0, 2))
                assert float(gp.minimize(lam * fv)[0]) == \
                    pytest.approx(lam * low, abs=TOL)
                # superadditivity
                both = float(gp.minimize(fv + gv)[0])
                assert both >= low + float(gp.minimize(gv)[0]) - TOL


class TestCachedPhaseOne:
    def test_minimize_agrees_with_exact_solve(self, rng, monkeypatch):
        # every minimum is checked against HiGHS.  Phase 1 starts at the product model
        # of the local sets, so phase 2 may end at another minimiser than
        # a fresh two-phase solve, of the same value.  That solve stalls
        # on some 5-node programs; a lowered iteration limit makes it give
        # up early there.
        monkeypatch.setattr(simplex, "_MAX_ITER", 2000)
        fresh_checked = 0
        for n in (2, 3, 4, 5):
            for _ in range(2):
                net = random_binary_net(rng, n, 0.5)
                gp = lp.GlobalPolytope(net)
                for _ in range(3):
                    c = rng.normal(size=gp.idx.total)
                    value, x = gp.minimize(c)
                    MassFunction(tuple(net.joint_tuples()), tuple(x))
                    assert (gp.rows @ x).min() >= -simplex.TOL_FEAS
                    assert value == pytest.approx(c @ x, abs=1e-12)
                    expect = highs_minimum(c, gp.rows)[0]
                    assert value == pytest.approx(
                        expect, abs=1e-9 * max(1.0, abs(expect)))
                    try:
                        fresh = simplex.solve(c, gp.rows)
                    except ConvergenceError:
                        continue
                    if fresh.status == "optimal":
                        assert value == pytest.approx(fresh.objective,
                                                      abs=TOL)
                        fresh_checked += 1
        assert fresh_checked >= 20

    def test_infeasible_program(self, two_coins):
        gp = lp.GlobalPolytope(two_coins)
        gp.rows = np.vstack([gp.rows, -np.ones((1, gp.idx.total))])
        for _ in range(2):
            with pytest.raises(ModelError, match="infeasible"):
                gp.minimize(np.zeros(gp.idx.total))


class TestLargerPrograms:
    def test_six_nodes_agree_with_highs(self):
        for seed in range(8):
            net = random_binary_net(np.random.default_rng(seed * 100 + 6),
                                    6, 0.4)
            gp = lp.GlobalPolytope(net)
            rng = np.random.default_rng(seed)
            for _ in range(4):
                c = rng.normal(size=gp.idx.total)
                expect = highs_minimum(c, gp.rows)[0]
                assert gp.minimize(c)[0] == pytest.approx(
                    expect, abs=1e-9 * max(1.0, abs(expect)))

    def test_seven_nodes_agree_with_highs(self):
        for seed in range(4):
            net = random_binary_net(np.random.default_rng(seed * 100 + 7),
                                    7, 0.4)
            gp = lp.GlobalPolytope(net)
            c = np.random.default_rng(seed).normal(size=gp.idx.total)
            expect = highs_minimum(c, gp.rows)[0]
            assert gp.minimize(c)[0] == pytest.approx(
                expect, abs=1e-9 * max(1.0, abs(expect)))

    def test_residual_miss_refused_on_eight_nodes(self):
        # the optimum of the 652 x 256 program misses its residual check
        # here: it is refused, not returned
        net = random_binary_net(np.random.default_rng(8), 8, 0.4)
        gp = lp.GlobalPolytope(net)
        c = np.random.default_rng(0).normal(size=gp.idx.total)
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match="residual check"):
            gp.minimize(c)
        assert time.perf_counter() - start < 30.0

    def test_five_node_net_that_stalled_phase_one(self):
        # a phase 1 from artificial columns on every row stalled here at
        # the iteration limit, for any objective
        net = random_binary_net(np.random.default_rng(0), 5, 0.5)
        gp = lp.GlobalPolytope(net)
        rng = np.random.default_rng(1)
        for _ in range(4):
            c = rng.normal(size=gp.idx.total)
            expect = highs_minimum(c, gp.rows)[0]
            assert gp.minimize(c)[0] == pytest.approx(
                expect, abs=1e-9 * max(1.0, abs(expect)))


class TestRowsReadOnTheSimplex:
    """A net whose local rows do not imply p >= 0 without the simplex
    gets the bounds of its vertex twin, from the simplex, HiGHS over
    non-negative variables and the extreme points."""

    def test_bounds_match_vertex_twin(self, rng):
        net, twin = simplex_cut_net(False), simplex_cut_net(True)
        gp, gp_twin = lp.GlobalPolytope(net), lp.GlobalPolytope(twin)
        V = np.array([p.probs for p in lp.enumerate_joint_extreme_points(net)])
        for _ in range(6):
            f = random_factor(rng, net, net.dag.nodes)
            c = lp.factor_vector(net, f)
            expect = float(gp_twin.minimize(c)[0])
            value, x = gp.minimize(c)
            assert value == pytest.approx(expect, abs=TOL)
            assert x.min() >= -simplex.TOL_FEAS
            assert (V @ c).min() == pytest.approx(expect, abs=1e-7)
            low, _ = highs_minimum(c, gp.rows)
            assert low == pytest.approx(expect, abs=TOL)
            # the rows alone, over free variables, bound less
            free = linprog(c, A_ub=-gp.rows, b_ub=np.zeros(len(gp.rows)),
                           A_eq=np.ones((1, gp.idx.total)), b_eq=[1.0],
                           bounds=(None, None), method="highs")
            assert free.status != 0 or free.fun < expect - 1e-6


class TestRowBound:
    """The global program counts its rows before it builds them."""

    def test_count_matches_build(self, two_coins):
        nets = [two_coins, simplex_cut_net(False), simplex_cut_net(True)] + [
            random_binary_net(np.random.default_rng(n), n) for n in (3, 5, 7)]
        for net in nets:
            gp = lp.GlobalPolytope(net)
            f = net.factor_from_values([net.dag.nodes[0]], [0.0, 1.0])
            count = lp._row_count(net, list(lp._node_rows(net)))
            assert count == len(gp.rows) == \
                gp.dump(f).count("\nge ")

    def test_refused_before_rows_are_built(self, monkeypatch, two_coins):
        def build(*args):
            raise AssertionError("rows built for a refused program")
        # 8 rows over 4 joint states: a phase-1 tableau of (8 + 2) x
        # (4 + 2) entries
        monkeypatch.setattr(simplex, "MAX_TABLEAU_BYTES", 10 * 6 * 8)
        lp.GlobalPolytope(two_coins)
        monkeypatch.setattr(simplex, "MAX_TABLEAU_BYTES", 10 * 6 * 8 - 1)
        monkeypatch.setattr(lp, "_constraint_rows", build)
        with pytest.raises(CapabilityError, match="tableau of 0 MiB"):
            lp.GlobalPolytope(two_coins)
        monkeypatch.undo()
        monkeypatch.setattr(lp, "_constraint_rows", build)
        net = random_binary_net(np.random.default_rng(12), 12)
        with pytest.raises(CapabilityError, match="753 MiB exceeds the 16"):
            lp.GlobalPolytope(net)


def rho_problem(seed: int, n: int):
    """A seeded net, a gamble on all its nodes and evidence on its last."""
    rng = np.random.default_rng(seed)
    net = random_binary_net(rng, n)
    f = random_factor(rng, net, net.dag.nodes)
    return net, f, net.cylinder({net.dag.nodes[-1]: "1"})


def rho_orders(f, neg):
    """(gamble, mu) in the orders of a bracketing run and worse: a grid
    over f's range up, the grid down, then f and its negation ``neg`` in
    turn.  Each gamble's grid runs from one below its minimum to one
    above its maximum."""
    grid = np.linspace(f.min() - 1.0, f.max() + 1.0, 7)
    return ([(f, mu) for mu in grid] + [(f, mu) for mu in grid[::-1]]
            + [(g, s * mu) for mu in grid for g, s in ((f, 1), (neg, -1))])


def rho_triple(net, g, B, mu, solve):
    """(rho, E_p[g 1_B], P_p(B)) at the minimiser p that ``solve``
    returns."""
    ib = lp.event_mask(net, B).astype(float)
    ibg = ib * lp.factor_vector(net, g)
    value, x = solve(ibg - mu * ib)
    x = np.asarray(x, dtype=float)
    return float(value), ibg @ x, ib @ x


class TestWarmStart:
    """rho evaluations on one program start phase 2 from the last
    optimal tableau; they must give what a phase 2 from the phase-1
    tableau gives, and what HiGHS gives.  Away from a kink of rho, every
    minimiser has the same E_p[f 1_B] and P_p(B), the slope."""

    @pytest.mark.parametrize("seed,n", [(1, 4), (2, 5), (3, 6), (4, 6)])
    def test_warm_matches_cold(self, seed, n):
        net, f, B = rho_problem(seed, n)
        neg = -f
        gp = lp.GlobalPolytope(net)
        rho = conditioning.program_rho(net, B, [f, neg], gp)

        def cold(c):
            res = simplex.phase2(gp._feasible, c)
            assert res.status == "optimal"
            return res.objective, res.x

        for g, mu in rho_orders(f, neg):
            got = one_gamble(rho, 0 if g is f else 1)(mu)
            assert got == pytest.approx(rho_triple(net, g, B, mu, cold),
                                        abs=1e-9)
            assert got == pytest.approx(rho_triple(
                net, g, B, mu, lambda c: highs_minimum(c, gp.rows)),
                abs=1e-9)
        assert gp._warm is not None

    def test_no_more_pivots_than_cold(self, monkeypatch):
        pivots = [0]
        pivot = simplex._pivot

        def counted(*args):
            pivots[0] += 1
            pivot(*args)

        monkeypatch.setattr(simplex, "_pivot", counted)
        totals = {}
        for warm in (True, False):
            pivots[0] = 0
            for seed, n in [(5, 4), (6, 5), (7, 5), (8, 6), (9, 6)]:
                net, f, B = rho_problem(seed, n)
                gp = lp.GlobalPolytope(net)
                for g, mu in rho_orders(f, -f):
                    rho_triple(net, g, B, mu,
                               lambda c: gp.minimize(c, warm=warm))
            totals[warm] = pivots[0]
        # exact counts, which pin the pivot rule and its tie-breaking
        assert totals == {True: 5501, False: 8337}

    @pytest.mark.parametrize("failures", [1, 2])
    def test_retry_order(self, monkeypatch, failures):
        # a warm optimum that fails the residual check is dropped for a
        # phase 2 from the phase-1 tableau; when that fails as well, the
        # solve is refused and leaves no warm tableau behind
        net, f, B = rho_problem(1, 4)
        gp = lp.GlobalPolytope(net)
        ib = lp.event_mask(net, B).astype(float)
        c = ib * lp.factor_vector(net, f)
        expect = highs_minimum(c - 0.5 * ib, gp.rows)[0]
        gp.minimize(c, warm=True)
        dropped = gp._warm
        warm_basis = list(dropped.basis)
        assert warm_basis != gp._feasible.basis

        starts, verdicts = [], [False] * failures
        optimise, residuals_ok = simplex._optimise, simplex._residuals_ok
        monkeypatch.setattr(simplex, "_optimise", lambda t, c: (
            starts.append(list(t.basis)) or optimise(t, c)))
        monkeypatch.setattr(simplex, "_residuals_ok", lambda *a: (
            verdicts.pop(0) if verdicts else residuals_ok(*a)))

        if failures == 1:
            value, _ = gp.minimize(c - 0.5 * ib, warm=True)
            assert value == pytest.approx(expect, abs=1e-12)
        else:
            with pytest.raises(CapabilityError, match="residual check"):
                gp.minimize(c - 0.5 * ib, warm=True)
        assert starts == [warm_basis, gp._feasible.basis]
        assert not verdicts
        if failures == 1:
            # the next warm solve starts from the cold optimum
            assert gp._warm is not None and gp._warm is not dropped
        else:
            # the refused solve leaves no tableau, so the next warm solve
            # starts from the phase-1 tableau
            assert gp._warm is None
            del starts[:]
            value, _ = gp.minimize(c - 0.5 * ib, warm=True)
            assert value == pytest.approx(expect, abs=1e-12)
            assert starts == [gp._feasible.basis]
            assert gp._warm is not None
