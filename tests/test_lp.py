"""The global program: worked example values, redundancy of explicit
non-negativity, vertex enumeration, and coherence of the resulting lower
expectation operator."""

import numpy as np
import pytest

from credalnet import lp, polytope, simplex
from credalnet.credal import MassFunction, singleton, vacuous
from credalnet.errors import CapabilityError, ConvergenceError, ModelError
from credalnet.graph import Dag
from credalnet.network import CredalNetwork

from helpers import (bayes_joint, binary_net, chain_dag, interval_locals,
                     precise_locals, random_binary_net, random_factor)

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

    def test_exact_mode(self, two_coins):
        from fractions import Fraction
        value = lp.lower_expectation_lp(two_coins, agreement_factor(two_coins),
                                        exact=True)
        assert value == Fraction(1, 4)

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
        nets = [two_coins] + [random_binary_net(rng, n) for n in (2, 3, 3, 4)]
        for net in nets:
            for _ in range(3):
                f = random_factor(rng, net, net.dag.nodes)
                plain = lp.lower_expectation_lp(net, f)
                explicit = lp.lower_expectation_lp(net, f,
                                                   include_nonnegativity=True)
                assert plain == pytest.approx(explicit, abs=TOL)

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
                rng.uniform(-1.5e-6, 1.5e-6, size=(40, 4))
            kept = W[[0, 9]] + rng.uniform(-3e-7, 3e-7, size=(2, 4))
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
    def test_minimize_equals_solve(self, rng, monkeypatch):
        # one phase 1 per program, then phase 2 from a copy of its
        # tableau: the very (value, x) of a fresh two-phase solve.  The
        # float simplex stalls on some 5-node programs with the
        # non-negativity rows; a lowered iteration limit makes both paths
        # give up early there, and they must both give up.
        monkeypatch.setattr(simplex, "_MAX_ITER", 2000)

        def outcome(solve):
            try:
                return solve()
            except ConvergenceError:
                return None

        objectives = 0
        for n in (2, 3, 4, 5):
            for nonneg_rows in (False, True):
                net = random_binary_net(rng, n, 0.5)
                gp = lp.GlobalPolytope(net, nonneg_rows)
                for _ in range(3):
                    c = rng.normal(size=gp.idx.total)
                    cached = outcome(lambda: gp.minimize(c))
                    fresh = outcome(lambda: simplex.solve(
                        c, A_eq=np.ones((1, gp.idx.total)), b_eq=[1.0],
                        A_ub=gp.rows, b_ub=np.zeros(len(gp.rows))))
                    if cached is None or fresh is None:
                        assert cached is fresh is None
                        continue
                    assert cached[0] == fresh.objective
                    assert np.array_equal(cached[1], fresh.x)
                    objectives += 1
        assert objectives >= 20

    def test_exact_minimize_is_a_full_solve(self, two_coins):
        from fractions import Fraction
        gp = lp.GlobalPolytope(two_coins)
        c = lp.factor_vector(two_coins, agreement_factor(two_coins))
        assert gp.minimize(c, exact=True)[0] == Fraction(1, 4)
        assert "_feasible" not in vars(gp)
        assert gp.minimize(c)[0] == pytest.approx(0.25, abs=TOL)
        assert "_feasible" in vars(gp)

    def test_infeasible_program(self, two_coins):
        gp = lp.GlobalPolytope(two_coins)
        gp.rows = np.vstack([gp.rows, -np.ones((1, gp.idx.total))])
        for _ in range(2):
            with pytest.raises(ModelError, match="infeasible"):
                gp.minimize(np.zeros(gp.idx.total))
