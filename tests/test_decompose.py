"""Theorem-level reductions versus the global program.

Every reduction's output is compared with the LP value of the explicitly
assembled global gamble; hypothesis violations must raise instead of
silently producing numbers."""

import numpy as np
import pytest

from credalnet import decompose, lp
from credalnet.decompose import (atom_bounds, combined, external_additivity,
                                 factorise, iterated_lower_expectation,
                                 lower_expectation, marginalise, trace_lines)
from credalnet.errors import HypothesisError
from credalnet.graph import closure, is_closed, set_relations
from credalnet.network import Factor, sub_network

from helpers import (binary_net, chain_dag, combined_factor, fig_dag,
                     interval_locals, precise_locals, product_factor,
                     random_binary_net, random_chain_net, random_factor,
                     sum_factor)

TOL = 1e-9


def closed_sets_with_parents(net, rng, want_parents=None, tries=60):
    """Sample a proper nonempty closed subset, optionally constraining
    whether it has external parents."""
    nodes = list(net.dag.nodes)
    found = []
    for _ in range(tries):
        seed = [n for n in nodes if rng.random() < 0.5]
        if not seed:
            continue
        K = closure(net.dag, seed)
        if len(K) == len(nodes):
            continue
        rel = set_relations(net.dag, K)
        if want_parents is True and not rel.parents:
            continue
        if want_parents is False and rel.parents:
            continue
        found.append((K, rel))
    return found


class TestPlanner:
    def test_matches_lp_on_random_nets(self, rng):
        for n in (2, 3, 4):
            for _ in range(4):
                net = random_binary_net(rng, n, edge_p=0.5)
                scope_size = int(rng.integers(1, n + 1))
                scope = list(rng.choice(net.dag.nodes, size=scope_size,
                                        replace=False))
                f = random_factor(rng, net, scope)
                auto = lower_expectation(net, f)
                direct = lower_expectation(net, f, method="lp")
                assert auto == pytest.approx(direct, abs=1e-7)

    def test_trace_records_steps(self, rng):
        net = random_chain_net(rng, 4)
        f = random_factor(rng, net, ["4"])
        trace = []
        lower_expectation(net, f, trace=trace)
        kinds = [r.kind for r in trace]
        assert "iterated" in kinds
        text = trace_lines(trace)
        assert text.count("\n") == len(trace)

    def test_barren_nodes_removed(self, rng):
        # query on an ancestral set: the planner must never touch the LP
        # of the full ten-node network
        dag = fig_dag()
        net = binary_net(dag, interval_locals(dag, rng))
        f = random_factor(rng, net, ["1", "3"])
        trace = []
        value = lower_expectation(net, f, trace=trace)
        assert trace[0].kind == "marginalisation"
        assert set(trace[0].premise["K"]) == {"1", "2", "3"}
        sub = sub_network(net, {"1", "2", "3"}, {})
        assert value == pytest.approx(
            lp.lower_expectation_lp(sub, f), abs=1e-7)


class TestMarginalise:
    def test_equals_conditional_on_full_net(self, rng):
        # unconditional sub-network value == full-net conditional via LP
        # bracketing on the parent cylinder
        from credalnet.conditioning import natural_conditional, rho_evaluator
        hits = 0
        for _ in range(12):
            net = random_binary_net(rng, 4, edge_p=0.5)
            sets = closed_sets_with_parents(net, rng, want_parents=True)
            if not sets:
                continue
            K, rel = sets[0]
            assignment = {p: str(rng.integers(0, 2)) for p in rel.parents}
            f = random_factor(rng, net, list(K))
            value = marginalise(net, K, assignment, f)
            ev = rho_evaluator(net, f, net.cylinder(assignment), method="lp")
            bracketed = natural_conditional(ev, tolerance=1e-10).value
            assert value == pytest.approx(bracketed, abs=1e-7)
            hits += 1
        assert hits >= 5

    def test_identity_when_whole_graph(self, rng):
        net = random_binary_net(rng, 3)
        f = random_factor(rng, net, net.dag.nodes)
        assert marginalise(net, net.dag.nodes, {}, f) == pytest.approx(
            lower_expectation(net, f), abs=TOL)

    def test_rejects_open_set(self, rng):
        dag = chain_dag(3)
        net = binary_net(dag, interval_locals(dag, rng))
        f = random_factor(rng, net, ["1", "3"])
        with pytest.raises(HypothesisError):
            marginalise(net, {"1", "3"}, {}, f)


class TestIterated:
    def test_reverse_tree_example(self, rng):
        # two roots with a common child: peel the child, check against LP
        from credalnet.graph import Dag
        dag = Dag(["1", "2", "3"], [("1", "3"), ("2", "3")])
        net = binary_net(dag, interval_locals(dag, rng))
        f = random_factor(rng, net, net.dag.nodes)
        value = iterated_lower_expectation(net, {"3"}, f)
        assert value == pytest.approx(
            lp.lower_expectation_lp(net, f), abs=1e-7)

    def test_empty_segment_is_identity(self, rng):
        net = random_binary_net(rng, 3)
        f = random_factor(rng, net, net.dag.nodes)
        assert iterated_lower_expectation(net, set(), f) == pytest.approx(
            lower_expectation(net, f), abs=TOL)

    def test_chain_suffixes(self, rng):
        for _ in range(4):
            net = random_chain_net(rng, 4)
            f = random_factor(rng, net, net.dag.nodes)
            direct = lp.lower_expectation_lp(net, f)
            for S in ({"4"}, {"3", "4"}):
                assert iterated_lower_expectation(net, S, f) == \
                    pytest.approx(direct, abs=1e-7)

    def test_rejects_non_final_segment(self, rng):
        net = random_chain_net(rng, 4)
        f = random_factor(rng, net, net.dag.nodes)
        with pytest.raises(HypothesisError):
            iterated_lower_expectation(net, {"2"}, f)


class TestFactorise:
    def test_zero_inner_value_annihilates(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.0)  # disconnected
        f = net.factor_from_values(["1"], [0.0, 0.0])
        g = random_factor(rng, net, ["2", "3"], low=0.0, high=2.0)
        assert factorise(net, {"1"}, {}, f, g) == pytest.approx(0.0, abs=TOL)

    def test_against_lp_both_signs(self, rng):
        checked_pos = checked_neg = 0
        for _ in range(20):
            net = random_binary_net(rng, 4, edge_p=0.5)
            sets = closed_sets_with_parents(net, rng)
            if not sets:
                continue
            K, rel = sets[0]
            assignment = {p: str(rng.integers(0, 2)) for p in rel.parents}
            # offset controls the sign of the sub-network value
            offset = float(rng.choice([-3.0, 3.0]))
            f = random_factor(rng, net, list(K), low=offset - 1,
                              high=offset + 1)
            g = None
            if rel.non_parent_non_descendants:
                g = random_factor(rng, net,
                                  list(rel.non_parent_non_descendants),
                                  low=0.0, high=2.0)
            value = factorise(net, K, assignment, f, g)
            assembled = product_factor(net, assignment, f, g)
            assert value == pytest.approx(
                lp.lower_expectation_lp(net, assembled), abs=1e-7)
            if offset > 0:
                checked_pos += 1
            else:
                checked_neg += 1
        assert checked_pos >= 3 and checked_neg >= 3

    def test_rejects_negative_cofactor(self, rng):
        net = random_binary_net(rng, 2, edge_p=0.0)
        f = random_factor(rng, net, ["1"])
        g = net.factor_from_values(["2"], [-0.5, 1.0])
        with pytest.raises(HypothesisError):
            factorise(net, {"1"}, {}, f, g)


class TestExternalAdditivity:
    def test_two_disconnected_nodes(self, rng):
        net = random_binary_net(rng, 2, edge_p=0.0)
        f = random_factor(rng, net, ["1"])
        h = random_factor(rng, net, ["2"])
        value = external_additivity(net, {"1"}, f, h)
        local1 = net.local("1", ()).lower_expectation(f.values)
        local2 = net.local("2", ()).lower_expectation(h.values)
        assert value == pytest.approx(local1 + local2, abs=TOL)
        assembled = sum_factor(net, f, h)
        assert value == pytest.approx(
            lp.lower_expectation_lp(net, assembled), abs=1e-7)

    def test_zero_factor(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.3)
        sets = closed_sets_with_parents(net, rng, want_parents=False)
        if not sets:
            pytest.skip("no parentless closed set sampled")
        K, rel = sets[0]
        f = Factor.constant(0.0)
        h = (random_factor(rng, net, list(rel.non_parent_non_descendants))
             if rel.non_parent_non_descendants else Factor.constant(1.5))
        value = external_additivity(net, K, f, h)
        expect = (lower_expectation(
            sub_network(net, rel.non_parent_non_descendants, {}), h)
            if rel.non_parent_non_descendants else float(h.values))
        assert value == pytest.approx(expect, abs=TOL)

    def test_three_disconnected_vs_lp(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.0)
        f = random_factor(rng, net, ["1"])
        h = random_factor(rng, net, ["2", "3"])
        value = external_additivity(net, {"1"}, f, h)
        assembled = sum_factor(net, f, h)
        assert value == pytest.approx(
            lp.lower_expectation_lp(net, assembled), abs=1e-7)

    def test_rejects_parents(self, rng):
        net = random_chain_net(rng, 3)
        f = random_factor(rng, net, ["3"])
        h = random_factor(rng, net, ["1"])
        with pytest.raises(HypothesisError):
            external_additivity(net, {"3"}, f, h)


class TestCombined:
    def test_specialises_to_factorise(self, rng):
        for _ in range(8):
            net = random_binary_net(rng, 3, edge_p=0.5)
            sets = closed_sets_with_parents(net, rng)
            if not sets:
                continue
            K, rel = sets[0]
            assignment = {p: str(rng.integers(0, 2)) for p in rel.parents}
            f = random_factor(rng, net, list(K))
            g = (random_factor(rng, net, list(rel.non_parent_non_descendants),
                               low=0.0, high=2.0)
                 if rel.non_parent_non_descendants else None)
            assert combined(net, K, assignment, f, None, g) == pytest.approx(
                factorise(net, K, assignment, f, g), abs=1e-7)

    def test_specialises_to_additivity(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.0)
        f = random_factor(rng, net, ["2"])
        h = random_factor(rng, net, ["1", "3"])
        value = combined(net, {"2"}, {}, f, h, None)
        assert value == pytest.approx(
            external_additivity(net, {"2"}, f, h), abs=1e-7)

    def test_against_lp(self, rng):
        hits = 0
        for _ in range(15):
            net = random_binary_net(rng, 4, edge_p=0.5)
            sets = closed_sets_with_parents(net, rng)
            if not sets:
                continue
            K, rel = sets[0]
            assignment = {p: str(rng.integers(0, 2)) for p in rel.parents}
            f = random_factor(rng, net, list(K))
            h = (random_factor(rng, net, list(rel.non_descendants))
                 if rel.non_descendants else None)
            g = (random_factor(rng, net, list(rel.non_parent_non_descendants),
                               low=0.0, high=2.0)
                 if rel.non_parent_non_descendants else None)
            value = combined(net, K, assignment, f, h, g)
            assembled = combined_factor(net, assignment, f, h, g)
            assert value == pytest.approx(
                lp.lower_expectation_lp(net, assembled), abs=1e-7)
            hits += 1
        assert hits >= 5


class TestAtomBounds:
    def test_two_coins_products(self, two_coins):
        low, high = atom_bounds(two_coins, {"1": "h", "2": "h"})
        assert low == pytest.approx(1.0 / 16.0, abs=TOL)
        assert high == pytest.approx(9.0 / 16.0, abs=TOL)

    def test_matches_lp_indicator(self, rng, two_coins):
        nets = [two_coins] + [random_binary_net(rng, 3) for _ in range(3)]
        for net in nets:
            t = net.joint_tuples()[int(rng.integers(0, net.joint_count()))]
            assignment = dict(zip(net.dag.nodes, t))
            low, high = atom_bounds(net, assignment)
            ind = net.indicator(net.cylinder(assignment))
            assert low == pytest.approx(
                lp.lower_expectation_lp(net, ind), abs=1e-7)
            assert high == pytest.approx(
                -lp.lower_expectation_lp(net, -ind), abs=1e-7)

    def test_zero_local_annihilates_lower(self):
        from credalnet.credal import CredalSet
        from credalnet.graph import Dag
        dag = Dag(["a", "b"], [("a", "b")])
        m0 = CredalSet(("0", "1"), vertices=[(0.0, 1.0), (0.6, 0.4)])
        m1 = CredalSet(("0", "1"), vertices=[(0.3, 0.7)])
        net = binary_net(dag, {("a", ()): m0, ("b", ("0",)): m1,
                               ("b", ("1",)): m1})
        low, high = atom_bounds(net, {"a": "0", "b": "0"})
        assert low == pytest.approx(0.0, abs=TOL)
        assert high == pytest.approx(0.6 * 0.3, abs=TOL)

    def test_precise_net_equals_joint(self, rng):
        dag = chain_dag(3)
        net = binary_net(dag, precise_locals(dag, rng))
        t = net.joint_tuples()[3]
        assignment = dict(zip(net.dag.nodes, t))
        low, high = atom_bounds(net, assignment)
        assert low == pytest.approx(high, abs=TOL)
        from helpers import bayes_joint
        joint = bayes_joint(net)
        assert low == pytest.approx(joint[3], abs=TOL)

    def test_bounds_ordered(self, rng):
        for _ in range(5):
            net = random_binary_net(rng, 4)
            t = net.joint_tuples()[int(rng.integers(0, 16))]
            low, high = atom_bounds(net, dict(zip(net.dag.nodes, t)))
            assert -TOL <= low <= high + TOL
            assert high <= 1.0 + TOL
