"""Network assembly, sub-networks, factors and events."""

import numpy as np
import pytest

from credalnet.credal import binary_interval, singleton, vacuous
from credalnet.errors import CapabilityError, InputError
from credalnet.graph import Dag
from credalnet.network import (CredalNetwork, Factor, joint_states,
                               restrict_factor, sub_network)

from helpers import binary_net, fig_dag, interval_locals, random_factor


@pytest.fixture(scope="module")
def fig_net():
    dag = fig_dag()
    return binary_net(dag, interval_locals(dag, np.random.default_rng(5)))


class TestConstruction:
    def test_missing_local_model(self):
        dag = Dag(["a", "b"], [("a", "b")])
        m = binary_interval(("0", "1"), 0.2, 0.8)
        with pytest.raises(InputError):
            CredalNetwork(dag, {"a": ("0", "1"), "b": ("0", "1")},
                          {("a", ()): m, ("b", ("0",)): m})

    def test_state_space_mismatch(self):
        dag = Dag(["a"], [])
        m = binary_interval(("x", "y"), 0.2, 0.8)
        with pytest.raises(InputError):
            CredalNetwork(dag, {"a": ("0", "1")}, {("a", ()): m})

    def test_spurious_local(self):
        dag = Dag(["a"], [])
        m = binary_interval(("0", "1"), 0.2, 0.8)
        with pytest.raises(InputError):
            CredalNetwork(dag, {"a": ("0", "1")},
                          {("a", ()): m, ("a", ("0",)): m})


class TestJointStates:
    def test_two_binary_nodes(self, two_coins):
        states = joint_states(two_coins, ["1", "2"])
        assert [tuple(a.values()) for a in states] == \
            [("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")]

    def test_empty_scope(self, two_coins):
        assert joint_states(two_coins, []) == [{}]

    def test_mixed_sizes(self):
        dag = Dag(["a", "b", "c"], [])
        spaces = {"a": ("0", "1"), "b": ("x", "y", "z"), "c": ("0", "1")}
        locals_ = {("a", ()): binary_interval(("0", "1"), 0.2, 0.8),
                   ("b", ()): vacuous(("x", "y", "z")),
                   ("c", ()): binary_interval(("0", "1"), 0.3, 0.7)}
        net = CredalNetwork(dag, spaces, locals_)
        assert len(joint_states(net, ["a", "b", "c"])) == 12

    def test_overflow_guard(self):
        n = 25
        dag = Dag([str(i) for i in range(n)], [])
        m = binary_interval(("0", "1"), 0.2, 0.8)
        net = CredalNetwork(dag, {str(i): ("0", "1") for i in range(n)},
                            {(str(i), ()): m for i in range(n)})
        with pytest.raises(CapabilityError):
            net.joint_tuples()


class TestRestrictFactor:
    def test_partial_plug_in(self, two_coins):
        f = two_coins.factor_from_values(["1", "2"], [1.0, 2.0, 3.0, 4.0])
        g = restrict_factor(f, {"1": "h"})
        assert g.scope == ("2",)
        assert g.table == {("h",): 1.0, ("t",): 2.0}

    def test_disjoint_assignment_is_identity(self, two_coins):
        f = two_coins.factor_from_values(["1"], [1.0, 2.0])
        assert restrict_factor(f, {"2": "h"}) is f

    def test_full_plug_in(self, two_coins):
        f = two_coins.factor_from_values(["1", "2"], [1.0, 2.0, 3.0, 4.0])
        g = restrict_factor(f, {"1": "t", "2": "h"})
        assert g.scope == ()
        assert g.table[()] == 3.0

    def test_idempotent_and_commutative(self, fig_net, rng):
        f = random_factor(rng, fig_net, ["3", "5", "7"])
        once = restrict_factor(f, {"3": "0"})
        twice = restrict_factor(once, {"3": "0"})
        assert once.table == twice.table
        ab = restrict_factor(restrict_factor(f, {"3": "0"}), {"5": "1"})
        ba = restrict_factor(restrict_factor(f, {"5": "1"}), {"3": "0"})
        assert ab.table == ba.table


class TestSubNetwork:
    def test_example_chain_extraction(self, fig_net):
        sub = sub_network(fig_net, {"5", "7", "9"}, {"3": "0", "4": "1"})
        assert sub.dag.nodes == ("5", "7", "9")
        assert set(sub.dag.edges) == {("5", "7"), ("7", "9")}
        # the local set of 7 given its in-K parent is the original local
        # with the out-of-K parent (node 4, first in declaration order)
        # instantiated
        for z5 in ("0", "1"):
            assert sub.local("7", (z5,)) is fig_net.local("7", ("1", z5))
        assert sub.local("5", ()) is fig_net.local("5", ("0",))
        assert sub.local("9", ("0",)) is fig_net.local("9", ("0",))

    def test_identity_transform(self, fig_net):
        sub = sub_network(fig_net, fig_net.dag.nodes, {})
        assert sub.dag.nodes == fig_net.dag.nodes
        assert sub.dag.edges == fig_net.dag.edges
        assert sub.locals == fig_net.locals

    def test_single_leaf(self, fig_net):
        sub = sub_network(fig_net, {"9"}, {"7": "0"})
        assert sub.dag.nodes == ("9",)
        assert sub.local("9", ()) is fig_net.local("9", ("0",))

    def test_incomplete_parent_assignment(self, fig_net):
        with pytest.raises(InputError):
            sub_network(fig_net, {"5", "7", "9"}, {"3": "0"})

    def test_relations_consistent_with_full_graph(self, fig_net):
        from credalnet.graph import set_relations
        K = {"5", "7", "9"}
        sub = sub_network(fig_net, K, {"3": "0", "4": "0"})
        # inside a closed K, the internal parent sets agree with the
        # original graph restricted to K
        for s in K:
            assert set(sub.dag.parents(s)) == \
                set(fig_net.dag.parents(s)) & K

    def test_singleton_value_is_local(self, fig_net, rng):
        from credalnet.decompose import lower_expectation
        sub = sub_network(fig_net, {"7"}, {"4": "0", "5": "1"})
        f = random_factor(rng, sub, ["7"])
        gamble = [f.table[(x,)] for x in sub.states("7")]
        expect = fig_net.local("7", ("0", "1")).lower_expectation(gamble)
        assert lower_expectation(sub, f) == pytest.approx(expect, abs=1e-12)


class TestEvents:
    def test_cylinder(self, two_coins):
        e = two_coins.cylinder({"2": "h"})
        assert e.cylinder and e.scope == ("2",)
        assert e.assignment() == {"2": "h"}

    def test_event_product(self, two_coins):
        a = two_coins.event(["1"], [("h",), ("t",)])
        b = two_coins.cylinder({"2": "t"})
        p = two_coins.event_product(a, b)
        assert p.scope == ("1", "2")
        assert p.states == {("h", "t"), ("t", "t")}

    def test_indicator(self, two_coins):
        e = two_coins.event(["1", "2"], [("h", "h"), ("t", "t")])
        f = two_coins.indicator(e)
        assert f.table[("h", "h")] == 1.0
        assert f.table[("h", "t")] == 0.0
