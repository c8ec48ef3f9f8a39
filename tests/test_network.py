"""Network assembly, sub-networks, factors and events."""

from itertools import product

import numpy as np
import pytest

from credalnet import lp
from credalnet.credal import binary_interval, singleton, vacuous
from credalnet.errors import CapabilityError, InputError
from credalnet.graph import Dag
from credalnet.network import (CredalNetwork, Factor, joint_states,
                               restrict_factor, sub_network)

from helpers import (binary_net, fig_dag, interval_locals, random_binary_net,
                     random_factor)


@pytest.fixture(scope="module")
def fig_net():
    dag = fig_dag()
    return binary_net(dag, interval_locals(dag, np.random.default_rng(5)))


def mixed_net():
    """a -> c <- b with 2, 3 and 4 states: axes of distinct lengths."""
    dag = Dag(["a", "b", "c"], [("a", "c"), ("b", "c")])
    spaces = {"a": ("0", "1"), "b": ("x", "y", "z"), "c": ("p", "q", "r", "s")}
    locals_ = {("a", ()): binary_interval(("0", "1"), 0.2, 0.8),
               ("b", ()): vacuous(("x", "y", "z"))}
    for cfg in product(spaces["a"], spaces["b"]):
        locals_[("c", cfg)] = vacuous(spaces["c"])
    return CredalNetwork(dag, spaces, locals_)


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


def looped(net, table, f_scope, scope):
    """Reference: the value of the table at every joint state of scope,
    read off one joint state at a time."""
    at = [scope.index(s) for s in f_scope]
    return np.array([table[tuple(t[i] for i in at)]
                     for t in net.joint_tuples(scope)])


def random_table(rng, net, scope):
    return {t: float(rng.uniform(-2.0, 2.0)) for t in net.joint_tuples(scope)}


def random_subset(rng, net, nodes, most):
    k = int(rng.integers(0, min(len(nodes), most) + 1))
    picked = rng.choice(len(nodes), size=k, replace=False)
    return net.dag.sorted_nodes(nodes[i] for i in picked)


class TestAligned:
    def check(self, net, rng, rounds=8):
        for _ in range(rounds):
            wide = random_subset(rng, net, net.dag.nodes, 6)
            narrow = random_subset(rng, net, wide, len(wide))
            table = random_table(rng, net, narrow)
            f = net.factor(narrow, table)
            out = net.aligned(f, wide)
            assert out.shape == net.shape(wide)
            assert np.array_equal(out.ravel(), looped(net, table, narrow, wide))
            assert np.array_equal(lp.factor_vector(net, f),
                                  looped(net, table, narrow, net.dag.nodes))

    def test_fig_net(self, fig_net, rng):
        self.check(fig_net, rng, rounds=20)

    def test_random_nets(self, rng):
        for n in range(2, 7):
            for _ in range(3):
                self.check(random_binary_net(rng, n), rng)

    def test_mixed_state_counts(self, rng):
        self.check(mixed_net(), rng, rounds=20)

    def test_event_mask_is_the_indicator(self, rng):
        net = mixed_net()
        for _ in range(10):
            scope = random_subset(rng, net, net.dag.nodes, 3)
            full = net.joint_tuples(scope)
            picks = rng.random(len(full)) < 0.5
            event = net.event(scope, [t for t, p in zip(full, picks) if p])
            table = {t: float(t in event.states) for t in full}
            assert np.array_equal(lp.event_mask(net, event),
                                  looped(net, table, scope, net.dag.nodes) > 0)

    def test_scope_out_of_declaration_order(self):
        net = mixed_net()
        f = Factor(("b", "a"), np.zeros((3, 2)))
        with pytest.raises(InputError):
            net.aligned(f, ("a", "b"))
        with pytest.raises(InputError):
            lp.factor_vector(net, f)
        g = net.factor_from_values(["a", "b"], np.arange(6.0))
        with pytest.raises(InputError):
            net.aligned(g, ("b", "a"))

    def test_scope_not_a_subset(self):
        net = mixed_net()
        f = net.factor_from_values(["a", "c"], np.arange(8.0))
        with pytest.raises(InputError):
            net.aligned(f, ("a", "b"))

    def test_shape_not_the_state_counts(self):
        net = mixed_net()
        # right number of values, axes of the wrong lengths
        f = Factor(("a", "b"), np.zeros((3, 2)))
        with pytest.raises(InputError):
            net.aligned(f, ("a", "b", "c"))
        with pytest.raises(InputError):
            lp.factor_vector(net, f)

    def test_values_of_the_wrong_rank(self):
        with pytest.raises(InputError):
            Factor(("a", "b"), np.zeros(6))
        with pytest.raises(InputError):
            Factor((), np.zeros(1))

    def test_values_are_read_only(self, two_coins):
        source = np.array([1.0, 2.0])
        f = two_coins.factor_from_values(["1"], source)
        with pytest.raises(ValueError):
            f.values[0] = 5.0
        assert source.flags.writeable
        assert not two_coins.aligned(f, ("1", "2")).flags.writeable


class TestRestrictFactor:
    def test_partial_plug_in(self, two_coins):
        f = two_coins.factor_from_values(["1", "2"], [1.0, 2.0, 3.0, 4.0])
        g = restrict_factor(two_coins, f, {"1": "h"})
        assert g.scope == ("2",)
        assert g.values.tolist() == [1.0, 2.0]

    def test_disjoint_assignment_is_identity(self, two_coins):
        f = two_coins.factor_from_values(["1"], [1.0, 2.0])
        assert restrict_factor(two_coins, f, {"2": "h"}) is f

    def test_full_plug_in(self, two_coins):
        f = two_coins.factor_from_values(["1", "2"], [1.0, 2.0, 3.0, 4.0])
        g = restrict_factor(two_coins, f, {"1": "t", "2": "h"})
        assert g.scope == ()
        assert float(g.values) == 3.0

    def test_is_a_view(self, two_coins):
        f = two_coins.factor_from_values(["1", "2"], [1.0, 2.0, 3.0, 4.0])
        for assignment in ({"1": "t"}, {"2": "h"}, {"1": "t", "2": "h"}):
            g = restrict_factor(two_coins, f, assignment)
            assert np.shares_memory(g.values, f.values)

    def test_unknown_state(self, two_coins):
        f = two_coins.factor_from_values(["1", "2"], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InputError):
            restrict_factor(two_coins, f, {"1": "x"})

    def test_against_loop(self, fig_net, rng):
        for _ in range(10):
            scope = random_subset(rng, fig_net, fig_net.dag.nodes, 5)
            table = random_table(rng, fig_net, scope)
            f = fig_net.factor(scope, table)
            plugged = random_subset(rng, fig_net, fig_net.dag.nodes, 5)
            assignment = {s: str(rng.integers(0, 2)) for s in plugged}
            g = restrict_factor(fig_net, f, assignment)
            keep = tuple(s for s in scope if s not in assignment)
            assert g.scope == keep
            for t in fig_net.joint_tuples(keep):
                ctx = {**dict(zip(keep, t)), **assignment}
                assert g.values[tuple(map(fig_net.state_index, keep, t))] \
                    == table[tuple(ctx[s] for s in scope)]

    def test_idempotent_and_commutative(self, fig_net, rng):
        f = random_factor(rng, fig_net, ["3", "5", "7"])
        once = restrict_factor(fig_net, f, {"3": "0"})
        twice = restrict_factor(fig_net, once, {"3": "0"})
        assert np.array_equal(once.values, twice.values)
        ab = restrict_factor(fig_net, restrict_factor(fig_net, f, {"3": "0"}),
                             {"5": "1"})
        ba = restrict_factor(fig_net, restrict_factor(fig_net, f, {"5": "1"}),
                             {"3": "0"})
        assert ab.scope == ba.scope == ("7",)
        assert np.array_equal(ab.values, ba.values)


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
        expect = fig_net.local("7", ("0", "1")).lower_expectation(f.values)
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
        assert f.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]
