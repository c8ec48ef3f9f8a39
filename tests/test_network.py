"""Network assembly, sub-networks, factors and events."""

import os
import re
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import credalnet
from credalnet import fileio, lp
from credalnet.credal import (CredalSet, binary_interval, vacuous,
                              vertices_to_constraints)
from credalnet.errors import CapabilityError, InputError
from credalnet.fileio import Query
from credalnet.graph import Dag
from credalnet.network import (CredalNetwork, Factor, joint_states,
                               lower_argmin, sub_network)
from credalnet.queries import run_query

from helpers import (binary_net, constraint_twin, fig_dag, interval_locals,
                     random_binary_net, random_factor, restrict_factor)


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


def ragged_net(rng, counts=(1, 2, 3)):
    """a -> c <- b with 2, 3 and 3 states; the local sets of c have
    ``counts`` vertices in turn, over the parent configurations."""
    dag = Dag(["a", "b", "c"], [("a", "c"), ("b", "c")])
    spaces = {"a": ("0", "1"), "b": ("x", "y", "z"), "c": ("p", "q", "r")}
    locals_ = {("a", ()): binary_interval(("0", "1"), 0.2, 0.8),
               ("b", ()): vacuous(("x", "y", "z"))}
    for i, cfg in enumerate(product(spaces["a"], spaces["b"])):
        locals_[("c", cfg)] = CredalSet(spaces["c"], vertices=rng.dirichlet(
            [1.0] * 3, size=counts[i % len(counts)]))
    return CredalNetwork(dag, spaces, locals_)


def local_loop(net, s, g):
    """The reference of :meth:`CredalNetwork.local_lower`: one local
    lower expectation per parent configuration (and leading index)."""
    parents = net.shape(net.dag.parents(s))
    shape = np.broadcast_shapes(g.shape[:-1], parents)
    g = np.broadcast_to(g, shape + g.shape[-1:])
    configs = list(net.parent_configs(s))
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        cfg = configs[np.ravel_multi_index(idx[len(shape) - len(parents):],
                                           parents)]
        out[idx] = net.local(s, cfg).lower_expectation(g[idx])
    return out


class TestLocalLower:
    @pytest.mark.parametrize("shape", [
        (2, 3, 3),        # every parent
        (3, 3),           # the leading parent missing
        (3,),             # no parent axis
        (1, 3, 3),        # a length-1 parent axis
        (2, 1, 3),
        (4, 2, 3, 3),     # an extra leading axis
        (4, 5, 1, 1, 3),
    ])
    def test_against_loop(self, rng, shape):
        net = ragged_net(rng)
        g = rng.normal(size=shape)
        got = net.local_lower("c", g)
        assert got.shape == np.broadcast_shapes(shape[:-1], (2, 3))
        # a padded one-vertex set may round its last bit differently:
        # numpy takes a dot product for a one-row matrix, gemv otherwise
        assert np.allclose(got, local_loop(net, "c", g), atol=1e-15, rtol=0)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (3,), (4, 2, 1, 3)])
    @pytest.mark.parametrize("counts", [(1,), (3,), (2, 3)])
    def test_bit_equal_to_loop(self, rng, shape, counts):
        # no one-vertex set among larger ones: every value is the loop's
        net = ragged_net(rng, counts)
        g = rng.normal(size=shape)
        assert np.array_equal(net.local_lower("c", g),
                              local_loop(net, "c", g))

    def test_ragged_vertex_counts_are_padded(self, rng):
        net = ragged_net(rng)
        assert {len(m.vertices) for (s, _), m in net.locals.items()
                if s == "c"} == {1, 2, 3}
        net.local_lower("c", np.zeros(3))
        assert net._stacks["c"].shape == (2, 3, 3, 3)

    def test_root_node(self, rng):
        net = ragged_net(rng)
        g = rng.normal(size=2)
        assert float(net.local_lower("a", g)) == \
            net.local("a", ()).lower_expectation(g)

    def test_constraint_form_sets(self, rng):
        # sets given by constraints have their vertices in the float
        # stack, and answer as their vertex lists and their own LPs do
        net = ragged_net(rng)
        locals_ = dict(net.locals)
        for key in [("c", ("0", "y")), ("c", ("1", "z"))]:
            m = locals_[key]
            locals_[key] = CredalSet(m.states,
                                     constraints=vertices_to_constraints(m))
        twin = CredalNetwork(net.dag, net.state_spaces, locals_)
        assert twin.local_stack("c").dtype == float
        for shape in [(2, 3, 3), (3,), (1, 3, 3), (4, 2, 1, 3)]:
            g = rng.normal(size=shape)
            got = twin.local_lower("c", g)
            for expect in (net.local_lower("c", g), local_loop(twin, "c", g)):
                assert np.allclose(got, expect, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("shape", [(2,), (2, 3, 4), ()])
    def test_wrong_last_axis(self, rng, shape):
        net = ragged_net(rng)
        with pytest.raises(InputError):
            net.local_lower("c", np.zeros(shape))

    @pytest.mark.parametrize("counts", [(2,), (1, 2, 3)])
    def test_stack_pads_with_the_first_vertex(self, rng, counts):
        net = ragged_net(rng, counts)
        net.local_lower("c", rng.normal(size=3))
        stack = net.local_stack("c")
        k = max(counts)
        assert stack.shape == (2, 3, k, 3)
        for m, rows in zip((net.local("c", cfg)
                            for cfg in net.parent_configs("c")),
                           stack.reshape(6, k, 3)):
            padded = np.vstack([m._V] + [m._V[:1]] * (k - len(m._V)))
            assert rows.tobytes() == padded.tobytes()
            # the query path reads the arrays, not the tuple views
            assert "vertices" not in vars(m)

    def test_sub_network_builds_its_own(self, fig_net):
        fig_net.local_lower("7", np.array([1.0, 0.0]))
        sub = sub_network(fig_net, {"7"}, {"4": "0", "5": "1"})
        got = sub.local_lower("7", np.array([1.0, 0.0]))
        assert sub._stacks["7"].shape == (2, 2)
        assert float(got) == fig_net.local_lower(
            "7", np.array([1.0, 0.0]))[0, 1]


def assert_attains(net, s, g):
    """``lower_argmin`` on the local stack of ``s`` gives the values of
    ``local_lower`` and, for each, a member of that parent
    configuration's set whose expectation of ``g`` is that value."""
    low, p = lower_argmin(net.local_stack(s), g)
    assert np.array_equal(low, net.local_lower(s, g))
    assert p.shape == low.shape + (net.size(s),)
    assert np.allclose((p * g).sum(-1), low, atol=1e-12, rtol=0)
    parents = net.shape(net.dag.parents(s))
    configs = list(net.parent_configs(s))
    for idx in np.ndindex(low.shape):
        cfg = configs[np.ravel_multi_index(idx[len(idx) - len(parents):],
                                           parents)]
        assert net.local(s, cfg).contains(p[idx])


class TestLocalArgmin:
    SHAPES = [(2, 3, 3), (3, 3), (3,), (1, 3, 3), (2, 1, 3), (4, 2, 3, 3),
              (4, 5, 1, 1, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ragged_vertex_stack(self, rng, shape):
        assert_attains(ragged_net(rng), "c", rng.normal(size=shape))

    @pytest.mark.parametrize("counts", [(1,), (3,)])
    def test_vertex_stack(self, rng, counts):
        net = ragged_net(rng, counts)
        for shape in self.SHAPES:
            assert_attains(net, "c", rng.normal(size=shape))
        assert_attains(mixed_net(), "c", rng.normal(size=(2, 3, 4)))
        assert_attains(net, "a", rng.normal(size=2))

    def test_constraint_form_sets(self, rng):
        net = ragged_net(rng)
        locals_ = {key: CredalSet(m.states,
                                  constraints=vertices_to_constraints(m))
                   if key[0] == "c" and len(m.vertices) > 1 else m
                   for key, m in net.locals.items()}
        twin = CredalNetwork(net.dag, net.state_spaces, locals_)
        assert twin.local_stack("c").dtype == float
        for shape in self.SHAPES:
            g = rng.normal(size=shape)
            assert_attains(twin, "c", g)
            assert np.allclose(lower_argmin(twin.local_stack("c"), g)[0],
                               net.local_lower("c", g), atol=1e-12, rtol=0)


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
        # as many entries as configurations, but a key that is no
        # (node, configuration) pair or a value that is no local set
        for locals_ in ({("a",): m}, {("a", (), ()): m}, {"a": m}, {5: m},
                        {("a", ()): "m"}, {("a", ()): m.vertices}):
            with pytest.raises(InputError, match="spurious local-model entry"):
                CredalNetwork(dag, {"a": ("0", "1")}, locals_)

    @pytest.mark.parametrize("key", [("b", ("7",)), ("b", "0"), ("z", ())])
    def test_key_outside_the_configurations(self, key):
        # as many keys as configurations, one of them not a configuration
        dag = Dag(["a", "b"], [("a", "b")])
        m = binary_interval(("0", "1"), 0.2, 0.8)
        with pytest.raises(InputError, match="spurious"):
            CredalNetwork(dag, {"a": ("0", "1"), "b": ("0", "1")},
                          {("a", ()): m, ("b", ("1",)): m, key: m})

    @pytest.mark.parametrize("n_parents", [40, 64])
    def test_wide_node_is_counted_not_enumerated(self, n_parents):
        # 2^64 configurations would wrap a 64-bit count to 0
        parents = [f"p{i}" for i in range(n_parents)]
        dag = Dag(parents + ["c"], [(p, "c") for p in parents])
        m = binary_interval(("0", "1"), 0.2, 0.8)
        expected = 2 ** n_parents + n_parents
        with pytest.raises(InputError, match=f"needs {expected} local models"):
            CredalNetwork(dag, {s: ("0", "1") for s in dag.nodes},
                          {(p, ()): m for p in parents})


#: three unlinked binary nodes, which need three local models
UNLINKED = Dag(["a", "b", "c"], [])
ROW = (0.5, 0.5)
OTHER_STATES = binary_interval(("x", "y"), 0.2, 0.8)


def construct(entries):
    CredalNetwork(UNLINKED, dict.fromkeys(UNLINKED.nodes, ("0", "1")),
                  dict(entries))


class TestFirstBadEntry:
    """The constructor names the first bad entry in entry order, however
    the entries are bad."""

    @pytest.mark.parametrize("entries, named", [
        # a spurious key after a bad value, and the other way round
        ([(("a", ()), "m"), (("z", ()), ROW), (("c", ()), ROW)], ("a", ())),
        ([(("z", ()), ROW), (("a", ()), "m"), (("c", ()), ROW)], ("z", ())),
        ([(("a", ()), ROW), (("b", ("0",)), ROW), (("c", ()), [0.5, 0.5])],
         ("b", ("0",))),
    ], ids=["value-then-key", "key-then-value", "configuration-then-value"])
    def test_spurious_entry(self, entries, named):
        with pytest.raises(InputError, match="spurious local-model entry "
                                             f"{re.escape(str(named))}$"):
            construct(entries)

    def test_state_mismatch_before_either(self):
        with pytest.raises(InputError,
                           match=r"state mismatch at \('b', \(\)\)$"):
            construct([(("b", ()), OTHER_STATES), (("z", ()), ROW),
                       (("c", ()), "m")])

    # an int, a 3-tuple, and two characters that read as the pair
    # ("b", "c") when unpacked, though "c" is no configuration of b
    @pytest.mark.parametrize("key", [5, ("b", (), ()), "bc"],
                             ids=["int", "3-tuple", "string"])
    def test_key_that_is_no_pair(self, key):
        named = re.escape(str(key))
        with pytest.raises(InputError, match=f"entry {named}$"):
            construct([(("a", ()), ROW), (key, ROW), (("c", ()), "m")])
        with pytest.raises(InputError, match=r"entry \('a', \(\)\)$"):
            construct([(("a", ()), "m"), (key, ROW), (("c", ()), ROW)])
        with pytest.raises(InputError, match=r"mismatch at \('a', \(\)\)$"):
            construct([(("a", ()), OTHER_STATES), (key, ROW),
                       (("c", ()), ROW)])


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["auto", "lp"])
    def test_values_must_be_finite(self, two_coins, bad, method):
        # query files reject such numbers; a factor made in code would
        # otherwise come back as a NaN bound
        with pytest.raises(InputError, match="factor values must be finite"):
            run_query(two_coins, Query(Factor(("1",), [bad, 0.0]), None,
                                       "unconditional", method, 1e-9))

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


def same_set(a: CredalSet, b: CredalSet) -> bool:
    """Whether two local sets have the same states and the same vertex
    rows, bit for bit: a sub-network's sets are views of its own arrays,
    sliced from the network's."""
    return a.states == b.states and a._V.shape == b._V.shape and \
        a._V.tobytes() == b._V.tobytes()


class TestSubNetwork:
    def test_example_chain_extraction(self, fig_net):
        sub = sub_network(fig_net, {"5", "7", "9"}, {"3": "0", "4": "1"})
        assert sub.dag.nodes == ("5", "7", "9")
        assert set(sub.dag.edges) == {("5", "7"), ("7", "9")}
        # the local set of 7 given its in-K parent is the original local
        # with the out-of-K parent (node 4, first in declaration order)
        # instantiated
        for z5 in ("0", "1"):
            assert same_set(sub.local("7", (z5,)),
                            fig_net.local("7", ("1", z5)))
        assert same_set(sub.local("5", ()), fig_net.local("5", ("0",)))
        assert same_set(sub.local("9", ("0",)), fig_net.local("9", ("0",)))

    def test_identity_transform(self, fig_net):
        sub = sub_network(fig_net, fig_net.dag.nodes, {})
        assert sub.dag.nodes == fig_net.dag.nodes
        assert sub.dag.edges == fig_net.dag.edges
        assert sub.locals.keys() == fig_net.locals.keys()
        assert all(same_set(m, fig_net.locals[key])
                   for key, m in sub.locals.items())

    def test_single_leaf(self, fig_net):
        sub = sub_network(fig_net, {"9"}, {"7": "0"})
        assert sub.dag.nodes == ("9",)
        assert same_set(sub.local("9", ()), fig_net.local("9", ("0",)))

    def test_keeps_sets_given_by_constraints(self, fig_net):
        # the sets themselves, not views of their enumerated vertices: a
        # dump writes their constraints and reloads to the same document
        twin = constraint_twin(fig_net)
        sub = sub_network(twin, {"5", "7", "9"}, {"3": "0", "4": "1"})
        for z5 in ("0", "1"):
            assert sub.local("7", (z5,)) is twin.local("7", ("1", z5))
        doc = fileio.network_document(sub)
        assert any("constraints" in entry for entry in doc["locals"])
        assert fileio.dump_network(fileio.load_network_document(doc)) == \
            fileio.dump_network(sub)

    def test_incomplete_parent_assignment(self, fig_net):
        with pytest.raises(InputError):
            sub_network(fig_net, {"5", "7", "9"}, {"3": "0"})

    def test_unknown_parent_states_name_the_first_parent(self):
        # a, b, c -> d: the first outside parent in declaration order is
        # named under any string hashing
        code = (
            "from credalnet import CredalNetwork, Dag, sub_network, vacuous\n"
            "from credalnet.errors import InputError\n"
            "dag = Dag(['a', 'b', 'c', 'd'], [(p, 'd') for p in 'abc'])\n"
            "m = vacuous(('0', '1'))\n"
            "locals_ = {(s, ()): m for s in 'abc'}\n"
            "locals_.update({('d', (x, y, z)): m for x in '01' "
            "for y in '01' for z in '01'})\n"
            "net = CredalNetwork(dag, dict.fromkeys('abcd', ('0', '1')), "
            "locals_)\n"
            "try:\n"
            "    sub_network(net, {'d'}, {'a': 'x', 'b': 'y', 'c': 'z'})\n"
            "except InputError as e:\n"
            "    print(e)\n")
        src = os.path.dirname(os.path.dirname(credalnet.__file__))
        for seed in ("0", "1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout == "unknown state 'x' of node 'a'\n"

    def test_relations_consistent_with_full_graph(self, fig_net):
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

    def test_one_tuple_event_is_a_cylinder(self, two_coins):
        e = two_coins.event(["2"], [("h",)])
        assert e.cylinder and e == two_coins.cylinder({"2": "h"})
        assert e.assignment() == {"2": "h"}
        wide = two_coins.event(["2"], [("h",), ("t",)])
        assert not wide.cylinder
        with pytest.raises(InputError, match="not a cylinder"):
            wide.assignment()

    def test_cylinder_on_unknown_node(self, two_coins):
        with pytest.raises(InputError, match="unknown node 'zz'"):
            two_coins.cylinder({"zz": "h"})

    @pytest.mark.parametrize("call", [
        lambda net: net.event(["zz"], [("h",)]),
        lambda net: net.factor(["zz"], {("h",): 1.0, ("t",): 0.0}),
        lambda net: net.factor_from_values(["zz"], [1.0, 0.0]),
        lambda net: net.joint_count(["zz"]),
        lambda net: net.joint_tuples(["zz"]),
        lambda net: sub_network(net, ["zz"], {}),
    ], ids=["event", "factor", "factor_from_values",
            "joint_count", "joint_tuples", "sub_network"])
    def test_unknown_node(self, two_coins, call):
        with pytest.raises(InputError, match="unknown node 'zz'"):
            call(two_coins)

    def test_first_unknown_node_is_named(self, two_coins):
        with pytest.raises(InputError, match="unknown node 'zz'"):
            two_coins.event(["1", "zz", "yy"], [("h", "h", "h")])
        with pytest.raises(InputError, match="unknown node 'yy'"):
            two_coins.cylinder({"yy": "h", "1": "h", "zz": "h"})

    def test_repeated_scope_node(self, two_coins):
        # one node with two states at once is no cylinder of that node
        with pytest.raises(InputError, match="event scope contains dupl"):
            two_coins.event(["2", "2"], [("h", "t")])
        with pytest.raises(InputError, match="event scope contains dupl"):
            two_coins.event(["2", "1", "2"], [])

    def test_indicator(self, two_coins):
        e = two_coins.event(["1", "2"], [("h", "h"), ("t", "t")])
        f = two_coins.indicator(e)
        assert f.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]
