"""The paper's reduction theorems, and the planner that applies them,
versus the global program.

Each theorem test states its equality from library primitives alone
(:func:`~credalnet.network.sub_network`, the linear program of
:func:`~credalnet.lp.lower_expectation_lp` and the ``lp`` method of
:func:`~credalnet.queries.bounds`), with the global gamble assembled
explicitly, so that it checks the paper and not the planner: each side
is a global program of its own network.  The planner tests compare its
value with the program of the whole network."""

from itertools import product

import numpy as np
import pytest

from credalnet import decompose, lp, queries
from credalnet.credal import CredalSet
from credalnet.decompose import lower_expectation, trace_lines
from credalnet.errors import InputError
from credalnet.graph import Dag, closure, set_relations
from credalnet.network import CredalNetwork, Factor, joint_states, sub_network

from helpers import (atom_bounds, binary_net, chain_dag, combined_factor,
                     fig_dag, interval_locals, planned, precise_locals,
                     product_factor, random_binary_net, random_chain_net,
                     random_dag, random_factor, redeclared,
                     reference_chain_lower, restrict_factor, sum_factor,
                     zero_bound_locals)

TOL = 1e-9


def lp_conditional(net, f, B):
    """The natural conditional of ``f`` given ``B`` on the network's
    global program."""
    return queries.bounds(net, [f], B, "natural", "lp", 1e-10)[0].value


def iterated_lp(net, S, f):
    """The right-hand side of the law of iterated lower expectation for a
    final segment S: at each joint state of the other nodes T, the
    program of the S-sub-network given that state, on f at that state;
    then the program of the T-sub-network on those inner values."""
    T = net.dag.sorted_nodes(set(net.dag.nodes) - set(S))
    inner = [lp.lower_expectation_lp(sub_network(net, S, ctx),
                                     restrict_factor(net, f, ctx))
             for ctx in joint_states(net, T)]
    return lp.lower_expectation_lp(sub_network(net, T, {}), Factor(
        T, np.reshape(inner, net.shape(T))))


def split_lp(net, K, assignment, f, h=None, g=None):
    """The right-hand side of the combined split for a closed K: the
    lower expectation of  h + g * 1{parents of K} * f  over the whole
    network is that of the same gamble with f replaced by its scalar
    program on the sub-network of K given the parents, a program on the
    non-descendants of K."""
    a = lp.lower_expectation_lp(sub_network(net, K, assignment), f)
    return lp.lower_expectation_lp(
        sub_network(net, set_relations(net.dag, K).non_descendants, {}),
        combined_factor(net, assignment, Factor.constant(a), h, g))


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
                direct = lp.lower_expectation_lp(net, f)
                assert auto == pytest.approx(direct, abs=1e-7)

    def test_long_chain_peels_in_linear_graph_work(self, rng, monkeypatch):
        # a single sink peels with no reachability test, and the chain is
        # never rebuilt as a sub-network
        L = 200
        net = random_chain_net(rng, L)
        f = random_factor(rng, net, [str(L)])
        reach = Dag._reach
        calls = []
        monkeypatch.setattr(Dag, "_reach", lambda dag, *a:
                            calls.append(1) or reach(dag, *a))
        assert lower_expectation(net, f) == reference_chain_lower(net, f)
        assert len(calls) <= 4

    @pytest.mark.parametrize("L", [1000, 10000])
    def test_chain_longer_than_the_recursion_limit(self, rng, monkeypatch, L):
        # the local sets cycle through those of a random 50-node chain, so
        # that building 2L sets does not dominate the test
        pool = list(interval_locals(chain_dag(50), rng).values())
        dag = chain_dag(L)
        keys = [("1", ())] + [(s, (x,)) for s in dag.nodes[1:]
                              for x in ("0", "1")]
        net = binary_net(dag, {key: pool[i % len(pool)]
                               for i, key in enumerate(keys)})
        f = random_factor(rng, net, [str(L)])
        monkeypatch.setattr(decompose, "sub_network", None)
        assert lower_expectation(net, f) == reference_chain_lower(net, f)

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


class TestBatch:
    """The planner's leading gamble axis: a batch of gambles on one scope
    gets, bit for bit, the lower expectation of each gamble alone."""

    def test_random_nets(self, rng):
        # gambles on 1-3 nodes of 4-8-node nets: multi-sink segments and
        # LP cores built per context of one occur
        multi_sink = per_context = 0
        for _ in range(60):
            net = random_binary_net(rng, int(rng.integers(4, 9)), edge_p=0.5)
            scope = rng.choice(net.dag.nodes, size=int(rng.integers(1, 4)),
                               replace=False)
            fs = [random_factor(rng, net, scope) for _ in range(3)]
            fs.append(-fs[0])
            trace = []
            batch = lower_expectation(net, fs, trace=trace)
            assert batch.tolist() == [lower_expectation(net, f) for f in fs]
            multi_sink += any(r.kind == "iterated" and len(r.premise["S"]) > 1
                              for r in trace)
            per_context += sum(r.kind == "lp" for r in trace) > 1
        assert multi_sink and per_context

    def test_long_chain(self, rng):
        net = random_chain_net(rng, 10 ** 3)
        f = random_factor(rng, net, ["1000"])
        lower, neg_upper = lower_expectation(net, [f, -f])
        assert (lower, neg_upper) == (lower_expectation(net, f),
                                      lower_expectation(net, -f))

    def test_gamble_on_one_non_root_node(self, rng):
        # a batch of two gambles on a node with one binary parent: the
        # gamble axis has the length of the parent axis, and must not be
        # read as one
        for _ in range(5):
            net = random_chain_net(rng, 3)
            f, g = (random_factor(rng, net, ["2"]) for _ in range(2))
            assert lower_expectation(net, [f, g]).tolist() == [
                lower_expectation(net, f), lower_expectation(net, g)]
            _, inner = decompose._peel(net, "2", ("2",),
                                       np.stack([f.values, g.values]))
            assert inner.shape == (2, 2)

    def test_scopes_must_agree(self, rng):
        net = random_chain_net(rng, 3)
        with pytest.raises(InputError):
            lower_expectation(net, [random_factor(rng, net, ["2"]),
                                    random_factor(rng, net, ["3"])])
        with pytest.raises(InputError):
            lower_expectation(net, [])


class TestMarginalise:
    """The program of the sub-network of a closed K given its external
    parents equals the natural conditional of the whole network given
    those parents, and evidence in K and among K's non-parent
    non-descendants."""

    def test_equals_conditional_on_full_net(self, rng):
        hits = 0
        for _ in range(12):
            net = random_binary_net(rng, 4, edge_p=0.5)
            sets = closed_sets_with_parents(net, rng, want_parents=True)
            if not sets:
                continue
            K, rel = sets[0]
            assignment = {p: str(rng.integers(0, 2)) for p in rel.parents}
            f = random_factor(rng, net, list(K))
            value = lp.lower_expectation_lp(sub_network(net, K, assignment),
                                            f)
            bracketed = lp_conditional(net, f, net.cylinder(assignment))
            assert value == pytest.approx(bracketed, abs=1e-7)
            hits += 1
        assert hits >= 5

    def test_event_in_k(self, rng):
        # the natural conditional given B_K on the sub-network equals the
        # full-net one given B_K, the parent cylinder and B_NNK
        hits = 0
        for _ in range(12):
            net = random_binary_net(rng, 4, edge_p=0.5)
            sets = closed_sets_with_parents(net, rng, want_parents=True)
            if not sets:
                continue
            K, rel = sets[0]
            assignment = {p: str(rng.integers(0, 2)) for p in rel.parents}
            inside = {rng.choice(sorted(K)): str(rng.integers(0, 2))}
            outside = {u: str(rng.integers(0, 2))
                       for u in sorted(rel.non_parent_non_descendants)[:1]}
            f = random_factor(rng, net, list(K))
            sub = sub_network(net, K, assignment)
            value = lp_conditional(sub, f, sub.cylinder(inside))
            bracketed = lp_conditional(net, f, net.cylinder(
                {**assignment, **inside, **outside}))
            assert value == pytest.approx(bracketed, abs=1e-7)
            hits += 1
        assert hits >= 5

    def test_identity_when_whole_graph(self, rng):
        net = random_binary_net(rng, 3)
        f = random_factor(rng, net, net.dag.nodes)
        assert lp.lower_expectation_lp(sub_network(net, net.dag.nodes, {}),
                                       f) == pytest.approx(
            lp.lower_expectation_lp(net, f), abs=TOL)


class TestIterated:
    """The program of the whole network equals the iterated one of
    :func:`iterated_lp` for a final segment S."""

    def test_reverse_tree_example(self, rng):
        # two roots with a common child: peel the child
        dag = Dag(["1", "2", "3"], [("1", "3"), ("2", "3")])
        net = binary_net(dag, interval_locals(dag, rng))
        f = random_factor(rng, net, net.dag.nodes)
        assert iterated_lp(net, {"3"}, f) == pytest.approx(
            lp.lower_expectation_lp(net, f), abs=1e-7)

    def test_empty_segment_is_identity(self, rng):
        # each inner value is f at one joint state, on the empty network
        net = random_binary_net(rng, 3)
        f = random_factor(rng, net, net.dag.nodes)
        assert iterated_lp(net, set(), f) == pytest.approx(
            lp.lower_expectation_lp(net, f), abs=TOL)

    def test_chain_suffixes(self, rng):
        for _ in range(4):
            net = random_chain_net(rng, 4)
            f = random_factor(rng, net, net.dag.nodes)
            direct = lp.lower_expectation_lp(net, f)
            for S in ({"4"}, {"3", "4"}):
                assert iterated_lp(net, S, f) == pytest.approx(direct,
                                                               abs=1e-7)

    def test_one_node_inner_values_equal_sub_network_path(self, rng):
        # local lower expectations in one call, against one sub-network
        # per state of the scope, in any declaration order
        checked = 0
        while checked < 12:
            base = random_binary_net(rng, 5, edge_p=0.6)
            nodes = list(base.dag.nodes)
            rng.shuffle(nodes)
            net = redeclared(base, nodes)
            s = nodes[int(rng.integers(0, 5))]
            parents = set(net.dag.parents(s))
            others = [x for x in nodes if x != s and x not in parents]
            if not parents or not others:
                continue
            scope = {s, *rng.choice(others, size=min(2, len(others)),
                                    replace=False),
                     *rng.choice(sorted(parents), size=1)}
            f = random_factor(rng, net, scope)
            inner_scope, inner = decompose._peel(net, s, f.scope,
                                                 f.values[None])
            assert set(inner_scope) == (set(f.scope) - {s}) | parents
            expect = [lower_expectation(sub_network(net, {s}, ctx),
                                        restrict_factor(net, f, ctx))
                      for ctx in joint_states(net, inner_scope)]
            assert inner.ravel().tolist() == expect
            checked += 1


def straddling_net(rng):
    """a -> s <- b and x -> b, declared a, x, b, s: the non-parent x of s
    sits between its parents, and the state counts differ, so that a
    wrong axis order shows as a wrong value or shape."""
    dag = Dag(["a", "x", "b", "s"], [("a", "s"), ("b", "s"), ("x", "b")])
    spaces = {"a": ("0", "1"), "x": ("p", "q", "r"), "b": ("0", "1"),
              "s": ("u", "v", "w", "z")}
    locals_ = {}
    for s in dag.nodes:
        for cfg in product(*(spaces[p] for p in dag.parents(s))):
            locals_[(s, cfg)] = CredalSet(spaces[s], vertices=rng.dirichlet(
                [2.0] * len(spaces[s]), size=int(rng.integers(1, 3))))
    return CredalNetwork(dag, spaces, locals_)


def evidence_lp(net, values, scope, evidence):
    """The global program's lower expectation of each row of ``values``
    (over ``scope``) times the indicator of ``evidence``."""
    wide = net.dag.sorted_nodes({*scope, *evidence})
    ind = net.aligned(net.indicator(net.cylinder(evidence)), wide)
    return lp.lower_expectation_lp(net, [
        Factor(wide, ind * net.aligned(Factor(scope, v), wide))
        for v in values])


class TestPlannerEvidence:
    """The planner with evidence kept as per-node indicators, peeled on
    their own at observed sinks, on rows of one sign."""

    @pytest.mark.parametrize("locals_of", [interval_locals,
                                           zero_bound_locals])
    def test_one_sign_rows_match_lp(self, locals_of):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dag = random_dag(rng, int(rng.integers(3, 6)), 0.5)
            net = binary_net(dag, locals_of(dag, rng))
            nodes = list(dag.nodes)
            rng.shuffle(nodes)
            k = int(rng.integers(1, len(nodes)))
            evidence = {s: str(rng.integers(0, 2)) for s in nodes[:k]}
            scope = dag.sorted_nodes(nodes[k:k + int(rng.integers(0, 3))])
            g = np.abs(random_factor(rng, net, scope).values)
            values = np.stack([g, -g])
            got = planned(net, scope, values, evidence)
            assert got == pytest.approx(
                evidence_lp(net, values, scope, evidence), abs=1e-9)

    def test_complete_assignment_is_the_atom_product(self, rng):
        for _ in range(5):
            net = random_binary_net(rng, 4, edge_p=0.5)
            evidence = {s: str(rng.integers(0, 2)) for s in net.dag.nodes}
            low, neg_high = planned(net, (), np.array([1.0, -1.0]),
                                    evidence)
            assert (low, -neg_high) == pytest.approx(
                atom_bounds(net, evidence), abs=1e-12)

    def test_mixed_sign_row_raises(self):
        # the net of default_rng(190): edge 1 -> 2 and an isolated node 3.
        # Peeling the observed sink 3 on its own weights the positive part
        # of a signed gamble on (1, 2) by P_(3 = x) and its negative part
        # by P^(3 = x), which is 0.058 below the global program here: the
        # lower expectation of f * 1{3 = x} is that of f times one of the
        # two, by the sign of the lower expectation of f.
        rng = np.random.default_rng(190)
        dag = random_dag(rng, int(rng.integers(3, 6)), 0.5)
        net = binary_net(dag, interval_locals(dag, rng))
        assert sorted(dag.edges) == [("1", "2")] and len(dag.nodes) == 3
        f = random_factor(rng, net, ["1", "2"])
        evidence = {"3": "1"}
        ind = net.indicator(net.cylinder(evidence)).values
        low, high = net.local_lower("3", np.array([ind, -ind]))
        own = lower_expectation(net, Factor(f.scope, f.values * np.where(
            f.values >= 0, low, -high)))
        exact = evidence_lp(net, f.values[None], f.scope, evidence)[0]
        assert own < exact - 0.05
        with pytest.raises(InputError, match="one sign"):
            decompose._plan(net, f.scope, f.values[None], evidence, None)
        # a row of one sign is taken
        assert planned(net, f.scope, np.abs(f.values)[None],
                       evidence) == pytest.approx(evidence_lp(
                           net, np.abs(f.values)[None], f.scope, evidence),
                           abs=1e-12)


class TestPeel:
    def test_parent_outside_scope_and_straddling_non_parent(self, rng):
        # the peel of s adds a unit axis for its parent a, moves x ahead
        # of the parents, and puts a back before x; the LP core {a, x, b}
        # gets the result
        for _ in range(6):
            net = straddling_net(rng)
            f = random_factor(rng, net, ["x", "b", "s"])
            trace = []
            value = lower_expectation(net, f, trace=trace)
            assert [r.kind for r in trace] == ["iterated", "lp"]
            assert trace[0].premise == {"S": ("s",)}
            assert value == pytest.approx(lp.lower_expectation_lp(net, f),
                                          abs=1e-7)
            scope, inner = decompose._peel(net, "s", f.scope, f.values[None])
            assert scope == ("a", "x", "b")
            assert inner.shape == (1, 2, 3, 2)

    def test_node_outside_the_scope(self, rng):
        # the gamble is constant along the axis of the peeled node
        for _ in range(4):
            net = random_chain_net(rng, 5)
            f = random_factor(rng, net, ["3"])
            scope, inner = decompose._peel(net, "5", f.scope, f.values[None])
            assert scope == ("3", "4") and inner.shape == (1, 2, 2)
            rest = sub_network(net, ("1", "2", "3", "4"), {})
            assert lower_expectation(rest, Factor(scope, inner[0])) == \
                lower_expectation(net, f)


class TestFactorise:
    """Sign-split factorisation for a closed K and g >= 0: the lower
    expectation of  g * 1{parents of K} * f  is the sub-network value a
    of f times the lower expectation of the co-factor  g * 1{parents}
    over the non-descendants of K, or its upper one where a < 0."""

    def test_zero_inner_value_annihilates(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.0)  # disconnected
        f = net.factor_from_values(["1"], [0.0, 0.0])
        g = random_factor(rng, net, ["2", "3"], low=0.0, high=2.0)
        assert lp.lower_expectation_lp(sub_network(net, {"1"}, {}), f) == 0.0
        assert lp.lower_expectation_lp(net, product_factor(
            net, {}, f, g)) == pytest.approx(0.0, abs=TOL)

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
            a = lp.lower_expectation_lp(sub_network(net, K, assignment), f)
            co = product_factor(net, assignment, Factor.constant(1.0), g)
            lower, neg_upper = lp.lower_expectation_lp(
                sub_network(net, rel.non_descendants, {}), [co, -co])
            value = a * lower if a >= 0 else -a * neg_upper
            assembled = product_factor(net, assignment, f, g)
            assert value == pytest.approx(
                lp.lower_expectation_lp(net, assembled), abs=1e-7)
            if offset > 0:
                checked_pos += 1
            else:
                checked_neg += 1
        assert checked_pos >= 3 and checked_neg >= 3


class TestExternalAdditivity:
    """For a closed K with no parents, the lower expectation of  h + f,
    h on the non-descendants of K, is the sum of the sub-network
    values of f and of h."""

    def test_two_disconnected_nodes(self, rng):
        net = random_binary_net(rng, 2, edge_p=0.0)
        f = random_factor(rng, net, ["1"])
        h = random_factor(rng, net, ["2"])
        local1 = net.local("1", ()).lower_expectation(f.values)
        local2 = net.local("2", ()).lower_expectation(h.values)
        assembled = sum_factor(net, f, h)
        assert lp.lower_expectation_lp(net, assembled) == pytest.approx(
            local1 + local2, abs=1e-7)

    def test_zero_factor(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.3)
        sets = closed_sets_with_parents(net, rng, want_parents=False)
        if not sets:
            pytest.skip("no parentless closed set sampled")
        K, rel = sets[0]
        f = Factor.constant(0.0)
        h = (random_factor(rng, net, list(rel.non_parent_non_descendants))
             if rel.non_parent_non_descendants else Factor.constant(1.5))
        expect = (lp.lower_expectation_lp(
            sub_network(net, rel.non_parent_non_descendants, {}), h)
            if rel.non_parent_non_descendants else float(h.values))
        assert lp.lower_expectation_lp(sub_network(net, K, {}), f) == 0.0
        assert lp.lower_expectation_lp(net, sum_factor(net, f, h)) == \
            pytest.approx(expect, abs=1e-7)

    def test_three_disconnected_vs_lp(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.0)
        f = random_factor(rng, net, ["1"])
        h = random_factor(rng, net, ["2", "3"])
        value = (lp.lower_expectation_lp(sub_network(net, {"1"}, {}), f)
                 + lp.lower_expectation_lp(sub_network(net, {"2", "3"}, {}),
                                           h))
        assembled = sum_factor(net, f, h)
        assert value == pytest.approx(
            lp.lower_expectation_lp(net, assembled), abs=1e-7)


class TestCombined:
    def test_against_lp(self, rng):
        # the general split of :func:`split_lp`, of which factorisation
        # (no h) and external additivity (no g, no parents) are cases
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
            value = split_lp(net, K, assignment, f, h, g)
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
