"""DAG relations, closed sets, path blocking and the separation criteria."""

import itertools

import pytest

from credalnet.errors import InputError
from credalnet.graph import (Dag, ad_separated, closure, d_separated,
                             is_closed, set_relations)

from helpers import (ad_separated_closed, all_paths_blocked, chain_dag,
                     path_blocked, random_dag)


class TestDagConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(InputError):
            Dag(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Dag(["a"], [("a", "a")])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            Dag(["a", "b"], [("a", "b"), ("a", "b")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(InputError):
            Dag(["a"], [("a", "b")])

    def test_parent_order_follows_declaration(self):
        dag = Dag(["c", "a", "b"], [("b", "c"), ("a", "c")])
        assert dag.parents("c") == ("a", "b")

    def test_adjacency_order_follows_declaration(self):
        dag = Dag(["d", "a", "c", "b"], [("b", "c"), ("a", "c"), ("d", "b"),
                                         ("d", "c"), ("a", "b")])
        assert dag.parents("c") == ("d", "a", "b")
        assert dag.parents("b") == ("d", "a")
        assert dag.children("d") == ("c", "b")
        assert dag.children("a") == ("c", "b")

    def test_sorted_nodes_checks_names(self):
        dag = Dag(["c", "a", "b"], [])
        assert dag.sorted_nodes(["b", "c"]) == ("c", "b")
        # the first unknown node in the given order
        with pytest.raises(InputError, match="unknown node 'zz'"):
            dag.sorted_nodes(["a", "zz", "yy"])

    def test_adjacency_is_stored_once_and_read_only(self):
        dag = Dag(["a", "b", "c"], [("a", "b"), ("a", "c")])
        assert dag.parents("b") is dag.parents("b")
        assert dag.children("a") is dag.children("a")
        assert isinstance(dag.children("a"), tuple)
        with pytest.raises(TypeError):
            dag.children("a")[0] = "c"
        with pytest.raises(TypeError):
            dag._parents["c"] = ("b",)
        with pytest.raises(AttributeError):
            dag._children["a"].append("a")
        assert dag.children("a") == ("b", "c")
        assert dag.parents("c") == ("a",)
        assert dag.descendants("a") == {"b", "c"}


class TestRelations:
    """The relations of one node: ``set_relations`` of the singleton, and
    its children from the graph."""

    def test_example_graph_node5(self, fig1):
        rel = set_relations(fig1, {"5"})
        assert rel.parents == {"3"}
        assert set(fig1.children("5")) == {"7", "8"}
        assert rel.descendants == {"7", "8", "9", "10"}
        assert rel.non_parent_non_descendants == {"1", "2", "4", "6"}
        assert rel.non_descendants == {"1", "2", "3", "4", "6"}

    def test_isolated_node(self):
        dag = Dag(["x"], [])
        rel = set_relations(dag, {"x"})
        assert all(not r for r in rel)
        assert not dag.children("x")

    def test_three_chain_middle(self):
        dag = chain_dag(3)
        rel = set_relations(dag, {"2"})
        assert rel.parents == {"1"}
        assert rel.descendants == {"3"}
        assert rel.non_descendants == {"1"}

    def test_unknown_node(self, fig1):
        with pytest.raises(InputError):
            set_relations(fig1, {"99"})
        with pytest.raises(InputError):
            fig1.children("99")

    def test_partition_identity(self, fig1):
        for s in fig1.nodes:
            rel = set_relations(fig1, {s})
            assert rel.non_descendants == rel.parents | rel.non_parent_non_descendants
            assert rel.non_descendants == \
                frozenset(fig1.nodes) - {s} - rel.descendants
            assert set(fig1.children(s)) <= rel.descendants
            assert rel.parents == set(fig1.parents(s))


class TestSetRelations:
    def test_example_graph_closed_triple(self, fig1):
        rel = set_relations(fig1, {"5", "7", "9"})
        assert rel.parents == {"3", "4"}
        assert rel.descendants == {"8", "10"}
        assert rel.non_descendants == {"1", "2", "3", "4", "6"}
        assert rel.non_parent_non_descendants == {"1", "2", "6"}

    def test_all_nodes(self, fig1):
        rel = set_relations(fig1, set(fig1.nodes))
        assert all(not r for r in rel)

    def test_two_roots(self, fig1):
        rel = set_relations(fig1, {"1", "2"})
        assert rel.parents == frozenset()
        assert rel.descendants == {"3", "4", "5", "7", "8", "9", "10"}


class TestOneCheck:
    """``closure`` and ``set_relations`` check each node of their set
    once, and an unknown one raises."""

    @pytest.mark.parametrize("relation", [closure, is_closed, set_relations])
    def test_each_node_once(self, fig1, monkeypatch, relation):
        checked = []
        check = Dag._check
        monkeypatch.setattr(Dag, "_check", lambda dag, s: (
            checked.append(s), check(dag, s))[1])
        relation(fig1, ["5", "9", "1"])
        assert sorted(checked) == ["1", "5", "9"]

    @pytest.mark.parametrize("relation", [closure, is_closed, set_relations])
    def test_unknown_node(self, fig1, relation):
        with pytest.raises(InputError, match="unknown node 'zz'"):
            relation(fig1, ["5", "zz"])


class TestClosed:
    def test_example_closed_set(self, fig1):
        assert is_closed(fig1, {"5", "7", "9"})

    def test_empty_and_singletons(self, fig1):
        assert is_closed(fig1, set())
        for s in fig1.nodes:
            assert is_closed(fig1, {s})

    def test_gap_detected(self, fig1):
        assert not is_closed(fig1, {"5", "9"})  # 7 lies between

    def test_closure_fills_gaps(self, fig1):
        assert closure(fig1, {"5", "9"}) == {"5", "7", "9"}
        assert closure(fig1, {"1", "7"}) == {"1", "3", "4", "5", "7"}

    def test_closed_sets_closed_under_descendants_union(self, rng):
        # K with D(K): every node between two members of K | D(K) is inside
        for _ in range(20):
            dag = random_dag(rng, 7, 0.4)
            nodes = list(dag.nodes)
            K = frozenset(n for n in nodes if rng.random() < 0.4)
            if not is_closed(dag, K):
                continue
            big = K | dag.descendants_of_set(K)
            assert is_closed(dag, big)

    def test_closure_is_smallest_closed_superset(self, rng):
        # brute force over every superset of K, smallest first
        for _ in range(60):
            dag = random_dag(rng, int(rng.integers(1, 8)), 0.45)
            K = frozenset(n for n in dag.nodes if rng.random() < 0.35)
            rest = [n for n in dag.nodes if n not in K]
            closed = [K | frozenset(extra)
                      for r in range(len(rest) + 1)
                      for extra in itertools.combinations(rest, r)
                      if is_closed(dag, K | frozenset(extra))]
            smallest = closed[0]
            assert all(smallest <= other for other in closed)
            assert closure(dag, K) == smallest, (dag.edges, K)


class TestPathBlocked:
    def test_example_unblocked_reverse_chain(self, fig1):
        # intermediate node of a right-to-left chain does not block, even
        # inside the conditioning set
        assert not path_blocked(fig1, ["5", "3", "1"], {"3", "4", "9"})

    def test_first_node_in_conditioning_set(self, fig1):
        assert path_blocked(fig1, ["5", "3", "1"], {"5"})
        assert path_blocked(fig1, ["5"], {"5"})

    def test_collider_without_conditioned_descendant(self, fig1):
        assert path_blocked(fig1, ["6", "8", "5"], {"3", "4"})

    def test_collider_with_conditioned_descendant_passes(self, fig1):
        # 1 -> 3 <- 2 with a descendant of 3 in C
        assert not path_blocked(fig1, ["1", "3", "2"], {"4"})

    def test_dsep_blocks_reverse_chain(self, fig1):
        assert path_blocked(fig1, ["5", "3", "1"], {"3", "4", "9"}, dsep=True)

    def test_invalid_path(self, fig1):
        with pytest.raises(InputError):
            path_blocked(fig1, ["1", "9"], set())
        with pytest.raises(InputError):
            path_blocked(fig1, [], set())


class TestSeparation:
    def test_example_symmetric_case(self, fig1):
        assert ad_separated(fig1, {"6"}, {"9"}, {"3", "4"})
        assert ad_separated(fig1, {"9"}, {"6"}, {"3", "4"})

    def test_example_asymmetric_case(self, fig1):
        I, S, C = {"1", "6"}, {"5", "7"}, {"3", "4", "9"}
        assert ad_separated(fig1, I, S, C)
        assert not ad_separated(fig1, S, I, C)

    def test_empty_source(self, fig1):
        assert ad_separated(fig1, set(), {"9"}, set())

    def test_dsep_symmetric_where_ad_is_not(self, fig1):
        I, S, C = {"1", "6"}, {"5", "7"}, {"3", "4", "9"}
        assert d_separated(fig1, I, S, C)
        assert d_separated(fig1, S, I, C)

    def test_collider_chain(self):
        dag = Dag(["1", "2", "3"], [("1", "2"), ("3", "2")])
        assert d_separated(dag, {"1"}, {"3"}, set())
        assert ad_separated(dag, {"1"}, {"3"}, set())
        assert not d_separated(dag, {"1"}, {"3"}, {"2"})

    def test_non_disjoint_allowed(self, fig1):
        # the path criterion accepts overlapping arguments
        assert not ad_separated(fig1, {"5"}, {"5"}, set())
        assert ad_separated(fig1, {"5"}, {"5"}, {"5"})

    def test_unknown_node(self, fig1):
        for separated in (ad_separated, d_separated):
            for X in range(3):
                args = [{"1"}, {"9"}, {"4"}]
                args[X] = {"99"}
                with pytest.raises(InputError):
                    separated(fig1, *args)


class TestLongChain:
    """A 10^4-node chain: the verdicts of the CLI's ``adsep`` example, found
    without one descendant set per node."""

    N = 10 ** 4
    # (I, S, C) -> (AD(I,S|C), d(I,S|C))
    CASES = {
        ("1", str(N), str(N // 2)): (True, True),
        (str(N), "1", str(N // 2)): (False, True),
        ("1", str(N), None): (False, False),
        (str(N), "1", None): (False, False),
        (str(N // 2), "1", str(N)): (False, False),
        ("1", str(N // 2), str(N)): (False, False),
    }

    def test_verdicts_without_descendant_sets(self, monkeypatch):
        dag = chain_dag(self.N)
        calls = []
        original = Dag.descendants

        def counted(self, s):
            calls.append(s)
            return original(self, s)

        monkeypatch.setattr(Dag, "descendants", counted)
        for (i, s, c), (ad, d) in self.CASES.items():
            C = {c} if c else set()
            assert ad_separated(dag, {i}, {s}, C) is ad, (i, s, c)
            assert d_separated(dag, {i}, {s}, C) is d, (i, s, c)
        assert calls == []


class TestClosedSubsetCharacterisation:
    def test_example_witness(self, fig1):
        assert ad_separated_closed(fig1, {"6"}, {"9"}, {"3", "4"})
        assert ad_separated_closed(fig1, {"1", "6"}, {"5", "7"},
                                   {"3", "4", "9"})
        assert not ad_separated_closed(fig1, {"5", "7"}, {"1", "6"},
                                       {"3", "4", "9"})

    def test_empty_target(self, fig1):
        assert ad_separated_closed(fig1, {"1"}, set(), {"4"})

    def test_rejects_overlap(self, fig1):
        with pytest.raises(InputError):
            ad_separated_closed(fig1, {"5"}, {"5"}, set())


def _disjoint_triples(nodes, rng, count):
    triples = []
    for _ in range(count):
        labels = rng.integers(0, 4, size=len(nodes))
        I = frozenset(n for n, l in zip(nodes, labels) if l == 0)
        S = frozenset(n for n, l in zip(nodes, labels) if l == 1)
        C = frozenset(n for n, l in zip(nodes, labels) if l == 2)
        triples.append((I, S, C))
    return triples


def _collider_triples(dag, rng, count):
    """Random disjoint triples, each with a node of two or more parents
    moved to C, one of its parents to I and another to S; none when the
    graph has no such node."""
    colliders = [v for v in dag.nodes if len(dag.parents(v)) > 1]
    triples = []
    for I, S, C in _disjoint_triples(dag.nodes, rng, count * bool(colliders)):
        v = colliders[rng.integers(len(colliders))]
        a, b = rng.choice(dag.parents(v), size=2, replace=False)
        triples.append((I - {v, b} | {a}, S - {v, a} | {b}, C - {a, b} | {v}))
    return triples


class TestSeparationCrossChecks:
    """The three routes (traversal, explicit path enumeration, closed-subset
    search) must agree on random graphs.  The two brute-force oracles,
    ``all_paths_blocked`` and ``ad_separated_closed``, are in
    ``tests/helpers.py``."""

    def test_traversal_equals_path_enumeration(self, rng):
        # besides random triples, ones whose C holds a collider with a
        # parent in I and one in S, so that the collider rule for a
        # member of C is tested on its own
        for _ in range(12):
            dag = random_dag(rng, 6, 0.4)
            triples = _disjoint_triples(dag.nodes, rng, 12)
            triples += _collider_triples(dag, rng, 6)
            for I, S, C in triples:
                assert ad_separated(dag, I, S, C) == \
                    all_paths_blocked(dag, I, S, C)
                assert d_separated(dag, I, S, C) == \
                    all_paths_blocked(dag, I, S, C, dsep=True)

    def test_traversal_equals_closed_subset_search(self, rng):
        for _ in range(12):
            dag = random_dag(rng, 6, 0.45)
            for I, S, C in _disjoint_triples(dag.nodes, rng, 15):
                assert ad_separated(dag, I, S, C) == \
                    ad_separated_closed(dag, I, S, C), (dag.edges, I, S, C)

    def test_ad_implies_d(self, rng):
        for _ in range(12):
            dag = random_dag(rng, 7, 0.4)
            for I, S, C in _disjoint_triples(dag.nodes, rng, 15):
                if ad_separated(dag, I, S, C):
                    assert d_separated(dag, I, S, C)

    def test_d_separation_symmetric(self, rng):
        for _ in range(12):
            dag = random_dag(rng, 7, 0.4)
            for I, S, C in _disjoint_triples(dag.nodes, rng, 10):
                assert d_separated(dag, I, S, C) == d_separated(dag, S, I, C)

    def test_exhaustive_small_graphs(self, rng):
        # every disjoint triple on a handful of 4-node graphs
        for _ in range(6):
            dag = random_dag(rng, 4, 0.5)
            for labels in itertools.product(range(4), repeat=4):
                I = frozenset(n for n, l in zip(dag.nodes, labels) if l == 0)
                S = frozenset(n for n, l in zip(dag.nodes, labels) if l == 1)
                C = frozenset(n for n, l in zip(dag.nodes, labels) if l == 2)
                assert ad_separated(dag, I, S, C) == \
                    ad_separated_closed(dag, I, S, C)
