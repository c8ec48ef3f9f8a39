"""DAG relations, closed sets, path blocking and the separation criteria."""

import itertools

import numpy as np
import pytest

from credalnet.errors import InputError
from credalnet.graph import (Dag, ad_separated, ad_separated_closed, closure,
                             d_separated, is_closed, path_blocked, relations,
                             set_relations)

from helpers import chain_dag, fig_dag, random_dag


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
    def test_example_graph_node5(self, fig1):
        rel = relations(fig1, "5")
        assert rel.parents == {"3"}
        assert rel.children == {"7", "8"}
        assert rel.descendants == {"7", "8", "9", "10"}
        assert rel.non_parent_non_descendants == {"1", "2", "4", "6"}
        assert rel.non_descendants == {"1", "2", "3", "4", "6"}

    def test_isolated_node(self):
        dag = Dag(["x"], [])
        rel = relations(dag, "x")
        assert all(not r for r in rel)

    def test_three_chain_middle(self):
        dag = chain_dag(3)
        rel = relations(dag, "2")
        assert rel.parents == {"1"}
        assert rel.descendants == {"3"}
        assert rel.non_descendants == {"1"}

    def test_unknown_node(self, fig1):
        with pytest.raises(InputError):
            relations(fig1, "99")

    def test_partition_identity(self, fig1):
        for s in fig1.nodes:
            rel = relations(fig1, s)
            assert rel.non_descendants == rel.parents | rel.non_parent_non_descendants
            assert rel.non_descendants == \
                frozenset(fig1.nodes) - {s} - rel.descendants


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

    def test_singleton_reduces_to_node_relations(self, fig1):
        for s in fig1.nodes:
            node = relations(fig1, s)
            sub = set_relations(fig1, {s})
            assert sub.parents == node.parents
            assert sub.descendants == node.descendants
            assert sub.non_descendants == node.non_descendants
            assert sub.non_parent_non_descendants == \
                node.non_parent_non_descendants


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


class TestSeparationCrossChecks:
    """The three routes (traversal, explicit path enumeration, closed-subset
    search) must agree on random graphs."""

    def test_traversal_equals_path_enumeration(self, rng):
        for _ in range(12):
            dag = random_dag(rng, 6, 0.4)
            for I, S, C in _disjoint_triples(dag.nodes, rng, 12):
                assert ad_separated(dag, I, S, C) == \
                    ad_separated(dag, I, S, C, method="enumerate")
                assert d_separated(dag, I, S, C) == \
                    d_separated(dag, I, S, C, method="enumerate")

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
