"""Directed acyclic graphs and the separation criteria used throughout.

Nodes are strings.  Every derived ordering (parent lists, joint-state
enumeration, constraint emission) follows the declaration order of
``Dag.nodes``, which keeps all downstream output deterministic.

Separation comes in two flavours.  ``d_separated`` is the classical
symmetric criterion.  ``ad_separated`` drops one blocking condition
(an intermediate node of a right-to-left chain no longer blocks, even
when it is in the conditioning set), which makes the criterion
asymmetric and strictly harder to satisfy.

Both run one breadth-first traversal over (node, entry direction)
states, as in Bayes-ball.  A collider lets a path through when it is in
the conditioning set C or has a descendant in it, that is, when it is an
ancestor of C or in C; one reverse reach from C finds all of those, so a
query is linear in the size of the graph.  The brute-force references
the traversal is tested against (path enumeration with explicit blocking
conditions, and the closed-subset characterisation of AD-separation)
live in ``tests/helpers.py``.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, NamedTuple

from .errors import InputError


class Dag:
    """Immutable directed acyclic graph over string node identifiers."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.nodes: tuple[str, ...] = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise InputError("duplicate node identifiers")
        self._index = {s: i for i, s in enumerate(self.nodes)}

        seen = set()
        for a, b in edges:
            if a not in self._index or b not in self._index:
                raise InputError(f"edge ({a!r}, {b!r}) references undeclared node")
            if a == b:
                raise InputError(f"self-loop on node {a!r}")
            if (a, b) in seen:
                raise InputError(f"duplicate edge ({a!r}, {b!r})")
            seen.add((a, b))
        self.edges: frozenset = frozenset(seen)

        # the edges as index pairs, sorted: each list in declaration order
        parents, children = [[] for _ in self.nodes], [[] for _ in self.nodes]
        at = self._index
        for i, j in sorted([(at[a], at[b]) for a, b in seen]):
            children[i].append(self.nodes[j])
            parents[j].append(self.nodes[i])
        # read-only, so that parents() and children() hand out the stored
        # tuples themselves
        self._parents: Mapping[str, tuple[str, ...]] = MappingProxyType(
            dict(zip(self.nodes, map(tuple, parents))))
        self._children: Mapping[str, tuple[str, ...]] = MappingProxyType(
            dict(zip(self.nodes, map(tuple, children))))

        self._topo = self._toposort()

    def _toposort(self) -> tuple[str, ...]:
        indeg = {s: len(self._parents[s]) for s in self.nodes}
        queue = deque(s for s in self.nodes if indeg[s] == 0)
        order = []
        while queue:
            s = queue.popleft()
            order.append(s)
            for c in self._children[s]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self.nodes):
            raise InputError("graph contains a directed cycle")
        return tuple(order)

    # -- basic queries ----------------------------------------------------

    def __contains__(self, s: str) -> bool:
        return s in self._index

    def index(self, s: str) -> int:
        self._check(s)
        return self._index[s]

    # a dict lookup, and no _check call: peels ask for these per node
    def parents(self, s: str) -> tuple[str, ...]:
        try:
            return self._parents[s]
        except KeyError:
            raise InputError(f"unknown node {s!r}") from None

    def children(self, s: str) -> tuple[str, ...]:
        try:
            return self._children[s]
        except KeyError:
            raise InputError(f"unknown node {s!r}") from None

    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def descendants(self, s: str) -> frozenset:
        """Strict descendants: every v with a directed path s -> ... -> v."""
        return self.descendants_of_set((s,))

    def ancestors(self, s: str) -> frozenset:
        """Strict ancestors of s."""
        return self.ancestors_of_set((s,))

    def _reach(self, adj: dict, starts: Iterable[str]) -> frozenset:
        seen = set(starts)
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return frozenset(seen)

    def descendants_of_set(self, K: Collection[str]) -> frozenset:
        """Strict descendants of any member of K, minus K itself."""
        self.check_subset(K)
        return self._reach(self._children, K) - frozenset(K)

    def ancestors_of_set(self, K: Collection[str]) -> frozenset:
        self.check_subset(K)
        return self._reach(self._parents, K) - frozenset(K)

    def sorted_nodes(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """The given nodes in declaration order; the first unknown one
        raises.  This is the name check of every caller given a scope."""
        try:
            return tuple(sorted(nodes, key=self._index.__getitem__))
        except KeyError as e:
            raise InputError(f"unknown node {e.args[0]!r}") from None

    def _check(self, s: str) -> None:
        if s not in self._index:
            raise InputError(f"unknown node {s!r}")

    def check_subset(self, K: Collection[str]) -> None:
        for s in K:
            self._check(s)

    def __repr__(self) -> str:
        return f"Dag(nodes={len(self.nodes)}, edges={len(self.edges)})"


class SetRelations(NamedTuple):
    parents: frozenset
    descendants: frozenset
    non_descendants: frozenset
    non_parent_non_descendants: frozenset


def set_relations(dag: Dag, K: Collection[str]) -> SetRelations:
    """The node-set versions: P(K) is the union of member parents minus K,
    D(K) the union of member descendants minus K, and the rest follows."""
    dag.check_subset(K)
    Kf = frozenset(K)
    pa = frozenset(p for s in Kf for p in dag.parents(s)) - Kf
    de = dag._reach(dag._children, Kf) - Kf
    nd = frozenset(dag.nodes) - Kf - de
    return SetRelations(pa, de, nd, nd - pa)


def is_closed(dag: Dag, K: Collection[str]) -> bool:
    """True iff no node outside K lies on a directed path between two
    members of K."""
    return closure(dag, K) == frozenset(K)


def closure(dag: Dag, K: Collection[str]) -> frozenset:
    """Smallest closed superset of K: K plus every node lying on a
    directed path between two members.  That set is already closed: a
    node between two added nodes lies between two members of K.  Both
    reaches hold K itself."""
    dag.check_subset(K)
    Kf = frozenset(K)
    return dag._reach(dag._children, Kf) & dag._reach(dag._parents, Kf)


# -- separation -----------------------------------------------------------

def _unblocked_reachable(dag: Dag, I: Collection[str], S: Collection[str],
                         C: Collection[str], dsep: bool) -> bool:
    """Search for an unblocked path from I to S: BFS over (node, mode)
    states, where mode records whether the node was entered through the
    head or the tail of the connecting edge."""
    for X in (I, S, C):
        dag.check_subset(X)
    Cf = frozenset(C)
    If = frozenset(I)
    Sf = frozenset(S)
    targets = Sf - Cf
    if (If & Sf) - Cf:
        return True  # single-node path, blocked only by membership in C
    if not targets:
        return False

    # Collider passage: the node is in C or has a descendant in C, that
    # is, it is C or one of its ancestors.
    passes = dag._reach(dag._parents, Cf)

    seen = set()
    queue = deque()
    for i in If - Cf:
        for w in dag.children(i):
            queue.append((w, "head"))
        for w in dag.parents(i):
            queue.append((w, "tail"))
    while queue:
        state = queue.popleft()
        if state in seen:
            continue
        seen.add(state)
        v, mode = state
        if v in targets:
            return True
        if mode == "head":
            if v not in Cf:
                for w in dag.children(v):
                    queue.append((w, "head"))
            if v in passes:
                for w in dag.parents(v):
                    queue.append((w, "tail"))
        else:  # entered from a child
            if v not in Cf:
                for w in dag.children(v):
                    queue.append((w, "head"))
            for w in dag.parents(v):
                if not dsep or v not in Cf:
                    queue.append((w, "tail"))
    return False


def ad_separated(dag: Dag, I: Collection[str], S: Collection[str],
                 C: Collection[str]) -> bool:
    """Asymmetric separation: every path from I to S is blocked by C
    under the four basic blocking conditions.  I, S and C need not be
    disjoint."""
    return not _unblocked_reachable(dag, I, S, C, dsep=False)


def d_separated(dag: Dag, I: Collection[str], S: Collection[str],
                C: Collection[str]) -> bool:
    """Classical d-separation (one more blocking condition, symmetric)."""
    return not _unblocked_reachable(dag, I, S, C, dsep=True)
