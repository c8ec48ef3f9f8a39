"""Directed acyclic graphs and the separation criteria used throughout.

Nodes are strings.  Every derived ordering (parent lists, joint-state
enumeration, constraint emission) follows the declaration order of
``Dag.nodes``, which keeps all downstream output deterministic.

Separation comes in two flavours.  ``d_separated`` is the classical
symmetric criterion.  ``ad_separated`` drops one blocking condition
(an intermediate node of a right-to-left chain no longer blocks, even
when it is in the conditioning set), which makes the criterion
asymmetric and strictly harder to satisfy.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import CapabilityError, InputError

NodeSet = frozenset

# Node count above which the exhaustive separation routines refuse to run.
EXHAUSTIVE_NODE_LIMIT = 16


class Dag:
    """Immutable directed acyclic graph over string node identifiers."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.nodes: tuple[str, ...] = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise InputError("duplicate node identifiers")
        self._index = {s: i for i, s in enumerate(self.nodes)}

        edge_list = [tuple(e) for e in edges]
        seen = set()
        for a, b in edge_list:
            if a not in self._index or b not in self._index:
                raise InputError(f"edge ({a!r}, {b!r}) references undeclared node")
            if a == b:
                raise InputError(f"self-loop on node {a!r}")
            if (a, b) in seen:
                raise InputError(f"duplicate edge ({a!r}, {b!r})")
            seen.add((a, b))
        self.edges: frozenset = frozenset(seen)

        parents: dict[str, list[str]] = {s: [] for s in self.nodes}
        children: dict[str, list[str]] = {s: [] for s in self.nodes}
        for a, b in sorted(seen, key=lambda e: (self._index[e[0]], self._index[e[1]])):
            children[a].append(b)
            parents[b].append(a)
        # read-only, so that parents() and children() hand out the stored
        # tuples themselves
        self._parents: Mapping[str, tuple[str, ...]] = MappingProxyType(
            {s: tuple(v) for s, v in parents.items()})
        self._children: Mapping[str, tuple[str, ...]] = MappingProxyType(
            {s: tuple(v) for s, v in children.items()})

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

    def parents(self, s: str) -> tuple[str, ...]:
        self._check(s)
        return self._parents[s]

    def children(self, s: str) -> tuple[str, ...]:
        self._check(s)
        return self._children[s]

    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def descendants(self, s: str) -> frozenset:
        """Strict descendants: every v with a directed path s -> ... -> v."""
        self._check(s)
        return self._reach(self._children, [s]) - {s}

    def ancestors(self, s: str) -> frozenset:
        """Strict ancestors of s."""
        self._check(s)
        return self._reach(self._parents, [s]) - {s}

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
        if not K:
            return frozenset()
        return self._reach(self._children, K) - frozenset(K)

    def ancestors_of_set(self, K: Collection[str]) -> frozenset:
        self.check_subset(K)
        if not K:
            return frozenset()
        return self._reach(self._parents, K) - frozenset(K)

    def sorted_nodes(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """The given nodes in declaration order."""
        return tuple(sorted(nodes, key=self._index.__getitem__))

    def _check(self, s: str) -> None:
        if s not in self._index:
            raise InputError(f"unknown node {s!r}")

    def check_subset(self, K: Collection[str]) -> None:
        for s in K:
            self._check(s)

    def __repr__(self) -> str:
        return f"Dag(nodes={len(self.nodes)}, edges={len(self.edges)})"


class Relations(NamedTuple):
    parents: frozenset
    children: frozenset
    descendants: frozenset
    non_descendants: frozenset
    non_parent_non_descendants: frozenset


class SetRelations(NamedTuple):
    parents: frozenset
    descendants: frozenset
    non_descendants: frozenset
    non_parent_non_descendants: frozenset


def relations(dag: Dag, s: str) -> Relations:
    """Parents, children, descendants, non-descendants and
    non-parent non-descendants of a single node."""
    dag._check(s)
    pa = frozenset(dag.parents(s))
    ch = frozenset(dag.children(s))
    de = dag.descendants(s)
    nd = frozenset(dag.nodes) - de - {s}
    return Relations(pa, ch, de, nd, nd - pa)


def set_relations(dag: Dag, K: Collection[str]) -> SetRelations:
    """The node-set versions: P(K) is the union of member parents minus K,
    D(K) the union of member descendants minus K, and the rest follows."""
    dag.check_subset(K)
    Kf = frozenset(K)
    pa = frozenset(p for s in Kf for p in dag.parents(s)) - Kf
    de = dag.descendants_of_set(Kf)
    nd = frozenset(dag.nodes) - Kf - de
    return SetRelations(pa, de, nd, nd - pa)


def is_closed(dag: Dag, K: Collection[str]) -> bool:
    """True iff no node outside K lies on a directed path between two
    members of K."""
    dag.check_subset(K)
    Kf = frozenset(K)
    between = dag.descendants_of_set(Kf) & dag.ancestors_of_set(Kf)
    return not (between - Kf)


def closure(dag: Dag, K: Collection[str]) -> frozenset:
    """Smallest closed superset of K: K plus every node lying on a
    directed path between two members."""
    dag.check_subset(K)
    Kf = frozenset(K)
    while True:
        between = dag.descendants_of_set(Kf) & dag.ancestors_of_set(Kf)
        extra = between - Kf
        if not extra:
            return Kf
        Kf |= extra


# -- path blocking --------------------------------------------------------

def _edge_kind(dag: Dag, a: str, b: str) -> str:
    """'fwd' if a->b, 'bwd' if b->a, error otherwise."""
    if (a, b) in dag.edges:
        return "fwd"
    if (b, a) in dag.edges:
        return "bwd"
    raise InputError(f"nodes {a!r} and {b!r} are not adjacent")


def path_blocked(dag: Dag, path: Sequence[str], C: Collection[str],
                 dsep: bool = False) -> bool:
    """Whether the conditioning set C blocks a path.

    A path is blocked when its first or last node is in C, when an
    intermediate node of C is left along an edge direction, or when an
    intermediate collider is outside C and has no descendant in C.  With
    ``dsep=True`` the extra d-separation condition is added: an
    intermediate node of C also blocks when the path *enters* it against
    the edge direction it continues on (right-to-left chains).
    """
    if not path:
        raise InputError("empty path")
    dag.check_subset(path)
    Cf = frozenset(C)
    dag.check_subset(Cf)
    kinds = [_edge_kind(dag, path[i], path[i + 1]) for i in range(len(path) - 1)]

    if path[0] in Cf or path[-1] in Cf:
        return True
    for i in range(1, len(path) - 1):
        v = path[i]
        into, out = kinds[i - 1], kinds[i]
        if out == "fwd" and v in Cf:          # v -> next with v in C
            return True
        if dsep and into == "bwd" and v in Cf:  # prev <- v with v in C
            return True
        if into == "fwd" and out == "bwd":     # collider prev -> v <- next
            if v not in Cf and not (dag.descendants(v) & Cf):
                return True
    return False


def _unblocked_reachable(dag: Dag, I: Collection[str], S: Collection[str],
                         C: Collection[str], dsep: bool) -> bool:
    """Search for an unblocked path from I to S: BFS over (node, mode)
    states, where mode records whether the node was entered through the
    head or the tail of the connecting edge."""
    Cf = frozenset(C)
    If = frozenset(I)
    Sf = frozenset(S)
    targets = Sf - Cf
    if (If & Sf) - Cf:
        return True  # single-node path, blocked only by membership in C
    if not targets:
        return False

    # Collider passage: node in C, or some descendant in C.
    passes = {v: (v in Cf or bool(dag.descendants(v) & Cf)) for v in dag.nodes}

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
            if passes[v]:
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


def _all_paths_blocked(dag: Dag, I, S, C, dsep: bool) -> bool:
    """Exhaustive oracle: enumerate every simple path from I to S and test
    each with the blocking conditions.  Exponential; small graphs only."""
    if len(dag.nodes) > EXHAUSTIVE_NODE_LIMIT:
        raise CapabilityError(
            f"path enumeration limited to {EXHAUSTIVE_NODE_LIMIT} nodes")
    Cf = frozenset(C)
    neighbours = {s: set(dag.parents(s)) | set(dag.children(s)) for s in dag.nodes}

    def extend(path: list) -> bool:
        # True as soon as one unblocked path to S is found.
        if path[-1] in S and not path_blocked(dag, path, Cf, dsep=dsep):
            return True
        for w in neighbours[path[-1]]:
            if w not in path:
                path.append(w)
                if extend(path):
                    return True
                path.pop()
        return False

    return not any(extend([i]) for i in I)


def ad_separated(dag: Dag, I: Collection[str], S: Collection[str],
                 C: Collection[str], method: str = "traversal") -> bool:
    """Asymmetric separation: every path from I to S is blocked by C
    under the four basic blocking conditions.  I, S and C need not be
    disjoint.  ``method='enumerate'`` switches to the explicit
    path-enumeration oracle (small graphs only)."""
    for X in (I, S, C):
        dag.check_subset(X)
    if method == "traversal":
        return not _unblocked_reachable(dag, I, S, C, dsep=False)
    if method == "enumerate":
        return _all_paths_blocked(dag, I, S, C, dsep=False)
    raise InputError(f"unknown method {method!r}")


def d_separated(dag: Dag, I: Collection[str], S: Collection[str],
                C: Collection[str], method: str = "traversal") -> bool:
    """Classical d-separation (one more blocking condition, symmetric)."""
    for X in (I, S, C):
        dag.check_subset(X)
    if method == "traversal":
        return not _unblocked_reachable(dag, I, S, C, dsep=True)
    if method == "enumerate":
        return _all_paths_blocked(dag, I, S, C, dsep=True)
    raise InputError(f"unknown method {method!r}")


def ad_separated_closed(dag: Dag, I: Collection[str], S: Collection[str],
                        C: Collection[str]) -> bool:
    """Closed-subset characterisation of AD-separation: true iff some
    closed K contains S, has all parents in C, keeps I among its
    non-parent non-descendants and has no descendant inside C.  Requires
    pairwise disjoint I, S, C and an exhaustive search; used as a mutual
    cross-check for :func:`ad_separated`."""
    If, Sf, Cf = frozenset(I), frozenset(S), frozenset(C)
    for X in (If, Sf, Cf):
        dag.check_subset(X)
    if If & Sf or If & Cf or Sf & Cf:
        raise InputError("I, S and C must be pairwise disjoint")
    if len(dag.nodes) > EXHAUSTIVE_NODE_LIMIT:
        raise CapabilityError(
            f"closed-subset search limited to {EXHAUSTIVE_NODE_LIMIT} nodes")

    pool = [s for s in dag.nodes if s not in Sf and s not in If]
    for r in range(len(pool) + 1):
        for extra in combinations(pool, r):
            K = Sf | frozenset(extra)
            if not is_closed(dag, K):
                continue
            rel = set_relations(dag, K)
            if (rel.parents <= Cf and If <= rel.non_parent_non_descendants
                    and not (rel.descendants & Cf)):
                return True
    return False
