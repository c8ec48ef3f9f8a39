"""Credal networks: a DAG, per-node state spaces, and one local credal set
per node and parent configuration.

The local models live in arrays, not in one object per configuration: a
network reads the vertex lists of all its entries into one float array
per state count, checks the rows it was given there in one pass, and
lays them out node by node, so that each node's models are one view of
that array, with axes (parent configurations..., vertex, state) and the
vertex count of each configuration (:meth:`CredalNetwork.local_stack`).
A set given by constraints alone is laid out as the vertices enumerated
from them on construction, so every local step is one contraction with a
node's array.  :meth:`CredalNetwork.local` hands out the sets handed
over, or views of the arrays built on first use; a sub-network slices
the arrays.

Assignments of states to nodes are plain ``dict[str, str]`` mappings.
Factors and events carry an explicit scope, kept in node-declaration
order.  A factor's values are one array with an axis per scope node;
:meth:`CredalNetwork.aligned` broadcasts it to any wider scope, so
multiplying by an indicator and adding co-factors are array operations.
The local lower expectations of a gamble on a node, one per parent
configuration, come from :meth:`CredalNetwork.local_lower` in one call.

Each input is checked once, in one place: node names by the
:class:`Dag` (:meth:`Dag.sorted_nodes` for a scope), states where a
scope's states are read, the keys of the local models by the
constructor's one key map, and their vertex rows by :func:`vertex_lists`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, count, product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .credal import CredalSet, _cut_vertices, interval_rows, vertex_defects
from .errors import CapabilityError, InputError
from .graph import Dag

#: Joint-state enumeration refuses to run above this many states.
MAX_JOINT_STATES = 2 ** 24


@dataclass(frozen=True, eq=False)
class Factor:
    """A real-valued function on the joint states of a node subset.

    ``values`` is a read-only float array with one axis per scope node,
    in scope order, and each axis in its node's state order; a constant
    has an empty scope and a 0-d array.  The array is not compared by
    value, so factors have identity equality."""

    scope: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise InputError("factor scope contains duplicates")
        # a view, so that the read-only flag leaves the caller's array be
        values = np.asarray(self.values, dtype=float).view()
        if values.ndim != len(self.scope):
            raise InputError(f"factor values have {values.ndim} axes for a "
                             f"scope of {len(self.scope)} nodes")
        if not np.isfinite(values).all():
            raise InputError("factor values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __neg__(self) -> "Factor":
        return Factor(self.scope, -self.values)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    @classmethod
    def constant(cls, c: float) -> "Factor":
        return cls((), np.array(float(c)))


@dataclass(frozen=True)
class Event:
    """A subset of the joint states of its scope."""

    scope: tuple[str, ...]
    states: frozenset

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise InputError("event scope contains duplicates")
        for t in self.states:
            if len(t) != len(self.scope):
                raise InputError("event tuple width does not match scope")

    @property
    def empty(self) -> bool:
        return not self.states

    @property
    def cylinder(self) -> bool:
        """Whether the event is "these nodes take exactly these values",
        the common conditioning case: one joint state, however the event
        was written."""
        return len(self.states) == 1

    def assignment(self) -> dict:
        """The single assignment of a cylinder event."""
        if not self.cylinder:
            raise InputError("not a cylinder event")
        (t,) = self.states
        return dict(zip(self.scope, t))


class CredalNetwork:
    """Immutable credal network; all queries are pure.

    ``locals_`` maps each pair (node, parent configuration) to its local
    set: a :class:`CredalSet`, or the numbers of its vertex list, one row
    per vertex in state order, as one flat tuple of floats (what
    :func:`credalnet.fileio._parse_local` gives a vertex entry).  Each
    key is mapped once to its configuration's place; only the entries
    with no place, or with a set, are visited again, in entry order, and
    the first spurious key or value, or set of other states, raises.
    :func:`vertex_lists` reads every entry's vertex rows (enumerated for
    a set given by constraints alone) into one array per state count and
    checks those of the tuples, the first defect in entry order raised.
    The lists are then laid out node by node in one array per state
    count, whose slices are the node arrays (:meth:`local_stack`), with
    the vertex count of each configuration; :meth:`local` hands out the
    sets handed over, or views of the arrays built on first use.

    ``checked`` is what :func:`vertex_lists` gave for the same entries,
    from a caller that has read them already; the rows are then not read
    again."""

    def __init__(self, dag: Dag, state_spaces: Mapping[str, Sequence[str]],
                 locals_: Mapping[tuple, CredalSet | tuple], *,
                 checked: tuple | None = None):
        self.dag = dag
        self.state_spaces: dict[str, tuple[str, ...]] = {}
        for s in dag.nodes:
            if s not in state_spaces:
                raise InputError(f"node {s!r} has no state space")
            space = tuple(state_spaces[s])
            if not space or len(set(space)) != len(space):
                raise InputError(f"bad state space for node {s!r}")
            self.state_spaces[s] = space
        extra = set(state_spaces) - set(dag.nodes)
        if extra:
            raise InputError(f"state spaces for undeclared nodes {sorted(extra)}")

        # as many keys as configurations, each one of them: none is
        # missing, and the configurations are enumerated only then
        parents = list(map(dag.parents, dag.nodes))
        spaces = [tuple(map(self.state_spaces.get, pas)) for pas in parents]
        configs = [math.prod(map(len, space)) for space in spaces]
        if len(locals_) != sum(configs):
            raise InputError(f"the network needs {sum(configs)} local "
                             f"models, not {len(locals_)}")
        # the place of each configuration of a node's parents in
        # lexicographic order, once per tuple of parent state spaces
        places = {space: dict(zip(product(*space), count()))
                  for space in set(spaces)}
        places = dict(zip(dag.nodes, map(places.get, spaces)))
        keys, values = list(locals_), list(locals_.values())
        try:
            pos = [places[s].get(cfg) for s, cfg in keys]
        except (KeyError, TypeError, ValueError):
            # some key is no (node, configuration) pair: it raises below
            pos = [places.get(k[0], {}).get(k[1]) if type(k) is tuple and
                   len(k) == 2 else None for k in keys]
        self._views: dict[tuple, CredalSet] = {}   # see local
        if None in pos or not set(map(type, values)) <= {tuple}:
            # the entries with no place, or with a set, in entry order:
            # the first spurious one, or set of other states, is raised
            for i in [i for i, (p, m) in enumerate(zip(pos, values))
                      if p is None or type(m) is not tuple]:
                key, m = keys[i], values[i]
                if pos[i] is None or not isinstance(m, CredalSet):
                    raise InputError(f"spurious local-model entry {key}")
                if m.states != self.state_spaces[key[0]]:
                    raise InputError(f"local model state mismatch at {key}")
                self._views[key] = m
        # the nodes with a set given by constraints (see _node_rows)
        self._given = {s for (s, _), m in self._views.items()
                       if m.constraints is not None}
        ids = dict(zip(dag.nodes, count()))
        node = np.fromiter(map(ids.__getitem__, map(itemgetter(0), keys)),
                           np.intp, len(keys))
        pos = np.array(pos, dtype=np.intp)
        sizes = {s: len(space) for s, space in self.state_spaces.items()}
        groups, defects = checked or vertex_lists(
            values, list(map(sizes.__getitem__, map(itemgetter(0), keys))),
            keys)
        if defects:
            raise defects[0][1]

        # each node's arrays, made on first use (see _node) from one
        # array per state count, as two views per node made up front cost
        # the recursions load 5% of its time and 4 MiB
        self._stacks: dict[str, np.ndarray] = {}
        self._counts: dict[str, np.ndarray] = {}
        self._rows: dict[str, tuple] = {}      # see _node_rows
        self._arrays, self._origin = [], None     # (G, k) per state count
        # per node: its array in _arrays, and its record there
        self._place = np.zeros((len(configs), 4), dtype=np.intp)
        for at, V, counts in groups:
            G, k, ids, record = _gather(V, np.add.accumulate(counts) - counts,
                                        counts, node[at], pos[at])
            self._place[ids, 0] = len(self._arrays)
            self._place[ids, 1:] = record
            self._arrays.append((G, k))

    @classmethod
    def _of_stacks(cls, dag: Dag, state_spaces: dict, stacks: dict,
                   counts: dict, views: dict, origin: tuple
                   ) -> "CredalNetwork":
        """The network of the node arrays of an existing one and its sets
        given by constraints (``views``), unchecked; ``origin`` =
        (network, index of each node's arrays in its)."""
        net = cls.__new__(cls)
        net.dag, net.state_spaces = dag, state_spaces
        net._stacks, net._counts, net._views, net._arrays = \
            stacks, counts, views, []
        net._rows, net._origin, net._given = {}, origin, {s for s, _ in views}
        return net

    def _node(self, s: str) -> tuple[np.ndarray, np.ndarray]:
        """The stack of ``s`` (see :meth:`local_stack`) and its vertex
        count per configuration; a node's arrays are views of one of the
        network's, made on first use."""
        stack = self._stacks.get(s)
        if stack is None:
            g, c, w, a = self._place[self.dag.index(s)].tolist()
            G, k = self._arrays[g]
            shape = self.shape(self.dag.parents(s))
            C = math.prod(shape)
            stack = self._stacks[s] = \
                G[a:a + C * w].reshape(shape + (w, G.shape[1]))
            self._counts[s] = k[c:c + C].reshape(shape)
        return stack, self._counts[s]

    # -- lookup -------------------------------------------------------------

    def states(self, s: str) -> tuple[str, ...]:
        if s not in self.state_spaces:
            raise InputError(f"unknown node {s!r}")
        return self.state_spaces[s]

    def size(self, s: str) -> int:
        return len(self.states(s))

    def parent_configs(self, s: str) -> Iterator[tuple]:
        """All joint states of the parents of s, in lexicographic order."""
        pas = self.dag.parents(s)
        return product(*(self.state_spaces[p] for p in pas))

    def parent_config(self, s: str, assignment: Mapping[str, str]) -> tuple:
        """Extract the parent configuration of s from a wider assignment."""
        try:
            return tuple(assignment[p] for p in self.dag.parents(s))
        except KeyError as e:
            raise InputError(f"assignment misses parent {e} of {s!r}") from None

    def local(self, s: str, parent_config: tuple = ()) -> CredalSet:
        """The local set of ``s`` at a parent configuration: the set
        handed over, if any, or else a view of the rows of
        :meth:`local_stack` there, built on first use and kept."""
        key = (s, tuple(parent_config))
        m = self._views.get(key)
        if m is None:
            try:
                pas = self.dag.parents(s)
                if len(key[1]) != len(pas):
                    raise InputError
                at = tuple(map(self.state_index, pas, key[1]))
            except InputError:
                raise InputError(f"no local model for {key}") from None
            stack, counts = self._node(s)
            m = self._views[key] = CredalSet._view(
                self.state_spaces[s], stack[at][:counts[at]])
        return m

    @cached_property
    def locals(self) -> dict[tuple, CredalSet]:
        """Every local set, by (node, parent configuration), as by
        :meth:`local`."""
        return {(s, cfg): self.local(s, cfg) for s in self.dag.nodes
                for cfg in self.parent_configs(s)}

    def local_lower(self, s: str, g) -> np.ndarray:
        """The lower expectation of the gamble ``g`` on ``s`` under the
        local set of every parent configuration of ``s``.

        ``g`` has one axis per parent of ``s``, in ``dag.parents(s)``
        order, then one per state of ``s``; a parent axis may have length
        1, and leading ones may be missing, where ``g`` does not depend on
        that parent.  Axes before the parent axes are kept in the result,
        followed by one axis per parent.  This is one contraction with
        the stacked vertices, for a set given by constraints too.  At a
        one-vertex set among larger ones, the padded rows may round the
        last bit unlike that set's own ``lower_expectation`` (a dot)."""
        g, stack = np.asarray(g, dtype=float), self.local_stack(s)
        if g.ndim == 0 or g.shape[-1] != self.size(s):
            raise InputError(f"a gamble on {s!r} needs a last axis of "
                             f"{self.size(s)} values, not shape {g.shape}")
        # the ufunc itself: ``ndarray.min`` adds a Python frame
        return np.minimum.reduce((stack @ g[..., None])[..., 0], -1)

    def local_stack(self, s: str) -> np.ndarray:
        """The vertices of the local sets of ``s`` (for a set given by
        constraints alone, those enumerated on construction, its member
        first) in one read-only float array with axes (parents...,
        vertex, state), where a list with fewer vertices repeats its first
        one, which leaves every minimum unchanged."""
        return self._node(s)[0]

    def local_rows(self, s: str) -> tuple[np.ndarray, np.ndarray]:
        """The homogeneous rows of the local sets of ``s``
        (``CredalSet._H``), in :meth:`parent_configs` order, each padded
        with zero rows to as many as the longest, in one (row, state) float
        array, and the number of rows of each set."""
        R, h = self._node_rows(s)
        return R.reshape(-1, R.shape[-1]), h.ravel()

    def _node_rows(self, s: str) -> tuple[np.ndarray, np.ndarray]:
        """The rows of :meth:`local_rows` over the parent axes, in one
        (parents..., row, state) float array, and their numbers: for binary
        vertex lists, from the node's array in one step
        (:func:`credalnet.credal.interval_rows`); else each set's own.
        Built on first use and kept; a sub-network slices its network's."""
        R = self._rows.get(s)
        if R is None and self._origin is not None:
            net, at = self._origin
            R = tuple(a[at[s]] for a in net._node_rows(s))
        elif R is None:
            shape, n = self.shape(self.dag.parents(s)), self.size(s)
            if s not in self._given and n == 2:
                R = interval_rows(self.local_stack(s)), np.full(shape, 2)
            else:
                H = [self.local(s, cfg)._H for cfg in self.parent_configs(s)]
                h = np.fromiter(map(len, H), np.intp, len(H))
                rows = np.zeros((len(H), h.max(), n))
                rows[np.arange(h.max()) < h[:, None]] = np.concatenate(H)
                R = rows.reshape(shape + rows.shape[1:]), h.reshape(shape)
        self._rows[s] = R
        return R

    def members(self, s: str) -> np.ndarray:
        """The kept member of each local set of ``s``
        (:attr:`CredalSet.member`, its first row in :meth:`local_stack`),
        in :meth:`parent_configs` order: one (configuration, state) array."""
        stack = self.local_stack(s)
        return stack[..., 0, :].reshape(-1, stack.shape[-1])

    def local_forms(self, s: str) -> list:
        """Each local set of ``s`` in the form it was given, in
        :meth:`parent_configs` order: its vertex rows, a (vertex, state)
        float array, or, for a set given by constraints alone, the tuple
        of its constraints."""
        stack, counts = self._node(s)
        given = map(self._views.get, product([s], self.parent_configs(s)))
        return [m.constraints if m is not None and m._V is None else V[:k]
                for m, V, k in zip(given, stack.reshape(-1, *stack.shape[-2:]),
                                   counts.flat)]

    def joint_count(self, S: Iterable[str] | None = None) -> int:
        nodes = self.dag.nodes if S is None else self.dag.sorted_nodes(S)
        return math.prod(len(self.state_spaces[s]) for s in nodes)

    def joint_tuples(self, S: Iterable[str] | None = None) -> list[tuple]:
        """Joint states of S as tuples, lexicographic in declaration order."""
        nodes = self.dag.nodes if S is None else self.dag.sorted_nodes(S)
        if self.joint_count(nodes) > MAX_JOINT_STATES:
            raise CapabilityError("joint state space exceeds the 2^24 bound")
        return list(product(*(self.state_spaces[s] for s in nodes)))

    # -- events and factors ---------------------------------------------------

    def cylinder(self, assignment: Mapping[str, str]) -> Event:
        """The event "X_T equals this assignment"."""
        scope = self.dag.sorted_nodes(assignment)
        return self.event(scope, [tuple(assignment[s] for s in scope)])

    def event(self, scope: Iterable[str], states: Iterable[tuple]) -> Event:
        scope = self.dag.sorted_nodes(scope)
        states = frozenset(tuple(t) for t in states)
        for t in states:
            for s, x in zip(scope, t):
                if x not in self.state_spaces[s]:
                    raise InputError(f"unknown state {x!r} of node {s!r}")
        return Event(scope, states)

    def factor(self, scope: Iterable[str], table: Mapping[tuple, float]) -> Factor:
        """Factor from a table keyed by joint-state tuples of the scope,
        in declaration order; every joint state needs an entry, and no
        other key is allowed."""
        scope = self.dag.sorted_nodes(scope)
        full = self.joint_tuples(scope)
        missing = [t for t in full if t not in table]
        if missing:
            raise InputError(f"factor table misses {len(missing)} entries")
        if len(table) != len(full):
            raise InputError(f"factor table has {len(table) - len(full)} "
                             "entries outside the joint states of its scope")
        return Factor(scope, np.array([float(table[t]) for t in full])
                      .reshape(self.shape(scope)))

    def factor_from_values(self, scope: Iterable[str], values) -> Factor:
        """Factor from values listed in lexicographic joint-state order."""
        scope = self.dag.sorted_nodes(scope)
        values = np.asarray(values, dtype=float)
        if values.size != self.joint_count(scope):
            raise InputError("wrong number of factor values")
        return Factor(scope, values.reshape(self.shape(scope)))

    def indicator(self, event: Event) -> Factor:
        values = np.zeros(self.shape(event.scope))
        for t in event.states:
            values[tuple(map(self.state_index, event.scope, t))] = 1.0
        return Factor(event.scope, values)

    def shape(self, scope: Iterable[str]) -> tuple[int, ...]:
        """The state counts of the nodes of ``scope``, in its order."""
        return tuple(self.size(s) for s in scope)

    def state_index(self, s: str, x: str) -> int:
        """Position of state ``x`` in the state space of node ``s``."""
        try:
            return self.states(s).index(x)
        except ValueError:
            raise InputError(f"unknown state {x!r} of node {s!r}") from None

    def aligned(self, f: Factor, scope: Sequence[str]) -> np.ndarray:
        """The values of ``f`` at every joint state of ``scope``, a
        superset of ``f.scope``: one axis per node of ``scope``, a
        read-only broadcast of ``f.values``.

        ``f.scope`` must appear in ``scope`` in the same relative order,
        and ``f.values`` must have the state counts of its scope;
        otherwise the reshape would silently transpose or misread
        axes."""
        rest = iter(scope)
        if not all(s in rest for s in f.scope):
            raise InputError(f"factor scope {f.scope} is not a subset of "
                             f"{tuple(scope)} in declaration order")
        if f.values.shape != self.shape(f.scope):
            raise InputError(f"factor values of shape {f.values.shape} do "
                             f"not match the state counts of {f.scope}")
        shape = self.shape(scope)
        values = f.values.reshape(
            [n if s in f.scope else 1 for s, n in zip(scope, shape)])
        return values if values.shape == shape else \
            np.broadcast_to(values, shape)


def _gather(V: np.ndarray, start: np.ndarray, counts: np.ndarray,
            node: np.ndarray, pos: np.ndarray) -> tuple:
    """The vertex lists among the rows of ``V`` (list ``j`` being the
    ``counts[j]`` rows from ``start[j]``, of node ``node[j]`` at its
    configuration ``pos[j]``; every list of such a node is given) in one
    read-only array, node by node in configuration order, each padded to
    its node's longest by repeating its first row; their vertex counts,
    in the same order; the ids of the nodes, ascending; and one record
    per node, in that order: the place of its first list, the length of
    its padded lists and its first row in the array."""
    order = np.lexsort((pos, node))
    start, counts, node = start[order], counts[order], node[order]
    # the first list of each node, and how many it has
    first = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    C = np.concatenate((first[1:], [len(node)])) - first
    K = np.maximum.reduceat(counts, first)
    # the K slots of each configuration: its rows, then its first again
    rep = np.repeat(K, C)
    ends = np.add.accumulate(rep)
    if ends[-1] == len(V) and (rep == counts).all() and \
            (order == np.arange(len(order))).all():
        G = V       # every row of V, in order, and none padded
    else:
        j = np.arange(ends[-1]) - np.repeat(ends - rep, rep)
        G = V[np.repeat(start, rep) +
              np.where(j < np.repeat(counts, rep), j, 0)]
    G.flags.writeable = counts.flags.writeable = False
    return G, counts, node[first], np.stack((first, K, ends[first] - K), 1)


def vertex_lists(lists: list, sizes: list, keys: list
                 ) -> tuple[list, list]:
    """The vertex lists of the local models ``lists[i]`` on ``sizes[i]``
    states in one float array per state count: per state count ``(at, V,
    counts)``, the places of its lists, their rows and vertex counts; and
    the first defect of each flat tuple of numbers, as ``(i, error)`` in
    list order, as checked here (:func:`credalnet.credal.vertex_defects`).
    A :class:`CredalSet` gives its vertices, or, given by constraints
    alone, its member and then the vertices enumerated from them
    (:func:`credalnet.credal._cut_vertices`), which are not checked: an
    interval narrower than the checks' tolerance would read as duplicate
    vertices.  A tuple that is not numbers, as many a vertex as there are
    states, raises, naming its key."""
    lists = [m if type(m) is tuple else (m._V if m._V is not None else
             np.vstack([m.member, _cut_vertices(m)])).ravel() for m in lists]
    groups, defects = [], []
    for n in sorted(set(sizes)):
        at = [i for i, size in enumerate(sizes) if size == n]
        numbers = [lists[i] for i in at]
        lengths = np.fromiter(map(len, numbers), np.intp, len(at))
        if (lengths % n).any():
            raise InputError(f"each vertex must give one number per state "
                             f"at {keys[at[(lengths % n).argmax()]]}")
        try:
            V = np.fromiter(chain.from_iterable(numbers), float,
                            lengths.sum()).reshape(-1, n)
        except (TypeError, ValueError):
            for i in at:
                try:
                    np.fromiter(lists[i], float)
                except (TypeError, ValueError):
                    raise InputError(f"spurious local-model entry "
                                     f"{keys[i]}") from None
            raise
        counts = lengths // n
        groups.append((at, V, counts))
        # the rows of the tuples alone are checked
        mine = [j for j, i in enumerate(at) if type(lists[i]) is tuple]
        if len(mine) < len(at):
            V, counts = V[np.repeat(np.isin(range(len(at)), mine), counts)], \
                counts[mine]
        defects += [(at[mine[j]], error)
                    for j, error in vertex_defects(V, counts)]
    return groups, sorted(defects, key=lambda d: d[0])


def lower_argmin(stack: np.ndarray, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The local lower expectations of the gamble ``g`` under a
    :meth:`CredalNetwork.local_stack`, shaped as by
    :meth:`CredalNetwork.local_lower` (whose checks of ``g`` it leaves
    out), and a mass function attaining each of them, with a last axis
    over the states: the minimising row of the stacked vertices, from
    the one contraction that gives the values."""
    values = (stack @ g[..., None])[..., 0]
    # a one-hot row per minimum picks its vertex exactly
    pick = _one_hot(values.shape[-1])[values.argmin(-1), None]
    return np.minimum.reduce(values, -1), (pick @ stack)[..., 0, :]


@cache
def _one_hot(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def joint_states(net: CredalNetwork, S: Iterable[str]) -> list[dict]:
    """Ordered enumeration of the joint assignments of S."""
    nodes = net.dag.sorted_nodes(S)
    return [dict(zip(nodes, t)) for t in net.joint_tuples(nodes)]


def sub_network(net: CredalNetwork, K: Iterable[str],
                parent_assignment: Mapping[str, str]) -> CredalNetwork:
    """The credal network induced on K once the states of K's external
    parents are fixed.

    The sub-DAG keeps the edges inside K; each node array is sliced to
    the K-internal parent axes, with the out-of-K parent values
    instantiated from ``parent_assignment``, and to the longest vertex
    list left; the sets given by constraints at the configurations left
    are kept.  K is not required to be closed.  An unknown parent
    state raises from the slicing, for the first such parent of the
    first node of K in declaration order.
    """
    Kt = net.dag.sorted_nodes(K)
    Kset = set(Kt)
    edges = [(p, s) for s in Kt for p in net.dag.parents(s)]
    outside = {p for p, _ in edges if p not in Kset}
    missing = outside - set(parent_assignment)
    if missing:
        raise InputError(f"parent assignment misses {sorted(missing)}")

    sub_dag = Dag(Kt, [(p, s) for p, s in edges if p in Kset])
    stacks, counts, views, ats = {}, {}, {}, {}
    for s in Kt:
        # the axes of the K-internal parents, the others at their states
        at = ats[s] = tuple(slice(None) if p in Kset else
                            net.state_index(p, parent_assignment[p])
                            for p in net.dag.parents(s)) + (...,)
        stack, count = net._node(s)
        count = counts[s] = count[at]
        stacks[s] = stack[at][..., :count.max(), :]
        inner = sub_dag.parents(s)
        for cfg in product(*map(net.states, inner)) if s in net._given else ():
            m = net.local(s, net.parent_config(s, {**parent_assignment,
                                                   **dict(zip(inner, cfg))}))
            if m.constraints is not None:
                views[(s, cfg)] = m
    return CredalNetwork._of_stacks(
        sub_dag, {s: net.state_spaces[s] for s in Kt}, stacks, counts,
        views, (net, ats))
