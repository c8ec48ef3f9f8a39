"""Credal networks: a DAG, per-node state spaces, and one local credal set
per node and parent configuration.

The local models live in arrays, not in one object per configuration: a
network reads the vertex lists of all its entries into one float array
per state count, checks their rows there in one pass, and lays them out
node by node, so that each node's models are one view of that array,
with axes (parent configurations..., vertex, state) and the vertex count
of each configuration (:meth:`CredalNetwork.local_stack`).  A node with
a set given by constraints holds its :class:`CredalSet` objects instead.
The sets that :meth:`CredalNetwork.local` hands out are views of the
arrays, built on first use, and a sub-network slices them.

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

from .credal import CredalSet, interval_rows, vertex_defects
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
    the first spurious key or value, or set of other states, raises.  The
    rows of every vertex list are checked in one array per state count
    (:func:`credalnet.credal.vertex_defects`), the first defect in entry
    order raised.  The lists are then laid out node by node in one array
    per state count, whose slices are the node arrays
    (:meth:`local_stack`), with the vertex count of each configuration;
    :meth:`local` hands out views of them, built on first use (or the
    sets handed over as such).

    ``checked`` is what :func:`vertex_lists` gave for the same entries,
    with None in the place of each set, from a caller that has read them
    already and gives no set without constraints; the rows are then not
    read again."""

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
        shapes = [tuple(map(len, space)) for space in spaces]
        configs = list(map(math.prod, shapes))
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
        set_nodes = []      # with a set given by constraints, or by none
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
                if m._V is None or m.constraints is not None:
                    values[i] = None
                    set_nodes.append(dag.index(key[0]))
                else:
                    values[i] = m._V.ravel()
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
        # the recursions load 5% of its time and 4 MiB; those with a set
        # given by constraints, or by none, hold their sets
        self._stacks: dict[str, np.ndarray] = {}
        self._counts: dict[str, np.ndarray | None] = {}
        self._rows: dict[str, np.ndarray] = {}     # see local_rows
        self._arrays, self._origin = [], None     # (G, k) per state count
        # per node: its array in _arrays, and its record there
        self._place = np.zeros((len(configs), 4), dtype=np.intp)
        for at, V, counts in groups:
            starts = np.add.accumulate(counts) - counts
            on = slice(None) if not set_nodes else \
                ~np.isin(node[at], set_nodes)
            if len(counts[on]):
                G, k, ids, record = _gather(V, starts[on], counts[on],
                                            node[at][on], pos[at][on])
                self._place[ids, 0] = len(self._arrays)
                self._place[ids, 1:] = record
                self._arrays.append((G, k))
            if set_nodes:
                for j in np.flatnonzero(~on).tolist():
                    key = keys[at[j]]
                    self._views[key] = CredalSet._view(
                        self.state_spaces[key[0]],
                        V[starts[j]:starts[j] + counts[j]])
        for i in set(set_nodes):
            s = dag.nodes[i]
            stack = np.empty(configs[i], dtype=object)
            stack[:] = [self._views[(s, cfg)]
                        for cfg in self.parent_configs(s)]
            self._stacks[s] = stack.reshape(shapes[i])
            self._counts[s] = None

    @classmethod
    def _of_stacks(cls, dag: Dag, state_spaces: dict, stacks: dict,
                   counts: dict, origin: tuple) -> "CredalNetwork":
        """The network of the node arrays of an existing one, unchecked;
        ``origin`` = (network, index of each node's arrays in its)."""
        net = cls.__new__(cls)
        net.dag, net.state_spaces = dag, state_spaces
        net._stacks, net._counts, net._views, net._arrays = \
            stacks, counts, {}, []
        net._rows, net._origin = {}, origin
        return net

    def _node(self, s: str) -> tuple[np.ndarray, np.ndarray | None]:
        """The stack of ``s`` (see :meth:`local_stack`) and its vertex
        count per configuration (None for an object stack); a node's
        arrays are views of one of the network's, made on first use."""
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
        """The local set of ``s`` at a parent configuration: a view of the
        rows of :meth:`local_stack` there, built on first use and kept."""
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
            m = stack[at] if counts is None else CredalSet._view(
                self.state_spaces[s], stack[at][:counts[at]])
            self._views[key] = m
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
        followed by one axis per parent.  When every local set of ``s``
        has a vertex list this is one contraction with the stacked
        vertices; otherwise each set answers on its own, by its LP.  At a
        one-vertex set among larger ones, the padded rows may round the
        last bit unlike that set's own ``lower_expectation`` (a dot)."""
        g, stack = np.asarray(g, dtype=float), self.local_stack(s)
        if g.ndim == 0 or g.shape[-1] != self.size(s):
            raise InputError(f"a gamble on {s!r} needs a last axis of "
                             f"{self.size(s)} values, not shape {g.shape}")
        if stack.dtype != object:
            # the ufunc itself: ``ndarray.min`` adds a Python frame
            return np.minimum.reduce((stack @ g[..., None])[..., 0], -1)
        shape, values = _per_set(stack, g, CredalSet.lower_expectation)
        return np.array(values).reshape(shape)

    def local_stack(self, s: str) -> np.ndarray:
        """The local models of ``s``: when each is given by its vertices
        alone, their vertices in one read-only float array with axes
        (parents..., vertex, state), where a list with fewer vertices
        repeats its first one, which leaves every minimum unchanged;
        otherwise the local sets in an object array over the parent
        configurations."""
        return self._node(s)[0]

    def local_rows(self, s: str) -> tuple[np.ndarray, np.ndarray]:
        """The homogeneous rows of the local sets of ``s``
        (``CredalSet._H``), one set after another in
        :meth:`parent_configs` order, in one (row, state) float array, and
        the number of rows of each set."""
        R = self._node_rows(s)
        if R.dtype != object:
            return R.reshape(-1, R.shape[-1]), np.full(R[..., 0, 0].size,
                                                      R.shape[-2])
        return (np.concatenate(list(R.flat)),
                np.fromiter(map(len, R.flat), np.intp, R.size))

    def _node_rows(self, s: str) -> np.ndarray:
        """The rows of :meth:`local_rows` over the parent axes: for binary
        vertex lists, one float array with axes (parents..., row, state),
        from the node's array in one step
        (:func:`credalnet.credal.interval_rows`); else the rows of each
        set in an object array.  Built on first use and kept; a
        sub-network slices its network's."""
        R = self._rows.get(s)
        if R is None and self._origin is not None:
            net, at = self._origin
            R = net._node_rows(s)[at[s]]
        elif R is None:
            stack, counts = self._node(s)
            if counts is not None and stack.shape[-1] == 2:
                R = interval_rows(stack)
            else:
                R = np.empty(self.shape(self.dag.parents(s)), dtype=object)
                for i, cfg in enumerate(self.parent_configs(s)):
                    R.flat[i] = self.local(s, cfg)._H
        self._rows[s] = R
        return R

    def members(self, s: str) -> np.ndarray:
        """The kept member of each local set of ``s``
        (:attr:`CredalSet.member`, the first vertex of a vertex list), in
        :meth:`parent_configs` order: one (configuration, state) array."""
        stack, counts = self._node(s)
        if counts is not None:
            return stack[..., 0, :].reshape(-1, stack.shape[-1])
        return np.array([m.member for m in stack.flat])

    def local_forms(self, s: str) -> list:
        """Each local set of ``s`` in the form it was given, in
        :meth:`parent_configs` order: its vertex rows, a (vertex, state)
        float array, or, for a set given by constraints alone, the tuple
        of its constraints."""
        stack, counts = self._node(s)
        if counts is None:
            return [m._V if m._V is not None else m.constraints
                    for m in stack.flat]
        return [V[:k] for V, k in zip(
            stack.reshape(-1, *stack.shape[-2:]), counts.flat)]

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
    """The vertex lists ``lists[i]`` on ``sizes[i]`` states, flat (a
    tuple, checked up to the hull here, or the rows of a set, checked when
    it was built; None for none), read into one float array per state
    count and checked there (:func:`credalnet.credal.vertex_defects`):
    per state count ``(at, V, counts)``, the places of its lists, their
    rows and vertex counts; and the first defect of each list, as ``(i,
    error)`` in list order.  A list that is not numbers, as many a vertex
    as there are states, raises, naming its key."""
    groups, defects = [], []
    for n in sorted(set(sizes)):
        at = [i for i, (size, t) in enumerate(zip(sizes, lists))
              if size == n and t is not None]
        if not at:
            continue
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
        hull = [type(lists[i]) is tuple for i in at]
        defects += [(at[j], error)
                    for j, error in vertex_defects(V, counts, hull)]
        groups.append((at, V, counts))
    return groups, sorted(defects, key=lambda d: d[0])


def lower_argmin(stack: np.ndarray, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The local lower expectations of the gamble ``g`` under a
    :meth:`CredalNetwork.local_stack`, shaped as by
    :meth:`CredalNetwork.local_lower` (whose checks of ``g`` it leaves
    out), and a mass function attaining each of them, with a last axis
    over the states: the minimising row of the stacked vertices, from
    the one contraction that gives the values, or, for a set with
    constraints only, its local LP's solution
    (:meth:`CredalSet.lower_argmin`)."""
    if stack.dtype != object:
        values = (stack @ g[..., None])[..., 0]
        # a one-hot row per minimum picks its vertex exactly
        pick = _one_hot(values.shape[-1])[values.argmin(-1), None]
        return np.minimum.reduce(values, -1), (pick @ stack)[..., 0, :]
    shape, pairs = _per_set(stack, g, CredalSet.lower_argmin)
    values, masses = zip(*pairs)
    return (np.array(values).reshape(shape),
            np.array(masses).reshape(*shape, -1))


@cache
def _one_hot(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def _per_set(stack: np.ndarray, g: np.ndarray, query) -> tuple:
    """The broadcast shape of the gamble's leading axes and an object
    stack, and ``query(set, row)`` for the local set and gamble row at
    each of its indices, in a flat list."""
    shape = np.broadcast_shapes(g.shape[:-1], stack.shape)
    rows = np.broadcast_to(g, shape + g.shape[-1:]).reshape(-1, g.shape[-1])
    return shape, [query(m, row) for m, row in zip(
        np.broadcast_to(stack, shape).flat, rows)]


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
    list left.  K is not required to be closed.  An unknown parent
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
    stacks, counts, ats = {}, {}, {}
    for s in Kt:
        # the axes of the K-internal parents, the others at their states
        at = ats[s] = tuple(slice(None) if p in Kset else
                            net.state_index(p, parent_assignment[p])
                            for p in net.dag.parents(s)) + (...,)
        stack, count = net._node(s)
        stack = stack[at]
        if count is not None:
            count = count[at]
            stack = stack[..., :count.max(), :]
        stacks[s], counts[s] = stack, count
    return CredalNetwork._of_stacks(
        sub_dag, {s: net.state_spaces[s] for s in Kt}, stacks, counts,
        (net, ats))
