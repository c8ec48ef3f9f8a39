"""Credal networks: a DAG, per-node state spaces, and one local credal set
per node and parent configuration.

Assignments of states to nodes are plain ``dict[str, str]`` mappings.
Factors and events carry an explicit scope, kept in node-declaration
order.  A factor's values are one array with an axis per scope node;
:meth:`CredalNetwork.aligned` broadcasts it to any wider scope, so
multiplying by an indicator, adding co-factors and plugging in values
(:func:`restrict_factor`) are array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .credal import CredalSet
from .errors import CapabilityError, InputError
from .graph import Dag, set_relations

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
    """A subset of the joint states of its scope.

    ``cylinder`` marks events of the form "these nodes take exactly these
    values", the common conditioning case.
    """

    scope: tuple[str, ...]
    states: frozenset
    cylinder: bool = False

    def __post_init__(self):
        for t in self.states:
            if len(t) != len(self.scope):
                raise InputError("event tuple width does not match scope")

    @property
    def empty(self) -> bool:
        return len(self.states) == 0 and len(self.scope) > 0

    def assignment(self) -> dict:
        """The single assignment of a cylinder event."""
        if not self.cylinder or len(self.states) != 1:
            raise InputError("not a cylinder event")
        (t,) = self.states
        return dict(zip(self.scope, t))


class CredalNetwork:
    """Immutable credal network; all queries are pure."""

    def __init__(self, dag: Dag, state_spaces: Mapping[str, Sequence[str]],
                 locals_: Mapping[tuple, CredalSet]):
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

        self.locals: dict[tuple, CredalSet] = dict(locals_)
        for s in dag.nodes:
            for cfg in self.parent_configs(s):
                key = (s, cfg)
                if key not in self.locals:
                    raise InputError(f"missing local model for {key}")
                if self.locals[key].states != self.state_spaces[s]:
                    raise InputError(f"local model state mismatch at {key}")
        expected = sum(
            int(np.prod([len(self.state_spaces[p]) for p in dag.parents(s)]))
            if dag.parents(s) else 1 for s in dag.nodes)
        if len(self.locals) != expected:
            raise InputError("spurious local-model entries")

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
        key = (s, tuple(parent_config))
        if key not in self.locals:
            raise InputError(f"no local model for {key}")
        return self.locals[key]

    def joint_count(self, S: Iterable[str] | None = None) -> int:
        nodes = self.dag.nodes if S is None else self.dag.sorted_nodes(S)
        count = 1
        for s in nodes:
            count *= len(self.state_spaces[s])
        return count

    def joint_tuples(self, S: Iterable[str] | None = None) -> list[tuple]:
        """Joint states of S as tuples, lexicographic in declaration order."""
        nodes = self.dag.nodes if S is None else self.dag.sorted_nodes(S)
        if self.joint_count(nodes) > MAX_JOINT_STATES:
            raise CapabilityError("joint state space exceeds the 2^24 bound")
        return list(product(*(self.state_spaces[s] for s in nodes)))

    # -- events and factors ---------------------------------------------------

    def cylinder(self, assignment: Mapping[str, str]) -> Event:
        """The event "X_T equals this assignment"."""
        scope = self.dag.sorted_nodes(assignment.keys())
        for s in scope:
            if assignment[s] not in self.state_spaces[s]:
                raise InputError(f"unknown state {assignment[s]!r} of node {s!r}")
        return Event(scope, frozenset({tuple(assignment[s] for s in scope)}),
                     cylinder=True)

    def event(self, scope: Iterable[str], states: Iterable[tuple]) -> Event:
        scope = self.dag.sorted_nodes(scope)
        states = frozenset(tuple(t) for t in states)
        for t in states:
            for s, x in zip(scope, t):
                if x not in self.state_spaces[s]:
                    raise InputError(f"unknown state {x!r} of node {s!r}")
        return Event(scope, states)

    def event_product(self, *events: Event) -> Event:
        """Intersection of events with pairwise disjoint scopes."""
        scope: list[str] = []
        for e in events:
            if set(e.scope) & set(scope):
                raise InputError("event scopes overlap")
            scope.extend(e.scope)
        scope_t = self.dag.sorted_nodes(scope)
        combos = []
        for parts in product(*(e.states for e in events)):
            joint = {}
            for e, t in zip(events, parts):
                joint.update(zip(e.scope, t))
            combos.append(tuple(joint[s] for s in scope_t))
        return Event(scope_t, frozenset(combos),
                     cylinder=all(e.cylinder for e in events) and len(combos) <= 1)

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


def restrict_factor(net: CredalNetwork, f: Factor,
                    assignment: Mapping[str, str]) -> Factor:
    """Plug fixed values into a factor: the scope shrinks by the assigned
    nodes, and the values are a view of ``f.values`` at the assigned
    states.  Nodes in the assignment that are outside the scope are
    ignored; a state outside its node's space raises
    :class:`InputError`."""
    if not any(s in assignment for s in f.scope):
        return f
    index = tuple(net.state_index(s, assignment[s]) if s in assignment
                  else slice(None) for s in f.scope)
    # the trailing Ellipsis keeps a full plug-in a 0-d view, not a scalar
    return Factor(tuple(s for s in f.scope if s not in assignment),
                  f.values[index + (Ellipsis,)])


def joint_states(net: CredalNetwork, S: Iterable[str]) -> list[dict]:
    """Ordered enumeration of the joint assignments of S."""
    nodes = net.dag.sorted_nodes(S)
    return [dict(zip(nodes, t)) for t in net.joint_tuples(nodes)]


def sub_network(net: CredalNetwork, K: Iterable[str],
                parent_assignment: Mapping[str, str]) -> CredalNetwork:
    """The credal network induced on K once the states of K's external
    parents are fixed.

    The sub-DAG keeps the edges inside K; each local set is re-indexed by
    the K-internal parents, with the out-of-K parent values instantiated
    from ``parent_assignment``.  K is not required to be closed here;
    closedness is a hypothesis of the reduction theorems, not of the
    construction.
    """
    Kt = net.dag.sorted_nodes(K)
    Kset = set(Kt)
    rel = set_relations(net.dag, Kset)
    missing = rel.parents - set(parent_assignment)
    if missing:
        raise InputError(f"parent assignment misses {sorted(missing)}")
    for p in rel.parents:
        if parent_assignment[p] not in net.states(p):
            raise InputError(f"unknown state for parent {p!r}")

    sub_dag = Dag(Kt, [(a, b) for (a, b) in net.dag.edges
                       if a in Kset and b in Kset])
    spaces = {s: net.states(s) for s in Kt}
    locals_: dict[tuple, CredalSet] = {}
    for s in Kt:
        outer_parents = net.dag.parents(s)
        inner_parents = sub_dag.parents(s)
        for cfg in product(*(spaces[p] for p in inner_parents)):
            inner = dict(zip(inner_parents, cfg))
            full_cfg = tuple(
                inner[p] if p in inner else parent_assignment[p]
                for p in outer_parents)
            locals_[(s, cfg)] = net.local(s, full_cfg)
    return CredalNetwork(sub_dag, spaces, locals_)
