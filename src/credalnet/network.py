"""Credal networks: a DAG, per-node state spaces, and one local credal set
per node and parent configuration.

Assignments of states to nodes are plain ``dict[str, str]`` mappings.
Factors and events carry an explicit scope, kept in node-declaration
order.  A factor's values are one array with an axis per scope node;
:meth:`CredalNetwork.aligned` broadcasts it to any wider scope, so
multiplying by an indicator and adding co-factors are array operations.
The local lower expectations of a gamble on a node, one per parent
configuration, come from :meth:`CredalNetwork.local_lower` in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
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
        for t in self.states:
            if len(t) != len(self.scope):
                raise InputError("event tuple width does not match scope")

    @property
    def empty(self) -> bool:
        return len(self.states) == 0 and len(self.scope) > 0

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

        # as many keys as configurations, each one of them: none is
        # missing, and none is enumerated
        self.locals: dict[tuple, CredalSet] = dict(locals_)
        parents = {s: dag.parents(s) for s in dag.nodes}
        expected = sum(math.prod(len(self.state_spaces[p]) for p in pas)
                       for pas in parents.values())
        if len(self.locals) != expected:
            raise InputError(f"the network needs {expected} local models, "
                             f"not {len(self.locals)}")
        for key, m in self.locals.items():
            pair = type(key) is tuple and len(key) == 2
            s, cfg = key if pair else (None, None)
            pas = parents.get(s)
            if pas is None or type(cfg) is not tuple or len(cfg) != len(pas) \
                    or not all(x in self.state_spaces[p]
                               for p, x in zip(pas, cfg)) \
                    or not isinstance(m, CredalSet):
                raise InputError(f"spurious local-model entry {key}")
            if m.states != self.state_spaces[s]:
                raise InputError(f"local model state mismatch at {key}")
        self._stacks: dict[str, np.ndarray] = {}   # see local_stack

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
        """The local sets of ``s`` in an object array over its parent
        configurations; or, when all have a vertex list, their vertices
        in a float array with axes (parents..., vertex, state), where a
        set with fewer vertices repeats its first one, which leaves every
        minimum unchanged.  Built on first use and kept."""
        if s not in self._stacks:
            sets = [self.local(s, cfg) for cfg in self.parent_configs(s)]
            shape = self.shape(self.dag.parents(s))
            if all(m._V is not None for m in sets):
                k = max(len(m._V) for m in sets)
                stack = np.array([m._V if len(m._V) == k else
                                  np.vstack([m._V, m._V[[0] * (k - len(m._V))]])
                                  for m in sets])
                shape += stack.shape[1:]
            else:
                stack = np.empty(len(sets), dtype=object)
                stack[:] = sets
            self._stacks[s] = stack.reshape(shape)
        return self._stacks[s]

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
        self.dag.check_subset(assignment)
        scope = self.dag.sorted_nodes(assignment.keys())
        for s in scope:
            if assignment[s] not in self.state_spaces[s]:
                raise InputError(f"unknown state {assignment[s]!r} of node {s!r}")
        return Event(scope, frozenset({tuple(assignment[s] for s in scope)}))

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
