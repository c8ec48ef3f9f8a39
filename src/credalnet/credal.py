"""Finite local credal sets in dual vertex/constraint representation.

A credal set is a nonempty closed convex set of mass functions over one
node's finite state space.  It can be handed over as a list of extreme
points, as a list of linear constraints ``alpha @ p >= beta``, or both.
Either form normalises to one array ``_H`` of *homogeneous* constraints
``gamma @ p >= 0`` with ``gamma = alpha - beta``, read on the
probability simplex: the set is the mass functions that satisfy them,
and every consumer of the rows (the global program, vertex enumeration,
membership) intersects them with the simplex, so the rows need not
imply ``p >= 0`` themselves.  The given vertices are held as one float
array ``_V``.  ``_H`` is derived on first read: on construction for a
set with constraints, whose checks read it, and never for a vertex list
that no program reads.  The ``MassFunction`` tuples are built from
``_V`` on demand.  Each set holds its vertices, fixed at construction,
as one array ``_points``, one a row: ``_V``, or, for a set given by
constraints alone, the basic solution of its feasibility LP and then
the other vertices enumerated from the constraints.  Every lower
expectation, of a set alone or in a network, is the least of the dot
products with these rows; :func:`constraints_to_vertices` returns them,
and the first is the set's ``member``, from which the global program
starts.  All query operations are pure, so instances are freely
shareable.

The vertex lists of a whole network are checked together: a network
holds the local models of its nodes as arrays
(:class:`credalnet.network.CredalNetwork`), and checks their rows with
:func:`vertex_defects`, the one row checker, which a set given on its
own calls as a batch of one.  The sets a network hands out are views of
its arrays, built without a second check.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import polytope, simplex
from .errors import CapabilityError, CredalError, InputError, ModelError

State = Hashable

#: Feasibility tolerance (mass-function validity, constraint slack).
TOL_FEAS = simplex.TOL_FEAS

#: Desk-scale bound of the minimality check of a vertex list.
MAX_CONVERSION_VERTICES = 64


@dataclass(frozen=True)
class MassFunction:
    """A probability mass function over an ordered finite state space."""

    states: tuple[State, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.states) != len(self.probs) or not self.states:
            raise InputError("mass function must assign one value per state")
        if any(p < -TOL_FEAS for p in self.probs):
            raise InputError(f"negative probability in {self.probs}")
        if abs(sum(self.probs) - 1.0) > TOL_FEAS:
            raise InputError(f"probabilities sum to {sum(self.probs)}, not 1")

    def __getitem__(self, state: State) -> float:
        return self.probs[self.states.index(state)]

    def as_dict(self) -> dict:
        return dict(zip(self.states, self.probs))


@dataclass(frozen=True)
class LinearConstraint:
    """``sum_x coeffs[x] * p(x) >= bound``."""

    coeffs: tuple[float, ...]
    bound: float

    @classmethod
    def from_mapping(cls, states: Sequence[State], coeffs: Mapping[State, float],
                     bound: float):
        if set(coeffs) != set(states):
            raise InputError("constraint coefficients must cover the state space")
        return cls(tuple(float(coeffs[s]) for s in states), float(bound))


def _as_values(states: Sequence[State], f) -> np.ndarray:
    """Accept a mapping state->value or a sequence aligned with states."""
    if isinstance(f, Mapping):
        missing = [s for s in states if s not in f]
        if missing:
            raise InputError(f"gamble does not cover states {missing}")
        return np.array([float(f[s]) for s in states])
    arr = np.asarray(f, dtype=float)
    if arr.shape != (len(states),):
        raise InputError("gamble has the wrong number of values")
    return arr


class CredalSet:
    """A nonempty closed convex polytope of mass functions."""

    def __init__(self, states: Sequence[State],
                 vertices: Iterable[MassFunction | Mapping | Sequence] | None = None,
                 constraints: Iterable[LinearConstraint | tuple] | None = None):
        self.states: tuple[State, ...] = tuple(states)
        if not self.states or len(set(self.states)) != len(self.states):
            raise InputError("state space must be nonempty without duplicates")

        if vertices is None and constraints is None:
            raise InputError("credal set needs vertices or constraints")

        self._V: np.ndarray | None = (None if vertices is None
                                      else self._vertex_array(vertices))
        self.constraints: tuple[LinearConstraint, ...] | None = None
        if constraints is not None:
            self.constraints = tuple(self._coerce_constraint(c) for c in constraints)

        # each branch reads _H, so a set with constraints derives it here
        if self._V is None:
            member = self._feasible_point()
            V = np.clip(polytope.cut_simplex(len(self.states), self._H),
                        0.0, None)
            V /= V.sum(1, keepdims=True)
            self._points = np.vstack([member, V[np.abs(
                V - member).max(1) >= polytope.DEDUP_RADIUS]])
        else:
            if self.constraints is not None:
                self._check_mutual_membership()
            self._points = self._V

    # -- construction helpers ---------------------------------------------

    @classmethod
    def _view(cls, states: tuple[State, ...], V: np.ndarray) -> "CredalSet":
        """The set of the checked vertex rows ``V``, built without checks:
        a network's view of its arrays."""
        m = cls.__new__(cls)
        m.states, m._V, m.constraints, m._points = states, V, None, V
        return m

    def _vertex_array(self, vertices) -> np.ndarray:
        """The vertices as one (k, n) float array, checked by
        :func:`vertex_defects` as a batch of one."""
        if not isinstance(vertices, np.ndarray):
            vertices = [v if type(v) is list else self._vertex_row(v)
                        for v in vertices]
        try:
            V = np.array(vertices, dtype=float)
        except (TypeError, ValueError):
            raise InputError("each vertex must give one number per state") \
                from None
        if len(V) == 0:
            raise ModelError("empty vertex list")
        if V.ndim != 2 or V.shape[1] != len(self.states):
            raise InputError("each vertex must give one number per state")
        for _, error in vertex_defects(V, [len(V)]):
            raise error
        return V

    def _vertex_row(self, v):
        if isinstance(v, MassFunction):
            v = v.as_dict()
        if isinstance(v, Mapping):
            if v.keys() != set(self.states):
                raise InputError("mass function does not cover the state space")
            return [v[s] for s in self.states]
        return v

    def _coerce_constraint(self, c) -> LinearConstraint:
        if not isinstance(c, LinearConstraint):
            coeffs, bound = c
            c = (LinearConstraint.from_mapping(self.states, coeffs, bound)
                 if isinstance(coeffs, Mapping) else
                 LinearConstraint(tuple(float(x) for x in coeffs), float(bound)))
        if len(c.coeffs) != len(self.states):
            raise InputError("constraint width mismatch")
        return c

    @cached_property
    def _H(self) -> np.ndarray:
        """The homogeneous rows (see the module docstring), derived on
        first read."""
        n = len(self.states)
        if self.constraints is not None:
            G = np.array([np.array(c.coeffs) - c.bound
                          for c in self.constraints]).reshape(-1, n)
        elif n == 2:
            return interval_rows(self._V)
        else:
            G = np.array([alpha - beta for alpha, beta in
                          polytope.facet_constraints(self._V)]).reshape(-1, n)

        scale = np.abs(G).max(axis=1)
        keep = scale > 1e-14  # drop trivial rows
        return G[keep] / scale[keep, None]

    def _feasible_point(self) -> np.ndarray:
        res = simplex.solve(np.zeros(len(self.states)), self._H)
        if res.status != "optimal":
            raise ModelError("credal set is empty")
        return res.x

    def _check_mutual_membership(self):
        slack = self._V @ self._H.T
        if slack.size and slack.min() < -TOL_FEAS:
            raise InputError("a vertex violates the given constraints")
        for w in polytope.cut_simplex(len(self.states), self._H):
            if not polytope.in_hull(w, self._V):
                raise InputError(
                    "constraint polytope is not covered by the given vertices")

    # -- queries ------------------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[MassFunction, ...] | None:
        """The rows of ``_V`` as mass functions (None without ``_V``)."""
        return None if self._V is None else tuple(
            MassFunction(self.states, tuple(row)) for row in self._V.tolist())

    @property
    def member(self) -> np.ndarray:
        """One vertex of the set, as an array over the states: the first
        row of ``_points``."""
        return self._points[0]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def lower_expectation(self, f) -> float:
        """Tight lower bound on the expectation of the gamble ``f``, the
        value of :meth:`lower_argmin`."""
        return self.lower_argmin(f)[0]

    def lower_argmin(self, f) -> tuple[float, np.ndarray]:
        """The tight lower expectation of the gamble ``f`` and a vertex of
        the set (an array over the states) attaining it: the least of the
        dot products with the rows of ``_points``, and its row."""
        values = self._points @ _as_values(self.states, f)
        best = np.argmin(values)
        return float(values[best]), self._points[best]

    def upper_expectation(self, f) -> float:
        fv = _as_values(self.states, f)
        return -self.lower_expectation(-fv)

    def lower_probability(self, A: Iterable[State]) -> float:
        return self.lower_expectation(self._indicator(A))

    def upper_probability(self, A: Iterable[State]) -> float:
        return self.upper_expectation(self._indicator(A))

    def _indicator(self, A: Iterable[State]) -> np.ndarray:
        A = set(A)
        unknown = A - set(self.states)
        if unknown:
            raise InputError(f"event contains unknown states {unknown}")
        return np.array([1.0 if s in A else 0.0 for s in self.states])

    def contains(self, p, tol: float = TOL_FEAS) -> bool:
        """Membership of a mass function in the polytope."""
        pv = _as_values(self.states, p if not isinstance(p, MassFunction)
                        else dict(zip(p.states, p.probs)))
        if abs(pv.sum() - 1.0) > tol or pv.min() < -tol:
            return False
        return bool(len(self._H) == 0 or (self._H @ pv).min() >= -tol)

    def __repr__(self) -> str:
        nv = len(self._V) if self._V is not None else None
        return (f"CredalSet(states={self.states!r}, vertices={nv}, "
                f"homogeneous={len(self._H)})")


def interval_rows(V: np.ndarray) -> np.ndarray:
    """The homogeneous rows of binary vertex lists, which are intervals on
    p(first state): ``V`` has axes (..., vertex, state), and the result
    (..., 2, 2) holds ``p(0) >= lo`` and ``p(0) <= hi`` of each list.  A
    list padded by repeating one of its vertices gives the same rows."""
    column = V[..., 0]
    lo, hi = column.min(-1), column.max(-1)
    return np.stack([np.stack([1.0 - lo, -lo], -1),
                     np.stack([hi - 1.0, hi], -1)], -2)


def vertex_defects(V: np.ndarray, counts: Sequence[int]
                   ) -> list[tuple[int, CredalError]]:
    """The first defect of each vertex list whose rows lie one after
    another in the (rows, states) float array ``V``, list ``i`` taking the
    next ``counts[i]`` rows: pairs ``(i, error)`` in list order.  A list
    may be empty; a row may be no mass function (the first such row of a
    list is named, its sum on Python floats); two rows may coincide; and
    a list of more than two rows that passes the rest may hold a row
    inside the hull of the others (:func:`_hull_defect`).  The rows are
    read in one pass of array operations, and only the defects on Python
    floats."""
    counts = np.asarray(counts, dtype=np.intp)
    total = V[:, 0].copy()
    for j in range(1, V.shape[1]):      # left to right, as sum() adds
        total += V[:, j]
    # false for a NaN or an infinity too; the ufuncs themselves, as the
    # methods add a Python frame to each of these small reductions
    good = (np.minimum.reduce(V, 1) >= -TOL_FEAS) & \
        (np.abs(total - 1.0) <= TOL_FEAS)
    # each row against the next
    close = np.maximum.reduce(np.abs(V[1:] - V[:-1]), 1) <= TOL_FEAS
    defects, ends = {}, np.add.accumulate(counts)
    if not np.logical_and.reduce(counts):
        defects = {i: ModelError("empty vertex list")
                   for i in np.flatnonzero(counts == 0).tolist()}
    if not np.logical_and.reduce(good):
        bad_rows = np.flatnonzero(~good)
        lists, first = np.unique(np.searchsorted(ends, bad_rows, "right"),
                                 return_index=True)
        for i, k in zip(lists.tolist(), first.tolist()):
            row = V[bad_rows[k]].tolist()
            if not all(map(math.isfinite, row)):
                defects[i] = InputError(
                    f"not a finite number in {tuple(row)}")
            elif min(row) < -TOL_FEAS:
                defects[i] = InputError(
                    f"negative probability in {tuple(row)}")
            else:
                defects[i] = InputError(
                    f"probabilities sum to {sum(row)}, not 1")
    if np.logical_or.reduce(close):
        pairs = np.flatnonzero(counts == 2)
        for i in pairs[close[ends[pairs] - 2]].tolist():
            defects.setdefault(i, InputError(
                "duplicate vertices in credal set"))
    if len(counts) and np.maximum.reduce(counts) > 2:
        for i in np.flatnonzero(counts > 2).tolist():
            if i not in defects:
                error = _hull_defect(V[ends[i] - counts[i]:ends[i]])
                if error is not None:
                    defects[i] = error
    return sorted(defects.items())


def _hull_defect(V: np.ndarray) -> CredalError | None:
    """The error of a vertex list with a row in the convex hull of the
    others, or None; desk scale only."""
    k = len(V)
    if k > MAX_CONVERSION_VERTICES:
        return CapabilityError("vertex minimality check exceeds desk scale")
    for i in range(k):
        if polytope.in_hull(V[i], np.delete(V, i, axis=0)):
            return InputError(f"vertex {i} lies in the convex hull of the "
                              f"others")
    return None


def vacuous(states: Sequence[State]) -> CredalSet:
    """The full simplex: degenerate mass on each state."""
    n = len(tuple(states))
    return CredalSet(states, vertices=np.eye(n))


def singleton(states: Sequence[State], p) -> CredalSet:
    """The one-element credal set {p}."""
    return CredalSet(states, vertices=[p])


def binary_interval(states: Sequence[State], low: float, high: float) -> CredalSet:
    """Binary credal set with p(first state) in [low, high]; degenerates
    to a singleton when the interval collapses."""
    states = tuple(states)
    if len(states) != 2:
        raise InputError("binary_interval needs exactly two states")
    if not (0.0 <= low <= high <= 1.0):
        raise InputError(f"invalid probability interval [{low}, {high}]")
    if high - low <= TOL_FEAS:
        return CredalSet(states, vertices=[(low, 1.0 - low)])
    return CredalSet(states, vertices=[(low, 1.0 - low), (high, 1.0 - high)])


# -- module-level operations (thin wrappers with the documented names) ------

def vertices_to_constraints(m: CredalSet) -> list[LinearConstraint]:
    """Facet enumeration of the vertex representation."""
    if m._V is None:
        raise InputError("credal set has no vertex representation")
    return [LinearConstraint(tuple(float(a) for a in alpha), float(beta))
            for alpha, beta in polytope.facet_constraints(m._V)]


def constraints_to_vertices(m: CredalSet) -> list[MassFunction]:
    """The vertices of the set as mass functions: the rows of
    ``_points``, fixed at construction, ``member`` first."""
    return [MassFunction(m.states, tuple(v)) for v in m._points.tolist()]
