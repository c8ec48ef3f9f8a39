"""The global linear program whose feasible set is the unconditional part
of the joint model induced by the local credal sets and the graph.

One unknown per joint state.  For every node ``s``, every joint state
``x`` of its non-descendants and every homogeneous row ``gamma`` of the
local set attached to ``(s, x restricted to parents(s))``, the program
carries the row::

    sum_{z_s} sum_{z_D(s)} P(z_s, z_D(s), x) * gamma(z_s)  >=  0

plus the single normalisation equality.  :class:`GlobalPolytope` is the
one builder of these rows: it caches them, with the simplex phase 1 over
them, for many objectives, solves, enumerates vertices and writes the
program in text form.  Explicit
non-negativity rows are redundant but can be requested for
cross-checking.  Minimising a gamble's coefficient vector over this
polytope gives its tight lower expectation; enumerating the polytope's
vertices supports repeated queries and the brute-force conditional
oracle.

The Bayesian network that takes one member of every local set lies in
the strong extension, which the program contains.  Its joint mass
function is the known feasible point from which the float simplex
starts, so that phase 1 is a single pivot.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterable

import numpy as np

from . import polytope, simplex
from .credal import MassFunction
from .errors import CapabilityError, ModelError
from .network import CredalNetwork, Event, Factor

MAX_LP_VARIABLES = 2 ** 16
MAX_LP_ROWS = 2 ** 20

#: Desk-scale bound for joint vertex enumeration.
MAX_ENUMERATION_STATES = 64


class JointIndex:
    """Index arithmetic over the joint states of the whole network,
    lexicographic in node-declaration order."""

    def __init__(self, net: CredalNetwork):
        self.nodes = net.dag.nodes
        self.sizes = np.array([net.size(s) for s in self.nodes])
        self.total = net.joint_count()
        strides = np.ones(len(self.nodes), dtype=np.int64)
        for i in range(len(self.nodes) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self.strides = strides
        self._pos = {s: i for i, s in enumerate(self.nodes)}

    def digits(self, node: str) -> np.ndarray:
        """State index of ``node`` at every joint state."""
        i = self._pos[node]
        return (np.arange(self.total) // self.strides[i]) % self.sizes[i]

    def config_index(self, subset: Iterable[str]) -> tuple[np.ndarray, int]:
        """Config index over ``subset`` at every joint state, and the
        config count.  Subset order must follow declaration order."""
        idx = np.zeros(self.total, dtype=np.int64)
        count = 1
        for s in subset:
            idx = idx * self.sizes[self._pos[s]] + self.digits(s)
            count *= int(self.sizes[self._pos[s]])
        return idx, count


def factor_vector(net: CredalNetwork, f: Factor) -> np.ndarray:
    """The factor's value at every joint state of the network (its
    cylindrical extension), in the lexicographic joint-state order.  The
    scope must lie in the network and follow declaration order."""
    return net.aligned(f, net.dag.nodes).ravel()


def event_mask(net: CredalNetwork, event: Event) -> np.ndarray:
    """Boolean membership of every joint state in the event."""
    return factor_vector(net, net.indicator(event)) > 0.0


def _constraint_rows(net: CredalNetwork, idx: JointIndex):
    """The homogeneous global rows, one per (node, non-descendant state,
    local gamma), in deterministic order."""
    rows, labels = [], []
    for s in net.dag.nodes:
        nd = net.dag.sorted_nodes(
            set(net.dag.nodes) - {s} - net.dag.descendants(s))
        pa = net.dag.parents(s)
        pa_pos = [nd.index(p) for p in pa]
        zs = idx.digits(s)
        cfg, count = idx.config_index(nd)
        nd_tuples = list(product(*(net.states(u) for u in nd)))
        assert len(nd_tuples) == count
        for ci, nd_t in enumerate(nd_tuples):
            pa_cfg = tuple(nd_t[i] for i in pa_pos)
            local = net.local(s, pa_cfg)
            mask = cfg == ci
            zsm = zs[mask]
            for gi, gamma in enumerate(local._H):
                row = np.zeros(idx.total)
                row[mask] = gamma[zsm]
                rows.append(row)
                labels.append(f"{s}|{','.join(nd_t) if nd_t else '-'}|g{gi}")
        if len(rows) > MAX_LP_ROWS:
            raise CapabilityError("global program exceeds the row bound")
    return rows, labels


def _product_model(net: CredalNetwork, idx: JointIndex) -> np.ndarray:
    """The joint mass function of the Bayesian network that takes the
    kept member of every local set (:attr:`CredalSet.member`): a point of
    the strong extension, and so of the global program."""
    x = np.ones(idx.total)
    for s in net.dag.nodes:
        members = np.array([net.local(s, cfg).member
                            for cfg in net.parent_configs(s)])
        cfg, _ = idx.config_index(net.dag.parents(s))
        x *= members[cfg, idx.digits(s)]
    return x


class GlobalPolytope:
    """The constraint system of a network, cached so that many objectives
    (e.g. the evaluations of a bracketing run) reuse one build.

    The first float :meth:`minimize` runs the simplex phase 1, which does
    not depend on the objective, and keeps its feasible tableau on the
    object; every float :meth:`minimize` then runs phase 2 alone.  A
    plain call starts it from a copy of the phase-1 tableau.  A ``warm``
    call, as every evaluation of rho makes, starts it from the optimal
    tableau of the last warm call instead, which it re-prices and pivots
    in place, and keeps the new optimal tableau for the next: the
    Dinkelbach steps and sign tests of one bound, and those of the other
    bound on the same program, change the objective little.  A warm
    optimum that fails the residual check is dropped, and phase 2 reruns
    from the phase-1 tableau before the exact fallback (see
    :func:`credalnet.simplex.phase2`).  Both tableaux live as long as
    the object, like the rows.
    The float program is posed over non-negative variables, which the
    rows imply, and phase 1 starts from the product model of the local
    sets' members: the surplus of every row and that model's column make
    up the basis after one pivot.  A product model that violates the
    rows means they are not this network's program, which is reported
    as infeasible.  ``exact=True`` solves the program as posed, over
    free variables, with both phases in rational arithmetic.

    ``include_nonnegativity`` appends the redundant rows ``P(z) >= 0``,
    one per joint state, for cross-checking the program without them.
    """

    def __init__(self, net: CredalNetwork, include_nonnegativity: bool = False):
        self.net = net
        if net.joint_count() > MAX_LP_VARIABLES:
            raise CapabilityError("global program exceeds the variable bound")
        self.idx = JointIndex(net)
        rows, labels = _constraint_rows(net, self.idx)
        if include_nonnegativity:
            rows = rows + [row for row in np.eye(self.idx.total)]
            labels = labels + [f"nonneg|{j}" for j in range(self.idx.total)]
            if len(rows) > MAX_LP_ROWS:
                raise CapabilityError("global program exceeds the row bound")
        self.rows = np.array(rows) if rows else np.zeros((0, self.idx.total))
        self.labels = tuple(labels)
        self._eq = np.ones((1, self.idx.total))
        self._warm: simplex.FeasibleTableau | None = None

    def _constraints(self) -> tuple:
        return self._eq, [1.0], self.rows, np.zeros(len(self.rows))

    @cached_property
    def _feasible(self) -> simplex.FeasibleTableau | None:
        start = _product_model(self.net, self.idx)
        if len(self.rows) and (self.rows @ start).min() < -simplex.TOL_FEAS:
            return None     # the rows are not this network's program
        return simplex.phase1(self.idx.total, *self._constraints(),
                              nonneg=True, start=start)

    def minimize(self, c: np.ndarray, *, exact: bool = False,
                 warm: bool = False):
        """Minimum of ``c @ p`` over the program and a minimiser ``p``;
        ``exact=True`` solves both phases in rational arithmetic.
        ``warm=True`` starts phase 2 from the optimal tableau of the last
        warm call, and keeps the new one for the next."""
        if exact:
            res = simplex.solve(c, *self._constraints(), exact=True)
        elif self._feasible is None:
            res = simplex.SimplexResult("infeasible", None, None)
        else:
            res = simplex.phase2(self._feasible, c,
                                 self._warm if warm else None)
            if warm:
                self._warm = res.tableau
        if res.status != "optimal":
            raise ModelError(
                f"global program ended with status {res.status}; "
                "the local models are inconsistent or the build is invalid")
        return res.objective, res.x

    def dump(self, f: Factor) -> str:
        """The program minimising the expectation of ``f``, in
        line-oriented text form with a deterministic ordering."""
        def nums(values) -> str:
            return " ".join(repr(float(v)) for v in values)

        lines = ["vars " + " ".join(",".join(t)
                                    for t in self.net.joint_tuples())]
        lines.append("min " + nums(factor_vector(self.net, f)))
        lines.append("eq " + nums(self._eq[0]) + " = 1.0")
        for label, row in zip(self.labels, self.rows):
            lines.append(f"ge {label} " + nums(row) + " >= 0.0")
        return "\n".join(lines) + "\n"

    def extreme_points(self) -> np.ndarray:
        if self.idx.total > MAX_ENUMERATION_STATES:
            raise CapabilityError(
                f"vertex enumeration limited to {MAX_ENUMERATION_STATES} "
                "joint states")
        return polytope.cut_simplex(self.idx.total, self.rows)


def lower_expectation_lp(net: CredalNetwork, f: Factor, *,
                         include_nonnegativity: bool = False,
                         exact: bool = False) -> float:
    """Tight lower expectation of ``f`` via the global program (see
    :class:`GlobalPolytope` for ``include_nonnegativity``)."""
    gp = GlobalPolytope(net, include_nonnegativity)
    value, _ = gp.minimize(factor_vector(net, f), exact=exact)
    return value if exact else float(value)


def upper_expectation_lp(net: CredalNetwork, f: Factor, **kw) -> float:
    return -lower_expectation_lp(net, -f, **kw)


def enumerate_joint_extreme_points(net: CredalNetwork) -> list[MassFunction]:
    """Extreme points of the global polytope (desk scale).

    Minimising any linear objective over the returned list equals
    :func:`lower_expectation_lp` for the same objective.
    """
    gp = GlobalPolytope(net)
    V = gp.extreme_points()
    if len(V) == 0:
        raise ModelError("global polytope is empty")
    joint = tuple(net.joint_tuples())
    V = np.clip(V, 0.0, None)
    return [MassFunction(joint, tuple(float(x) for x in v / v.sum()))
            for v in V]
