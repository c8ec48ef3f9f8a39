"""The global linear program whose feasible set is the unconditional part
of the joint model induced by the local credal sets and the graph.

One unknown per joint state.  For every node ``s``, every joint state
``x`` of its non-descendants and every homogeneous row ``gamma`` of the
local set attached to ``(s, x restricted to parents(s))``, the program
carries the row::

    sum_{z_s} sum_{z_D(s)} P(z_s, z_D(s), x) * gamma(z_s)  >=  0

These rows are the program's ``H``: the kernel (:mod:`credalnet.simplex`)
adds the normalisation and ``P >= 0``, so the program ranges over joint
mass functions, as the local rows range over local ones.
:class:`GlobalPolytope` is the one builder of these rows: it caches
them, with the simplex phase 1 over them, for many objectives, solves,
enumerates vertices and writes the program in text form.  Minimising a
gamble's coefficient vector over this polytope gives its tight lower
expectation; its vertices serve the brute-force conditional oracle.

The Bayesian network that takes one member of every local set lies in
the strong extension, which the program contains.  Its joint mass
function is the known feasible point from which the simplex starts, so
that phase 1 is a single pivot.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from . import polytope, simplex
from .credal import MassFunction
from .errors import CapabilityError, ModelError
from .network import CredalNetwork, Event, Factor

MAX_LP_VARIABLES = 2 ** 16

#: Desk-scale bound for joint vertex enumeration.
MAX_ENUMERATION_STATES = 64


class JointIndex:
    """Index arithmetic over the joint states of the whole network,
    lexicographic in node-declaration order."""

    def __init__(self, net: CredalNetwork):
        self.sizes = np.array([net.size(s) for s in net.dag.nodes])
        self.total = net.joint_count()
        self._pos = {s: i for i, s in enumerate(net.dag.nodes)}
        # the state of every node at every joint state, once: the last
        # node varies fastest
        strides = self.total // np.cumprod(self.sizes)
        self._digits = (np.arange(self.total)[:, None] // strides
                        % self.sizes).T.copy()

    def digits(self, node: str) -> np.ndarray:
        """State index of ``node`` at every joint state."""
        return self._digits[self._pos[node]]

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


def _node_rows(net: CredalNetwork):
    """Per node ``s``: its non-descendants in declaration order, the rows
    ``_H`` of its local sets, each padded to as many as the longest, in
    :meth:`CredalNetwork.parent_configs` order, and their number at each
    configuration (:meth:`CredalNetwork.local_rows`)."""
    for s in net.dag.nodes:
        nd = set(net.dag.nodes) - {s} - net.dag.descendants(s)
        yield s, net.dag.sorted_nodes(nd), *net.local_rows(s)


def _row_count(net: CredalNetwork, blocks: list) -> int:
    """The number of rows :func:`_constraint_rows` builds from
    ``blocks`` (of :func:`_node_rows`), counted from the local sets:
    every parent configuration of ``s`` recurs once per state of the
    other non-descendants of ``s``."""
    return sum(net.joint_count(nd) // len(h) * int(h.sum())
               for _, nd, _, h in blocks)


def _constraint_rows(net: CredalNetwork, idx: JointIndex, blocks: list,
                     count: int):
    """The ``count`` homogeneous global rows (see :func:`_row_count`).
    Node by node, every state of the non-descendants of ``s``, in
    lexicographic order, has one row per row ``gamma`` of the local set
    at its parent configuration, holding ``gamma(z_s)`` at each joint
    state that extends it; filled in one step per node."""
    rows, top = np.zeros((count, idx.total)), 0
    for s, nd, H, h in blocks:
        cfg, n_cfg = idx.config_index(nd)
        pa, _ = idx.config_index(net.dag.parents(s))
        zs, per = idx.digits(s), h[pa]
        first_of = np.zeros(n_cfg, dtype=np.int64)
        first_of[cfg] = per
        first = top + np.cumsum(first_of) - first_of
        top += int(first_of.sum())
        # one entry per joint state and row of its local set
        at = np.repeat(np.arange(idx.total), per)
        r = np.arange(len(at)) - np.repeat(np.cumsum(per) - per, per)
        rows[first[cfg[at]] + r, at] = \
            H[np.repeat(pa * (len(H) // len(h)), per) + r, zs[at]]
    assert top == count
    return rows


def _product_model(net: CredalNetwork, idx: JointIndex) -> np.ndarray:
    """The joint mass function of the Bayesian network that takes the
    kept member of every local set (:attr:`CredalSet.member`, the first
    vertex of a vertex list): a point of the strong extension, and so of
    the global program."""
    x = np.ones(idx.total)
    for s in net.dag.nodes:
        cfg, _ = idx.config_index(net.dag.parents(s))
        x *= net.members(s)[cfg, idx.digits(s)]
    return x


class GlobalPolytope:
    """The constraint system of a network, cached so that many objectives
    (e.g. the evaluations of a bracketing run) reuse one build.

    The first :meth:`minimize` runs the simplex phase 1, which does not
    depend on the objective, and keeps its feasible tableau on the
    object; every :meth:`minimize` then runs phase 2 alone.  A
    plain call starts it from a copy of the phase-1 tableau.  A ``warm``
    call, as every evaluation of rho makes, starts it from the optimal
    tableau of the last warm call instead, which it re-prices and pivots
    in place, and keeps the new optimal tableau for the next: the
    Dinkelbach steps and sign tests of one bound, and those of the other
    bound on the same program, change the objective little.  A warm
    optimum that fails the residual check is dropped, and phase 2 reruns
    from the phase-1 tableau; an optimum that fails it again is refused
    with :class:`CapabilityError` (see :func:`credalnet.simplex.phase2`),
    and a warm call that raises leaves no tableau for the next, which
    starts from the phase-1 tableau.  Both tableaux are about as large
    as the rows, and live as long as the object, like the rows.
    Phase 1 starts from the product model of the local sets' members:
    the surplus of every row and that model's column make up the basis
    after one pivot.  A product model that violates the rows means they
    are not this network's program, which is reported as infeasible.

    The rows are counted before they are built: a program whose phase-1
    tableau, (rows + 2) x (joint states + 2) entries, would exceed
    :data:`credalnet.simplex.MAX_TABLEAU_BYTES` is refused with
    :class:`CapabilityError`.
    """

    def __init__(self, net: CredalNetwork):
        self.net = net
        total = net.joint_count()
        if total > MAX_LP_VARIABLES:
            raise CapabilityError("global program exceeds the variable bound")
        blocks = list(_node_rows(net))
        count = _row_count(net, blocks)
        size = (count + 2) * (total + 2) * 8
        if size > simplex.MAX_TABLEAU_BYTES:
            raise CapabilityError(
                f"global program tableau of {size / 2**20:.0f} MiB exceeds "
                f"the {simplex.MAX_TABLEAU_BYTES // 2**20} MiB bound")
        self.idx = JointIndex(net)
        self.rows = _constraint_rows(net, self.idx, blocks, count)
        self._warm: simplex.FeasibleTableau | None = None

    @cached_property
    def _feasible(self) -> simplex.FeasibleTableau | None:
        start = _product_model(self.net, self.idx)
        if len(self.rows) and (self.rows @ start).min() < -simplex.TOL_FEAS:
            return None     # the rows are not this network's program
        return simplex.phase1(self.idx.total, self.rows, start=start)

    def minimize(self, c: np.ndarray, *, warm: bool = False):
        """Minimum of ``c @ p`` over the program and a minimiser ``p``.
        ``warm=True`` starts phase 2 from the optimal tableau of the last
        warm call, and keeps the new one for the next."""
        if self._feasible is None:
            res = simplex.SimplexResult("infeasible", None, None)
        elif warm:
            # taken off first: a solve that raises has pivoted it in place
            last, self._warm = self._warm, None
            res = simplex.phase2(self._feasible, c, last)
            self._warm = res.tableau
        else:
            res = simplex.phase2(self._feasible, c)
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
        lines.append("eq " + nums(np.ones(self.idx.total)) + " = 1.0")
        labels = []
        for s, nd, _, h in _node_rows(self.net):
            pa_pos = [nd.index(p) for p in self.net.dag.parents(s)]
            h = dict(zip(self.net.parent_configs(s), h.tolist()))
            for nd_t in product(*(self.net.states(u) for u in nd)):
                name = f"{s}|{','.join(nd_t) if nd_t else '-'}"
                labels += [f"{name}|g{gi}" for gi in
                           range(h[tuple(nd_t[i] for i in pa_pos)])]
        for label, row in zip(labels, self.rows, strict=True):
            lines.append(f"ge {label} " + nums(row) + " >= 0.0")
        return "\n".join(lines) + "\n"

    def extreme_points(self) -> np.ndarray:
        if self.idx.total > MAX_ENUMERATION_STATES:
            raise CapabilityError(
                f"vertex enumeration limited to {MAX_ENUMERATION_STATES} "
                "joint states")
        return polytope.cut_simplex(self.idx.total, self.rows)


def lower_expectation_lp(net: CredalNetwork, f: Factor | Sequence[Factor]
                         ) -> float | np.ndarray:
    """Tight lower expectation of ``f`` via the global program.  For a
    sequence of factors, their lower expectations in an array, from one
    build of the program and its phase 1 and a phase 2 for each."""
    gp = GlobalPolytope(net)
    if isinstance(f, Factor):
        return float(gp.minimize(factor_vector(net, f))[0])
    return np.array([gp.minimize(factor_vector(net, g))[0] for g in f])


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
