"""Reduction toolkit: every operation here replaces one global lower
expectation by smaller ones, each step certified by an exact equality
(marginalisation to a sub-network, the law of iterated lower expectation,
or the combined split of :func:`combined`, whose special cases are
sign-split factorisation and external additivity).

``lower_expectation`` is the greedy planner, one loop over the given
network: it marginalises to the ancestral closure of the query, peels
final segments while the iterated law applies, and hands the irreducible
core to the linear program (:func:`credalnet.lp.lower_expectation_lp`
solves the whole program with no planning).  It peels on a scope and a
bare array with a leading gamble axis (:func:`_peel`, one local
contraction per node; on a chain, the backward composition of the
transfer operators), so that one pass answers a batch of gambles on one
scope, such as a gamble and its negation for the two bounds of a query:
each sub-network and each LP core, with its phase 1, is built once for
the batch, and the core runs a phase 2 per gamble.  Evidence rides along
as one indicator per observed node, and a power-of-two exponent per row
(:func:`_plan`).  Each step appends a :class:`Reduction` record to the
optional trace for auditing, once per pass.
Hypothesis failures in the explicitly invoked operations raise
:class:`~credalnet.errors.HypothesisError`; only the planner is allowed
to fall back silently, because falling back is its documented job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import lp
from .errors import HypothesisError, InputError
from .graph import is_closed, set_relations
from .network import CredalNetwork, Event, Factor, joint_states, sub_network


@dataclass
class Reduction:
    """Audit record: which equality justified a step, on what premise."""

    kind: str          # marginalisation | iterated | factorisation |
                       # lp | local
    premise: dict
    sub_results: list = field(default_factory=list)

    def line(self) -> str:
        parts = [self.kind]
        for k in sorted(self.premise):
            parts.append(f"{k}={self.premise[k]!r}")
        if self.sub_results:
            parts.append(f"sub={self.sub_results!r}")
        return " ".join(parts)


def trace_lines(trace: list[Reduction]) -> str:
    """Line-oriented serialization of a reduction trace."""
    return "\n".join(r.line() for r in trace) + ("\n" if trace else "")


def _scope_in(net: CredalNetwork, f: Factor, allowed) -> None:
    extra = set(f.scope) - set(allowed)
    if extra:
        raise InputError(f"factor scope {sorted(extra)} outside {sorted(allowed)}")


def _require_closed(net: CredalNetwork, K) -> frozenset:
    Kf = frozenset(K)
    if not is_closed(net.dag, K):     # K's first unknown node raises
        raise HypothesisError(f"node set {sorted(Kf)} is not closed")
    return Kf


def _peel(net: CredalNetwork, s: str, scope: tuple, values: np.ndarray
          ) -> tuple[tuple[str, ...], np.ndarray]:
    """The iterated law's inner values for one node ``s`` and the scope
    they lie over, for a batch of gambles: a
    :meth:`CredalNetwork.local_lower` contraction of ``values`` (a
    leading gamble axis, then an axis per ``scope`` node, a unit axis
    added per parent outside it) with axes moved to (gamble, others...,
    parents..., s), skipping identity permutations.  A gamble on ``s``
    alone needs no permutation, only the unit parent axes, without which
    the gamble axis would be read as a parent axis."""
    parents = net.dag.parents(s)
    if scope == (s,):
        return parents, net.local_lower(
            s, values[(slice(None),) + (None,) * len(parents)])
    order = tuple(x for x in scope if x != s and x not in parents) + parents
    new = net.dag.sorted_nodes(order)
    # a unit axis for each parent, and for s, outside the scope
    axes = scope + tuple(x for x in order + (s,) if x not in scope)
    values = values.reshape(values.shape + (1,) * (len(axes) - len(scope)))
    if axes != order + (s,):
        values = values.transpose(
            [0] + [axes.index(x) + 1 for x in order + (s,)])
    if s not in scope:
        values = np.broadcast_to(values, values.shape[:-1] + (net.size(s),))
    values = net.local_lower(s, values)
    if new != order:
        values = values.transpose([0] + [order.index(x) + 1 for x in new])
    return new, values


def _inner_values(net: CredalNetwork, S, scope: tuple, values: np.ndarray,
                  trace: list | None) -> tuple[tuple[str, ...], np.ndarray]:
    """The iterated law's inner values, as :func:`_peel` gives them, for
    a final segment S: one peel for a single node, else the lower
    expectation over the S-sub-network at each state of (scope \\ S)
    union parents(S), which the full inner factor factors through; each
    of those sub-networks is built once for the whole batch."""
    if len(S) == 1:
        (s,) = S
        return _peel(net, s, scope, values)
    Sf = frozenset(S)
    parents = frozenset(p for s in Sf for p in net.dag.parents(s)) - Sf
    new = net.dag.sorted_nodes((set(scope) - Sf) | parents)
    inside = tuple(x for x in scope if x in Sf)
    inner = np.empty((len(values), net.joint_count(new)))
    for i, ctx in enumerate(joint_states(net, new)):
        # every scope node outside S is in ctx: plug its state in
        index = tuple(slice(None) if x in Sf else
                      net.state_index(x, ctx[x]) for x in scope)
        inner[:, i] = _plan(sub_network(net, Sf, ctx), inside,
                            values[(slice(None),) + index], {}, trace)[0]
    return new, inner.reshape(inner.shape[:1] + net.shape(new))


def lower_expectation(net: CredalNetwork, f: Factor | Sequence[Factor], *,
                      trace: list | None = None) -> float | np.ndarray:
    """Unconditional tight lower expectation of ``f`` by the planner.

    ``f`` may also be a sequence of factors on one scope, such as a
    gamble and its negation, whose lower expectation is minus the upper
    one: their lower expectations come back in an array, from one pass
    that carries a leading gamble axis through every peel, so that each
    sub-network and each LP core is built once for them all.  A single
    factor is the batch of one."""
    fs = [f] if isinstance(f, Factor) else list(f)
    if not fs:
        raise InputError("no gamble to take the lower expectation of")
    scope = fs[0].scope
    for g in fs:
        _scope_in(net, g, net.dag.nodes)
        if g.scope != scope:
            raise InputError(f"factor scopes {scope} and {g.scope} differ")
    values = np.stack([net.aligned(g, net.dag.sorted_nodes(scope))
                       for g in fs])   # checked once
    lower = _plan(net, scope, values, {}, trace)[0]   # unscaled
    return float(lower[0]) if isinstance(f, Factor) else lower


def _plan(net: CredalNetwork, scope: tuple, values: np.ndarray,
          evidence: Mapping[str, str], trace: list | None
          ) -> tuple[np.ndarray, np.ndarray]:
    """The planner's lower expectations of the gambles ``values`` (a
    leading gamble axis, then an axis per ``scope`` node, in declaration
    order) times the indicator of ``evidence`` outside the scope, each
    row 2 ** -e times, and the exponents e (:func:`_peels`): the peels,
    then the root left or the core that no peel reduces, whose program
    alone spells out an indicator.  By marginalisation an ancestral node
    set keeps its own local models, so a sub-network is built only for
    that core."""
    if not scope and not evidence:
        return values, 0
    A, scope, values, exps = _peels(net, scope, values, evidence, trace)
    if len(A) == 1:
        # a single node of an ancestral set is a root, and unobserved
        (s,) = A
        if trace is not None:
            trace.append(Reduction("local", {"node": s}))
        return net.local_lower(s, values), exps
    if not A:
        return values, exps
    core = net if len(A) == len(net.dag.nodes) else sub_network(net, A, {})
    if trace is not None:
        trace.append(Reduction("lp", {"nodes": core.dag.nodes}))
    if seen := {s: x for s, x in evidence.items() if s in A}:
        wide = net.dag.sorted_nodes({*scope, *seen})
        values = net.aligned(net.indicator(net.cylinder(seen)), wide) * \
            np.stack([net.aligned(Factor(scope, v), wide) for v in values])
        scope = wide
    values = lp.lower_expectation_lp(core, [Factor(scope, v) for v in values])
    return values, exps


def _renormalise(exps, ref: np.ndarray, *arrays: np.ndarray) -> tuple:
    """Per row of the leading axis, ``exps`` plus the exponent e that puts
    the largest magnitude of ``ref`` in [1/2, 1), and ``arrays`` times
    2 ** -e: powers of two move no bit, short of the subnormal range."""
    _, e = np.frexp(np.maximum.reduce(np.abs(ref).reshape(len(ref), -1), 1))
    return (exps + e, *[np.ldexp(a, -e.reshape(-1, *(1,) * (a.ndim - 1)))
                        for a in arrays])


def _peels(net: CredalNetwork, scope: tuple, values: np.ndarray,
           evidence: Mapping[str, str], trace: list | None
           ) -> tuple[set, tuple[str, ...], np.ndarray, np.ndarray]:
    """The peels of :func:`_plan`: the rest of the ancestral set A of the
    scope and the evidence, the inner values over the scope left, each
    row 2 ** -e times, and the exponents e.  Each value an unobserved
    peel gives lies between values it averages, so the rows shrink with
    the local probability of each observed node: they are rescaled every
    16 observed peels, and after the last (:func:`_renormalise`); e is 0
    until then.
    An observed node never joins the scope: an observed sink is peeled
    on its own, on a temporary axis holding its indicator, and a peel
    that brings in an observed parent slices that axis at its state.
    For h >= 0 (h <= 0) on the other nodes, the lower expectation of
    ``h * 1{o = e}`` is that of h times the lower (upper) probability of
    o = e given its parents, in any DAG, but for h of both signs only
    where the rest of A precedes o: so each row must be of one sign.
    When A less its pending observed sinks has a single sink t, and t is
    unobserved, t peels right after its own pending observed children:
    the envelopes still pending are non-negative functions of nodes
    other than t, which positive homogeneity takes out of its local
    lower expectation.  The scope then gains no more than the parents of
    t, where peeling every observed sink first would gather all of
    theirs (smoothing in a hidden-state model)."""
    dag = net.dag
    if evidence:
        rows = values.reshape(len(values), -1)
        if ((rows > 0).any(1) & (rows < 0).any(1)).any():
            raise InputError("the planner takes evidence only on gambles "
                             "of one sign")
    # Step 1: drop everything outside the ancestral closure A of the scope
    # and the evidence (a closed set with no external parents;
    # marginalisation applies), counting each node's children in A, live
    # until peeled.  It runs once: the rest of A stays ancestral.
    start = (*scope, *evidence)
    live, stack = dict.fromkeys(start, 0), list(start)
    while stack:
        for p in dag.parents(stack.pop()):
            if p in live:
                live[p] += 1
            else:
                live[p] = 1
                stack.append(p)
    if len(live) < len(dag.nodes) and trace is not None:
        trace.append(Reduction("marginalisation",
                               {"K": tuple(sorted(live)), "parents": ()}))
    # Step 2: peel each observed sink, and the sinks S of A while the rest
    # of A precedes each of them (the law of iterated lower expectation);
    # a peeled node leaves ``live``.  A single sink peels with no
    # reachability test: every other node of A is its ancestor.  The
    # first sinks lie in ``start``: a node outside it has a child in A.
    # While observed nodes are left, ``tops`` holds the sinks of A less
    # its pending observed sinks, and ``rest`` counts each node's live
    # children there.
    observed, sinks, due, lone, exps, count = {}, [], [], False, 0, 0
    if evidence:
        rest, tops = dict(live), {s for s in start if not live[s]}

    def aside(s):   # s leaves A less its pending observed sinks
        tops.discard(s)
        for p in dag.parents(s):
            rest[p] -= 1
            if not rest[p]:
                tops.add(p)

    def pend(s):    # observed s has no live child left
        observed[s] = None
        aside(s)

    for s in start:
        if not live[s] and s in evidence:
            pend(s)
        elif not live[s]:
            sinks.append(s)
    while live:
        if observed:
            (t,) = tops if len(tops) == 1 else (None,)
            lone = t is not None and t not in evidence
            if lone and live[t] and not due:
                due = [c for c in dag.children(t) if c in live]
                for c in due:
                    del observed[c]
        if due or observed and not lone:
            s = due.pop() if due else observed.popitem()[0]
            peeled = (s,)
            ind = np.arange(net.size(s)) == net.state_index(s, evidence[s])
            scope, values = _peel(net, s, scope + peeled,
                                  values[..., None] * ind)
            count += 1
            if count % 16 == 0:
                exps, values = _renormalise(exps, values, values)
        elif len(sinks) == 1 < len(live):
            peeled, sinks = sinks, []
            if trace is not None:
                trace.append(Reduction("iterated", {"S": tuple(peeled)}))
            scope, values = _peel(net, peeled[0], scope, values)
        elif len(live) == len(sinks) or not all(
                live.keys() - sinks <= dag.ancestors(s) for s in sinks):
            break
        else:
            if trace is not None:
                trace.append(Reduction("iterated", {"S": tuple(sorted(sinks))}))
            peeled, sinks = sinks, []
            scope, values = _inner_values(net, peeled, scope, values, trace)
        for s in peeled:
            del live[s]
            if count < len(evidence) and s not in evidence:
                aside(s)
            for p in dag.parents(s):
                if p in evidence and p in scope:
                    i = scope.index(p)
                    values = values[(slice(None),) * (i + 1)
                                    + (net.state_index(p, evidence[p]),)]
                    scope = scope[:i] + scope[i + 1:]
                live[p] -= 1
                if not live[p] and p in evidence:
                    pend(p)
                elif not live[p]:
                    sinks.append(p)
    if count % 16:
        exps, values = _renormalise(exps, values, values)
    return set(live), scope, values, exps


def marginalise(net: CredalNetwork, K, parent_assignment: Mapping[str, str],
                f: Factor, B_K: Event | None = None,
                B_NNK: Event | None = None, *, tolerance: float = 1e-9,
                trace: list | None = None) -> float:
    """Conditional-to-sub-network reduction for a closed K.

    Returns the lower expectation of ``f`` given ``B_K`` in the
    sub-network obtained by fixing K's external parents; by the
    marginalisation equality this equals the full-network conditional
    given (B_K, the parent assignment, B_NNK).  The extra event B_NNK
    does not influence the value; it is only validated."""
    Kf = _require_closed(net, K)
    _scope_in(net, f, Kf)
    rel = set_relations(net.dag, Kf)
    for ev, name in ((B_K, "B_K"), (B_NNK, "B_NNK")):
        if ev is not None and ev.empty:
            raise InputError(f"conditioning event {name} is empty")
    if B_K is not None and not set(B_K.scope) <= Kf:
        raise InputError("B_K must be an event over K")
    if B_NNK is not None and not set(B_NNK.scope) <= rel.non_parent_non_descendants:
        raise InputError("B_NNK must be an event over the non-parent "
                         "non-descendants of K")

    sub = sub_network(net, Kf, parent_assignment)
    if trace is not None:
        trace.append(Reduction("marginalisation", {
            "K": tuple(sorted(Kf)),
            "parents": tuple(sorted((p, parent_assignment[p])
                                    for p in rel.parents))}))
    from . import queries
    return queries.bounds(sub, [f], B_K, "natural", "auto", tolerance,
                          trace)[0].value


def iterated_lower_expectation(net: CredalNetwork, S, f: Factor, *,
                               trace: list | None = None) -> float:
    """Law of iterated lower expectation for a final segment S: every node
    outside S must strictly precede every node of S."""
    Sf = frozenset(net.dag.sorted_nodes(S))
    _scope_in(net, f, net.dag.nodes)
    T = frozenset(net.dag.nodes) - Sf
    if not Sf:
        return lower_expectation(net, f, trace=trace)
    for s in net.dag.sorted_nodes(Sf):
        late = T - net.dag.ancestors(s)
        if late:
            raise HypothesisError(
                f"node {net.dag.sorted_nodes(late)[0]!r} does not precede "
                f"all of {sorted(Sf)}")
    if trace is not None:
        trace.append(Reduction("iterated", {"S": tuple(sorted(Sf))}))
    if not T:
        return lower_expectation(net, f, trace=trace)
    scope, inner = _inner_values(net, Sf, f.scope, net.aligned(
        f, net.dag.sorted_nodes(f.scope))[None], trace)
    return lower_expectation(sub_network(net, T, {}), Factor(scope, inner[0]),
                             trace=trace)


def factorise(net: CredalNetwork, K, parent_assignment: Mapping[str, str],
              f: Factor, g: Factor | None = None, *,
              trace: list | None = None) -> float:
    """Sign-split product rule:  the lower expectation of
    ``g * 1{parents of K} * f``  equals the sub-network value of f times
    the lower (or, when that value is negative, upper) expectation of the
    co-factor over the non-descendants of K, by positive homogeneity: the
    split of :func:`combined` with no h.  Requires closed K and a
    non-negative g."""
    return combined(net, K, parent_assignment, f, None, g, trace=trace)


def external_additivity(net: CredalNetwork, K, f: Factor, h: Factor, *,
                        trace: list | None = None) -> float:
    """Additive split for a closed, parentless K:  the lower expectation
    of ``h + f``, for h on the non-parent non-descendants of K, is the
    sum of the two sub-network lower expectations: the split of
    :func:`combined` with no g."""
    Kf = _require_closed(net, K)
    rel = set_relations(net.dag, Kf)
    if rel.parents:
        raise HypothesisError(f"K has external parents {sorted(rel.parents)}")
    # with no parents, combined's check of h is on the same node set
    return combined(net, Kf, {}, f, h, None, trace=trace)


def combined(net: CredalNetwork, K, parent_assignment: Mapping[str, str],
             f: Factor, h: Factor | None = None, g: Factor | None = None, *,
             trace: list | None = None) -> float:
    """The general split:  in  ``h(X_N(K)) + g(X_NN(K)) * 1{parents} * f(X_K)``
    the inner factor f may be replaced by the scalar sub-network value,
    leaving a lower expectation over the non-descendants of K."""
    Kf = _require_closed(net, K)
    _scope_in(net, f, Kf)
    rel = set_relations(net.dag, Kf)
    if h is not None:
        _scope_in(net, h, rel.non_descendants)
    if g is not None:
        _scope_in(net, g, rel.non_parent_non_descendants)
        if g.min() < 0:
            raise HypothesisError("co-factor g must be non-negative")

    a = lower_expectation(sub_network(net, Kf, parent_assignment), f,
                          trace=trace)
    # the co-factor  g(X_NN(K)) * 1{X_P(K) = parent assignment}
    pa = {p: parent_assignment[p] for p in rel.parents}
    scope = net.dag.sorted_nodes({*pa, *(() if h is None else h.scope),
                                  *(() if g is None else g.scope)})
    co = net.aligned(net.indicator(net.cylinder(pa)), scope)
    if g is not None:
        co = co * net.aligned(g, scope)
    hv = 0.0 if h is None else net.aligned(h, scope)
    nsub = sub_network(net, rel.non_descendants, {})
    if trace is not None:
        trace.append(Reduction("factorisation", {
            "K": tuple(sorted(Kf)), "combined": True}, sub_results=[a]))
    return lower_expectation(nsub, Factor(scope, hv + co * a), trace=trace)
