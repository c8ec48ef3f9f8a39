"""The reduction planner: :func:`lower_expectation` replaces one global
lower expectation by smaller ones, each step certified by an exact
equality of the paper (marginalisation to a closed sub-network, the law
of iterated lower expectation, and, for evidence, the sign split of an
observed node's indicator).  No standalone theorem operation remains:
the planner applies them to every query.

It is one loop over the given network: it marginalises to the ancestral
closure of the query, peels final segments while the iterated law
applies, and hands the irreducible core to the linear program
(:func:`credalnet.lp.lower_expectation_lp` solves the whole program with
no planning).  It peels on a scope and a bare array with a leading
gamble axis (:func:`_peel`, one local contraction per node; on a chain,
the backward composition of the transfer operators), so that one pass
answers a batch of gambles on one scope, such as a gamble and its
negation for the two bounds of a query: each sub-network and each LP
core, with its phase 1, is built once for the batch, and the core runs a
phase 2 per gamble.  Evidence rides along as one indicator per observed
node, and a power-of-two exponent per row (:func:`_plan`).  Each step
appends a :class:`Reduction` record to the optional trace for auditing,
once per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import lp
from .errors import InputError
from .network import CredalNetwork, Factor, joint_states, sub_network


@dataclass
class Reduction:
    """Audit record: which equality justified a step, on what premise."""

    kind: str          # marginalisation | iterated | lp | local
    premise: dict

    def line(self) -> str:
        parts = [self.kind]
        for k in sorted(self.premise):
            parts.append(f"{k}={self.premise[k]!r}")
        return " ".join(parts)


def trace_lines(trace: list[Reduction]) -> str:
    """Line-oriented serialization of a reduction trace."""
    return "\n".join(r.line() for r in trace) + ("\n" if trace else "")


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
        if g.scope != scope:
            raise InputError(f"factor scopes {scope} and {g.scope} differ")
    order = net.dag.sorted_nodes(scope)   # the one check of the names
    values = np.stack([net.aligned(g, order) for g in fs])
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

