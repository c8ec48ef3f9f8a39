"""Reduction toolkit: every operation here replaces one global lower
expectation by smaller ones, each step certified by an exact equality
(marginalisation to a sub-network, the law of iterated lower expectation,
sign-split factorisation, external additivity, or the atom product).

``lower_expectation`` is the greedy planner: it removes nodes outside the
ancestral closure of the query, peels final segments while the iterated
law applies, and hands the irreducible core to the linear program.  Each
step appends a :class:`Reduction` record to the optional trace for
auditing.  Hypothesis failures in the explicitly invoked operations raise
:class:`~credalnet.errors.HypothesisError`; only the planner is allowed
to fall back silently, because falling back is its documented job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import lp
from .errors import HypothesisError, InputError
from .graph import closure, is_closed, set_relations
from .network import (CredalNetwork, Event, Factor, joint_states,
                      restrict_factor, sub_network)


@dataclass
class Reduction:
    """Audit record: which equality justified a step, on what premise."""

    kind: str          # marginalisation | iterated | factorisation |
                       # additivity | atom | lp | local
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
    net.dag.check_subset(K)
    Kf = frozenset(K)
    if not is_closed(net.dag, Kf):
        raise HypothesisError(f"node set {sorted(Kf)} is not closed")
    return Kf


def _inner_values(net: CredalNetwork, S, f: Factor, method: str,
                  trace: list | None):
    """The iterated law's inner factor: for each state of the relevant
    outside nodes, the lower expectation of f over the S-sub-network with
    its external parents instantiated.

    The factor is materialised only over (f.scope \\ S) union parents(S),
    which the full inner factor factors through.
    """
    Sf = frozenset(S)
    rel = set_relations(net.dag, Sf)
    scope = net.dag.sorted_nodes((set(f.scope) - Sf) | rel.parents)
    single = len(Sf) == 1
    (s_only,) = tuple(Sf) if single else (None,)

    values = []
    for ctx in joint_states(net, scope):
        inner_f = restrict_factor(net, f, ctx)
        if single:
            # one node: the sub-network value is the local lower expectation
            cfg = net.parent_config(s_only, ctx)
            values.append(net.local(s_only, cfg).lower_expectation(
                net.aligned(inner_f, (s_only,))))
        else:
            sub = sub_network(net, Sf, ctx)
            values.append(lower_expectation(sub, inner_f, method=method,
                                            trace=trace))
    return net.factor_from_values(scope, values)


def lower_expectation(net: CredalNetwork, f: Factor, *, method: str = "auto",
                      trace: list | None = None) -> float:
    """Unconditional tight lower expectation of ``f``.

    ``method='lp'`` solves the global program directly; ``method='auto'``
    runs the greedy reduction planner first and only hands the remaining
    core to the program.
    """
    _scope_in(net, f, net.dag.nodes)
    if not f.scope:
        return float(f.values)
    if method == "lp":
        if trace is not None:
            trace.append(Reduction("lp", {"nodes": net.dag.nodes}))
        return lp.lower_expectation_lp(net, f)
    if method != "auto":
        raise InputError(f"unknown method {method!r}")

    # Base case: a single node is its own sub-network, and the value is
    # the local lower expectation.
    if len(net.dag.nodes) == 1:
        (s,) = net.dag.nodes
        if trace is not None:
            trace.append(Reduction("local", {"node": s}))
        return net.local(s, ()).lower_expectation(f.values)

    # Step 1: drop everything outside the ancestral closure of the scope
    # (a closed set with no external parents; marginalisation applies).
    anc = frozenset(f.scope) | net.dag.ancestors_of_set(f.scope)
    if anc != frozenset(net.dag.nodes):
        if trace is not None:
            trace.append(Reduction("marginalisation",
                                   {"K": tuple(sorted(anc)), "parents": ()}))
        return lower_expectation(sub_network(net, anc, {}), f,
                                 method=method, trace=trace)

    # Step 2: peel a final segment S (all other nodes strictly precede
    # every member) by the law of iterated lower expectation.
    sinks = [s for s in net.dag.nodes if not net.dag.children(s)]
    candidates = [frozenset(sinks)] + [frozenset([s]) for s in sinks]
    for S in candidates:
        T = frozenset(net.dag.nodes) - S
        if not T:
            continue
        if all(S <= net.dag.descendants(t) for t in T):
            if trace is not None:
                trace.append(Reduction("iterated", {"S": tuple(sorted(S))}))
            inner = _inner_values(net, S, f, method, trace)
            return lower_expectation(sub_network(net, T, {}), inner,
                                     method=method, trace=trace)

    if trace is not None:
        trace.append(Reduction("lp", {"nodes": net.dag.nodes}))
    return lp.lower_expectation_lp(net, f)


def upper_expectation(net: CredalNetwork, f: Factor, **kw) -> float:
    return -lower_expectation(net, -f, **kw)


def marginalise(net: CredalNetwork, K, parent_assignment: Mapping[str, str],
                f: Factor, B_K: Event | None = None,
                B_NNK: Event | None = None, *, method: str = "auto",
                tolerance: float = 1e-9, trace: list | None = None) -> float:
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
    if B_K is None or not B_K.scope:
        return lower_expectation(sub, f, method=method, trace=trace)
    from . import conditioning
    ev = conditioning.rho_evaluator(sub, f, B_K, method=method)
    return conditioning.natural_conditional(ev, tolerance=tolerance).value


def iterated_lower_expectation(net: CredalNetwork, S, f: Factor, *,
                               method: str = "auto",
                               trace: list | None = None) -> float:
    """Law of iterated lower expectation for a final segment S: every node
    outside S must strictly precede every node of S."""
    net.dag.check_subset(S)
    _scope_in(net, f, net.dag.nodes)
    Sf = frozenset(S)
    T = frozenset(net.dag.nodes) - Sf
    if not Sf:
        return lower_expectation(net, f, method=method, trace=trace)
    for t in T:
        if not Sf <= net.dag.descendants(t):
            raise HypothesisError(
                f"node {t!r} does not precede all of {sorted(Sf)}")
    if trace is not None:
        trace.append(Reduction("iterated", {"S": tuple(sorted(Sf))}))
    if not T:
        return lower_expectation(net, f, method=method, trace=trace)
    inner = _inner_values(net, Sf, f, method, trace)
    return lower_expectation(sub_network(net, T, {}), inner,
                             method=method, trace=trace)


def _cofactor_on_neighbourhood(net, rel, parent_assignment, g: Factor | None):
    """The factor  g(X_NN(K)) * 1{X_P(K) = parent assignment}  over the
    sub-network induced on the non-descendants of K."""
    pa_nodes = net.dag.sorted_nodes(rel.parents)
    scope = net.dag.sorted_nodes(
        set(g.scope if g is not None else ()) | set(pa_nodes))
    ind = net.aligned(net.indicator(net.cylinder(
        {p: parent_assignment[p] for p in pa_nodes})), scope)
    gv = 1.0 if g is None else net.aligned(g, scope)
    return Factor(scope, gv * ind)


def factorise(net: CredalNetwork, K, parent_assignment: Mapping[str, str],
              f: Factor, g: Factor | None = None, *, method: str = "auto",
              trace: list | None = None) -> float:
    """Sign-split product rule:  the lower expectation of
    ``g * 1{parents of K} * f``  equals the sub-network value of f times
    the lower (or, when that value is negative, upper) expectation of the
    co-factor over the non-descendants of K.  Requires closed K and a
    non-negative g."""
    Kf = _require_closed(net, K)
    _scope_in(net, f, Kf)
    rel = set_relations(net.dag, Kf)
    if g is not None:
        _scope_in(net, g, rel.non_parent_non_descendants)
        if g.min() < 0:
            raise HypothesisError("co-factor g must be non-negative")

    sub = sub_network(net, Kf, parent_assignment)
    a = lower_expectation(sub, f, method=method, trace=trace)
    nsub = sub_network(net, rel.non_descendants, {})
    co = _cofactor_on_neighbourhood(net, rel, parent_assignment, g)
    if a >= 0:
        b = lower_expectation(nsub, co, method=method, trace=trace)
        case = "lower"
    else:
        b = -lower_expectation(nsub, -co, method=method, trace=trace)
        case = "upper"
    if trace is not None:
        trace.append(Reduction("factorisation", {
            "K": tuple(sorted(Kf)), "sign_case": case},
            sub_results=[a, b]))
    return a * b


def external_additivity(net: CredalNetwork, K, f: Factor, h: Factor, *,
                        method: str = "auto", trace: list | None = None) -> float:
    """Additive split for a closed, parentless K:  the lower expectation
    of ``h + f`` is the sum of the two sub-network lower expectations."""
    Kf = _require_closed(net, K)
    rel = set_relations(net.dag, Kf)
    if rel.parents:
        raise HypothesisError(f"K has external parents {sorted(rel.parents)}")
    _scope_in(net, f, Kf)
    _scope_in(net, h, rel.non_parent_non_descendants)
    a = lower_expectation(sub_network(net, Kf, {}), f, method=method,
                          trace=trace)
    if h.scope:
        b = lower_expectation(sub_network(net, rel.non_parent_non_descendants,
                                          {}), h, method=method, trace=trace)
    else:
        b = float(h.values)
    if trace is not None:
        trace.append(Reduction("additivity", {"K": tuple(sorted(Kf))},
                               sub_results=[a, b]))
    return a + b


def combined(net: CredalNetwork, K, parent_assignment: Mapping[str, str],
             f: Factor, h: Factor | None = None, g: Factor | None = None, *,
             method: str = "auto", trace: list | None = None) -> float:
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

    sub = sub_network(net, Kf, parent_assignment)
    a = lower_expectation(sub, f, method=method, trace=trace)
    co = _cofactor_on_neighbourhood(net, rel, parent_assignment, g)
    scope = net.dag.sorted_nodes(
        set(h.scope if h is not None else ()) | set(co.scope))
    hv = 0.0 if h is None else net.aligned(h, scope)
    assembled = Factor(scope, hv + net.aligned(co, scope) * a)
    nsub = sub_network(net, rel.non_descendants, {})
    if trace is not None:
        trace.append(Reduction("factorisation", {
            "K": tuple(sorted(Kf)), "combined": True}, sub_results=[a]))
    return lower_expectation(nsub, assembled, method=method, trace=trace)


def atom_bounds(net: CredalNetwork, assignment: Mapping[str, str], *,
                trace: list | None = None) -> tuple[float, float]:
    """Lower and upper probability of one joint state: both factorise
    into products of the local bounds."""
    missing = set(net.dag.nodes) - set(assignment)
    if missing:
        raise InputError(f"assignment misses nodes {sorted(missing)}")
    low, high = 1.0, 1.0
    for s in net.dag.nodes:
        cfg = net.parent_config(s, assignment)
        local = net.local(s, cfg)
        low *= local.lower_probability({assignment[s]})
        high *= local.upper_probability({assignment[s]})
    if trace is not None:
        trace.append(Reduction("atom", {"assignment": tuple(
            sorted(assignment.items()))}, sub_results=[low, high]))
    return low, high
