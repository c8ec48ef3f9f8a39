"""Query dispatch: route a parsed query to the LP, the reduction planner,
or a specialised recursion, and report lower/upper values with bracket
diagnostics.  Upper values always come from conjugacy (the negated gamble
through the same machinery).  An unconditional query goes to the global
program (``lp``) or to the planner (``auto``, ``decompose``, and ``chain``
on a chain with the gamble on its last node), either of which takes the
gamble and its negation as one batch."""

from __future__ import annotations

from typing import Callable

from . import chains, conditioning, decompose, lp
from .errors import HypothesisError, InputError
from .fileio import Query
from .network import CredalNetwork, Factor


def _chain_sweep(net: CredalNetwork, q: Query):
    """rho for a gamble of the query, from one plan for both bounds."""
    order = chains.chain_order(net)
    if q.given.cylinder and q.given.scope == (order[-1],) and \
            q.target.scope in ((order[0],), ()):
        (x_n,) = next(iter(q.given.states))
        plan = chains.reverse_plan(net, x_n)
        return lambda f: chains.chain_reverse_rho(net, f, plan)
    raise HypothesisError(
        "chain dispatch needs a gamble on the first node conditioned on "
        "the value of the last one")


def _hmm_sweep(net: CredalNetwork, q: Query):
    """rho for a gamble of the query, from one plan for both bounds."""
    if not q.given.cylinder:
        raise HypothesisError(
            "hidden-state dispatch needs an instantiated observation event")
    spec = chains.infer_hmm_spec(net, q.given.scope)
    if q.target.scope not in ((spec.state_nodes[-1],), ()):
        raise HypothesisError(
            "hidden-state dispatch needs a gamble on the final state node")
    plan = chains.hmm_plan(spec, q.given.assignment())
    return lambda f: chains.hmm_forward_rho(spec, f, plan)


def _unconditional_bounds(net: CredalNetwork, q: Query,
                          trace: list | None) -> tuple[float, float]:
    """The lower and the upper expectation of the query's gamble by the
    query's method: the lower expectations of the gamble and of its
    negation, in one batch."""
    batch = [q.target, -q.target]
    if q.method == "lp":
        lower, neg_upper = lp.lower_expectation_lp(net, batch)
    elif q.method in ("auto", "decompose", "chain"):
        if q.method == "chain":
            last = chains.chain_order(net)[-1]
            if q.target.scope not in ((last,), ()):
                raise InputError(f"factor must be scoped to node {last!r}")
        lower, neg_upper = decompose.lower_expectation(net, batch, trace=trace)
    elif q.method == "hmm":
        raise HypothesisError(
            "hidden-state dispatch requires a conditional query")
    else:
        raise InputError(f"unknown method {q.method!r}")
    return float(lower), -float(neg_upper)


_SWEEPS = {"chain": _chain_sweep, "hmm": _hmm_sweep}


def _conditional_bound(net: CredalNetwork, q: Query, trace: list | None
                       ) -> Callable[[Factor], conditioning.BracketResult]:
    """The conditional lower expectation of a gamble given the query's
    event, by the query's method and rule."""
    if q.method in ("auto", "decompose"):
        reduced = conditioning.reduce_query(net, q.target.scope, q.given,
                                            q.rule)
    elif q.method == "lp":
        reduced = conditioning.ReducedQuery(net, q.given)
    elif q.method in _SWEEPS:
        sweep = _SWEEPS[q.method](net, q)
        return lambda f: conditioning.condition(conditioning.RhoEvaluator(
            sweep(f), f.min(), f.max(), f.min()), q.rule, q.tolerance)
    else:
        raise InputError(f"unknown method {q.method!r}")
    return lambda f: conditioning.condition_reduced(reduced, f, q.rule,
                                                    q.tolerance, trace)


def run_query(net: CredalNetwork, q: Query, trace: list | None = None) -> dict:
    """Evaluate one query; returns a flat result mapping for reporting.
    The lower and the upper bound share one build of each global program
    and its phase 1.  An unconditional query answers both in one batch:
    one pass of the planner, which builds each of its sub-networks once
    and appends one record set to ``trace``, or one global program for
    ``lp``.  A conditional query runs a bracket, or with no evidence left
    a planner pass, per bound, over the program of the ``auto``
    reduction or the ``lp`` method, and the bounds share the plan of a
    chain or hidden-state sweep."""
    out: dict = {"rule": q.rule, "method": q.method}

    if q.rule == "unconditional":
        lower, upper = _unconditional_bounds(net, q, trace)
        out.update(lower=lower, upper=upper, kind="exact", iterations=0)
        return out

    bound = _conditional_bound(net, q, trace)
    res_low = bound(q.target)
    res_up = bound(-q.target)
    out.update(lower=res_low.value, upper=-res_up.value,
               kind=res_low.kind, iterations=res_low.iterations,
               bracket_width=res_low.width, upper_kind=res_up.kind,
               upper_iterations=res_up.iterations)
    return out
