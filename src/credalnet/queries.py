"""Query dispatch: route a parsed query to the LP, the reduction planner,
or a specialised recursion, and report lower/upper values with bracket
diagnostics.  Upper values always come from conjugacy (the negated gamble
through the same machinery).  An unconditional query goes to the global
program (``lp``) or to the planner (``auto``, ``decompose``, and ``chain``
on a chain with the gamble on its last node): the gamble and its negation
as one batch, as in the conditional chain and hidden-state sweeps."""

from __future__ import annotations

from . import chains, conditioning, decompose, lp
from .errors import HypothesisError, InputError
from .fileio import Query
from .network import CredalNetwork


def _chain_sweep(net: CredalNetwork, q: Query, gambles):
    """rho of the gambles, in one batch, from one plan."""
    order = chains.chain_order(net)
    if q.given.cylinder and q.given.scope == (order[-1],) and \
            q.target.scope in ((order[0],), ()):
        (x_n,) = next(iter(q.given.states))
        return chains.chain_reverse_rho(net, gambles,
                                        chains.reverse_plan(net, x_n))
    raise HypothesisError(
        "chain dispatch needs a gamble on the first node conditioned on "
        "the value of the last one")


def _hmm_sweep(net: CredalNetwork, q: Query, gambles):
    """rho of the gambles, in one batch, from one plan."""
    if not q.given.cylinder:
        raise HypothesisError(
            "hidden-state dispatch needs an instantiated observation event")
    spec = chains.infer_hmm_spec(net, q.given.scope)
    if q.target.scope not in ((spec.state_nodes[-1],), ()):
        raise HypothesisError(
            "hidden-state dispatch needs a gamble on the final state node")
    return chains.hmm_forward_rho(spec, gambles,
                                  chains.hmm_plan(spec, q.given.assignment()))


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


def _conditional_bounds(net: CredalNetwork, q: Query, trace: list | None
                        ) -> list[conditioning.BracketResult]:
    """The conditional lower expectations of the query's gamble and of its
    negation, by the query's method and rule; a sweep's in lockstep."""
    gambles = [q.target, -q.target]
    if q.method in _SWEEPS:
        return conditioning.condition_lockstep(
            _SWEEPS[q.method](net, q, gambles), gambles, q.rule, q.tolerance)
    if q.method in ("auto", "decompose"):
        reduced = conditioning.reduce_query(net, q.target.scope, q.given,
                                            q.rule)
    elif q.method == "lp":
        reduced = conditioning.ReducedQuery(net, q.given)
    else:
        raise InputError(f"unknown method {q.method!r}")
    return [conditioning.condition_reduced(reduced, f, q.rule, q.tolerance,
                                           trace) for f in gambles]


def run_query(net: CredalNetwork, q: Query, trace: list | None = None) -> dict:
    """Evaluate one query; returns a flat result mapping for reporting.
    The lower and the upper bound share one build of each global program
    and its phase 1.  An unconditional query answers both in one batch:
    one pass of the planner, which builds each of its sub-networks once
    and appends one record set to ``trace``, or one global program for
    ``lp``.  A conditional query runs a bracket, or with no evidence left
    a planner pass, per bound, over the program of the ``auto``
    reduction or the ``lp`` method.  On a chain or hidden-state sweep
    the bounds share its plan, and their brackets run in lockstep: each
    round evaluates the abscissae both ask for in one batched sweep."""
    out: dict = {"rule": q.rule, "method": q.method}

    if q.rule == "unconditional":
        lower, upper = _unconditional_bounds(net, q, trace)
        out.update(lower=lower, upper=upper, kind="exact", iterations=0)
        return out

    res_low, res_up = _conditional_bounds(net, q, trace)
    out.update(lower=res_low.value, upper=-res_up.value,
               kind=res_low.kind, iterations=res_low.iterations,
               bracket_width=res_low.width, upper_kind=res_up.kind,
               upper_iterations=res_up.iterations)
    return out
