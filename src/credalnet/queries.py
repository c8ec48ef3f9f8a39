"""Query dispatch: route a parsed query to the LP, the reduction planner,
or a specialised engine, and report lower/upper values with bracket
diagnostics.  Upper values always come from conjugacy: the gamble and
its negation go through the same machinery as one batch.  An
unconditional query goes to the global program (``lp``) or to the
planner (``auto``, ``decompose``, and ``chain`` on a chain with the
gamble on its last node).  A conditional query under ``auto`` or
``decompose`` is reduced (:func:`credalnet.conditioning.reduce_query`),
and the structural dispatcher,
:func:`credalnet.conditioning.condition_reduced`, picks its engine.  The
other methods only force one: ``lp`` the global program, ``chain`` the
sign split at the chain's root (:func:`credalnet.conditioning.root_rho`)
and ``hmm`` the filtering sweep (:func:`credalnet.conditioning.hmm_rho`);
the last two raise :class:`~credalnet.errors.HypothesisError` where the
network's shape does not fit, and reduce nothing, as their shape puts
every node in the reduced set."""

from __future__ import annotations

from . import chains, conditioning, decompose, lp
from .errors import HypothesisError, InputError
from .fileio import Query
from .network import CredalNetwork


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


def _conditional_bounds(net: CredalNetwork, q: Query, trace: list | None
                        ) -> list[conditioning.BracketResult]:
    """The conditional lower expectations of the query's gamble and of its
    negation, by the query's method and rule."""
    gambles = [q.target, -q.target]
    if q.method in ("auto", "decompose"):
        reduced = conditioning.reduce_query(net, q.target.scope, q.given,
                                            q.rule)
        return conditioning.condition_reduced(reduced, gambles, q.rule,
                                              q.tolerance, trace)
    if q.method == "lp":
        return conditioning.condition_program(net, q.given, gambles, q.rule,
                                              q.tolerance)
    if q.method == "chain":
        # the chain's shape, not the reduction, puts every node in K
        order = chains.chain_order(net)
        engine = q.given.cylinder and q.given.scope == (order[-1],) and \
            q.target.scope in ((order[0],), ()) and conditioning.root_rho(
                net, order[0], q.given.assignment(), gambles)
        if not engine:
            raise HypothesisError(
                "chain dispatch needs a gamble on the first node "
                "conditioned on the value of the last one")
    elif q.method == "hmm":
        engine = q.given.cylinder and conditioning.hmm_rho(
            net, q.given.assignment(), gambles)
        if not engine:
            raise HypothesisError(
                "hidden-state dispatch needs a gamble on the final state "
                "node given the value of every observation node")
    else:
        raise InputError(f"unknown method {q.method!r}")
    return conditioning.condition(*engine, q.rule, q.tolerance)


def run_query(net: CredalNetwork, q: Query, trace: list | None = None) -> dict:
    """Evaluate one query; returns a flat result mapping for reporting.
    The lower and the upper bound are one batch, the gamble and its
    negation.  An unconditional query, or a conditional one reduced to no
    evidence (``auto``, ``decompose``), is one planner pass, or one
    global program for ``lp``.  Otherwise the bounds share one batched
    rho engine: their brackets run in lockstep on a structural sweep, and
    one after the other over the warm tableau of the global program.
    ``trace`` gets one record set per query."""
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
