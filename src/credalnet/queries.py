"""Query dispatch: route a parsed query to the LP, the reduction planner,
or a specialised engine, and report lower/upper values with bracket
diagnostics.  Upper values always come from conjugacy: the gamble and
its negation go through the same machinery as one batch.  An
unconditional query goes to the global program (``lp``) or to the
planner (``auto``, ``decompose``, and ``chain`` on a chain with the
gamble on its last node).  A conditional query builds one batched rho
engine for both gambles, and the one bracket driver,
:func:`credalnet.conditioning.condition`, finds both roots: ``lp`` on
the global program; ``chain`` by the sign split at the chain's root
(:func:`credalnet.conditioning.root_rho`); ``hmm`` by the hidden-state
sweep; ``auto`` and ``decompose`` after the reduction, by one planner
pass where it leaves no evidence, else by ``root_rho`` where it
applies, else on the sub-network's global program."""

from __future__ import annotations

from . import chains, conditioning, decompose, lp
from .errors import HypothesisError, InputError
from .fileio import Query
from .network import CredalNetwork


def _chain_sweep(net: CredalNetwork, q: Query, gambles):
    """rho of the gambles, in one batch, and their evaluators, from one
    planner pass."""
    order = chains.chain_order(net)
    if q.given.cylinder and q.given.scope == (order[-1],) and \
            q.target.scope in ((order[0],), ()):
        return conditioning.root_rho(net, order[0], q.given.assignment(),
                                     gambles)
    raise HypothesisError(
        "chain dispatch needs a gamble on the first node conditioned on "
        "the value of the last one")


def _hmm_sweep(net: CredalNetwork, q: Query, gambles):
    """rho of the gambles, in one batch, from one plan, and their
    evaluators."""
    if not q.given.cylinder:
        raise HypothesisError(
            "hidden-state dispatch needs an instantiated observation event")
    spec = chains.infer_hmm_spec(net, q.given.scope)
    if q.target.scope not in ((spec.state_nodes[-1],), ()):
        raise HypothesisError(
            "hidden-state dispatch needs a gamble on the final state node")
    rho = chains.hmm_forward_rho(spec, gambles,
                                 chains.hmm_plan(spec, q.given.assignment()))
    # the observations leave the final state free: vacuous value min f
    return rho, [conditioning.RhoEvaluator(i, f.min(), f.max(), f.min())
                 for i, f in enumerate(gambles)]


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
    negation, by the query's method and rule."""
    gambles = [q.target, -q.target]
    if q.method in _SWEEPS:
        return conditioning.condition(*_SWEEPS[q.method](net, q, gambles),
                                      q.rule, q.tolerance)
    if q.method == "lp":
        rho, evaluators = conditioning.program_rho(
            net, q.given, gambles, lp.GlobalPolytope(net))
        return [conditioning.condition(rho, [ev], q.rule, q.tolerance)[0]
                for ev in evaluators]
    if q.method not in ("auto", "decompose"):
        raise InputError(f"unknown method {q.method!r}")
    reduced = conditioning.reduce_query(net, q.target.scope, q.given, q.rule)
    return conditioning.condition_reduced(reduced, gambles, q.rule,
                                          q.tolerance, trace)


def run_query(net: CredalNetwork, q: Query, trace: list | None = None) -> dict:
    """Evaluate one query; returns a flat result mapping for reporting.
    The lower and the upper bound share one build of each global program
    and its phase 1, and ``trace`` gets one record set per query.  An
    unconditional query answers both in one batch: one pass of the
    planner, which builds each of its sub-networks once, or one global
    program for ``lp``.  A conditional query reduced to no evidence
    (``auto``, ``decompose``) is one such planner pass.  Otherwise the
    bounds share one batched rho engine, and the bracket driver runs
    their brackets: in lockstep on the sign split at a root (``chain``,
    and ``auto`` or ``decompose`` on a root above all the evidence) or
    on a hidden-state sweep, each round evaluating the abscissae both
    ask for in one batched call, and one after the other over the warm
    tableau of the global program (``lp``, and ``auto`` or ``decompose``
    otherwise)."""
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
