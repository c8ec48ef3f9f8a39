"""Query dispatch: :func:`bounds` is the one dispatcher, which picks the
engine of every method and rule, and :func:`run_query` formats its
bounds.  Upper values always come from conjugacy: the gamble and its
negation go through the same machinery as one batch.  The engines
(:func:`credalnet.conditioning.root_rho`,
:func:`~credalnet.conditioning.hmm_rho` and
:func:`~credalnet.conditioning.program_rho`) return their rho alone, or
``None`` where the shape does not fit; the dispatcher builds the
evaluators of the brackets, each with the vacuous value of
:func:`credalnet.conditioning.vacuous_value`."""

from __future__ import annotations

from typing import Sequence

from . import chains, conditioning, decompose, lp
from .conditioning import BracketResult, RhoEvaluator
from .errors import HypothesisError, InputError
from .fileio import Query, _check_query
from .network import CredalNetwork, Event, Factor


def bounds(net: CredalNetwork, gambles: Sequence[Factor], given: Event | None,
           rule: str, method: str = "auto",
           tolerance: float = conditioning.DEFAULT_TOLERANCE,
           trace: list | None = None) -> list[BracketResult]:
    """The lower expectations of ``gambles`` (on one scope) given
    ``given`` (``None``: unconditional) under ``rule`` by ``method``,
    once :func:`credalnet.fileio._check_query` has passed them:

    1. ``auto`` and ``decompose`` reduce the query (``reduce_query``),
       and return the vacuous bounds where the regular rule's gate finds
       the evidence to have zero upper probability;
    2. with no evidence left, one planner pass answers, or one global
       program for ``lp`` (``exact``, or ``local-fallback`` given B);
    3. the brackets run in lockstep on ``root_rho``, else on ``hmm_rho``,
       where one fits; ``chain`` and ``hmm`` force theirs, reduce
       nothing, as their shape puts every node in K, and raise
       :class:`~credalnet.errors.HypothesisError` where it does not fit;
    4. else they run one after the other over the warm tableau of the
       global program (``program_rho``)."""
    _check_query(net, gambles, given, rule, method, tolerance)
    scope, rho = gambles[0].scope, None
    if method in ("auto", "decompose") and given is not None:
        sub, B, vacuous = conditioning.reduce_query(net, scope, given, rule,
                                                    trace)
        if vacuous:
            return [BracketResult(conditioning.vacuous_value(net, f, given),
                                  "vacuous-fallback", 0, 0.0)
                    for f in gambles]
        net, given = sub, B
    elif method == "chain":
        order = chains.chain_order(net)
        if given is None:
            if scope not in ((order[-1],), ()):
                raise InputError(f"factor must be scoped to node "
                                 f"{order[-1]!r}")
        elif not (given.cylinder and given.scope == (order[-1],)
                  and scope in ((order[0],), ()) and (
                      rho := conditioning.root_rho(
                          net, order[0], given.assignment(), gambles))):
            raise HypothesisError(
                "chain dispatch needs a gamble on the first node "
                "conditioned on the value of the last one")
    elif method == "hmm":
        if given is None:
            raise HypothesisError(
                "hidden-state dispatch requires a conditional query")
        if not (given.cylinder and (rho := conditioning.hmm_rho(
                net, given.assignment(), gambles))):
            raise HypothesisError(
                "hidden-state dispatch needs a gamble on the final state "
                "node given the value of every observation node")
    if given is None:
        values = lp.lower_expectation_lp(net, gambles) if method == "lp" \
            else decompose.lower_expectation(net, gambles, trace=trace)
        kind = "exact" if rule == "unconditional" else "local-fallback"
        return [BracketResult(float(v), kind, 0, 0.0) for v in values]
    if rho is None and method != "lp" and given.cylinder:
        seen = given.assignment()
        rho = (len(scope) == 1 and conditioning.root_rho(
            net, scope[0], seen, gambles) or conditioning.hmm_rho(
                net, seen, gambles))
    evaluators = [RhoEvaluator(i, f.min(), f.max(),
                               conditioning.vacuous_value(net, f, given))
                  for i, f in enumerate(gambles)]
    if rho is not None:
        return conditioning.condition(rho, evaluators, rule, tolerance)
    rho = conditioning.program_rho(net, given, gambles, lp.GlobalPolytope(net))
    return [conditioning.condition(rho, [ev], rule, tolerance)[0]
            for ev in evaluators]


def run_query(net: CredalNetwork, q: Query, trace: list | None = None) -> dict:
    """Evaluate one query by :func:`bounds`, the gamble and its negation
    in one batch; returns a flat result mapping for reporting.  ``trace``
    gets one record set per query."""
    low, up = bounds(net, [q.target, -q.target], q.given, q.rule, q.method,
                     q.tolerance, trace)
    out = {"rule": q.rule, "method": q.method, "lower": low.value,
           "upper": -up.value, "kind": low.kind, "iterations": low.iterations}
    if q.rule != "unconditional":
        out.update(bracket_width=low.width, upper_kind=up.kind,
                   upper_iterations=up.iterations)
    return out
