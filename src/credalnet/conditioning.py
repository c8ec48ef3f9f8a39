"""Conditional and updated lower expectations via root finding.

Everything is driven by one scalar function of mu: the unconditional
lower expectation of ``1_B * (f - mu)``.  It is concave and
non-increasing; when the conditioning event has positive lower
probability it is strictly decreasing and its unique root is the
conditional lower expectation, when only the upper probability is
positive its rightmost root is the regular-extension update, and when
even the upper probability vanishes it is identically zero (the vacuous
bound ``min f over B`` is returned, flagged).  Sign tests below min f
and above max f decide the case; the regular rule's vacuous case is
decided by :func:`regular_conditional` from rho, and on a query reduced
to a sub-network first by :func:`reduce_query`.

Every engine (the global program and the chain, hidden-state and
complete-evidence sweeps) also reports E_p[f 1_B] and P_p(B) at a model
p attaining rho(mu), so the roots are found by Dinkelbach steps, mu <-
E_p[f 1_B] / P_p(B): Newton's method on the piecewise-linear rho, whose
slope at mu is -P_p(B); bisection remains for a step that rounding keeps
from decreasing mu.  The brackets are generator steps that yield the mu
they need: :func:`condition` evaluates them one by one, and
:func:`condition_lockstep` runs both bounds of a sweep query together,
one batched evaluation per round.  On the global program one step's
objective differs from the last by a multiple of 1_B, so every
evaluation, of either bound, starts phase 2 from the optimal tableau
before it (:class:`credalnet.lp.GlobalPolytope`), or from phase 1 where
that optimum fails the residual check.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Generator, Mapping, Sequence

from . import decompose, lp
from .errors import ConvergenceError, HypothesisError, InputError, ModelError
from .graph import closure, set_relations
from .network import CredalNetwork, Event, Factor, sub_network

#: Strict-positivity threshold of the sign tests and of the
#: rightmost-root safeguard.
TOL_SIGN = 1e-10

DEFAULT_TOLERANCE = 1e-9
MAX_ITERATIONS = 200


@dataclass
class BracketResult:
    value: float
    kind: str            # unique-root | rightmost-root | vacuous-fallback |
                         # local-fallback
    iterations: int
    width: float


@dataclass
class RhoEvaluator:
    """Handle to any engine that evaluates mu -> lower expectation of
    ``1_B * (f - mu)``, together with the cached range of f and the
    vacuous fallback value (min of f over B).  ``fn`` returns ``(rho,
    E_p[f 1_B], P_p(B))`` at a model ``p`` that attains rho, from which
    the brackets take Dinkelbach steps; it is ``None`` where
    :func:`condition_lockstep` evaluates and records in batches.

    Evaluations are recorded, and an abscissa seen before is not
    evaluated again.  They are opportunistically checked for
    monotonicity: the function must be non-increasing in mu, so a
    violation beyond tolerance exposes a broken engine.
    """

    fn: Callable[[float], tuple[float, float, float]] | None
    f_min: float
    f_max: float
    vacuous_value: float
    _mus: list = field(default_factory=list, repr=False)
    _vals: list = field(default_factory=list, repr=False)
    _seen: dict = field(default_factory=dict, repr=False)

    def rho(self, mu: float) -> float:
        if mu not in self._seen:
            self.record(mu, *self.fn(mu))
        return self._seen[mu][0]

    def record(self, mu: float, value, fb, pb) -> None:
        """Check and record rho(mu) = value, E_p[f 1_B] and P_p(B)."""
        value, fb, pb = float(value), float(fb), float(pb)
        step = fb / pb if pb > 0.0 else None
        i = bisect.bisect_left(self._mus, mu)
        if i > 0 and value > self._vals[i - 1] + 1e-7:
            raise ModelError("rho engine is not non-increasing in mu")
        if i < len(self._mus) and value < self._vals[i] - 1e-7:
            raise ModelError("rho engine is not non-increasing in mu")
        self._mus.insert(i, mu)
        self._vals.insert(i, value)
        self._seen[mu] = (value, step)

    def recorded(self, mu: float) -> tuple[float, float | None]:
        """rho at an evaluated ``mu``, and the Dinkelbach step from it:
        E_p[f 1_B] / P_p(B) at its attaining model p, which is at least
        the root.  The step is ``None`` when P_p(B) is zero."""
        return self._seen[mu]


def _drive(evaluator: RhoEvaluator, steps: Generator):
    """Evaluate each mu that ``steps`` yield; return what they return."""
    try:
        while True:
            evaluator.rho(next(steps))
    except StopIteration as stop:
        return stop.value


def _sign(evaluator: RhoEvaluator, lower: bool) -> Generator:
    mu = evaluator.f_min - 1.0 if lower else evaluator.f_max + 1.0
    yield mu
    return (1.0 if lower else -1.0) * evaluator.recorded(mu)[0] > TOL_SIGN


def lower_prob_positive(evaluator: RhoEvaluator) -> bool:
    """Positive lower probability of B  <=>  rho positive below min f."""
    return _drive(evaluator, _sign(evaluator, True))


def upper_prob_positive(evaluator: RhoEvaluator) -> bool:
    """Positive upper probability of B  <=>  rho negative above max f."""
    return _drive(evaluator, _sign(evaluator, False))


def natural_conditional(evaluator: RhoEvaluator,
                        tolerance: float = DEFAULT_TOLERANCE) -> BracketResult:
    """Unique root of rho: the conditional lower expectation, defined
    when the conditioning event has positive lower probability; otherwise
    the natural extension cannot be recovered from rho."""
    return _drive(evaluator, _bracket(evaluator, "natural", tolerance))


def regular_conditional(evaluator: RhoEvaluator,
                        tolerance: float = DEFAULT_TOLERANCE) -> BracketResult:
    """Updated lower expectation under the regular extension: at positive
    lower probability the natural conditional, at zero lower but positive
    upper probability the rightmost root of rho, and else, every model
    being discarded by the update, the vacuous bound, flagged."""
    return _drive(evaluator, _bracket(evaluator, "regular", tolerance))


def _bracket(evaluator: RhoEvaluator, rule: str,
             tolerance: float) -> Generator:
    """The bracket of ``rule`` as generator steps: each yields the mu it
    needs, which its driver evaluates through ``evaluator`` first."""
    if rule not in ("natural", "regular"):
        raise InputError(f"unknown rule {rule!r}")
    if (yield from _sign(evaluator, True)):
        return (yield from _unique_root(evaluator, tolerance))
    if rule == "natural":
        raise HypothesisError(
            "conditioning event has zero lower probability; the "
            "natural-extension conditional is not computable from rho")
    if not (yield from _sign(evaluator, False)):
        return BracketResult(evaluator.vacuous_value, "vacuous-fallback",
                             0, 0.0)
    return (yield from _rightmost_root(evaluator))


def _unique_root(evaluator: RhoEvaluator, tolerance: float) -> Generator:
    """The root of rho, given rho(min f - 1) > 0 (evaluated).

    Dinkelbach steps, from the one at min f - 1, each evaluated at
    ``tolerance / 2`` left of the step.  rho falls at a rate of at least
    the lower probability of B, which is at least ``slope`` = rho(min f
    - 1) / (max f - min f + 1), and a step is never left of the root.
    So a point mu with rho(mu) <= 0 puts the root in [mu + rho(mu) /
    slope, min(mu, step(mu))], and one with rho(mu) > 0 puts it in [mu,
    step(mu)]: once a step is within ``tolerance / 2`` of the root, the
    point left of it closes the bracket.  The steps stop once the
    bracket is within ``tolerance``, and its right end is returned.
    Where rounding keeps a step from decreasing mu, the bracket is
    bisected instead."""
    lo, hi = evaluator.f_min, evaluator.f_max
    if hi - lo <= tolerance:
        return BracketResult(lo, "unique-root", 0, hi - lo)
    mu = evaluator.f_min - 1.0
    r, step = evaluator.recorded(mu)
    slope = r / (evaluator.f_max - mu)
    for it in range(1, MAX_ITERATIONS + 1):
        if step is None or (it > 1 and step >= mu):
            mu = 0.5 * (lo + hi)
        else:
            mu = min(max(step - 0.5 * tolerance, lo), hi)
        yield mu
        r, step = evaluator.recorded(mu)
        if r > 0.0:
            lo, right = mu, hi
        else:
            lo, right = max(lo, mu + r / slope), mu
        hi = max(lo, right if step is None else min(right, step))
        if hi - lo <= tolerance:
            return BracketResult(hi, "unique-root", it, hi - lo)
    raise ConvergenceError(
        f"the root was not bracketed in {MAX_ITERATIONS} iterations")


def _rightmost_root(evaluator: RhoEvaluator) -> Generator:
    """The rightmost root of rho, given rho(max f + 1) < -TOL_SIGN
    (evaluated): Dinkelbach steps from there down to the first mu with
    rho(mu) >= -TOL_SIGN, as rho(min f) is; the reported width is the
    step left from there.  While rho(mu) < -TOL_SIGN, P_p(B) > 0 and the
    step is left of mu."""
    hi, step = evaluator.f_max, evaluator.recorded(evaluator.f_max + 1.0)[1]
    for it in range(1, MAX_ITERATIONS + 1):
        mu = hi = min(max(step, evaluator.f_min), hi)
        yield mu
        r, step = evaluator.recorded(mu)
        if r >= -TOL_SIGN:
            width = 0.0 if step is None else max(0.0, mu - step)
            return BracketResult(mu, "rightmost-root", it, width)
    raise ConvergenceError(
        f"Dinkelbach steps did not converge in {MAX_ITERATIONS} iterations")


def condition(evaluator: RhoEvaluator, rule: str,
              tolerance: float = DEFAULT_TOLERANCE) -> BracketResult:
    """The conditional lower expectation under ``rule``, from rho: the
    :func:`natural_conditional` or the :func:`regular_conditional`.  The
    regular rule's vacuous case is decided there, by rho's sign above
    max f; on a reduced query :func:`reduce_query` decides it first."""
    if rule == "natural":
        return natural_conditional(evaluator, tolerance)
    if rule == "regular":
        return regular_conditional(evaluator, tolerance)
    raise InputError(f"unknown rule {rule!r}")


def condition_lockstep(fn: Callable, gambles: Sequence, rule: str,
                       tolerance: float = DEFAULT_TOLERANCE
                       ) -> list[BracketResult]:
    """:func:`condition` of each gamble in lockstep: each round
    evaluates the new mus that the open brackets ask for in one call of
    the batched engine ``fn`` (:data:`credalnet.chains.Rho`; vacuous
    value min f, as a sweep's event leaves the gamble's node free)."""
    evs = [RhoEvaluator(None, float(f.min()), float(f.max()), float(f.min()))
           for f in gambles]
    steps = [_bracket(ev, rule, tolerance) for ev in evs]
    asked, results = dict(enumerate(map(next, steps))), {}
    while asked:
        new = [(i, mu) for i, mu in asked.items() if mu not in evs[i]._seen]
        if new:
            slots, mus = zip(*new)
            for (i, mu), *row in zip(new, *fn(slots, mus)):
                evs[i].record(mu, *row)
        for i in list(asked):
            try:
                asked[i] = next(steps[i])
            except StopIteration as stop:
                del asked[i]
                results[i] = stop.value
    return [results[i] for i in range(len(steps))]


# -- evaluator builders -----------------------------------------------------

def _vacuous_bound(net: CredalNetwork, f: Factor, B: Event) -> float:
    """min of f over B, over the joint states of the two scopes only."""
    scope = net.dag.sorted_nodes(set(f.scope) | set(B.scope))
    values = net.aligned(f, scope)[net.aligned(net.indicator(B), scope) > 0.0]
    if not values.size:
        raise InputError("conditioning event is empty")
    return float(values.min())


def rho_evaluator(net: CredalNetwork, f: Factor, B: Event,
                  gp: lp.GlobalPolytope | None = None) -> RhoEvaluator:
    """Evaluator backed by the global program, its constraints cached
    across evaluations, each of which starts phase 2 warm; ``gp`` is the
    network's program, when the caller has built it already."""
    if B.empty:
        raise InputError("conditioning event is empty")
    if gp is None:
        gp = lp.GlobalPolytope(net)
    fb = lp.factor_vector(net, f)
    ib = lp.event_mask(net, B).astype(float)
    ibf = ib * fb

    def fn(mu: float) -> tuple[float, float, float]:
        value, x = gp.minimize(ibf - mu * ib, warm=True)
        return value, ibf @ x, ib @ x

    return RhoEvaluator(fn, f.min(), f.max(), float(fb[ib > 0].min()))


# -- structural reduction before bracketing ---------------------------------

def _grow_closed_for(net: CredalNetwork, scope, given: Mapping[str, str]):
    """Smallest closed K containing the scope such that all external
    parents of K are instantiated by the conditioning assignment and no
    conditioned node is a descendant of K."""
    K = closure(net.dag, frozenset(scope) if scope else
                frozenset([net.dag.nodes[0]]))
    given_nodes = set(given)
    while True:
        rel = set_relations(net.dag, K)
        need = (rel.parents - given_nodes) | (rel.descendants & given_nodes)
        if not need:
            return K, rel
        K = closure(net.dag, K | need)


@dataclass(frozen=True)
class ReducedQuery:
    """A conditional query moved to the sub-network ``net``, shared by
    every gamble on one scope: the evidence left inside it (``None``:
    none, and both rules reduce to the unconditional value), the
    marginalisation step, which the trace of every bound repeats, and
    ``vacuous``: the evidence has zero upper probability, so that the
    regular rule returns the vacuous bound."""

    net: CredalNetwork
    given: Event | None
    record: decompose.Reduction | None = None
    vacuous: bool = False

    @cached_property
    def program(self) -> lp.GlobalPolytope:
        """The global program of ``net``, built on first use."""
        return lp.GlobalPolytope(self.net)


def reduce_query(net: CredalNetwork, scope, given: Event | None,
                 rule: str = "natural") -> ReducedQuery:
    """Move a conditional query on a gamble over ``scope`` to the
    smallest consistent closed node set K, for a cylinder conditioning
    event.  This is where the regular rule's vacuous case is decided on
    a reduced query: the evidence has zero upper probability exactly
    when the rest of the network gives its share of it zero upper
    probability, or the sub-network gives zero upper probability to the
    evidence inside K, which :func:`regular_conditional` detects."""
    if rule not in ("natural", "regular"):
        raise InputError(f"unknown rule {rule!r}")
    if given is None or not given.scope:
        return ReducedQuery(net, None)
    if given.empty:
        raise InputError("conditioning event is empty")
    if not given.cylinder:
        return ReducedQuery(net, given)

    assignment = given.assignment()
    K, rel = _grow_closed_for(net, scope, assignment)
    pa_assignment = {p: assignment[p] for p in rel.parents}
    inside = {s: assignment[s] for s in assignment if s in K}
    outside = {s: assignment[s] for s in assignment
               if s in rel.non_parent_non_descendants}
    sub = sub_network(net, K, pa_assignment)
    record = decompose.Reduction("marginalisation", {
        "K": tuple(sorted(K)), "rule": rule,
        "parents": tuple(sorted(pa_assignment.items()))})
    vacuous = rule == "regular" and not _upper_positive_outside(
        net, rel, {**pa_assignment, **outside})
    # no evidence inside K: both updating rules reduce to the
    # unconditional sub-network value
    return ReducedQuery(sub, sub.cylinder(inside) if inside else None,
                        record, vacuous)


def condition_reduced(reduced: ReducedQuery, f: Factor, rule: str,
                      tolerance: float = DEFAULT_TOLERANCE,
                      trace: list | None = None) -> BracketResult:
    """The conditional lower expectation of ``f`` under ``rule`` on a
    reduced query: the vacuous bound where :func:`reduce_query` found
    the evidence to have zero upper probability, the planner's value
    when no evidence is left (``local-fallback``), else
    :func:`condition` on the query's program."""
    if trace is not None and reduced.record is not None:
        trace.append(reduced.record)
    if reduced.vacuous:
        value = f.min() if reduced.given is None else \
            _vacuous_bound(reduced.net, f, reduced.given)
        return BracketResult(value, "vacuous-fallback", 0, 0.0)
    if reduced.given is None:
        value = decompose.lower_expectation(reduced.net, f, trace=trace)
        return BracketResult(value, "local-fallback", 0, 0.0)
    ev = rho_evaluator(reduced.net, f, reduced.given, reduced.program)
    return condition(ev, rule, tolerance)


def _upper_positive_outside(net: CredalNetwork, rel,
                            evidence: Mapping[str, str]) -> bool:
    """Positivity of the upper probability that the non-descendants of
    K give to ``evidence`` over them: the atom product when it
    instantiates them all, else the planner's upper probability on
    ``net``, equal by marginalisation, as they form an ancestral set."""
    if not evidence:
        return True
    if set(evidence) == rel.non_descendants:
        nsub = sub_network(net, rel.non_descendants, {})
        return decompose.atom_bounds(nsub, evidence)[1] > TOL_SIGN
    ind = net.indicator(net.cylinder(evidence))
    return -decompose.lower_expectation(net, -ind) > TOL_SIGN
