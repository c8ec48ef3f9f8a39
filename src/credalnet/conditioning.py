"""Conditional and updated lower expectations via root finding.

Everything is driven by one scalar function of mu: the unconditional
lower expectation of ``1_B * (f - mu)``.  It is concave and
non-increasing; when the conditioning event has positive lower
probability it is strictly decreasing and its unique root is the
conditional lower expectation, when only the upper probability is
positive its rightmost root is the regular-extension update, and when
even the upper probability vanishes it is identically zero and carries
no information (the vacuous bound ``min f over B`` is returned,
flagged).  Sign tests at ``min f - 1`` and ``max f + 1`` decide which
case applies.

On the global program an evaluation also yields a minimising model p,
and the roots are found by Dinkelbach steps, mu <- E_p[f 1_B] / P_p(B):
Newton's method on the piecewise-linear rho, whose slope at mu is
-P_p(B), which takes a handful of evaluations.  The unique root stops on
a certified bracket whose width is reported; the rightmost root stops
where rho is no longer clearly negative.  Bisection remains for the
evaluators without a minimiser (the chain and hidden-state recursions,
the reduction planner and :func:`rho_from_vertices`) and for a step that
rounding keeps from decreasing mu.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import decompose, lp
from .errors import ConvergenceError, HypothesisError, InputError, ModelError
from .graph import set_relations
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
    vacuous fallback value (min of f over B).

    When ``minimiser`` is set, ``fn`` returns ``(rho, E_p[f 1_B],
    P_p(B))`` at a minimising model ``p``, and the brackets take
    Dinkelbach steps; otherwise it returns rho alone and they bisect.

    Evaluations are recorded, and an abscissa seen before is not
    evaluated again.  They are opportunistically checked for
    monotonicity: the function must be non-increasing in mu, so a
    violation beyond tolerance exposes a broken engine.
    """

    fn: Callable[[float], float]
    f_min: float
    f_max: float
    vacuous_value: float
    minimiser: bool = False
    _mus: list = field(default_factory=list, repr=False)
    _vals: list = field(default_factory=list, repr=False)
    _seen: dict = field(default_factory=dict, repr=False)

    def rho(self, mu: float) -> float:
        if mu in self._seen:
            return self._seen[mu][0]
        step = None
        if self.minimiser:
            value, fb, pb = map(float, self.fn(mu))
            if pb > 0.0:
                step = fb / pb
        else:
            value = float(self.fn(mu))
        i = bisect.bisect_left(self._mus, mu)
        if i > 0 and value > self._vals[i - 1] + 1e-7:
            raise ModelError("rho engine is not non-increasing in mu")
        if i < len(self._mus) and value < self._vals[i] - 1e-7:
            raise ModelError("rho engine is not non-increasing in mu")
        self._mus.insert(i, mu)
        self._vals.insert(i, value)
        self._seen[mu] = (value, step)
        return value

    def recorded(self, mu: float) -> tuple[float, float | None]:
        """rho at an evaluated ``mu``, and the Dinkelbach step from it:
        E_p[f 1_B] / P_p(B) at its minimiser p, which is at least the
        root.  The step is ``None`` without a minimiser or when P_p(B) is
        zero."""
        return self._seen[mu]


def rho(evaluator: RhoEvaluator, mu: float) -> float:
    """The bracketing function at one abscissa."""
    return evaluator.rho(mu)


def lower_prob_positive(evaluator: RhoEvaluator) -> bool:
    """Positive lower probability of B  <=>  rho positive below min f."""
    return evaluator.rho(evaluator.f_min - 1.0) > TOL_SIGN


def upper_prob_positive(evaluator: RhoEvaluator) -> bool:
    """Positive upper probability of B  <=>  rho negative above max f."""
    return evaluator.rho(evaluator.f_max + 1.0) < -TOL_SIGN


def natural_conditional(evaluator: RhoEvaluator,
                        tolerance: float = DEFAULT_TOLERANCE) -> BracketResult:
    """Unique root of rho: the conditional lower expectation.

    Only defined when the conditioning event has positive lower
    probability; otherwise the root is not unique and the natural
    extension cannot be recovered from rho."""
    if not lower_prob_positive(evaluator):
        raise HypothesisError(
            "conditioning event has zero lower probability; the "
            "natural-extension conditional is not computable from rho")
    return _unique_root(evaluator, tolerance)


def _unique_root(evaluator: RhoEvaluator, tolerance: float) -> BracketResult:
    """The root of rho, given rho(min f - 1) > 0 (evaluated).

    With a minimiser: Dinkelbach steps, from the one at min f - 1.  rho
    falls at a rate of at least the lower probability of B, which is at
    least ``slope`` = rho(min f - 1) / (max f - min f + 1).  So a step mu
    with rho(mu) <= 0 puts the root in [mu + rho(mu) / slope, mu], and
    one that rounding put left of the root, rho(mu) > 0, puts it in [mu,
    step(mu)].  The steps stop once that bracket is within ``tolerance``.
    A step that fails to decrease mu hands the bracket to bisection,
    which evaluators without a minimiser run from the start."""
    lo, hi = evaluator.f_min, evaluator.f_max
    if hi - lo <= tolerance:
        return BracketResult(lo, "unique-root", 0, hi - lo)
    it = 0
    if evaluator.minimiser:
        mu = evaluator.f_min - 1.0
        r, step = evaluator.recorded(mu)
        slope = r / (evaluator.f_max - mu)
        while step is not None and it < MAX_ITERATIONS:
            mu = min(max(step, lo), hi)
            it += 1
            evaluator.rho(mu)
            r, step = evaluator.recorded(mu)
            if r > 0.0:
                lo = mu
                if step is not None:
                    hi = max(mu, min(hi, step))
            else:
                lo, hi = max(lo, mu + r / slope), mu
            if hi - lo <= tolerance:
                return BracketResult(mu, "unique-root", it, hi - lo)
            if step is not None and step >= mu:
                break
    for it in range(it + 1, MAX_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        r = evaluator.rho(mid)
        if r > 0.0:
            lo = mid
        elif r < 0.0:
            hi = mid
        else:
            lo = hi = mid
        if hi - lo <= tolerance:
            return BracketResult(0.5 * (lo + hi), "unique-root", it, hi - lo)
    raise ConvergenceError(
        f"bisection did not converge in {MAX_ITERATIONS} iterations")


def regular_conditional(evaluator: RhoEvaluator,
                        tolerance: float = DEFAULT_TOLERANCE) -> BracketResult:
    """Updated lower expectation under the regular extension.

    Positive lower probability: same unique root as the natural
    conditional.  Zero lower but positive upper probability: the
    rightmost root of rho (see :func:`_rightmost_root`).  Zero upper
    probability: every model is discarded by the update; the value falls
    back to the vacuous bound and is flagged."""
    if lower_prob_positive(evaluator):
        return _unique_root(evaluator, tolerance)
    if not upper_prob_positive(evaluator):
        return BracketResult(evaluator.vacuous_value, "vacuous-fallback",
                             0, 0.0)
    return _rightmost_root(evaluator, tolerance)


def _rightmost_root(evaluator: RhoEvaluator, tolerance: float
                    ) -> BracketResult:
    """The rightmost root of rho, given rho(max f + 1) < 0 (evaluated).

    Dinkelbach steps, when the evaluator has a minimiser, from the one
    at max f + 1: they decrease towards the root from the right, and stop
    at the first mu with rho(mu) >= -TOL_SIGN; the reported width is the
    step left from there.  Otherwise, or when a step fails to decrease
    mu, a bisection treats a barely negative evaluation as "right of the
    root" only after confirming the sign at a widened abscissa (rho may
    decrease very slowly there)."""
    lo, hi = evaluator.f_min, evaluator.f_max
    it = 0
    if evaluator.minimiser:
        mu = evaluator.f_max + 1.0
        _, step = evaluator.recorded(mu)
        while step is not None and step < mu and it < MAX_ITERATIONS:
            mu = min(max(step, lo), hi)
            it += 1
            evaluator.rho(mu)
            r, step = evaluator.recorded(mu)
            if r >= -TOL_SIGN:
                width = 0.0 if step is None else max(0.0, mu - step)
                return BracketResult(mu, "rightmost-root", it, width)
            hi = mu
    if evaluator.rho(hi) >= -TOL_SIGN:
        return BracketResult(hi, "rightmost-root", it, 0.0)
    if hi - lo <= tolerance:
        return BracketResult(lo, "rightmost-root", it, hi - lo)
    widen = max(4.0 * tolerance, 1e-9 * (evaluator.f_max - evaluator.f_min))
    for it in range(it + 1, MAX_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        r = evaluator.rho(mid)
        if r >= 0.0:
            lo = mid
        elif r < -TOL_SIGN:
            hi = mid
        else:
            # r is in [-tol_sign, 0): it may be a true zero polluted by
            # noise, or the genuinely slow decrease right of the root.
            # Only a clearly negative re-evaluation slightly beyond mid
            # certifies "right of the root"; otherwise round towards the
            # left, which can only overestimate by a bounded sliver.
            probe = min(mid + widen, 0.5 * (mid + hi))
            if evaluator.rho(probe) < -TOL_SIGN:
                hi = probe
            else:
                lo = probe
        if hi - lo <= tolerance:
            return BracketResult(lo, "rightmost-root", it, hi - lo)
    raise ConvergenceError(
        f"bisection did not converge in {MAX_ITERATIONS} iterations")


def condition(evaluator: RhoEvaluator, rule: str,
              tolerance: float = DEFAULT_TOLERANCE, *,
              rest_upper_positive: bool = False,
              vacuous_on_zero_lower: bool = False) -> BracketResult:
    """The conditional lower expectation under ``rule``, from rho.

    The natural rule takes the unique root; with zero lower probability
    it raises :class:`HypothesisError`, or returns the vacuous bound when
    ``vacuous_on_zero_lower`` is set.  The regular rule takes the unique
    root, or the vacuous bound, when ``rest_upper_positive`` says that
    the rest of the network gives the evidence positive upper
    probability (the gate of a reduced query), and is
    :func:`regular_conditional` otherwise."""
    if rule not in ("natural", "regular"):
        raise InputError(f"unknown rule {rule!r}")
    if rule == "regular" and not rest_upper_positive:
        return regular_conditional(evaluator, tolerance)
    try:
        return natural_conditional(evaluator, tolerance)
    except HypothesisError:
        if rule == "natural" and not vacuous_on_zero_lower:
            raise
        return BracketResult(evaluator.vacuous_value, "vacuous-fallback",
                             0, 0.0)


# -- evaluator builders -----------------------------------------------------

def _vacuous_bound(net: CredalNetwork, f: Factor, B: Event) -> float:
    """min of f over B, over the joint states of the two scopes only."""
    scope = net.dag.sorted_nodes(set(f.scope) | set(B.scope))
    values = net.aligned(f, scope)[net.aligned(net.indicator(B), scope) > 0.0]
    if not values.size:
        raise InputError("conditioning event is empty")
    return float(values.min())


def rho_evaluator(net: CredalNetwork, f: Factor, B: Event, *,
                  method: str = "auto") -> RhoEvaluator:
    """Evaluator backed by the global program (constraints cached across
    evaluations) or by the reduction planner."""
    if B.empty:
        raise InputError("conditioning event is empty")
    vac = _vacuous_bound(net, f, B)
    if method in ("lp", "auto"):
        gp = lp.GlobalPolytope(net)
        fb = lp.factor_vector(net, f)
        ib = lp.event_mask(net, B).astype(float)
        ibf = ib * fb

        def fn(mu: float) -> tuple[float, float, float]:
            value, x = gp.minimize(ibf - mu * ib)
            return value, ibf @ x, ib @ x

        return RhoEvaluator(fn, f.min(), f.max(), vac, minimiser=True)
    if method == "planner":
        scope = net.dag.sorted_nodes(set(f.scope) | set(B.scope))
        fa = net.aligned(f, scope)
        ind = net.aligned(net.indicator(B), scope)

        def fn(mu: float) -> float:
            return decompose.lower_expectation(
                net, Factor(scope, ind * (fa - mu)))

        return RhoEvaluator(fn, f.min(), f.max(), vac)
    raise InputError(f"unknown method {method!r}")


def rho_from_vertices(vertices: np.ndarray, fv: np.ndarray, mask: np.ndarray,
                      f_min: float, f_max: float) -> RhoEvaluator:
    """Evaluator over pre-enumerated joint extreme points: rho(mu) is the
    minimum over vertices of two cached dot products."""
    V = np.asarray(vertices, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise InputError("conditioning event is empty")
    a = V[:, mask] @ fv[mask]
    b = V[:, mask].sum(axis=1)
    vac = float(fv[mask].min())

    def fn(mu: float) -> float:
        return float(np.min(a - mu * b))

    return RhoEvaluator(fn, f_min, f_max, vac)


def rho_callable(fn: Callable[[float], float], f_min: float, f_max: float,
                 vacuous_value: float) -> RhoEvaluator:
    """Evaluator around any specialised recursion (chains, observation
    models, complete-evidence products)."""
    return RhoEvaluator(fn, f_min, f_max, vacuous_value)


# -- structural reduction before bracketing ---------------------------------

def _grow_closed_for(net: CredalNetwork, scope, given: Mapping[str, str]):
    """Smallest closed K containing the scope such that all external
    parents of K are instantiated by the conditioning assignment and no
    conditioned node is a descendant of K."""
    from .graph import closure
    K = closure(net.dag, frozenset(scope) if scope else
                frozenset([net.dag.nodes[0]]))
    given_nodes = set(given)
    while True:
        rel = set_relations(net.dag, K)
        need = (rel.parents - given_nodes) | (rel.descendants & given_nodes)
        if not need:
            return K, rel
        K = closure(net.dag, K | need)


def reduce_then_condition(net: CredalNetwork, f: Factor,
                          given: Event | None, rule: str = "natural", *,
                          tolerance: float = DEFAULT_TOLERANCE,
                          method: str = "auto",
                          trace: list | None = None) -> BracketResult:
    """Shrink a conditional query to a sub-network before bracketing.

    For cylinder conditioning events the query is moved to the smallest
    consistent closed node set; under the regular rule the sub-network
    case is selected by the positivity of the upper probability that the
    rest of the network gives to its share of the evidence.  Non-cylinder
    events fall back to direct bracketing on the full network.
    """
    if rule not in ("natural", "regular"):
        raise InputError(f"unknown rule {rule!r}")
    if given is None or not given.scope:
        value = decompose.lower_expectation(net, f, method=method, trace=trace)
        return BracketResult(value, "local-fallback", 0, 0.0)
    if given.empty:
        raise InputError("conditioning event is empty")

    if not given.cylinder:
        return condition(rho_evaluator(net, f, given, method="lp"), rule,
                         tolerance)

    assignment = given.assignment()
    K, rel = _grow_closed_for(net, f.scope, assignment)
    pa_assignment = {p: assignment[p] for p in rel.parents}
    inside = {s: assignment[s] for s in assignment if s in K}
    outside = {s: assignment[s] for s in assignment
               if s in rel.non_parent_non_descendants}
    sub = sub_network(net, K, pa_assignment)
    if trace is not None:
        trace.append(decompose.Reduction("marginalisation", {
            "K": tuple(sorted(K)), "rule": rule,
            "parents": tuple(sorted(pa_assignment.items()))}))

    if not inside:
        # trivial sub-network conditioning event: both updating rules
        # reduce to the unconditional sub-network value
        value = decompose.lower_expectation(sub, f, method=method, trace=trace)
        return BracketResult(value, "local-fallback", 0, 0.0)

    ev = rho_evaluator(sub, f, sub.cylinder(inside),
                       method="lp" if sub.joint_count() <= 4096 else method)
    # regular rule: the sub-network case depends on the upper probability
    # the non-descendants give to their share of the evidence
    return condition(ev, rule, tolerance, rest_upper_positive=(
        rule == "regular"
        and _rest_upper_positive(net, rel, pa_assignment, outside)))


def _rest_upper_positive(net: CredalNetwork, rel, pa_assignment: Mapping,
                         outside: Mapping) -> bool:
    """Positivity of the upper probability that the non-descendants
    sub-network assigns to (parent assignment, outside evidence)."""
    evidence = dict(pa_assignment)
    evidence.update(outside)
    if not rel.non_descendants:
        return True
    nsub = sub_network(net, rel.non_descendants, {})
    if set(evidence) == set(rel.non_descendants):
        # full instantiation: the upper probability is the atom product
        _, high = decompose.atom_bounds(nsub, evidence)
        return high > TOL_SIGN
    if not evidence:
        return True
    ev = rho_evaluator(nsub, Factor.constant(1.0), nsub.cylinder(evidence),
                       method="lp")
    return upper_prob_positive(ev)
