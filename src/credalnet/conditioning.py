"""Conditional and updated lower expectations via root finding.

Everything is driven by one function of mu: the unconditional lower
expectation rho(mu) of ``1_B * (f - mu)``.  It is concave and
non-increasing; when the conditioning event has positive lower
probability it is strictly decreasing and its unique root is the
conditional lower expectation, when only the upper probability is
positive its rightmost root is the regular-extension update, and when
even the upper probability vanishes it is identically zero (the vacuous
bound ``min f over B`` is returned, flagged).  Sign tests below min f
and above max f decide the case; the regular rule's vacuous case is
decided by :func:`regular_conditional` from rho, and on a query reduced
to a sub-network first by :func:`reduce_query`.

Every engine is batched (:data:`Rho`): it evaluates rho for a batch of
gambles, each at its own mu, and also reports E_p[f 1_B] and P_p(B) at
a model p attaining rho(mu).  The engines are the global program
(:func:`program_rho`), the sign split at a root q that all the evidence
descends from (:func:`root_rho`: chains conditioned backwards, complete
evidence, and ``auto`` queries on a root), and the filtering sweep of a
hidden-state model (:func:`hmm_rho`).  The two structural engines
return ``None`` where the network's shape does not fit, and
:func:`condition_reduced` is the one dispatcher: on a reduced query it
tries :func:`root_rho`, then :func:`hmm_rho`, then the program
(:func:`condition_program`).  So the roots are found by Dinkelbach
steps, mu <- E_p[f 1_B] / P_p(B): Newton's method on the
piecewise-linear rho, whose slope at mu is -P_p(B); bisection remains
for a step that rounding keeps from decreasing mu.  The brackets are
generator steps that yield the mu they need (:func:`natural_conditional`
and :func:`regular_conditional`), and :func:`condition` is their one
driver: each round evaluates the new mus that its open brackets ask for
in one engine call, so a sweep's two bounds run in lockstep.  On the
global program one step's objective differs from the last by a
multiple of 1_B, so every evaluation, of either bound, starts phase 2
from the optimal tableau before it (:class:`credalnet.lp.GlobalPolytope`),
or from phase 1 where that optimum fails the residual check; there the
two brackets run one after the other, as interleaving them costs more
pivots.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Generator, Mapping, Sequence

import numpy as np

from . import decompose, lp
from .errors import ConvergenceError, HypothesisError, InputError, ModelError
from .graph import closure, set_relations
from .network import CredalNetwork, Event, Factor, lower_argmin, sub_network

#: Strict-positivity threshold of the sign tests and of the
#: rightmost-root safeguard.
TOL_SIGN = 1e-10

DEFAULT_TOLERANCE = 1e-9
MAX_ITERATIONS = 200

#: rho of a batch of gambles: ``rho(slots, mus)`` gives gamble ``slots[i]``
#: at ``mus[i]``, sequences ``(rho, E_p[f 1_B], P_p(B))``, p attaining rho,
#: and optionally a fourth of exponents e: then each row is 2 ** -e times.
Rho = Callable[[Sequence[int], Sequence[float]], tuple]


@dataclass
class BracketResult:
    value: float
    kind: str            # unique-root | rightmost-root | vacuous-fallback |
                         # local-fallback
    iterations: int
    width: float


@dataclass
class RhoEvaluator:
    """What one bracket knows of rho: the slot of its gamble in the
    batched engine, the range of f, the vacuous fallback value (min of f
    over B), and the evaluations so far.

    The sign tests read values as scaled.  An abscissa seen before is
    not evaluated again.  Evaluations are opportunistically checked for
    monotonicity: rho must be non-increasing in mu, so a violation beyond
    tolerance exposes a broken engine.
    """

    slot: int
    f_min: float
    f_max: float
    vacuous_value: float
    _mus: list = field(default_factory=list, repr=False)
    _vals: list = field(default_factory=list, repr=False)
    _seen: dict = field(default_factory=dict, repr=False)

    def rho(self, mu: float, value, fb, pb, scale=0) -> None:
        """Check and record 2 ** -scale times rho(mu), E_p[f 1_B], P_p(B)."""
        value, fb, pb, scale = float(value), float(fb), float(pb), int(scale)
        step = fb / pb if pb > 0.0 else None
        i, true = bisect.bisect_left(self._mus, mu), math.ldexp(value, scale)
        if i > 0 and true > self._vals[i - 1] + 1e-7:
            raise ModelError("rho engine is not non-increasing in mu")
        if i < len(self._mus) and true < self._vals[i] - 1e-7:
            raise ModelError("rho engine is not non-increasing in mu")
        self._mus.insert(i, mu)
        self._vals.insert(i, true)
        self._seen[mu] = (value, step, scale)

    def recorded(self, mu: float) -> tuple[float, float | None, int]:
        """At an evaluated ``mu``: rho as scaled, the Dinkelbach step
        E_p[f 1_B] / P_p(B), which is at least the root (``None`` when
        P_p(B) is zero), and the scale."""
        return self._seen[mu]


def _sign(evaluator: RhoEvaluator, lower: bool) -> Generator:
    """Positive lower probability of B  <=>  rho positive below min f;
    positive upper probability  <=>  rho negative above max f."""
    mu = evaluator.f_min - 1.0 if lower else evaluator.f_max + 1.0
    yield mu
    return (1.0 if lower else -1.0) * evaluator.recorded(mu)[0] > TOL_SIGN


def natural_conditional(evaluator: RhoEvaluator,
                        tolerance: float) -> Generator:
    """The natural rule's bracket: the unique root of rho, the
    conditional lower expectation, defined when the conditioning event
    has positive lower probability; otherwise the natural extension
    cannot be recovered from rho.  Each step yields the mu it needs,
    which :func:`condition` evaluates first."""
    if (yield from _sign(evaluator, True)):
        return (yield from _unique_root(evaluator, tolerance))
    raise HypothesisError(
        "conditioning event has zero lower probability; the "
        "natural-extension conditional is not computable from rho")


def regular_conditional(evaluator: RhoEvaluator,
                        tolerance: float) -> Generator:
    """The regular rule's bracket: the updated lower expectation under
    the regular extension, at positive lower probability the natural
    conditional, at zero lower but positive upper probability the
    rightmost root of rho, and else, every model being discarded by the
    update, the vacuous bound, flagged."""
    if (yield from _sign(evaluator, True)):
        return (yield from _unique_root(evaluator, tolerance))
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
    r, step, scale = evaluator.recorded(mu)
    slope = r / (evaluator.f_max - mu)
    for it in range(1, MAX_ITERATIONS + 1):
        if step is None or (it > 1 and step >= mu):
            mu = 0.5 * (lo + hi)
        else:
            mu = min(max(step - 0.5 * tolerance, lo), hi)
        yield mu
        r, step, s = evaluator.recorded(mu)
        if r > 0.0:
            lo, right = mu, hi
        else:
            try:
                shift = math.ldexp(r / slope, s - scale)
            except OverflowError:   # no bound: the slope is that small
                shift = -math.inf
            lo, right = max(lo, mu + shift), mu
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
        r, step, _ = evaluator.recorded(mu)
        if r >= -TOL_SIGN:
            width = 0.0 if step is None else max(0.0, mu - step)
            return BracketResult(mu, "rightmost-root", it, width)
    raise ConvergenceError(
        f"Dinkelbach steps did not converge in {MAX_ITERATIONS} iterations")


def condition(rho: Rho, evaluators: Sequence[RhoEvaluator], rule: str,
              tolerance: float = DEFAULT_TOLERANCE) -> list[BracketResult]:
    """The conditional lower expectation under ``rule`` of the gamble of
    each evaluator, from the batched engine ``rho``: its brackets run in
    lockstep, each round evaluating the new mus that the open ones ask
    for in one call ``rho(slots, mus)`` at their evaluators' slots.  An
    engine whose evaluations share state, as the global program's warm
    tableau does, is driven one bracket per call.  The regular rule's
    vacuous case is decided there, by rho's sign above max f; on a
    reduced query :func:`reduce_query` decides it first."""
    if rule == "natural":
        bracket = natural_conditional
    elif rule == "regular":
        bracket = regular_conditional
    else:
        raise InputError(f"unknown rule {rule!r}")
    steps = [bracket(ev, tolerance) for ev in evaluators]
    asked, results = dict(enumerate(map(next, steps))), {}
    while asked:
        new = [(evaluators[i], mu) for i, mu in asked.items()
               if mu not in evaluators[i]._seen]
        if new:
            rows = rho([ev.slot for ev, _ in new], [mu for _, mu in new])
            for (ev, mu), *row in zip(new, *rows):
                ev.rho(mu, *row)
        for i in list(asked):
            try:
                asked[i] = next(steps[i])
            except StopIteration as stop:
                del asked[i]
                results[i] = stop.value
    return [results[i] for i in range(len(steps))]


# -- the global program's engine --------------------------------------------

def _vacuous_bound(net: CredalNetwork, f: Factor, B: Event) -> float:
    """min of f over B, over the joint states of the two scopes only."""
    scope = net.dag.sorted_nodes(set(f.scope) | set(B.scope))
    values = net.aligned(f, scope)[net.aligned(net.indicator(B), scope) > 0.0]
    if not values.size:
        raise InputError("conditioning event is empty")
    return float(values.min())


def program_rho(net: CredalNetwork, B: Event, gambles: Sequence[Factor],
                gp: lp.GlobalPolytope) -> tuple[Rho, list[RhoEvaluator]]:
    """rho of each of ``gambles`` given ``B`` on the network's global
    program ``gp``, and the evaluators of their brackets, which read the
    vacuous value off the joint vectors.  Every evaluation, of any of the
    gambles, starts phase 2 from the last optimal tableau of ``gp``, so
    their brackets run one after the other."""
    if B.empty:
        raise InputError("conditioning event is empty")
    ib = lp.event_mask(net, B).astype(float)
    ibfs = [ib * lp.factor_vector(net, f) for f in gambles]

    def rho(slots, mus):
        rows = []
        for i, mu in zip(slots, mus):
            value, x = gp.minimize(ibfs[i] - mu * ib, warm=True)
            rows.append((value, ibfs[i] @ x, ib @ x))
        return tuple(zip(*rows))

    return rho, [RhoEvaluator(i, f.min(), f.max(), float(ibf[ib > 0].min()))
                 for i, (f, ibf) in enumerate(zip(gambles, ibfs))]


# -- the engine of evidence below a root -------------------------------------

def _sign_split(argmin: Callable, hs: np.ndarray, low: np.ndarray,
                high: np.ndarray) -> Rho:
    """rho of weighted gambles ``h``, the rows of ``hs``: rho(mu) is the
    lower expectation of ``w * (h - mu)``, where ``w`` is ``low`` where
    ``h >= mu`` and ``high`` elsewhere, by ``argmin`` (value and an
    attaining mass function).  The weights' mean under that mass
    function is P(B) at a model attaining rho."""

    def rho(slots, mus):
        h, mus = hs[list(slots)], np.reshape(mus, (-1, 1))
        w = np.where(h >= mus, low, high)
        value, mass = argmin(w * (h - mus))
        prob = (mass[:, None] @ w[..., None])[:, 0, 0]
        return value, value + mus.ravel() * prob, prob

    return rho


def root_rho(net: CredalNetwork, q: str, evidence: Mapping[str, str],
             gambles: Sequence[Factor]
             ) -> tuple[Rho, list[RhoEvaluator]] | None:
    """rho of each of ``gambles`` (on q, or constant) given ``evidence``
    on the root q and below it, and their evaluators; ``None`` unless the
    ancestral set of the evidence below q peels down to {q}.

    By the iterated law at q, rho(mu) is then one contraction at q's
    local set of ``f - mu`` weighted by the lower probability P̲(B | q)
    of the evidence below q where ``f >= mu`` and by the upper one
    elsewhere (:func:`_sign_split`), both from one planner pass over the
    batch [1, -1] (:func:`credalnet.decompose._peels`).  Evidence on q
    multiplies both by its indicator, and fixes the vacuous value."""
    dag, below = net.dag, dict(evidence)
    seen = below.pop(q, None)
    # once the peels leave {q}, every unobserved node they took descends
    # from q; so does all the evidence, unless some of it is on a root
    if dag.parents(q) or any(not dag.parents(s) for s in below):
        return None
    A, _, env = decompose._peels(net, (), np.array([1.0, -1.0]), below, None)
    if A - {q}:
        return None
    env = env.reshape(2, -1)    # one column where nothing lies below q
    hs = np.array([net.aligned(f, (q,)) for f in gambles])
    vacuous = hs.min(1)
    if seen is not None:
        x = net.state_index(q, seen)
        env, vacuous = env * (np.arange(net.size(q)) == x), hs[:, x]
    return (_sign_split(partial(net.local_lower_argmin, q), hs, env[0],
                        -env[1]),
            [RhoEvaluator(i, f.min(), f.max(), float(v))
             for i, (f, v) in enumerate(zip(gambles, vacuous))])


# -- the hidden-state sweep ---------------------------------------------------

def hmm_rho(net: CredalNetwork, evidence: Mapping[str, str],
            gambles: Sequence[Factor]
            ) -> tuple[Rho, list[RhoEvaluator]] | None:
    """rho of each of ``gambles`` given ``evidence`` by filtering, and
    their evaluators; ``None`` unless the network is a hidden-state model
    of order 1 or 2 (a chain of state nodes, each but the last emitting
    one observation node, plus the grandparent transitions at order 2),
    the evidence is on exactly its observation nodes, and the gambles are
    on the final state node, or constant.

    rho(mu) is one backward sweep, linear in the time steps: the local
    lower expectations of ``f - mu`` at the final state node, then per
    step the sign-split weight of the observation's lower or upper
    probability given each state, and the transition's local lower
    expectation; P, of the later observations at the attaining model,
    takes the same weights and mass functions.  What depends on neither
    the gamble nor mu (the observation bounds, each step's axes and local
    stack) is computed here, once.  As P shrinks geometrically, each row
    is scaled by a power of two every 16 steps, to stay in the float
    range, and at the end, to put P in [1/2, 1): no sign or bit moves,
    and the sign tests read rho relative to P."""
    dag, n = net.dag, len(evidence)
    if not n or len(dag.nodes) != 2 * n + 1:
        return None
    states = [s for s in dag.topological_order() if s not in evidence]
    last = states[-1]
    if any(f.scope not in ((last,), ()) for f in gambles):
        return None
    obs = [c for s in states[:-1] for c in dag.children(s) if c in evidence]
    if len(obs) != n or len(set(obs)) != n:
        return None
    edges = set(zip(states, obs)) | set(zip(states, states[1:]))
    if dag.edges not in (edges, edges | set(zip(states, states[2:]))):
        return None
    plan = []
    for k in range(n - 1, -1, -1):
        sk, ok = states[k], obs[k]
        seen = (np.arange(net.size(ok)) ==
                net.state_index(ok, evidence[ok])).astype(float)
        nxt = dag.parents(states[k + 1])
        i = nxt.index(sk) + 1
        # moves the axis of s_k last
        axes = (0,) + tuple(j for j in range(1, len(nxt) + 1) if j != i) + (i,)
        # the envelope depends on the parents of s_k that s_{k+1} shares
        shape = (-1,) + tuple(net.size(p) if p in nxt else 1
                              for p in dag.parents(sk)) + (net.size(sk),)
        low, high = net.local_lower(ok, np.array([seen, -seen])[:, None])
        plan.append((k, net.local_stack(sk), axes, shape, low, -high))
    ones = np.ones((1,) + net.shape(dag.parents(last)))
    # a unit axis per parent, so that no gamble axis is read as one
    fv = np.array([net.aligned(f, (last,)) for f in gambles])
    fv = fv.reshape(len(gambles), *(1,) * (ones.ndim - 1), -1)

    def rho(slots, mus):
        mus = np.reshape(mus, (-1,) + (1,) * (fv.ndim - 1))
        # h is an array over the gambles and the parents of the next
        # state node, in declaration order
        h, prob = net.local_lower(last, fv[list(slots)] - mus), ones
        scale = 0
        for k, stack, axes, shape, low, high in plan:
            g = h.transpose(axes)
            w = np.where(g >= 0, low, high)
            prob = (prob.transpose(axes) * w).reshape(shape)
            g = (g * w).reshape(shape)
            if k and k % 16 == 0:
                _, e = np.frexp(prob.reshape(len(prob), -1).max(1))
                unit = np.ldexp(1.0, -e).reshape(-1, *(1,) * (g.ndim - 1))
                g, prob, scale = g * unit, prob * unit, scale + e
            h, mass = lower_argmin(stack, g)
            prob = (mass * prob).sum(-1)
        prob, e = np.frexp(prob)
        h = np.ldexp(h, -e)
        return h, h + mus.ravel() * prob, prob, scale + e

    # the observations leave the final state free: vacuous value min f
    return rho, [RhoEvaluator(i, f.min(), f.max(), f.min())
                 for i, f in enumerate(gambles)]


# -- structural reduction before bracketing ---------------------------------

def _grow_closed_for(net: CredalNetwork, scope, given: Mapping[str, str]):
    """Smallest closed K containing the scope such that all external
    parents of K are instantiated by the conditioning assignment and no
    conditioned node is a descendant of K.  A needed node brings its
    ungiven ancestors, up to the given ones, in the same round, so that
    a chain of them costs one reach, not one round per node."""
    K = closure(net.dag, frozenset(scope) if scope else
                frozenset([net.dag.nodes[0]]))
    given_nodes = set(given)
    while True:
        rel = set_relations(net.dag, K)
        need = set(rel.parents - given_nodes) | (rel.descendants & given_nodes)
        if not need:
            return K, rel
        stack = list(need)
        while stack:
            new = set(net.dag.parents(stack.pop())) - given_nodes - K - need
            need |= new
            stack.extend(new)
        K = closure(net.dag, K | need)


@dataclass(frozen=True)
class ReducedQuery:
    """A conditional query moved to the sub-network ``net``, shared by
    every gamble on one scope: the evidence left inside it (``None``:
    none, and both rules reduce to the unconditional value), the
    marginalisation step, and ``vacuous``: the evidence has zero upper
    probability, so that the regular rule returns the vacuous bound."""

    net: CredalNetwork
    given: Event | None
    record: decompose.Reduction | None = None
    vacuous: bool = False


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
    sub = net if len(K) == len(net.dag.nodes) else \
        sub_network(net, K, pa_assignment)
    record = decompose.Reduction("marginalisation", {
        "K": tuple(sorted(K)), "rule": rule,
        "parents": tuple(sorted(pa_assignment.items()))})
    vacuous = rule == "regular" and not _upper_positive_outside(
        net, {**pa_assignment, **outside})
    # no evidence inside K: both updating rules reduce to the
    # unconditional sub-network value
    return ReducedQuery(sub, sub.cylinder(inside) if inside else None,
                        record, vacuous)


def condition_reduced(reduced: ReducedQuery, gambles: Sequence[Factor],
                      rule: str, tolerance: float = DEFAULT_TOLERANCE,
                      trace: list | None = None) -> list[BracketResult]:
    """The conditional lower expectations of ``gambles`` (on one scope)
    under ``rule`` on a reduced query, by the first engine that fits its
    structure: the vacuous bounds where :func:`reduce_query` found the
    evidence to have zero upper probability, the planner's values in one
    pass when no evidence is left (``local-fallback``), :func:`condition`
    in lockstep on :func:`root_rho` or else on :func:`hmm_rho` where one
    applies, and else :func:`condition_program`.  The marginalisation
    step goes to ``trace`` once."""
    if trace is not None and reduced.record is not None:
        trace.append(reduced.record)
    net, given = reduced.net, reduced.given
    if reduced.vacuous:
        return [BracketResult(f.min() if given is None else
                              _vacuous_bound(net, f, given),
                              "vacuous-fallback", 0, 0.0) for f in gambles]
    if given is None:
        values = decompose.lower_expectation(net, gambles, trace=trace)
        return [BracketResult(float(v), "local-fallback", 0, 0.0)
                for v in values]
    if given.cylinder:
        scope, evidence = gambles[0].scope, given.assignment()
        engine = root_rho(net, scope[0], evidence, gambles) \
            if len(scope) == 1 else None
        if engine is None:
            engine = hmm_rho(net, evidence, gambles)
        if engine is not None:
            return condition(*engine, rule, tolerance)
    return condition_program(net, given, gambles, rule, tolerance)


def condition_program(net: CredalNetwork, given: Event,
                      gambles: Sequence[Factor], rule: str,
                      tolerance: float = DEFAULT_TOLERANCE
                      ) -> list[BracketResult]:
    """The conditional lower expectations of ``gambles`` given ``given``
    under ``rule`` on the network's global program, one bracket after
    the other over its warm tableau (:func:`program_rho`)."""
    rho, evaluators = program_rho(net, given, gambles, lp.GlobalPolytope(net))
    return [condition(rho, [ev], rule, tolerance)[0] for ev in evaluators]


def _upper_positive_outside(net: CredalNetwork,
                            evidence: Mapping[str, str]) -> bool:
    """Positivity of the upper probability that the non-descendants of
    K give to ``evidence`` over them, from the planner on ``net``, equal
    by marginalisation, as they form an ancestral set."""
    return not evidence or -decompose._plan(
        net, (), np.array([-1.0]), evidence, None)[0] > TOL_SIGN
