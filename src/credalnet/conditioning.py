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
a model p attaining rho(mu).  An engine returns its :data:`Rho` alone,
or ``None`` where the query's shape does not fit it; the one query
dispatcher, :func:`credalnet.queries.bounds`, builds the evaluators,
with the vacuous value of :func:`vacuous_value`, and picks the engine:
:func:`root_rho` (evidence below a root: chains conditioned backwards,
complete evidence, ``auto`` queries on a root), then :func:`hmm_rho`
(filtering), then the global program (:func:`program_rho`).  The first
two are one backward sweep (:func:`_sweep`) with one sign rule: the
evidence below a node weighs the values above it by its lower
probability where they are >= 0 and by its upper one elsewhere, and
each row is scaled by a power of two that puts P_p(B) in [1/2, 1).  The
sign tests compare the rows as scaled with :data:`TOL_SIGN`: relative to
P_p(B) there, and absolute on the program, whose values at most 13 nodes
stay far from underflow.  The roots are found by Dinkelbach steps, mu <-
E_p[f 1_B] / P_p(B): Newton's method on the piecewise-linear rho, whose
slope at mu is -P_p(B); bisection remains for a step that rounding keeps
from decreasing mu.  The brackets are generator steps that yield the mu
they need (:func:`natural_conditional` and :func:`regular_conditional`),
and :func:`condition` is their one driver: each round evaluates the new
mus that its open brackets ask for in one engine call, so a sweep's two
bounds run in lockstep, and one after the other on the global program's
warm tableau (:func:`program_rho`), as interleaving costs more pivots.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Generator, Mapping, Sequence

import numpy as np

from . import decompose, lp
from .errors import ConvergenceError, HypothesisError, InputError, ModelError
from .graph import closure, set_relations
from .network import CredalNetwork, Event, Factor, lower_argmin, sub_network

#: Strict-positivity threshold of the sign tests, on the rows as scaled.
TOL_SIGN = 1e-10

DEFAULT_TOLERANCE = 1e-9
MAX_ITERATIONS = 200

#: rho of a batch of gambles: ``rho(slots, mus)`` gives gamble ``slots[i]``
#: at ``mus[i]``, sequences ``(rho, E_p[f 1_B], P_p(B), e)``, p attaining
#: rho, where each row is 2 ** -e times its values.
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

    def rho(self, mu: float, value, fb, pb, scale) -> None:
        """Check and record 2 ** -scale times rho(mu), E_p[f 1_B], P_p(B)."""
        value, fb, pb, scale = float(value), float(fb), float(pb), int(scale)
        step = fb / pb if pb > 0.0 else None
        i, true = bisect.bisect_left(self._mus, mu), math.ldexp(value, scale)
        if (i > 0 and true > self._vals[i - 1] + 1e-7) or (
                i < len(self._mus) and true < self._vals[i] - 1e-7):
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
    step is left of mu.  By the sign rule, rho is read as scaled:
    relative to P_p(B) on the structural engines."""
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


def vacuous_value(net: CredalNetwork, f: Factor, B: Event) -> float:
    """min of f over B: f at the assignment of a cylinder B on the scope
    of f, and else over the joint states of the two scopes only."""
    if B.empty:
        raise InputError("conditioning event is empty")
    if B.cylinder:
        seen = B.assignment()
        return float(f.values[tuple(
            net.state_index(s, seen[s]) if s in seen else slice(None)
            for s in f.scope)].min())
    scope = net.dag.sorted_nodes(set(f.scope) | set(B.scope))
    return float(net.aligned(f, scope)[
        net.aligned(net.indicator(B), scope) > 0.0].min())


# -- the global program's engine --------------------------------------------

def program_rho(net: CredalNetwork, B: Event, gambles: Sequence[Factor],
                gp: lp.GlobalPolytope) -> Rho:
    """rho of each of ``gambles`` given ``B`` on the network's global
    program ``gp``.  Every evaluation, of any of the gambles, starts
    phase 2 from the last optimal tableau of ``gp`` (the objective moves
    by a multiple of 1_B), or from phase 1 where that fails the residual
    check, so their brackets run one after the other."""
    ib = lp.event_mask(net, B).astype(float)
    ibfs = [ib * lp.factor_vector(net, f) for f in gambles]

    def rho(slots, mus):
        rows = []
        for i, mu in zip(slots, mus):
            value, x = gp.minimize(ibfs[i] - mu * ib, warm=True)
            rows.append((value, ibfs[i] @ x, ib @ x, 0))
        return tuple(zip(*rows))

    return rho


# -- the structural engines: evidence below a root, and filtering -----------

def _sweep(plan: list, h: np.ndarray, mus: np.ndarray) -> tuple:
    """The backward sweep of both structural engines: the :data:`Rho`
    rows of the gambles on the leading axis of the values ``h`` at
    ``mus``, and of P, which is 1 until the first weight.  Each step
    ``(k, stack, axes, shape, low, high, exps)`` of ``plan`` (k down to 0)
    moves the axes, weighs values and P by the sign rule (``low`` where
    the values are >= 0, ``high`` elsewhere) and contracts both at
    ``stack``, P by the attaining mass functions.  At one node, ``low``
    may be two rows, the lower weights times 2 ** -e for e in ``exps`` =
    (e_high, e_low): a row takes e_low where all its states take the lower
    weight, else e_high.  Rows are rescaled every 16 steps, P at the end."""
    scale, prob = 0, None
    for k, stack, axes, shape, low, high, exps in plan:
        g = h.transpose(axes)
        lower = g >= 0
        if exps is not None:
            pick = np.logical_and.reduce(lower, 1).view(np.int8)
            low, scale = low.take(pick, 0), scale + exps.take(pick)
        w = np.where(lower, low, high)
        prob = (w if prob is None else prob.transpose(axes) * w).reshape(shape)
        g = (g * w).reshape(shape)
        if k and k % 16 == 0:
            scale, g, prob = decompose._renormalise(scale, prob, g, prob)
        h, mass = lower_argmin(stack, g)
        prob = (mass * prob).sum(-1)
    prob, e = np.frexp(prob)
    h = np.ldexp(h, -e)
    return h, h + mus.ravel() * prob, prob, scale + e


def root_rho(net: CredalNetwork, q: str, evidence: Mapping[str, str],
             gambles: Sequence[Factor]) -> Rho | None:
    """rho of each of ``gambles`` (on q, or constant) given ``evidence``
    on the root q and below it; ``None`` unless the ancestral set of the
    evidence below q peels down to {q}.

    By the iterated law at q, rho(mu) is then one step of the sweep
    (:func:`_sweep`) at q: ``f - mu`` weighted by the lower probability
    P̲(B | q) of the evidence below q where ``f >= mu`` and by the upper
    one elsewhere, each with its exponent from one planner pass over the
    batch [1, -1] (:func:`credalnet.decompose._peels`).  Evidence on q
    multiplies both by its indicator."""
    dag, below = net.dag, dict(evidence)
    seen = below.pop(q, None)
    # once the peels leave {q}, every unobserved node they took descends
    # from q; so does all the evidence, unless some of it is on a root
    if dag.parents(q) or any(not dag.parents(s) for s in below):
        return None
    A, _, env, exps = decompose._peels(net, (), np.array([1.0, -1.0]),
                                       below, None)
    if A - {q}:
        return None
    env = env.reshape(2, -1)    # one column where nothing lies below q
    if seen is not None:
        env = env * (np.arange(net.size(q)) == net.state_index(q, seen))
    hs = np.array([net.aligned(f, (q,)) for f in gambles])
    e = np.zeros(2, int) + exps     # 0 where nothing lies below q
    plan = [(0, net.local_stack(q), (0, 1), (-1, net.size(q)),
             np.ldexp(env[0], (e - e[1])[:, None]), -env[1], e[::-1])]

    def rho(slots, mus):
        mus = np.array(mus)[:, None]
        return _sweep(plan, hs.take(slots, 0) - mus, mus)

    return rho


def hmm_rho(net: CredalNetwork, evidence: Mapping[str, str],
            gambles: Sequence[Factor]) -> Rho | None:
    """rho of each of ``gambles`` given ``evidence`` by filtering;
    ``None`` unless the network is a hidden-state model of order 1 or 2
    (a chain of state nodes, each but the last emitting one observation
    node, plus the grandparent transitions at order 2), the evidence is
    on exactly its observation nodes, and the gambles are on the final
    state node, or constant.

    rho(mu) is the local lower expectations of ``f - mu`` at the final
    state node, then one step of the sweep (:func:`_sweep`) per time
    step: the values weighted by the observation's lower probability
    given each state where they are >= 0 and by its upper one elsewhere,
    then the transition's contraction.  What depends on neither the
    gamble nor mu (the observation bounds, each step's axes and local
    stack) is computed here, once."""
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
        plan.append((k, net.local_stack(sk), axes, shape, low, -high, None))
    # a unit axis per parent, so that no gamble axis is read as one
    fv = np.array([net.aligned(f, (last,)) for f in gambles])
    fv = fv.reshape(len(gambles), *(1,) * len(dag.parents(last)), -1)

    def rho(slots, mus):
        mus = np.array(mus).reshape((-1,) + (1,) * (fv.ndim - 1))
        # values over the gambles and the next state node's parents
        h = net.local_lower(last, fv.take(slots, 0) - mus)
        return _sweep(plan, h, mus)

    return rho


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


def reduce_query(net: CredalNetwork, scope, given: Event | None,
                 rule: str = "natural", trace: list | None = None
                 ) -> tuple[CredalNetwork, Event | None, bool]:
    """Move a conditional query on a gamble over ``scope`` to the
    smallest consistent closed node set K, for a cylinder conditioning
    event: the sub-network, the evidence left inside it (``None``: none,
    and both rules reduce to the unconditional value), and whether the
    regular rule returns the vacuous bound.  This is where that case is
    decided on a reduced query, before any sub-network is built: the
    evidence has zero upper probability exactly when the rest of the
    network gives its share of it zero upper probability (then the
    network and the event come back as they are), or the sub-network
    gives zero upper probability to the evidence inside K, which
    :func:`regular_conditional` detects.  The marginalisation step goes
    to ``trace``."""
    if given is None:
        return net, None, False
    if given.empty:
        raise InputError("conditioning event is empty")
    if not given.scope:
        return net, None, False
    if not given.cylinder:
        return net, given, False

    assignment = given.assignment()
    K, rel = _grow_closed_for(net, scope, assignment)
    pa_assignment = {p: assignment[p] for p in rel.parents}
    inside = {s: assignment[s] for s in assignment if s in K}
    outside = {s: assignment[s] for s in assignment
               if s in rel.non_parent_non_descendants}
    if trace is not None:
        trace.append(decompose.Reduction("marginalisation", {
            "K": tuple(sorted(K)), "rule": rule,
            "parents": tuple(sorted(pa_assignment.items()))}))
    # the upper probability that the non-descendants of K give to their
    # share of the evidence, from the planner on ``net``, equal by
    # marginalisation, as they form an ancestral set, read as scaled
    rest = {**pa_assignment, **outside}
    if rule == "regular" and rest and not -decompose._plan(
            net, (), np.array([-1.0]), rest, None)[0][0] > TOL_SIGN:
        return net, given, True
    sub = net if len(K) == len(net.dag.nodes) else \
        sub_network(net, K, pa_assignment)
    # no evidence inside K: both updating rules reduce to the
    # unconditional sub-network value
    return sub, sub.cylinder(inside) if inside else None, False
