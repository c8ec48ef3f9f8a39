"""Shared generators and assembly helpers for the test suite."""

from __future__ import annotations

from itertools import combinations, product
from typing import Mapping

import numpy as np
from scipy.optimize import linprog

from credalnet import decompose
from credalnet.chains import chain_order
from credalnet.credal import CredalSet, vertices_to_constraints
from credalnet.errors import InputError
from credalnet.graph import Dag, is_closed, set_relations
from credalnet.network import CredalNetwork, Factor


def fig_dag() -> Dag:
    """The ten-node example graph used throughout: 1->3<-2, 3->4->7,
    3->5->7, 5->8<-6, 7->9, 7->10."""
    return Dag(
        [str(i) for i in range(1, 11)],
        [("1", "3"), ("2", "3"), ("3", "4"), ("3", "5"), ("6", "8"),
         ("5", "8"), ("4", "7"), ("7", "10"), ("5", "7"), ("7", "9")])


def random_dag(rng: np.random.Generator, n_nodes: int, edge_p: float = 0.4) -> Dag:
    names = [str(i + 1) for i in range(n_nodes)]
    edges = [(names[i], names[j])
             for i in range(n_nodes) for j in range(i + 1, n_nodes)
             if rng.random() < edge_p]
    return Dag(names, edges)


def chain_dag(n_nodes: int) -> Dag:
    names = [str(i + 1) for i in range(n_nodes)]
    return Dag(names, list(zip(names, names[1:])))


# -- separation oracles -----------------------------------------------------
#
# Two brute-force references for the traversal of ``graph.ad_separated``
# and ``graph.d_separated``: every simple path tested against the
# blocking conditions one by one, and the closed-subset characterisation
# of AD-separation.  Both are exponential; small graphs only.

def _edge_kind(dag: Dag, a: str, b: str) -> str:
    """'fwd' if a->b, 'bwd' if b->a, error otherwise."""
    if (a, b) in dag.edges:
        return "fwd"
    if (b, a) in dag.edges:
        return "bwd"
    raise InputError(f"nodes {a!r} and {b!r} are not adjacent")


def path_blocked(dag: Dag, path, C, dsep: bool = False) -> bool:
    """Whether the conditioning set C blocks a path.

    A path is blocked when its first or last node is in C, when an
    intermediate node of C is left along an edge direction, or when an
    intermediate collider is outside C and has no descendant in C.  With
    ``dsep=True`` the extra d-separation condition is added: an
    intermediate node of C also blocks when the path *enters* it against
    the edge direction it continues on (right-to-left chains).
    """
    if not path:
        raise InputError("empty path")
    dag.check_subset(path)
    Cf = frozenset(C)
    dag.check_subset(Cf)
    kinds = [_edge_kind(dag, path[i], path[i + 1]) for i in range(len(path) - 1)]

    if path[0] in Cf or path[-1] in Cf:
        return True
    for i in range(1, len(path) - 1):
        v = path[i]
        into, out = kinds[i - 1], kinds[i]
        if out == "fwd" and v in Cf:          # v -> next with v in C
            return True
        if dsep and into == "bwd" and v in Cf:  # prev <- v with v in C
            return True
        if into == "fwd" and out == "bwd":     # collider prev -> v <- next
            if v not in Cf and not (dag.descendants(v) & Cf):
                return True
    return False


def all_paths_blocked(dag: Dag, I, S, C, dsep: bool = False) -> bool:
    """Enumerate every simple path from I to S and test each with
    :func:`path_blocked`."""
    Cf = frozenset(C)
    neighbours = {s: set(dag.parents(s)) | set(dag.children(s)) for s in dag.nodes}

    def extend(path: list) -> bool:
        # True as soon as one unblocked path to S is found.
        if path[-1] in S and not path_blocked(dag, path, Cf, dsep=dsep):
            return True
        for w in neighbours[path[-1]]:
            if w not in path:
                path.append(w)
                if extend(path):
                    return True
                path.pop()
        return False

    return not any(extend([i]) for i in I)


def ad_separated_closed(dag: Dag, I, S, C) -> bool:
    """Closed-subset characterisation of AD-separation: true iff some
    closed K contains S, has all parents in C, keeps I among its
    non-parent non-descendants and has no descendant inside C.  Requires
    pairwise disjoint I, S, C."""
    If, Sf, Cf = frozenset(I), frozenset(S), frozenset(C)
    for X in (If, Sf, Cf):
        dag.check_subset(X)
    if If & Sf or If & Cf or Sf & Cf:
        raise InputError("I, S and C must be pairwise disjoint")

    pool = [s for s in dag.nodes if s not in Sf and s not in If]
    for r in range(len(pool) + 1):
        for extra in combinations(pool, r):
            K = Sf | frozenset(extra)
            if not is_closed(dag, K):
                continue
            rel = set_relations(dag, K)
            if (rel.parents <= Cf and If <= rel.non_parent_non_descendants
                    and not (rel.descendants & Cf)):
                return True
    return False


def interval_locals(dag: Dag, rng: np.random.Generator,
                    lo: float = 0.05, hi: float = 0.95,
                    min_width: float = 0.02) -> dict:
    """One two-vertex binary credal set per (node, parent configuration)."""
    locals_ = {}
    for s in dag.nodes:
        for cfg in product(*(("0", "1") for _ in dag.parents(s))):
            a, b = np.sort(rng.uniform(lo, hi, size=2))
            if b - a < min_width:
                b = min(hi, a + min_width)
            locals_[(s, cfg)] = CredalSet(("0", "1"),
                                          vertices=[(a, 1 - a), (b, 1 - b)])
    return locals_


def zero_bound_locals(dag: Dag, rng: np.random.Generator) -> dict:
    """Binary local sets P(0) in [a, b] with probabilities of zero: a is
    0 with probability 0.35, b is 1 with probability 0.15, and with
    probability 0.1 the set is the point mass on one state."""
    locals_ = {}
    for s in dag.nodes:
        for cfg in product(*(("0", "1") for _ in dag.parents(s))):
            a, b = np.sort(rng.uniform(0.05, 0.95, size=2))
            if rng.random() < 0.35:
                a = 0.0
            if rng.random() < 0.15:
                b = 1.0
            if rng.random() < 0.1:
                a = b = float(rng.integers(0, 2))
            locals_[(s, cfg)] = CredalSet(("0", "1"), vertices=[
                (a, 1 - a), (b, 1 - b)][:1 + (a < b)])
    return locals_


def binary_net(dag: Dag, locals_: dict) -> CredalNetwork:
    return CredalNetwork(dag, {s: ("0", "1") for s in dag.nodes}, locals_)


def random_binary_net(rng: np.random.Generator, n_nodes: int,
                      edge_p: float = 0.4, **kw) -> CredalNetwork:
    dag = random_dag(rng, n_nodes, edge_p)
    return binary_net(dag, interval_locals(dag, rng, **kw))


def random_chain_net(rng: np.random.Generator, n_nodes: int,
                     **kw) -> CredalNetwork:
    dag = chain_dag(n_nodes)
    return binary_net(dag, interval_locals(dag, rng, **kw))


def hmm_dag(n_obs: int, order: int = 1) -> tuple[Dag, tuple, tuple]:
    """State chain s1..s{n+1} emitting o1..on; order 2 adds the
    grandparent transitions."""
    states = tuple(f"s{i+1}" for i in range(n_obs + 1))
    obs = tuple(f"o{i+1}" for i in range(n_obs))
    edges = [(states[i], states[i + 1]) for i in range(n_obs)]
    edges += [(states[i], obs[i]) for i in range(n_obs)]
    if order == 2:
        edges += [(states[i], states[i + 2]) for i in range(n_obs - 1)]
    nodes = [x for pair in zip(states, obs) for x in pair] + [states[-1]]
    return Dag(nodes, edges), states, obs


def random_hmm_net(rng: np.random.Generator, n_obs: int, order: int = 1,
                   **kw) -> tuple[CredalNetwork, tuple, tuple]:
    dag, states, obs = hmm_dag(n_obs, order)
    return binary_net(dag, interval_locals(dag, rng, **kw)), states, obs


def redeclared(net: CredalNetwork, nodes) -> CredalNetwork:
    """The same network with its nodes declared in the order ``nodes``;
    each local set is re-keyed to the new order of its node's parents."""
    dag = Dag(nodes, net.dag.edges)
    locals_ = {}
    for s in dag.nodes:
        for cfg in product(*(net.states(p) for p in dag.parents(s))):
            given = dict(zip(dag.parents(s), cfg))
            locals_[(s, cfg)] = net.local(s, net.parent_config(s, given))
    return CredalNetwork(dag, net.state_spaces, locals_)


#: The tolerances of ``bench/reference.py``, tighter than HiGHS's
#: defaults (1e-7).
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


def highs_minimum(c, H, *, free: bool = False) -> tuple[float, np.ndarray]:
    """The minimum of ``c @ x`` over ``x >= 0``, ``sum x = 1``,
    ``H x >= 0`` and a minimiser, by HiGHS: the adjudicator of the
    in-repo simplex, on a path that shares no code with it.  ``free``
    drops ``x >= 0``."""
    c = np.asarray(c, dtype=float)
    H = np.asarray(H, dtype=float).reshape(-1, len(c))
    res = linprog(c, A_ub=-H, b_ub=np.zeros(len(H)),
                  A_eq=np.ones((1, len(c))), b_eq=[1.0],
                  bounds=(None, None) if free else (0, None),
                  method="highs", options=HIGHS_OPTIONS)
    assert res.status == 0
    return float(res.fun), res.x


def constraint_twin(net: CredalNetwork) -> CredalNetwork:
    """The same network with every non-singleton local set that has
    vertices given by its facet constraints instead."""
    locals_ = {key: m if m.vertices is None or len(m.vertices) == 1 else
               CredalSet(m.states, constraints=vertices_to_constraints(m))
               for key, m in net.locals.items()}
    return CredalNetwork(net.dag, net.state_spaces, locals_)


#: Three-state sets whose rows, without the simplex, do not imply
#: p >= 0: each as its constraints and as its vertices.
CUT_STATES = ("a", "b", "c")
CUT_SETS = [
    # p(a) >= 1/4
    ([((1.0, 0.0, 0.0), 0.25)],
     [(1.0, 0.0, 0.0), (0.25, 0.75, 0.0), (0.25, 0.0, 0.75)]),
    # p(b) >= p(c)
    ([((0.0, 1.0, -1.0), 0.0)],
     [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.5, 0.5)]),
]


def simplex_cut_net(as_vertices: bool) -> CredalNetwork:
    """y <- x -> w, with the leaves y and w three-state and given the
    sets of :data:`CUT_SETS`, in turn and in reverse, by their
    constraints or by their vertices; x is a binary interval.  A leaf
    with sets whose rows imply p >= 0 would make the global rows imply
    it too, so both leaves have sets whose rows do not."""
    dag = Dag(["x", "y", "w"], [("x", "y"), ("x", "w")])
    spaces = {"x": ("0", "1"), "y": CUT_STATES, "w": CUT_STATES}
    locals_ = {("x", ()): CredalSet(("0", "1"),
                                    vertices=[(0.3, 0.7), (0.6, 0.4)])}
    for s, order in (("y", CUT_SETS), ("w", CUT_SETS[::-1])):
        for x, (cons, verts) in zip(spaces["x"], order):
            locals_[(s, (x,))] = (CredalSet(CUT_STATES, vertices=verts)
                                  if as_vertices else
                                  CredalSet(CUT_STATES, constraints=cons))
    return CredalNetwork(dag, spaces, locals_)


def three_state_locals(dag: Dag, rng: np.random.Generator,
                       sizes=(3,)) -> dict:
    """Local sets over :data:`CUT_STATES`, each of a vertex count drawn
    from ``sizes``, its vertices drawn in the simplex (three of them are
    the vertices of their triangle)."""
    return {(s, cfg): CredalSet(CUT_STATES, vertices=rng.dirichlet(
                [1.0] * 3, size=int(rng.choice(sizes))))
            for s in dag.nodes
            for cfg in product(*(CUT_STATES for _ in dag.parents(s)))}


def precise_locals(dag: Dag, rng: np.random.Generator) -> dict:
    """Singleton local sets: an ordinary Bayesian network."""
    locals_ = {}
    for s in dag.nodes:
        for cfg in product(*(("0", "1") for _ in dag.parents(s))):
            a = rng.uniform(0.05, 0.95)
            locals_[(s, cfg)] = CredalSet(("0", "1"), vertices=[(a, 1 - a)])
    return locals_


def random_factor(rng: np.random.Generator, net: CredalNetwork, scope,
                  low: float = -2.0, high: float = 2.0) -> Factor:
    scope = net.dag.sorted_nodes(scope)
    values = rng.uniform(low, high, size=net.joint_count(scope))
    return net.factor_from_values(scope, values)


def restrict_factor(net: CredalNetwork, f: Factor,
                    assignment: Mapping[str, str]) -> Factor:
    """Plug fixed values into a factor: the scope shrinks by the assigned
    nodes, and the values are a view of ``f.values`` at the assigned
    states.  Nodes in the assignment that are outside the scope are
    ignored; a state outside its node's space raises
    :class:`InputError`."""
    if not any(s in assignment for s in f.scope):
        return f
    index = tuple(net.state_index(s, assignment[s]) if s in assignment
                  else slice(None) for s in f.scope)
    # the trailing Ellipsis keeps a full plug-in a 0-d view, not a scalar
    return Factor(tuple(s for s in f.scope if s not in assignment),
                  f.values[index + (Ellipsis,)])


def atom_bounds(net: CredalNetwork,
                assignment: Mapping[str, str]) -> tuple[float, float]:
    """Lower and upper probability of one joint state: both factorise
    into products of the local bounds."""
    missing = set(net.dag.nodes) - set(assignment)
    if missing:
        raise InputError(f"assignment misses nodes {sorted(missing)}")
    low, high = 1.0, 1.0
    for s in net.dag.nodes:
        local = net.local(s, net.parent_config(s, assignment))
        low *= local.lower_probability({assignment[s]})
        high *= local.upper_probability({assignment[s]})
    return low, high


def product_factor(net: CredalNetwork, parent_assignment: dict,
                   f: Factor, g: Factor | None = None) -> Factor:
    """The global gamble  g(X_NN) * 1{X_P = parent assignment} * f(X_K)
    assembled explicitly, for cross-checking factorisation results."""
    scope = net.dag.sorted_nodes(
        set(f.scope) | set(g.scope if g is not None else ())
        | set(parent_assignment))
    ind = net.aligned(net.indicator(net.cylinder(parent_assignment)), scope)
    gv = 1.0 if g is None else net.aligned(g, scope)
    return Factor(scope, gv * ind * net.aligned(f, scope))


def sum_factor(net: CredalNetwork, f: Factor, h: Factor) -> Factor:
    """The global gamble  h + f  over the union scope."""
    scope = net.dag.sorted_nodes(set(f.scope) | set(h.scope))
    return Factor(scope, net.aligned(f, scope) + net.aligned(h, scope))


def combined_factor(net: CredalNetwork, parent_assignment: dict, f: Factor,
                    h: Factor | None, g: Factor | None) -> Factor:
    """The global gamble  h + g * 1{parents} * f."""
    prod = product_factor(net, parent_assignment, f, g)
    if h is None:
        return prod
    return sum_factor(net, prod, h)


def bayes_joint(net: CredalNetwork) -> np.ndarray:
    """Factorised joint of an all-singleton network, aligned with the
    lexicographic joint-state order."""
    tuples = net.joint_tuples()
    out = np.ones(len(tuples))
    for j, t in enumerate(tuples):
        ctx = dict(zip(net.dag.nodes, t))
        for s in net.dag.nodes:
            m = net.local(s, net.parent_config(s, ctx))
            (vertex,) = m.vertices
            out[j] *= vertex[ctx[s]]
    return out


def reference_chain_lower(net: CredalNetwork, h: Factor) -> float:
    """The lower expectation of a gamble on the last chain node, by
    backward composition of the local lower expectations, from the last
    node to the first."""
    order = chain_order(net)
    g = net.aligned(h, order[-1:])
    for s in reversed(order):
        g = net.local_lower(s, g)
    return float(g)


# -- per-mu reference sweeps -----------------------------------------------
#
# The chain-reverse and hidden-state rho with nothing kept between two
# values of mu: every envelope and observation bound is recomputed, and
# the attaining mass functions are picked by index from the stacked
# vertices.  The engine's plan/evaluation split must agree bit for bit.

def reference_argmin(net: CredalNetwork, s: str, g) -> np.ndarray:
    """A mass function on ``s`` attaining each value of
    ``net.local_lower(s, g)``: the minimising row of the stacked
    vertices."""
    g = np.asarray(g, dtype=float)
    stack = net.local_stack(s)
    best = (stack @ g[..., None])[..., 0].argmin(-1)[..., None, None]
    stack = np.broadcast_to(stack, best.shape[:-2] + stack.shape[-2:])
    return np.take_along_axis(stack, best, -2)[..., 0, :]


def reference_reverse_rho(net: CredalNetwork, h: Factor, x_n: str,
                          mu: float) -> tuple[float, float, float]:
    """``conditioning.root_rho`` of the first chain node given the last
    one, at one mu, both envelopes recomputed."""
    order = chain_order(net)
    first, last = order[0], order[-1]
    hv = net.aligned(h, (first,))
    lo_env = hi_env = np.array([x == x_n for x in net.states(last)], float)
    for k in range(len(order) - 1, 0, -1):
        lo_env = net.local_lower(order[k], lo_env)
        hi_env = -net.local_lower(order[k], -hi_env)
    w = np.where(hv >= mu, lo_env, hi_env)
    g = w * (hv - mu)
    value = float(net.local_lower(first, g))
    prob = float((reference_argmin(net, first, g) * w).sum())
    return value, value + mu * prob, prob


def reference_root_conditional(net: CredalNetwork, f: Factor,
                               evidence: dict) -> float:
    """The conditional of ``f`` on the first chain node given
    ``evidence`` on every other node, of positive lower probability: the
    root of the sign of rho(mu), the lower expectation at the first node
    of ``f - mu`` weighted by the lower probability of the evidence
    where ``f >= mu`` and by the upper one elsewhere, by bisection to
    machine precision (:func:`_split_root`).  The two envelopes are swept
    backward from the last node."""
    order = chain_order(net)
    lo = hi = (np.ones(net.size(order[-1])), 0.0)
    for s in reversed(order[1:]):
        seen = np.array([x == evidence[s] for x in net.states(s)], float)
        lo = _rescaled(net.local_lower(s, seen * lo[0]), lo[1])
        hi = _rescaled(-net.local_lower(s, -seen * hi[0]), hi[1])
    return _split_root(net, order[0], f, lo, hi)


def reference_smoothing(net: CredalNetwork, f: Factor,
                        observations: dict) -> float:
    """The conditional of ``f`` on the first state node of a hidden-state
    model of order 1 given ``observations`` on every observation node, of
    positive lower probability, as :func:`reference_root_conditional`
    finds it.  The envelopes are swept backward along the state nodes:
    at s_k, the lower (upper) probability of o_k given s_k times the
    transition's lower (upper) expectation of the envelope at s_(k+1)."""
    states = [s for s in net.dag.topological_order() if s not in observations]
    lo = hi = (np.ones(net.size(states[-1])), 0.0)
    for s, nxt in zip(states[-2::-1], states[:0:-1]):
        (o,) = (c for c in net.dag.children(s) if c in observations)
        seen = np.array([x == observations[o] for x in net.states(o)], float)
        lo = _rescaled(net.local_lower(o, seen) * net.local_lower(nxt, lo[0]),
                       lo[1])
        hi = _rescaled(-net.local_lower(o, -seen)
                       * -net.local_lower(nxt, -hi[0]), hi[1])
    return _split_root(net, states[0], f, lo, hi)


def _rescaled(env: np.ndarray, log: float) -> tuple[np.ndarray, float]:
    """An envelope divided by its greatest value, whose logarithm is
    added to ``log``: that keeps the signs and the ratio of two
    envelopes at any length."""
    return env / env.max(), log + np.log(env.max())


def _split_root(net: CredalNetwork, first: str, f: Factor, lo: tuple,
                hi: tuple) -> float:
    """The root of the sign of the lower expectation at ``first`` of
    ``f - mu`` weighted by the envelope ``lo`` where ``f >= mu`` and by
    ``hi`` elsewhere, each an envelope and its logarithmic scale, by
    bisection to machine precision."""
    fv = net.aligned(f, (first,))

    def positive(mu):
        low = fv >= mu
        w = lo[0] if low.all() else np.where(
            low, lo[0] * np.exp(lo[1] - hi[1]), hi[0])
        return net.local_lower(first, w * (fv - mu)) > 0.0

    lo_mu, hi_mu = f.min(), f.max()
    assert positive(lo_mu - 1.0)
    while lo_mu < 0.5 * (lo_mu + hi_mu) < hi_mu:
        mid = 0.5 * (lo_mu + hi_mu)
        lo_mu, hi_mu = (mid, hi_mu) if positive(mid) else (lo_mu, mid)
    return 0.5 * (lo_mu + hi_mu)


def reference_hmm_rho(net: CredalNetwork, f: Factor, observations: dict,
                      mu: float, rescale: bool = False
                      ) -> tuple[float, float, float]:
    """``conditioning.hmm_rho`` at one mu, the observation bounds
    recomputed at every step.  The state nodes are the unobserved ones,
    in topological order, and o_k is the observation of s_k.  ``rescale``
    divides the values and P by the largest value's magnitude after
    every step, which keeps their signs at any number of steps."""
    dag = net.dag
    s_nodes = [s for s in dag.topological_order() if s not in observations]
    o_nodes = [o for s in s_nodes[:-1] for o in dag.children(s)
               if o in observations]
    last = s_nodes[-1]
    h = net.local_lower(last, net.aligned(f, (last,)) - mu)
    prob = np.ones(h.shape)
    for k in range(len(o_nodes) - 1, -1, -1):
        sk, ok = s_nodes[k], o_nodes[k]
        seen = np.array([x == observations[ok] for x in net.states(ok)], float)
        low, high = net.local_lower(ok, seen), -net.local_lower(ok, -seen)
        nxt = net.dag.parents(s_nodes[k + 1])
        g = np.moveaxis(h, nxt.index(sk), -1)
        w = np.where(g >= 0, low, high)
        shape = [net.size(p) if p in nxt else 1
                 for p in net.dag.parents(sk)] + [net.size(sk)]
        g = (g * w).reshape(shape)
        prob = (np.moveaxis(prob, nxt.index(sk), -1) * w).reshape(shape)
        h = net.local_lower(sk, g)
        prob = (reference_argmin(net, sk, g) * prob).sum(-1)
        scale = np.abs(h).max() if rescale else 0.0
        if scale > 0.0:
            h, prob = h / scale, prob / scale
    return float(h), float(h + mu * prob), float(prob)


def reference_filtering(net: CredalNetwork, f: Factor,
                        observations: dict) -> float:
    """The filtering conditional of ``f`` given ``observations`` of
    positive lower probability: the root of the sign of the rescaled
    :func:`reference_hmm_rho`, by bisection to machine precision."""
    def positive(mu):
        return reference_hmm_rho(net, f, observations, mu, True)[0] > 0.0

    lo, hi = f.min(), f.max()
    assert positive(lo - 1.0)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if positive(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def planned(net: CredalNetwork, scope: tuple, values: np.ndarray,
            evidence: dict) -> np.ndarray:
    """The planner's lower expectations with ``evidence``
    (``decompose._plan``), read through the exponents of its rows."""
    return np.ldexp(*decompose._plan(net, scope, values, evidence, None))


def kink_grid(values, count: int = 20) -> list[float]:
    """``count`` evenly spaced values of mu from one below the least to
    one above the greatest of ``values``, and ``values`` themselves,
    where rho has its kinks."""
    values = np.unique(np.asarray(values, dtype=float))
    grid = np.linspace(values[0] - 1.0, values[-1] + 1.0, count)
    return sorted({float(x) for x in grid} | {float(x) for x in values})


# -- rho engines ------------------------------------------------------------

def lifted(*fns):
    """The batched rho engine (:data:`credalnet.conditioning.Rho`) of
    scalar test engines ``mu -> (rho, E_p[f 1_B], P_p(B))``, one per
    slot; a fourth item is the exponent of a scaled row, 0 if missing."""
    def rho(slots, mus):
        return tuple(zip(*((*fns[i](mu), 0)[:4]
                           for i, mu in zip(slots, mus))))
    return rho


def one_gamble(rho, slot: int = 0):
    """A batched rho engine at one slot, as a function of mu that returns
    the floats (rho, E, P), unscaled."""
    def at(mu):
        value, fb, pb, scale = rho([slot], [mu])
        return tuple(float(np.ldexp(a[0], int(scale[0])))
                     for a in (value, fb, pb))
    return at
