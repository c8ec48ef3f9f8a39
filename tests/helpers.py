"""Shared generators and assembly helpers for the test suite."""

from __future__ import annotations

from itertools import product

import numpy as np

from credalnet.credal import CredalSet
from credalnet.graph import Dag
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
