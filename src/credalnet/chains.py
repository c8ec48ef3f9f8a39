"""Linear-time recursions for chains, hidden-state models and
complete-evidence queries.

A chain query composes transfer operators backwards: the operator of
node k maps a gamble on X_k to the gamble on X_{k-1} whose value at each
predecessor state is the local lower expectation.  Reverse conditioning
and observation-weighted recursions evaluate the bracketing function of
the conditioning module in one backward sweep instead of solving a
global program per abscissa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import conditioning, decompose
from .errors import HypothesisError, InputError
from .network import CredalNetwork, Factor, sub_network

__all__ = [
    "TransferOperator", "chain_order", "chain_forward", "chain_reverse_rho",
    "HmmSpec", "infer_hmm_spec", "hmm_forward_rho",
    "complete_evidence_lower",
]


def chain_order(net: CredalNetwork) -> tuple[str, ...]:
    """The nodes from root to leaf; raises when the DAG is not a simple
    chain."""
    dag = net.dag
    roots = [s for s in dag.nodes if not dag.parents(s)]
    if len(dag.edges) != len(dag.nodes) - 1 or len(roots) != 1:
        raise HypothesisError("network is not a simple chain")
    order = [roots[0]]
    while True:
        ch = dag.children(order[-1])
        if not ch:
            break
        if len(ch) > 1:
            raise HypothesisError("network is not a simple chain")
        order.append(ch[0])
    if len(order) != len(dag.nodes):
        raise HypothesisError("network is not a simple chain")
    return tuple(order)


class TransferOperator:
    """Backward map of a chain step: a gamble on the node's states becomes
    the gamble of local lower expectations, one per predecessor state.

    Monotone, constant-additive and positively homogeneous, like every
    lower expectation."""

    def __init__(self, net: CredalNetwork, node: str):
        parents = net.dag.parents(node)
        if len(parents) != 1:
            raise HypothesisError(f"node {node!r} does not have exactly "
                                  "one parent")
        self.node = node
        self.parent = parents[0]
        self._locals = [net.local(node, (x,)) for x in net.states(self.parent)]

    def __call__(self, g: Sequence[float]) -> list[float]:
        return [m.lower_expectation(g) for m in self._locals]

    def upper(self, g: Sequence[float]) -> list[float]:
        return [-m.lower_expectation([-v for v in g]) for m in self._locals]


def _gamble_on(net: CredalNetwork, node: str, h) -> list[float]:
    if isinstance(h, Factor):
        if h.scope not in ((node,), ()):
            raise InputError(f"factor must be scoped to node {node!r}")
        return net.aligned(h, (node,)).tolist()
    values = list(map(float, h))
    if len(values) != net.size(node):
        raise InputError("gamble has the wrong number of values")
    return values


def chain_forward(net: CredalNetwork, h) -> float:
    """Lower expectation of a gamble on the last chain node, by backward
    composition of the transfer operators; linear in the chain length."""
    order = chain_order(net)
    g = _gamble_on(net, order[-1], h)
    for k in range(len(order) - 1, 0, -1):
        g = TransferOperator(net, order[k])(g)
    return net.local(order[0], ()).lower_expectation(g)


def chain_reverse_rho(net: CredalNetwork, h, x_n: str, mu: float) -> float:
    """Bracketing function for conditioning the first chain node on the
    value of the last one: the lower expectation of
    ``1{X_last = x_n} * (h(X_first) - mu)`` in one backward sweep.

    Two indicator envelopes propagate backwards (one under the lower and
    one under the upper transfer); at the front they weight the positive
    and negative parts of ``h - mu``."""
    order = chain_order(net)
    first, last = order[0], order[-1]
    hv = _gamble_on(net, first, h)
    if x_n not in net.states(last):
        raise InputError(f"unknown state {x_n!r} of node {last!r}")
    lo_env = [1.0 if x == x_n else 0.0 for x in net.states(last)]
    hi_env = list(lo_env)
    for k in range(len(order) - 1, 0, -1):
        op = TransferOperator(net, order[k])
        lo_env, hi_env = op(lo_env), op.upper(hi_env)
    g = [lo_env[i] * (hv[i] - mu) if hv[i] >= mu else hi_env[i] * (hv[i] - mu)
         for i in range(net.size(first))]
    return net.local(first, ()).lower_expectation(g)


@dataclass(frozen=True)
class HmmSpec:
    """A hidden-state model: a chain (order 1) or order-2 chain of state
    nodes, each emitting one observation node; one more state node than
    observations."""

    net: CredalNetwork
    state_nodes: tuple[str, ...]
    obs_nodes: tuple[str, ...]
    order: int = 1

    def __post_init__(self):
        s, o = self.state_nodes, self.obs_nodes
        if self.order not in (1, 2):
            raise InputError("order must be 1 or 2")
        if len(s) != len(o) + 1 or len(o) < 1:
            raise InputError("need n observation nodes and n+1 state nodes")
        expected = {(s[i], o[i]) for i in range(len(o))}
        expected |= {(s[i], s[i + 1]) for i in range(len(s) - 1)}
        if self.order == 2:
            expected |= {(s[i], s[i + 2]) for i in range(len(s) - 2)}
        if set(self.net.dag.edges) != expected:
            raise HypothesisError("network edges do not match the declared "
                                  "hidden-state shape")

    def parents_of_state(self, k: int) -> tuple[str, ...]:
        """Parents of state node k (0-based), in declaration order."""
        return self.net.dag.parents(self.state_nodes[k])


def hmm_forward_rho(spec: HmmSpec, f, observations: Mapping[str, str],
                    mu: float = 0.0) -> float:
    """Bracketing function of the filtering query: the lower expectation
    of ``1{observations} * (f(X_last_state) - mu)``.

    Backward sweep: start from the local lower expectations of ``f - mu``
    at the final state node, then alternate the sign-split observation
    weighting (lower or upper probability of the observed symbol) with
    the transition's local lower expectation.  Linear in the number of
    time steps."""
    net = spec.net
    s_nodes, o_nodes = spec.state_nodes, spec.obs_nodes
    if set(observations) != set(o_nodes):
        raise InputError("observations must assign every observation node")
    for o in o_nodes:
        if observations[o] not in net.states(o):
            raise InputError(f"unknown state {observations[o]!r} of {o!r}")
    n = len(o_nodes)

    last = s_nodes[n]
    fv = _gamble_on(net, last, f)
    f_mu = [v - mu for v in fv]
    # h maps each configuration of parents(last state) to a value
    h = {cfg: net.local(last, cfg).lower_expectation(f_mu)
         for cfg in net.parent_configs(last)}

    for k in range(n - 1, -1, -1):
        sk, ok = s_nodes[k], o_nodes[k]
        x_ok = observations[ok]
        h_next = {}
        for cfg in net.parent_configs(sk):
            gamble = []
            for x in net.states(sk):
                nxt_cfg = tuple(
                    {**dict(zip(spec.parents_of_state(k), cfg)), sk: x}[p]
                    for p in spec.parents_of_state(k + 1))
                hv = h[nxt_cfg]
                obs = net.local(ok, (x,))
                if hv >= 0:
                    weight = obs.lower_probability({x_ok})
                else:
                    weight = obs.upper_probability({x_ok})
                gamble.append(hv * weight)
            h_next[cfg] = net.local(sk, cfg).lower_expectation(gamble)
        h = h_next
    return h[()]


def infer_hmm_spec(net: CredalNetwork, obs_nodes) -> HmmSpec:
    """Build the hidden-state spec once the observation nodes are known
    (the shape alone cannot distinguish the last observation from the
    final state node).  The remaining nodes must form the state chain."""
    dag = net.dag
    obs = set(obs_nodes)
    dag.check_subset(obs)
    states = tuple(s for s in dag.topological_order() if s not in obs)
    by_state = {}
    for o in obs:
        pas = dag.parents(o)
        if len(pas) != 1 or pas[0] in by_state:
            raise HypothesisError("observation nodes must have exactly one "
                                  "parent, one observation per state")
        by_state[pas[0]] = o
    if len(states) < 2 or any(s not in by_state for s in states[:-1]):
        raise HypothesisError("cannot recognise a hidden-state shape")
    obs_sorted = tuple(by_state[s] for s in states[:-1])
    order = 2 if any(len(dag.parents(s)) == 2 for s in states) else 1
    return HmmSpec(net, states, obs_sorted, order)


def complete_evidence_lower(net: CredalNetwork, q: str,
                            x_E: Mapping[str, str], f,
                            rule: str = "natural", *,
                            tolerance: float = conditioning.DEFAULT_TOLERANCE,
                            ) -> float:
    """Lower expectation of a gamble on one node given the values of all
    other nodes.

    A leaf node reduces to its local lower expectation under both rules.
    Otherwise the query moves to the sub-network of the node and its
    descendants; there the bracketing function is a product of local
    bounds over the descendants (linear in their number), and under the
    regular rule the relevant case is selected by the product of local
    upper probabilities over the non-descendants.  Cases that are not
    recoverable from the bracketing function return the vacuous bound
    (min of f)."""
    if rule not in ("natural", "regular"):
        raise InputError(f"unknown rule {rule!r}")
    dag = net.dag
    dag._check(q)
    missing = set(dag.nodes) - {q} - set(x_E)
    if missing:
        raise InputError(f"evidence misses nodes {sorted(missing)}")
    for s in x_E:
        if s == q:
            raise InputError("evidence must not cover the queried node")
        if x_E[s] not in net.states(s):
            raise InputError(f"unknown state {x_E[s]!r} of node {s!r}")
    fv = _gamble_on(net, q, f)
    cfg_q = net.parent_config(q, x_E)

    if not dag.children(q):
        return net.local(q, cfg_q).lower_expectation(fv)

    desc = dag.sorted_nodes(dag.descendants(q))
    f_min, f_max = min(fv), max(fv)
    states_q = net.states(q)

    prod_low, prod_high = [], []
    for x in states_q:
        ctx = {**x_E, q: x}
        low, high = decompose.atom_bounds(
            sub_network(net, desc, ctx), {s: ctx[s] for s in desc})
        prod_low.append(low)
        prod_high.append(high)

    local_q = net.local(q, cfg_q)

    def rho_fn(mu: float) -> float:
        g = [(fv[i] - mu) * (prod_low[i] if fv[i] >= mu else prod_high[i])
             for i in range(len(states_q))]
        return local_q.lower_expectation(g)

    ev = conditioning.rho_callable(rho_fn, f_min, f_max, f_min)
    gate = False
    if rule == "regular":
        # gate on the non-descendants' upper probability
        nd = dag.sorted_nodes(set(dag.nodes) - {q} - set(desc))
        gate = not nd or decompose.atom_bounds(
            sub_network(net, nd, {}), {s: x_E[s] for s in nd}
        )[1] > conditioning.TOL_SIGN
    return conditioning.condition(ev, rule, tolerance,
                                  rest_upper_positive=gate,
                                  vacuous_on_zero_lower=True).value
