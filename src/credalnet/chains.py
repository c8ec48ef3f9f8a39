"""Chains and hidden-state models.

An unconditional chain query is the planner's
(:func:`credalnet.decompose.lower_expectation`): its peels compose the
transfer operators backwards.  The operator of node k
(:class:`TransferOperator`) maps a gamble on X_k to the gamble on X_{k-1}
of local lower expectations, one per predecessor state.  A chain's first
node given its last one, and a node given complete evidence
(:func:`complete_evidence_lower`), take the bracketing function of
evidence below a root, :func:`credalnet.conditioning.root_rho`.

Filtering on a hidden-state model evaluates rho in one backward sweep
per abscissa: :func:`hmm_plan` holds what depends neither on the gamble
nor on mu (the lower and upper probability of every observed symbol, and
the axis order and local stack of every step, built as a batch of two),
and :func:`hmm_forward_rho` builds the batched rho engine
(:data:`~credalnet.conditioning.Rho`), so that the two bounds' brackets
run in lockstep (:func:`~credalnet.conditioning.condition`).  Like the
global program, an evaluation also gives the probability of the event
under a model attaining rho, from the attaining local mass functions
(:meth:`~credalnet.network.CredalNetwork.local_lower_argmin`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import conditioning
from .errors import HypothesisError, InputError
from .network import CredalNetwork, Factor, lower_argmin

__all__ = [
    "TransferOperator", "chain_order", "HmmSpec", "infer_hmm_spec", "HmmStep",
    "hmm_plan", "hmm_forward_rho", "complete_evidence_lower"]


def chain_order(net: CredalNetwork) -> tuple[str, ...]:
    """The nodes from root to leaf; raises when the DAG is not a simple
    chain."""
    dag = net.dag
    order = [s for s in dag.nodes if not dag.parents(s)]
    if len(order) == 1 and len(dag.edges) == len(dag.nodes) - 1:
        # every other node has one parent: walk down while nothing forks
        while len(ch := dag.children(order[-1])) == 1:
            order.append(ch[0])
        if len(order) == len(dag.nodes):
            return tuple(order)
    raise HypothesisError("network is not a simple chain")


class TransferOperator:
    """Backward map of a chain step: a gamble on the node's states becomes
    the array of local lower expectations, one per predecessor state (one
    :meth:`CredalNetwork.local_lower` call).  Monotone, constant-additive
    and positively homogeneous, like every lower expectation."""

    def __init__(self, net: CredalNetwork, node: str):
        parents = net.dag.parents(node)
        if len(parents) != 1:
            raise HypothesisError(f"node {node!r} does not have exactly "
                                  "one parent")
        self.net, self.node = net, node

    def __call__(self, g: Sequence[float]) -> np.ndarray:
        return self.net.local_lower(self.node, g)

    def upper(self, g: Sequence[float]) -> np.ndarray:
        return -self.net.local_lower(self.node, -np.asarray(g, dtype=float))


def _gamble_on(net: CredalNetwork, node: str, h) -> np.ndarray:
    if isinstance(h, Factor):
        if h.scope not in ((node,), ()):
            raise InputError(f"factor must be scoped to node {node!r}")
        return net.aligned(h, (node,))
    values = np.asarray(h, dtype=float)
    if values.shape != (net.size(node),):
        raise InputError("gamble has the wrong number of values")
    return values


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


@dataclass(frozen=True, eq=False)
class HmmStep:
    """One time step of :func:`hmm_forward_rho`, from the envelope over
    the parents of the next state node to one over the parents of a
    state node: ``axes`` moves the axis of the state node last,
    ``shape`` is the reshape onto the gamble axis, its parents (length 1
    where the next node does not share a parent) and its states, ``low``
    and ``high`` are the lower and upper probability of the observed
    symbol given each of its states, and ``stack`` is its local stack
    (:meth:`CredalNetwork.local_stack`)."""

    stack: np.ndarray
    axes: tuple[int, ...]
    shape: tuple[int, ...]
    low: np.ndarray
    high: np.ndarray


def hmm_plan(spec: HmmSpec, observations: Mapping[str, str]
             ) -> tuple[HmmStep, ...]:
    """The part of :func:`hmm_forward_rho` that depends neither on the
    gamble nor on mu: its steps, from the last observation to the first;
    one local lower expectation of a batch of two per observation."""
    net = spec.net
    s_nodes, o_nodes = spec.state_nodes, spec.obs_nodes
    if set(observations) != set(o_nodes):
        raise InputError("observations must assign every observation node")
    for o in o_nodes:
        if observations[o] not in net.states(o):
            raise InputError(f"unknown state {observations[o]!r} of {o!r}")
    steps = []
    for k in range(len(o_nodes) - 1, -1, -1):
        sk, ok = s_nodes[k], o_nodes[k]
        seen = np.array([x == observations[ok] for x in net.states(ok)], float)
        nxt = net.dag.parents(s_nodes[k + 1])
        i = nxt.index(sk) + 1
        axes = (0,) + tuple(j for j in range(1, len(nxt) + 1) if j != i) + (i,)
        # the envelope depends on the parents of s_k that s_{k+1} shares
        shape = (-1,) + tuple(net.size(p) if p in nxt else 1
                              for p in net.dag.parents(sk)) + (net.size(sk),)
        low, high = net.local_lower(ok, np.array([seen, -seen])[:, None])
        steps.append(HmmStep(net.local_stack(sk), axes, shape, low, -high))
    return tuple(steps)


def hmm_forward_rho(spec: HmmSpec, fs,
                    plan: tuple[HmmStep, ...]) -> conditioning.Rho:
    """Bracketing function of the filtering query of each of ``fs``:
    rho(mu) is the lower expectation of ``1{observations} * (f - mu)``.

    Backward sweep: start from the local lower expectations of ``f - mu``
    at the final state node, then alternate the sign-split observation
    weighting (the plan's lower or upper probability of the observed
    symbol) with the transition's local lower expectation; P, the
    probability of the later observations at the attaining model, takes
    the same weights and attaining mass functions.  Linear in the number
    of time steps.  rho returns ``(rho, rho + mu * P, P)``."""
    net = spec.net
    last = spec.state_nodes[-1]
    ones = np.ones((1,) + net.shape(net.dag.parents(last)))
    # a unit axis per parent, so that no gamble axis is read as one
    fv = np.array([_gamble_on(net, last, f) for f in fs])
    fv = fv.reshape(len(fs), *(1,) * (ones.ndim - 1), -1)

    def rho(slots, mus):
        mus = np.reshape(mus, (-1,) + (1,) * (fv.ndim - 1))
        # h is an array over the gambles and the parents of the next
        # state node, in declaration order
        h, prob = net.local_lower(last, fv[list(slots)] - mus), ones
        for step in plan:
            g = h.transpose(step.axes)
            w = np.where(g >= 0, step.low, step.high)
            prob = (prob.transpose(step.axes) * w).reshape(step.shape)
            h, mass = lower_argmin(step.stack, (g * w).reshape(step.shape))
            prob = (mass * prob).sum(-1)
        return h, h + mus.ravel() * prob, prob

    return rho


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

    :func:`~credalnet.conditioning.reduce_query` moves the query to the
    sub-network of q and its descendants, with the regular rule's vacuous
    case and the leaf case, and q is its root:
    :func:`~credalnet.conditioning.root_rho` is the bracketing function,
    from one planner pass over the descendants.  Under the natural rule,
    zero lower probability of the evidence, where rho does not give the
    conditional, returns the vacuous bound (min of f)."""
    dag = net.dag
    dag._check(q)
    missing = set(dag.nodes) - {q} - set(x_E)
    if missing:
        raise InputError(f"evidence misses nodes {sorted(missing)}")
    if q in x_E:
        raise InputError("evidence must not cover the queried node")
    f = Factor((q,), _gamble_on(net, q, f))
    # the cylinder checks the states
    reduced = conditioning.reduce_query(net, (q,), net.cylinder(x_E), rule)
    try:
        return conditioning.condition_reduced(reduced, [f], rule,
                                              tolerance)[0].value
    except HypothesisError:
        return f.min()
