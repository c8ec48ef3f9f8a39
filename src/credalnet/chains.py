"""Chains, and complete evidence.

An unconditional chain query is the planner's
(:func:`credalnet.decompose.lower_expectation`): its peels compose the
local lower expectations of each node backwards.  A chain's first node
given its last one, and a node given complete evidence
(:func:`complete_evidence_lower`), take the bracketing function of
evidence below a root, :func:`credalnet.conditioning.root_rho`, and
filtering on a hidden-state model takes the sweep of
:func:`credalnet.conditioning.hmm_rho`.  :func:`chain_order` is the
shape check of ``method=chain``.

:class:`TransferOperator`, the backward map of one chain step, is no
engine's: it is kept only because the benchmark's tracer
(``bench/tracing.METHODS``) wraps its methods.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import conditioning
from .errors import HypothesisError, InputError
from .network import CredalNetwork, Factor

__all__ = ["TransferOperator", "chain_order", "complete_evidence_lower"]


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
