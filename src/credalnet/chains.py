"""Chains.

An unconditional chain query is the planner's
(:func:`credalnet.decompose.lower_expectation`): its peels compose the
local lower expectations of each node backwards.  A chain's first node
given its last one (:func:`credalnet.conditioning.root_rho`) and
filtering (:func:`credalnet.conditioning.hmm_rho`) are one backward
sweep with one sign rule: the evidence below a node weighs the values
above it by its lower probability where they are >= 0 and by its upper
one elsewhere, and powers of two keep the rows in the float range, so
that the sign tests read rho relative to the probability of the
evidence at any length.  A node given complete evidence is an ``auto``
query (:func:`credalnet.queries.run_query`) like any other.
:func:`chain_order` is the shape check of ``method=chain``.

:class:`TransferOperator`, the backward map of one chain step, is no
engine's: it is kept only because the benchmark's tracer
(``bench/tracing.METHODS``) wraps its methods.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import HypothesisError
from .network import CredalNetwork

__all__ = ["TransferOperator", "chain_order"]


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
