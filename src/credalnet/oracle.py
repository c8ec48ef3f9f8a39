"""Independent brute-force baselines.

``complete_extension_lower`` minimises over all selections of one extreme
point per (node, parent configuration): each selection defines a Bayesian
network whose joint factorises, so the minimum over selections is the
exact lower expectation of the element-wise-independence model.  It
always dominates the irrelevance-based bound, with equality when all
local sets are singletons.

``irr_extreme_conditional`` enumerates the extreme points of the global
polytope and takes the minimum of conditional expectations over the
points giving the conditioning event positive probability (the minimum
of a linear-fractional objective over a polytope is attained at an
extreme point).
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import CapabilityError, InputError
from .lp import JointIndex, enumerate_joint_extreme_points, event_mask, factor_vector
from .network import CredalNetwork, Event, Factor

MAX_SELECTIONS = 10 ** 6

#: A vertex "assigns positive probability" to the conditioning event when
#: its mass exceeds this (guards against enumeration round-off).
POSITIVE_MASS = 1e-9


def _vertex_tables(net: CredalNetwork):
    """The joint index; per node, its padded vertex stack over the
    flattened configurations and the vertex count of each, and its
    configuration and state at every joint state; and the number of
    selections."""
    idx = JointIndex(net)
    tables = []
    n_selections = 1
    for s in net.dag.nodes:
        stack, counts = net._node(s)
        counts = counts.ravel().tolist()
        n_selections *= math.prod(counts)
        if n_selections > MAX_SELECTIONS:
            raise CapabilityError(
                f"complete extension exceeds {MAX_SELECTIONS} selections")
        tables.append((stack.reshape(-1, *stack.shape[-2:]), counts,
                       idx.config_index(net.dag.parents(s))[0],
                       idx.digits(s)))
    return idx, tables, n_selections


def complete_extension_lower(net: CredalNetwork, f: Factor) -> float:
    """Exact lower expectation under element-wise independence, by
    enumerating every combination of local extreme points."""
    idx, tables, _ = _vertex_tables(net)
    fv = factor_vector(net, f)
    ranges = [range(k) for _, counts, *_rest in tables for k in counts]

    best = None
    for combo in product(*ranges):
        picks = iter(combo)
        prob = np.ones(idx.total)
        for stack, counts, cfg_idx, st_idx in tables:
            choice_per_cfg = np.fromiter(picks, np.intp, len(counts))
            prob *= stack[cfg_idx, choice_per_cfg[cfg_idx], st_idx]
        value = float(fv @ prob)
        if best is None or value < best:
            best = value
    return best


def complete_extension_upper(net: CredalNetwork, f: Factor) -> float:
    return -complete_extension_lower(net, -f)


def irr_extreme_conditional(net: CredalNetwork, f: Factor, B: Event,
                            rule: str = "regular") -> float | None:
    """Conditional lower expectation from the global extreme points.

    Returns ``None`` when the oracle cannot decide: for the natural rule
    this happens whenever the event's lower probability vanishes, and for
    both rules when no extreme point gives the event positive mass.
    """
    if rule not in ("natural", "regular"):
        raise InputError(f"unknown rule {rule!r}")
    if B.empty:
        raise InputError("conditioning event is empty")
    points = enumerate_joint_extreme_points(net)
    V = np.array([p.probs for p in points])
    mask = event_mask(net, B)
    fv = factor_vector(net, f)

    p_b = V @ mask.astype(float)
    if rule == "natural" and p_b.min() <= POSITIVE_MASS:
        return None
    support = p_b > POSITIVE_MASS
    if not support.any():
        return None
    num = V[:, mask] @ fv[mask]
    return float(np.min(num[support] / p_b[support]))
