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

from itertools import product

import numpy as np

from .credal import constraints_to_vertices
from .errors import CapabilityError, InputError
from .lp import JointIndex, enumerate_joint_extreme_points, event_mask, factor_vector
from .network import CredalNetwork, Event, Factor

MAX_SELECTIONS = 10 ** 6

#: A vertex "assigns positive probability" to the conditioning event when
#: its mass exceeds this (guards against enumeration round-off).
POSITIVE_MASS = 1e-9


def _vertex_tables(net: CredalNetwork):
    """Per node: parent-config index arrays over the joint states and the
    per-config vertex probability tensors."""
    idx = JointIndex(net)
    tables = []
    n_selections = 1
    for s in net.dag.nodes:
        pa = net.dag.parents(s)
        cfg_idx, _ = idx.config_index(pa)
        st_idx = idx.digits(s)
        cfgs = list(product(*(net.states(p) for p in pa)))
        per_cfg = []
        for cfg in cfgs:
            local = net.local(s, cfg)
            if local._V is not None:
                V = local._V
            else:
                V = np.array([m.probs for m in constraints_to_vertices(local)])
            per_cfg.append(V)
            n_selections *= len(V)
            if n_selections > MAX_SELECTIONS:
                raise CapabilityError(
                    f"complete extension exceeds {MAX_SELECTIONS} selections")
        width = max(len(V) for V in per_cfg)
        dense = np.zeros((len(cfgs), width, net.size(s)))
        for ci, V in enumerate(per_cfg):
            dense[ci, :len(V)] = V
        tables.append((s, cfgs, [len(V) for V in per_cfg], dense,
                       cfg_idx, st_idx))
    return idx, tables, n_selections


def complete_extension_lower(net: CredalNetwork, f: Factor) -> float:
    """Exact lower expectation under element-wise independence, by
    enumerating every combination of local extreme points."""
    idx, tables, _ = _vertex_tables(net)
    fv = factor_vector(net, f)
    ranges = [range(k) for (_, _, counts, *_rest) in tables for k in counts]
    key_list = [(s, cfg) for (s, cfgs, *_rest) in tables for cfg in cfgs]

    best = None
    for combo in product(*ranges):
        pick = dict(zip(key_list, combo))
        prob = np.ones(idx.total)
        for (s, cfgs, _counts, dense, cfg_idx, st_idx) in tables:
            choice_per_cfg = np.array([pick[(s, cfg)] for cfg in cfgs])
            prob *= dense[cfg_idx, choice_per_cfg[cfg_idx], st_idx]
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
