"""Network and query documents for the benchmark workloads.

Every document is built from a seed with numpy's ``default_rng`` and is
serialised with :func:`dumps`, so one seed always gives byte-identical
text.  The random draws follow the generators of the test suite
(``random_binary_net``, ``random_chain_net``, ``random_hmm_net`` and
``random_factor``), so ``dag_network(default_rng(seed * 100 + n), n)``
is the network of the ROADMAP baseline for that seed and size.

All nodes are binary with states ``"0"`` and ``"1"``; every local set is
an interval on the probability of ``"0"`` given by its two extreme
points (one when the interval collapses).
"""

from __future__ import annotations

import hashlib
import json
from itertools import product

import numpy as np

STATES = ("0", "1")


def dumps(doc) -> str:
    """Canonical JSON text of a document."""
    return json.dumps(doc, separators=(",", ":"))


def digest(doc) -> str:
    """Short SHA-256 digest of a document's canonical text."""
    return hashlib.sha256(dumps(doc).encode()).hexdigest()[:16]


def _interval(rng, lo: float = 0.05, hi: float = 0.95,
              min_width: float = 0.02) -> tuple[float, float]:
    a, b = np.sort(rng.uniform(lo, hi, size=2))
    if b - a < min_width:
        b = min(hi, a + min_width)
    return float(a), float(b)


def _vertices(a: float, b: float) -> list[dict]:
    points = [(a, 1.0 - a)] if a == b else [(a, 1.0 - a), (b, 1.0 - b)]
    return [dict(zip(STATES, p)) for p in points]


def network(names, edges, intervals) -> dict:
    """Network document from node names, edges and a mapping
    ``(node, parent configuration) -> (low, high)``."""
    parents = _parents(names, edges)
    locals_ = []
    for s in names:
        pa = parents[s]
        for cfg in product(STATES, repeat=len(pa)):
            locals_.append({"node": s, "given": dict(zip(pa, cfg)),
                            "vertices": _vertices(*intervals[(s, cfg)])})
    return {"nodes": [{"name": s, "states": list(STATES)} for s in names],
            "edges": [list(e) for e in edges],
            "locals": locals_}


def _parents(names, edges) -> dict:
    """Parents of every node, in declaration order."""
    order = {s: i for i, s in enumerate(names)}
    parents = {s: [] for s in names}
    for a, b in edges:
        parents[b].append(a)
    return {s: sorted(pa, key=order.__getitem__) for s, pa in parents.items()}


def _intervals(rng, names, edges) -> dict:
    """One random interval per (node, parent configuration), drawn in
    declaration order like ``tests/helpers.interval_locals``."""
    out = {}
    for s, pa in _parents(names, edges).items():
        for cfg in product(STATES, repeat=len(pa)):
            out[(s, cfg)] = _interval(rng)
    return out


def dag_network(rng, n: int, edge_p: float = 0.4, zero_rng=None,
                zero_share: float = 0.0) -> dict:
    """Random binary DAG on nodes "1".."n"; an edge i->j (i < j) is drawn
    with probability ``edge_p``.

    With ``zero_rng``, a share ``zero_share`` of the local sets is then
    stretched to a zero lower probability of one of the two states, so
    that events of zero lower probability occur.
    """
    names = [str(i + 1) for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_p]
    intervals = _intervals(rng, names, edges)
    if zero_rng is not None:
        for key in intervals:
            if zero_rng.random() < zero_share:
                a, b = intervals[key]
                intervals[key] = (0.0, b) if zero_rng.random() < 0.5 \
                    else (a, 1.0)
    return network(names, edges, intervals)


def chain_network(rng, n: int) -> dict:
    """Binary chain "1" -> "2" -> ... -> "n"."""
    names = [str(i + 1) for i in range(n)]
    edges = list(zip(names, names[1:]))
    return network(names, edges, _intervals(rng, names, edges))


def hmm_network(rng, n_obs: int) -> dict:
    """First-order hidden-state model: states s1..s{n+1}, where s_k emits
    o_k; nodes are declared s1, o1, s2, o2, ..., s{n+1}."""
    states = [f"s{i + 1}" for i in range(n_obs + 1)]
    obs = [f"o{i + 1}" for i in range(n_obs)]
    edges = [(states[i], states[i + 1]) for i in range(n_obs)]
    edges += [(states[i], obs[i]) for i in range(n_obs)]
    names = [x for pair in zip(states, obs) for x in pair] + [states[-1]]
    return network(names, edges, _intervals(rng, names, edges))


def random_values(rng, count: int, low: float = -2.0,
                  high: float = 2.0) -> list[float]:
    return [float(v) for v in rng.uniform(low, high, size=count)]


def query(scope, values, rule: str = "unconditional", method: str = "auto",
          given: dict | None = None) -> dict:
    """Query document for a gamble on ``scope`` whose values are listed
    in lexicographic joint-state order."""
    rows = [{"states": list(t), "value": v}
            for t, v in zip(product(STATES, repeat=len(scope)), values)]
    doc = {"target": {"scope": list(scope), "table": rows},
           "rule": rule, "method": method}
    if given is not None:
        doc["given"] = {"assignment": dict(given)}
    return doc
