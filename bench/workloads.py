"""The three benchmark workloads: which networks and queries they hold,
how each is generated from its key, and which of them a run answers.

A workload is a *pool* of networks, each carrying a few queries.  Every
network is named by a key such as ``dag/n5/s3`` from which its
documents are regenerated (see :func:`materialize`); the committed file
``bench/data/<workload>.json`` holds, per query, the reference bounds and
the outcome the engine had when the pool was made (``bench/pool.py``),
and a digest of every document they were computed on.

A run loads a fixed set of the pool's networks (:func:`network_set`)
and answers a fixed set of their queries (:func:`sample`), the same for
every seed; the seed sets the order in which the queries run.  Each
query belongs to a *class* (for instance ``lp/n5``).  The number of
queries a run takes from each class follows one rule (:func:`allocate`);
they are spread over the cost range of the class's queries that the
engine answered correctly in under half the deadline (the timed set).
The queries the engine failed on form the census, which the traced run
replays to report the failure breakdown.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import docs

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@dataclass(frozen=True)
class QuerySpec:
    """One query of a pool network."""

    cls: str            # class name, e.g. "lp/n5"
    doc: dict           # query document


@dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float
    #: queries a run answers, and the most of one pass a class may take,
    #: by the pool's times (see :func:`allocate` and METRICS.md)
    run_queries: int
    class_seconds: float
    #: pool: network keys
    keys: tuple
    #: networks a run loads, per group (a key without its seed): the first
    #: ones in seed order; all of a group that is not listed
    nets_per_group: dict = field(default_factory=dict)


# -- network keys and their documents -----------------------------------------

def _dag_queries(key: str):
    """``dag/n<n>/s<seed>``: the ROADMAP baseline network for that size
    and seed, with a random gamble on its last two nodes."""
    _, n, seed = key.split("/")
    n, seed = int(n[1:]), int(seed[1:])
    rng = np.random.default_rng(seed * 100 + n)
    net = docs.dag_network(rng, n)
    values = docs.random_values(rng, 4)
    scope = [str(n - 1), str(n)]
    return net, [QuerySpec(f"{m}/n{n}", docs.query(scope, values, method=m))
                 for m in ("lp", "auto")]


#: Share of local sets stretched to a zero lower probability in dag-cond.
ZERO_SHARE = 0.3


def _cond_queries(key: str):
    """``cond/n<n>/s<seed>``: the same generator with some zero lower
    bounds; a gamble on one node, evidence on one of its descendants."""
    _, n, seed = key.split("/")
    n, seed = int(n[1:]), int(seed[1:])
    rng = np.random.default_rng(seed * 100 + n)
    net = docs.dag_network(rng, n, zero_rng=np.random.default_rng([seed, n]),
                           zero_share=ZERO_SHARE)
    children = {}
    for a, b in net["edges"]:
        children.setdefault(a, []).append(b)

    def descendants(s):
        out, stack = set(), [s]
        while stack:
            for c in children.get(stack.pop(), ()):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return sorted(out, key=int)

    candidates = [str(i + 1) for i in range(n) if str(i + 1) in children]
    if not candidates:
        return net, []
    x = candidates[rng.integers(len(candidates))]
    below = descendants(x)
    y = below[rng.integers(len(below))]
    given = {y: str(rng.integers(2))}
    values = docs.random_values(rng, 2)
    return net, [QuerySpec(f"{m}/{rule}/n{n}",
                           docs.query([x], values, rule=rule, method=m,
                                      given=given))
                 for rule in ("natural", "regular") for m in ("auto", "lp")]


def _chain_queries(key: str):
    """``chain/L<len>/s<seed>``: forward query under ``method=chain``;
    up to length 1000 also reverse conditioning (first node given the
    last) under both rules."""
    _, length, seed = key.split("/")
    length, seed = int(length[1:]), int(seed[1:])
    rng = np.random.default_rng([length, seed])
    net = docs.chain_network(rng, length)
    values = docs.random_values(rng, 2)
    given = {str(length): str(rng.integers(2))}
    out = [QuerySpec(f"chain-fwd/L{length}",
                     docs.query([str(length)], values, method="chain"))]
    if length <= 1000:
        out += [QuerySpec(f"chain-rev/{rule}/L{length}",
                          docs.query(["1"], values, rule=rule, method="chain",
                                     given=given))
                for rule in ("natural", "regular")]
    return net, out


def _planner_queries(key: str):
    """``planner/L<len>/s<seed>``: a chain queried with ``method=auto``;
    at length 50 also reverse conditioning under ``auto``."""
    _, length, seed = key.split("/")
    length, seed = int(length[1:]), int(seed[1:])
    rng = np.random.default_rng([length, seed, 1])
    net = docs.chain_network(rng, length)
    values = docs.random_values(rng, 2)
    out = [QuerySpec(f"planner/L{length}",
                     docs.query([str(length)], values, method="auto"))]
    if length == 50:
        out.append(QuerySpec(
            f"auto-rev/L{length}",
            docs.query(["1"], values, rule="natural", method="auto",
                       given={str(length): str(rng.integers(2))})))
    return net, out


def _hmm_queries(key: str):
    """``hmm/H<horizon>/s<seed>``: filtering on the final state node given
    every observation, under ``method=hmm`` and both rules; at horizon 5
    also under ``auto``."""
    _, horizon, seed = key.split("/")
    horizon, seed = int(horizon[1:]), int(seed[1:])
    rng = np.random.default_rng([horizon, seed, 2])
    net = docs.hmm_network(rng, horizon)
    values = docs.random_values(rng, 2)
    obs = {f"o{i + 1}": str(v)
           for i, v in enumerate(rng.integers(2, size=horizon))}
    target = [f"s{horizon + 1}"]
    out = [QuerySpec(f"hmm/{rule}/H{horizon}",
                     docs.query(target, values, rule=rule, method="hmm",
                                given=obs))
           for rule in ("natural", "regular")]
    if horizon == 5:
        out.append(QuerySpec(f"auto-hmm/H{horizon}",
                             docs.query(target, values, rule="natural",
                                        method="auto", given=obs)))
    return net, out


_BUILDERS = {"dag": _dag_queries, "cond": _cond_queries,
             "chain": _chain_queries, "planner": _planner_queries,
             "hmm": _hmm_queries}


def materialize(key: str):
    """Network document and query specs of a pool key."""
    return _BUILDERS[key.split("/")[0]](key)


def _keys(kind: str, sizes, seeds: int, prefix: str) -> tuple:
    return tuple(f"{kind}/{prefix}{size}/s{s}"
                 for size in sizes for s in range(seeds))


# -- the workloads ------------------------------------------------------------

WORKLOADS = {
    "dag-uncond": Workload(
        name="dag-uncond",
        deadline_s=1.0,
        run_queries=200,
        class_seconds=2.0,
        keys=_keys("dag", range(4, 9), 50, "n")),
    "dag-cond": Workload(
        name="dag-cond",
        deadline_s=10.0,
        run_queries=120,
        class_seconds=2.5,
        keys=_keys("cond", range(4, 9), 30, "n")),
    # Long chains load slowly (70 ms at 100 nodes, up to 1.2 s at 10^4;
    # see METRICS.md), so a run loads only some of them: 20 chains of
    # 100 nodes, enough for the equal shares of the forward and reverse
    # classes, and 1 to 3 of each longer kind, so that one load of the
    # set takes about 5 s.
    "recursions": Workload(
        name="recursions",
        deadline_s=10.0,
        run_queries=160,
        class_seconds=1.5,
        keys=(_keys("chain", (100,), 40, "L") + _keys("chain", (1000,), 6, "L")
              + _keys("chain", (10000,), 3, "L")
              + _keys("planner", (50, 100, 150, 200), 6, "L")
              + _keys("hmm", (5, 10, 15), 24, "H")
              + _keys("hmm", (20, 50, 200), 6, "H")),
        nets_per_group={"chain/L100": 20, "chain/L1000": 3,
                        "chain/L10000": 1, "planner/L150": 3,
                        "planner/L200": 1}),
}


# -- committed pool data and per-run samples ----------------------------------

def pool_path(workload: str) -> str:
    return os.path.join(DATA_DIR, f"{workload}.json")


def load_pool(workload: str) -> dict:
    with open(pool_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def timed(entry: dict, deadline_s: float) -> bool:
    """A pool query belongs to the timed set when the engine answered it
    correctly, in under half the deadline, when the pool was made."""
    return entry["outcome"] == "ok" and entry["seed_ms"] < 500.0 * deadline_s


def network_set(workload: Workload, pool: dict) -> tuple:
    """The networks every run loads: of each group, the first
    ``nets_per_group`` networks (in seed order) that carry a timed
    query."""
    with_timed = {split_qid(q)[0] for q, e in pool["queries"].items()
                  if timed(e, workload.deadline_s)}
    taken: dict[str, int] = {}
    out = []
    for key in workload.keys:
        group = key.rsplit("/", 1)[0]
        if key in with_timed and taken.get(group, 0) < \
                workload.nets_per_group.get(group, len(workload.keys)):
            taken[group] = taken.get(group, 0) + 1
            out.append(key)
    return tuple(out)


def timed_by_class(workload: Workload, pool: dict) -> dict[str, list]:
    """The timed queries on the network set, per class, as
    ``(seed_ms, qid)`` pairs sorted by time."""
    keys = set(network_set(workload, pool))
    by_class: dict[str, list] = {}
    for query_id, entry in sorted(pool["queries"].items()):
        if timed(entry, workload.deadline_s) and split_qid(query_id)[0] in keys:
            by_class.setdefault(entry["class"], []).append(
                (entry["seed_ms"], query_id))
    return {cls: sorted(ranked) for cls, ranked in by_class.items()}


def allocate(by_class: dict[str, list], run_queries: int,
             class_seconds: float) -> dict[str, int]:
    """Queries per class in one run.

    A class name's segments form a tree (``lp/natural/n4``: method, rule,
    size).  ``run_queries`` are split equally over the top segments,
    each part equally over the next segment, and so on down to the
    classes.  A class can take at most its timed queries, and at most
    ``class_seconds`` of their mean time (but 1 query); a part that
    cannot take its equal share takes what it can, and its siblings
    split the rest equally."""
    tree: dict = {}
    for cls, ranked in by_class.items():
        mean_s = sum(t for t, _ in ranked) / len(ranked) / 1e3
        *path, leaf = cls.split("/")
        node = tree
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = min(len(ranked), max(1, int(class_seconds // mean_s)))
    return dict(_fill(tree, run_queries, ""))


def _capacity(node) -> int:
    return sum(map(_capacity, node.values())) if isinstance(node, dict) \
        else node


def _fill(node: dict, share: int, prefix: str):
    """Split ``share`` equally over ``node``'s children, smallest
    capacity first, each taking at most its capacity; a remainder goes
    to the largest."""
    names = sorted(node, key=lambda n: (_capacity(node[n]), n))
    for i, name in enumerate(names):
        take = min(_capacity(node[name]), share // (len(names) - i))
        share -= take
        if isinstance(node[name], dict):
            yield from _fill(node[name], take, f"{prefix}{name}/")
        else:
            yield f"{prefix}{name}", take


def sample(workload: Workload, pool: dict, seed: int) -> list[tuple]:
    """The run's queries as ``(key, index)`` pairs, in a seeded order.

    Per class, the class's timed queries, sorted by the time each took
    when the pool was made, are cut into :func:`allocate` equal-count
    bins, and the middle query of each bin is taken.  So every run
    answers the same queries, spread over the cost range of each class;
    the seed shuffles their order.  A seeded draw within the bins
    spread the p90 of dag-cond by 0.06 to 0.15 between seeds on its own
    (see METRICS.md)."""
    by_class = timed_by_class(workload, pool)
    picked = []
    for cls, k in sorted(allocate(by_class, workload.run_queries,
                                  workload.class_seconds).items()):
        ranked = by_class[cls]
        edges = np.linspace(0, len(ranked), k + 1)
        picked += [ranked[int((lo + hi) // 2)][1]
                   for lo, hi in zip(edges[:-1], edges[1:])]
    order = np.random.default_rng([seed, 7]).permutation(len(picked))
    return [split_qid(picked[i]) for i in order]


#: Classes per failure outcome that the census replays.
CENSUS_PER_OUTCOME = 2


def census(pool: dict) -> list:
    """Failed pool queries for the failure breakdown, fixed across runs:
    for each outcome, the quickest-failing query of each of up to
    :data:`CENSUS_PER_OUTCOME` classes spread evenly over the sorted
    classes with that outcome (so timeouts cost at most that many
    deadlines)."""
    by_outcome: dict[str, dict[str, list]] = {}
    for query_id, entry in pool["queries"].items():
        if entry["outcome"] != "ok":
            by_outcome.setdefault(entry["outcome"], {}).setdefault(
                entry["class"], []).append((entry["seed_ms"], query_id))
    out = []
    for outcome in sorted(by_outcome):
        classes = sorted(by_outcome[outcome])
        picks = np.unique(np.linspace(0, len(classes) - 1,
                                      min(CENSUS_PER_OUTCOME, len(classes)))
                          .round().astype(int))
        out += [split_qid(min(by_outcome[outcome][classes[i]])[1])
                for i in picks]
    return out


def qid(key: str, index: int) -> str:
    return f"{key}#{index}"


def split_qid(query_id: str) -> tuple[str, int]:
    key, index = query_id.rsplit("#", 1)
    return key, int(index)
