"""Make the committed pool file of a workload: reference bounds for
every query, their cross-checks, and the engine's outcome on each.

    python3 bench/pool.py dag-uncond [dag-cond recursions]

writes ``bench/data/<workload>.json``, with a digest of every network
and query document the references were computed on.  Reference bounds
come from :mod:`reference` (HiGHS on the vertex-form global program,
Charnes-Cooper conditionals, rescaled sweeps).  They are cross-checked

* against the engine's brute-force oracles: ``complete_extension_lower``
  (which can only be higher) on every unconditional query of a DAG with
  5 nodes or fewer, and ``irr_extreme_conditional`` (equal) on
  conditional queries of extra 3-node DAGs, the size at which its vertex
  enumeration runs;
* for chains and hidden-state models, the sweeps against HiGHS on short
  chains and at every horizon the program can hold (1 to 4, and three of
  the horizon-5 pool networks).

A disagreement stops the script.  The engine then runs every query once
under the workload's deadline; its outcome and time decide which
queries a run times and which form the failure census.
"""

from __future__ import annotations

import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import docs  # noqa: E402
import guard  # noqa: E402
import harness  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from credalnet import errors, fileio, oracle  # noqa: E402

CHECK_TOL = 1e-7


def _gamble(qdoc: dict):
    target = qdoc["target"]
    return target["scope"], [row["value"] for row in target["table"]]


def _given(qdoc: dict) -> dict:
    return qdoc.get("given", {}).get("assignment", {})


def _agree(a: float, b: float) -> bool:
    return abs(a - b) <= CHECK_TOL * max(1.0, abs(a), abs(b))


def _bounds(lower_fn, values) -> tuple[float, float]:
    """(lower, upper) of a gamble by conjugacy."""
    return lower_fn(values), -lower_fn([-v for v in values])


def references(net_doc: dict, qdoc: dict, cls: str, program=None):
    """Reference (lower, upper) bounds of one query."""
    scope, values = _gamble(qdoc)
    given = _given(qdoc)
    kind = cls.split("/")[0]
    net = ref.Net(net_doc)
    if kind in ("lp", "auto"):
        if qdoc["rule"] == "unconditional":
            return _bounds(lambda v: program.lower(program.vector(scope, v)),
                           values)
        mask = program.mask(given)
        return _bounds(lambda v: program.conditional(
            program.vector(scope, v), mask, qdoc["rule"]), values)
    if kind in ("chain-fwd", "planner"):
        return _bounds(lambda v: ref.chain_lower(net, v), values)
    if kind in ("chain-rev", "auto-rev"):
        (x_last,) = given.values()
        return _bounds(lambda v: ref.chain_reverse_conditional(net, v, x_last),
                       values)
    if kind in ("hmm", "auto-hmm"):
        return _bounds(lambda v: ref.hmm_conditional(net, v, given), values)
    raise ValueError(f"no reference for class {cls!r}")


class Checks:
    """Cross-check counters; a disagreement raises."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            raise SystemExit(f"cross-check {name} failed: {detail}")
        self.counts[name] = self.counts.get(name, 0) + 1

    def skip(self, name: str) -> None:
        self.counts[name + ".skipped"] = self.counts.get(name + ".skipped",
                                                         0) + 1


def complete_extension_check(checks: Checks, net_doc: dict, qdoc: dict,
                              bounds: tuple) -> None:
    """The complete extension (element-wise independence) is a subset of
    the irrelevance model, so its bounds can only be tighter."""
    net = fileio.load_network_document(net_doc)
    query = fileio.parse_query(net, qdoc)
    try:
        low = oracle.complete_extension_lower(net, query.target)
        up = oracle.complete_extension_upper(net, query.target)
    except errors.CapabilityError:  # more than 10^6 vertex selections
        checks.skip("complete_extension")
        return
    checks.add("complete_extension", bounds[0] <= low + CHECK_TOL
               and bounds[1] >= up - CHECK_TOL, f"{bounds} vs {low}, {up}")


def extreme_point_check(checks: Checks, net_doc: dict, qdoc: dict,
                        bounds: tuple) -> None:
    """Conditional bounds against the minimum over the global extreme
    points.  Its vertex enumeration exceeds its own desk-scale bound
    from 4 nodes on (after 8-23 s per call), so it runs on 3-node nets."""
    net = fileio.load_network_document(net_doc)
    query = fileio.parse_query(net, qdoc)
    for target, value in ((query.target, bounds[0]),
                          (-query.target, -bounds[1])):
        got = oracle.irr_extreme_conditional(net, target, query.given,
                                             query.rule)
        if got is None:  # natural rule with zero lower probability
            checks.skip("irr_extreme_conditional")
            continue
        checks.add("irr_extreme_conditional", _agree(got, value),
                   f"{got} vs {value}")


def small_dag_checks(checks: Checks, seeds: int = 20) -> None:
    """Conditional references on 3-node DAGs, where the extreme-point
    oracle always runs."""
    for seed in range(seeds):
        rng = np.random.default_rng([seed, 3, 9])
        net_doc = docs.dag_network(rng, 3, zero_rng=rng, zero_share=0.2)
        program = ref.GlobalProgram(ref.Net(net_doc))
        values = docs.random_values(rng, 2)
        for rule in ("natural", "regular"):
            qdoc = docs.query(["1"], values, rule=rule, method="lp",
                              given={"3": str(rng.integers(2))})
            bounds = references(net_doc, qdoc, "lp", program)
            extreme_point_check(checks, net_doc, qdoc, bounds)


def sweep_checks(checks: Checks) -> None:
    """The chain and hidden-state sweeps against HiGHS where the global
    program fits."""
    for length in range(3, 9):
        for seed in range(3):
            rng = np.random.default_rng([length, seed, 5])
            net_doc = docs.chain_network(rng, length)
            values = docs.random_values(rng, 2)
            net = ref.Net(net_doc)
            program = ref.GlobalProgram(net)
            f_last = program.vector([str(length)], values)
            checks.add("chain_forward_vs_highs", _agree(
                ref.chain_lower(net, values), program.lower(f_last)))
            f_first = program.vector(["1"], values)
            mask = program.mask({str(length): "1"})
            checks.add("chain_reverse_vs_highs", _agree(
                ref.chain_reverse_conditional(net, values, "1"),
                program.conditional(f_first, mask, "natural")))
    for horizon in range(1, 5):
        for seed in range(3):
            rng = np.random.default_rng([horizon, seed, 6])
            net_doc = docs.hmm_network(rng, horizon)
            values = docs.random_values(rng, 2)
            obs = {f"o{i + 1}": str(v)
                   for i, v in enumerate(rng.integers(2, size=horizon))}
            hmm_vs_highs(checks, net_doc, values, obs)


def hmm_vs_highs(checks: Checks, net_doc: dict, values, obs: dict) -> None:
    """Filtering sweep against the Charnes-Cooper program.  Lower
    probabilities of observations are positive here, so one program
    serves both rules."""
    net = ref.Net(net_doc)
    program = ref.GlobalProgram(net)
    f = program.vector([f"s{len(obs) + 1}"], values)
    checks.add("hmm_vs_highs", _agree(
        ref.hmm_conditional(net, values, obs),
        program.conditional(f, program.mask(obs), "regular")))


#: Horizon-5 pool networks checked against HiGHS (about 20 s each).
HMM_LP_CHECKS = ("hmm/H5/s0", "hmm/H5/s1", "hmm/H5/s2")


def make_pool(name: str) -> dict:
    workload = workloads.WORKLOADS[name]
    checks = Checks()
    if name == "dag-cond":
        small_dag_checks(checks)
    if name == "recursions":
        sweep_checks(checks)
    entries, networks = {}, {}
    for key in workload.keys:
        net_doc, specs = workloads.materialize(key)
        networks[key] = docs.digest(net_doc)
        kind = key.split("/")[0]
        program = (ref.GlobalProgram(ref.Net(net_doc))
                   if kind in ("dag", "cond") else None)
        net = harness.load_network(net_doc)
        for i, spec in enumerate(specs):
            bounds = references(net_doc, spec.doc, spec.cls, program)
            if kind == "dag" and len(net_doc["nodes"]) <= 5:
                complete_extension_check(checks, net_doc, spec.doc, bounds)
            if key in HMM_LP_CHECKS and i == 0:
                hmm_vs_highs(checks, net_doc, _gamble(spec.doc)[1],
                             _given(spec.doc))
            query = fileio.parse_query(net, spec.doc)
            outcome, seconds, _ = harness.execute(net, query, bounds,
                                                  workload.deadline_s)
            entries[workloads.qid(key, i)] = {
                "class": spec.cls, "lower": bounds[0], "upper": bounds[1],
                "outcome": outcome, "seed_ms": round(seconds * 1e3, 1),
                "digest": docs.digest(spec.doc)}
            print(f"{name} {key}#{i} {spec.cls} {outcome} "
                  f"{seconds * 1e3:.1f} ms", file=sys.stderr, flush=True)
    return {"workload": name, "deadline_s": workload.deadline_s,
            "rel_tol": harness.REL_TOL, "cross_checks": checks.counts,
            "networks": networks, "queries": entries}


def main(argv) -> int:
    guard.cap_address_space(1 << 30)
    for name in argv or sorted(workloads.WORKLOADS):
        pool = make_pool(name)
        os.makedirs(workloads.DATA_DIR, exist_ok=True)
        with open(workloads.pool_path(name), "w", encoding="utf-8") as fh:
            json.dump(pool, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
