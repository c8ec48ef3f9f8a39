"""Benchmark entry point.

    python3 bench/run.py --workload dag-uncond --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One process, one closed-loop client: the run's queries are answered one
after the other through ``queries.run_query``, with BLAS pinned to one
thread.  Every answer is checked against the committed reference bounds.

``--trace 0`` loads the workload's network set (the same in every run)
and the run's queries at least 3 times and for at least 1 s
(``setup_s`` is the median), then answers each query once and keeps
answering, mostly the queries ranked near p50 and p90, until
``--seconds`` have elapsed.  A query's latency is the median of its
executions (the deadline if any failed), so the mix of queries does not
depend on how many executions fit; the run reports the end-to-end
metrics.  Every time is scaled to a reference host speed
(``hostspeed.py``).
``--trace 1`` makes one untraced pass, one traced pass (setup included),
replays the workload's failure census, checks that ``credalnet infer``
prints the same bounds as the in-process call on a fixed sample of
documents, and reports the per-layer metrics.  Both modes first answer
the cheapest query of each method and rule once, untimed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit.  See METRICS.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import docs  # noqa: E402
import guard  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from credalnet import fileio, queries  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Address space the queries may add to the process.  Beyond it an
#: allocation raises MemoryError; it also bounds what a run can take
#: from a shared machine.
ADDRESS_HEADROOM = 1 << 30

#: Loads of the run's documents: at least SETUP_REPEATS, and more while
#: they have taken less than SETUP_SECONDS; setup_s is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 25

#: Longest stretch of loading between two probes of the host speed.
LOAD_STRETCH_S = 0.02

#: Documents per workload checked against the command-line interface.
CLI_SAMPLE = 2
CLI_TIMEOUT_S = 120

#: Exception names reported one by one in the census breakdown; any
#: other name counts under ``census.failed.error.other``.
ERROR_NAMES = ("ModelError", "ConvergenceError", "HypothesisError",
               "CapabilityError", "InputError", "MemoryError",
               "RecursionError")
BRACKET_KINDS = ("unique-root", "rightmost-root", "vacuous-fallback",
                 "local-fallback")

END_TO_END = {"setup_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
              "peak_rss_mb": "MiB"}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {
        "fileio.load_ms": "ms", "credal.construct_ms": "ms",
        "credal.constructs": "count", "polytope.calls": "count",
        "polytope.ms": "ms", "credal.lower_expectation.calls": "count",
        "credal.lower_expectation_ms": "ms", "credal.lp_route_frac": "ratio",
        "chains.sweeps": "count", "chains.steps": "count",
        "chains.self_ms": "ms", "decompose.calls": "count",
        "decompose.self_ms": "ms", "decompose.lp_cores": "count",
        "decompose.max_core_nodes": "count",
        "network.sub_network.calls": "count", "network.sub_network_ms": "ms",
        "graph.calls": "count", "graph.self_ms": "ms",
        "lp.builds": "count", "lp.assembly_ms": "ms", "lp.vars_max": "count",
        "lp.rows_max": "count", "lp.nnz_max": "count",
        "lp.dense_mb_max": "MiB", "simplex.solves": "count",
        "simplex.solve_ms": "ms", "simplex.not_optimal": "count",
        "simplex.deadline_hits": "count", "conditioning.brackets": "count",
        "conditioning.rho_evals": "count",
        "conditioning.rho_per_bound": "ratio",
        "conditioning.self_ms": "ms",
    }
    units.update({f"conditioning.kind.{k}": "count" for k in BRACKET_KINDS})
    units.update({"queries.run_query_ms": "ms", "trace.overhead_frac": "ratio",
                  "census.attempted": "count",
                  "census.failed.timeout": "count",
                  "census.failed.wrong": "count"})
    units.update({f"census.failed.error.{e}": "count"
                  for e in ERROR_NAMES + ("other",)})
    return units


# -- inputs -------------------------------------------------------------------

class Inputs:
    """The run's documents as JSON text, with their reference bounds:
    the networks ``keys`` and those of the queries ``pairs``.

    Every document must have the digest that the pool recorded for the
    document its references were computed on."""

    def __init__(self, pool: dict, pairs: list[tuple], keys=()):
        self.networks: dict[str, str] = {}
        self.queries: list[tuple] = []   # (qid, key, text, (lower, upper))
        specs = {}
        for key in (*keys, *(k for k, _ in pairs)):
            if key not in specs:
                net_doc, specs[key] = workloads.materialize(key)
                check_digest(pool, key, pool["networks"][key], net_doc)
                self.networks[key] = docs.dumps(net_doc)
        for key, index in pairs:
            qid = workloads.qid(key, index)
            entry = pool["queries"][qid]
            qdoc = specs[key][index].doc
            check_digest(pool, qid, entry["digest"], qdoc)
            self.queries.append((qid, key, docs.dumps(qdoc),
                                 (entry["lower"], entry["upper"])))
        # networks load in key order, so that the peak memory of a load
        # does not depend on the order of the keys
        self.networks = dict(sorted(self.networks.items()))

    def load(self, clock: hostspeed.Clock) -> tuple[list, float]:
        """Load every document; returns the items ``(qid, network,
        query, reference)`` and the time the loads took, scaled by
        ``clock`` in stretches of about :data:`LOAD_STRETCH_S`."""
        total = stretch = 0.0

        def timed(load, *args):
            nonlocal total, stretch
            start = time.perf_counter()
            out = load(*args)
            stretch += time.perf_counter() - start
            if stretch >= LOAD_STRETCH_S:
                total += clock.scale(stretch)
                stretch = 0.0
            return out

        nets = {key: timed(lambda t: harness.load_network(json.loads(t)),
                           text)
                for key, text in self.networks.items()}
        items = [(qid, nets[key],
                  timed(lambda n, t: fileio.parse_query(n, json.loads(t)),
                        nets[key], text), ref)
                 for qid, key, text, ref in self.queries]
        return items, total + clock.scale(stretch)


def check_digest(pool: dict, name: str, expected: str, doc: dict) -> None:
    if docs.digest(doc) != expected:
        raise SystemExit(
            f"benchmark: the pool of {pool['workload']} is stale: {name} "
            f"no longer regenerates the document its references were "
            f"computed on (numpy {np.__version__}); run bench/pool.py")


def timed_setup(inputs: Inputs, repeats: int, seconds: float = 0.0):
    """Load the documents ``repeats`` times, and more while the loads
    have taken less than ``seconds``; returns the last load and the
    times, scaled to the reference host speed.  Each load starts after
    the previous one is freed."""
    items, times = None, []
    while len(times) < repeats or (sum(times) < seconds
                                   and len(times) < SETUP_MAX_REPEATS):
        items = None
        gc.collect()
        items, seconds_taken = inputs.load(hostspeed.Clock())
        times.append(seconds_taken)
    return items, times


# -- passes -------------------------------------------------------------------

class Tally:
    """Outcomes and latencies of every execution in a run."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        self.latencies: dict[str, list[float]] = {}
        self.failed_queries: set[str] = set()
        self.outcomes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, qid: str, outcome: str, seconds: float | None) -> None:
        """Count one execution; ``seconds=None`` marks an untimed one."""
        self.attempted += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if outcome != "ok":
            self.failed += 1
            self.failed_queries.add(qid)
        if seconds is not None:
            self.latencies.setdefault(qid, []).append(seconds)

    def latency(self, qid: str) -> float:
        """A timed query's latency: the median of its executions, or the
        deadline when any of them failed."""
        if qid in self.failed_queries:
            return self.deadline_s
        return statistics.median(self.latencies[qid])

    def per_query_ms(self) -> np.ndarray:
        return np.array([self.latency(qid) * 1e3 for qid in self.latencies])


#: Grid points per rank in :func:`percentile`'s integration.
PERCENTILE_GRID = 64


def percentile(values: np.ndarray, q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: a mean of all the
    sorted values, weighted by how much of a Beta((n+1)q, (n+1)(1-q))
    distribution falls on each one's rank.  The weight lies within a few
    ranks of the quantile, so the estimate moves less with one value's
    noise than the one or two values that ``np.percentile`` uses.

    The weights integrate the Beta density by the midpoint rule (numpy
    only: importing scipy would add 64 MiB to ``peak_rss_mb``)."""
    x = np.sort(values)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = (np.arange(n * PERCENTILE_GRID) + 0.5) / (n * PERCENTILE_GRID)
    log_density = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_density - log_density.max()).reshape(n, -1).sum(axis=1)
    return float(w @ x / w.sum())


def settle() -> None:
    """Collect garbage, then keep every surviving object (the loaded
    networks, alive all run) out of later collections, whose pauses
    would otherwise land in random queries."""
    gc.collect()
    gc.freeze()


def run_pass(items, tally: Tally, deadline_s: float, tracer=None,
             results=None) -> float:
    """Answer every query once; returns the summed query time, scaled
    to the reference host speed."""
    settle()
    clock = hostspeed.Clock()
    busy = 0.0
    for i, (qid, net, query, ref) in enumerate(items):
        if tracer is not None:
            tracer.current_query = i
        outcome, seconds, result = harness.execute(net, query, ref,
                                                   deadline_s)
        tally.add(qid, outcome, seconds)
        busy += clock.scale(seconds)
        if results is not None and result is not None:
            results.append(result)
    return busy


def timed_loop(items, tally: Tally, deadline_s: float,
               seconds: float) -> int:
    """Answer every query once, in order, then keep answering until
    ``seconds`` have gone by.  Returns the number of executions.  Each
    execution's time is scaled to the reference host speed.

    Only the queries ranked near p50 and p90 decide those percentiles,
    so the repeats go to them: each further execution goes to the query
    whose number of executions, times 1 plus its distance in rank (by
    its latency so far) from the nearer of the two percentile ranks, is
    least.  Queries far from both still run again, but rarely."""
    settle()
    clock = hostspeed.Clock()
    n = len(items)
    runs = np.zeros(n)
    latency = np.full(n, np.inf)
    targets = np.array([0.5, 0.9]) * (n - 1)
    start = time.perf_counter()
    executions = 0
    while executions < n or time.perf_counter() - start < seconds:
        if executions < n:
            i = executions
        else:
            rank = np.empty(n)
            rank[np.argsort(latency, kind="stable")] = np.arange(n)
            distance = np.abs(rank[:, None] - targets).min(axis=1)
            i = int(np.argmin(runs * (1.0 + distance)))
        qid, net, query, ref = items[i]
        outcome, elapsed, _ = harness.execute(net, query, ref, deadline_s)
        elapsed = clock.scale(elapsed)
        tally.add(qid, outcome, elapsed)
        runs[i] += 1
        latency[i] = (np.inf if qid in tally.failed_queries
                      else tally.latency(qid))
        executions += 1
    return executions


def warm_up(items, pool: dict, tally: Tally, deadline_s: float) -> None:
    """Answer the cheapest query of each method and rule (its class
    without the size) once, untimed, so that code paths are warm before
    anything is timed."""
    cheapest: dict[str, tuple] = {}
    for item in items:
        entry = pool["queries"][item[0]]
        path = entry["class"].rsplit("/", 1)[0]
        best = cheapest.get(path)
        if best is None or entry["seed_ms"] < best[0]:
            cheapest[path] = (entry["seed_ms"], item)
    for _, (qid, net, query, ref) in cheapest.values():
        outcome, _, _ = harness.execute(net, query, ref, deadline_s)
        tally.add(qid, outcome, None)


def census_breakdown(workload, pool) -> tuple[dict, list[str]]:
    inputs = Inputs(pool, workloads.census(pool))
    counts = {"census.attempted": 0, "census.failed.timeout": 0,
              "census.failed.wrong": 0}
    counts.update({f"census.failed.error.{e}": 0
                   for e in ERROR_NAMES + ("other",)})
    lines = []
    for qid, net, query, ref in inputs.load(hostspeed.Clock())[0]:
        outcome, seconds, _ = harness.execute(net, query, ref,
                                              workload.deadline_s)
        counts["census.attempted"] += 1
        name = outcome.split(".", 1)[-1]
        if outcome.startswith("error.") and name not in ERROR_NAMES:
            outcome = "error.other"
        if outcome != "ok":  # a fixed defect stops counting
            counts[f"census.failed.{outcome}"] += 1
        lines.append(f"census {qid} {pool['queries'][qid]['class']} "
                     f"{outcome} {seconds * 1e3:.1f} ms")
    return counts, lines


# -- command-line parity ------------------------------------------------------

def cli_parity(workload, pool, lines: list[str]) -> bool:
    """``credalnet infer`` must print the in-process bounds exactly."""
    picked, classes = [], set()
    for qid, entry in sorted(pool["queries"].items()):
        if workloads.timed(entry, workload.deadline_s) \
                and entry["class"] not in classes:
            key, index = workloads.split_qid(qid)
            net_doc, specs = workloads.materialize(key)
            if len(net_doc["nodes"]) > harness.MAX_VALIDATED_NODES:
                continue
            classes.add(entry["class"])
            picked.append((qid, net_doc, specs[index].doc))
        if len(picked) == CLI_SAMPLE:
            break
    cli_dir = os.path.join(OUT_DIR, "cli")
    os.makedirs(cli_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=harness.SRC)
    ok = True
    for n, (qid, net_doc, qdoc) in enumerate(picked):
        net_path = os.path.join(cli_dir, f"{workload.name}-{n}-net.json")
        query_path = os.path.join(cli_dir, f"{workload.name}-{n}-query.json")
        for path, doc in ((net_path, net_doc), (query_path, qdoc)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(docs.dumps(doc))
        net = harness.load_network(net_doc)
        expected = queries.run_query(net, fileio.parse_query(net, qdoc))
        proc = subprocess.run(
            [sys.executable, "-m", "credalnet.cli", "infer", net_path,
             query_path], capture_output=True, text=True, env=env,
            cwd=harness.ROOT, timeout=CLI_TIMEOUT_S)
        printed = dict(line.split("=", 1) for line in proc.stdout.splitlines()
                       if "=" in line)
        same = (proc.returncode == 0
                and float(printed.get("lower", "nan")) == expected["lower"]
                and float(printed.get("upper", "nan")) == expected["upper"])
        ok &= same
        lines.append(f"cli-parity {qid} {'ok' if same else 'MISMATCH'} "
                     f"lower={printed.get('lower')} "
                     f"upper={printed.get('upper')}")
    return ok


# -- one run ------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    pool = workloads.load_pool(name)
    if pool["deadline_s"] != workload.deadline_s:
        raise SystemExit(f"benchmark: pool of {name} was made for another "
                         "deadline; run bench/pool.py")
    guard.cap_address_space(ADDRESS_HEADROOM)
    inputs = Inputs(pool, workloads.sample(workload, pool, seed),
                    workloads.network_set(workload, pool))
    tally = Tally(workload.deadline_s)
    lines = [f"{name}: seed {seed}, {len(inputs.queries)} queries on "
             f"{len(inputs.networks)} networks, deadline "
             f"{workload.deadline_s} s"]

    if not traced:
        items, setups = timed_setup(inputs, SETUP_REPEATS, SETUP_SECONDS)
        warm_up(items, pool, tally, workload.deadline_s)
        executions = timed_loop(items, tally, workload.deadline_s, seconds)
        lines.append(f"{len(setups)} setups; {executions} executions of "
                     f"{len(items)} queries in {seconds} s")
        latency = tally.per_query_ms()
        values = {"setup_s": statistics.median(setups),
                  "query_p50_ms": percentile(latency, 0.5),
                  "query_p90_ms": percentile(latency, 0.9),
                  "peak_rss_mb": guard.peak_rss_mb()}
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    else:
        items, _ = timed_setup(inputs, 1)
        warm_up(items, pool, tally, workload.deadline_s)
        plain = run_pass(items, tally, workload.deadline_s)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            items, _ = timed_setup(inputs, 1)
            results: list[dict] = []
            traced_busy = run_pass(items, tally, workload.deadline_s,
                                   tracer, results)
        finally:
            tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-s{seed}.npz")
        tracer.save(spans_path)
        values = tracing.layer_metrics(tracer)
        for k in BRACKET_KINDS:
            values[f"conditioning.kind.{k}"] = sum(
                (r.get("kind") == k) + (r.get("upper_kind") == k)
                for r in results if r["rule"] != "unconditional")
        values["trace.overhead_frac"] = traced_busy / plain - 1.0
        counts, census_lines = census_breakdown(workload, pool)
        values.update(counts)
        lines += census_lines
        lines.append(f"spans written to {os.path.relpath(spans_path)}")
        units = per_layer_units()
        metrics = {k: (values[k], units[k]) for k in units}

    for outcome, n in sorted(tally.outcomes.items()):
        lines.append(f"outcome {outcome}: {n}")
    # timeouts and errors count as failed; a wrong bound also makes the
    # run incorrect
    correct = "wrong" not in tally.outcomes
    if traced:
        correct = cli_parity(workload, pool, lines) and correct
    for key, (value, unit) in metrics.items():
        lines.append(f"{name} {key} = {value} {unit}")
    return {"lines": lines,
            "result": {"correct": bool(correct), "attempted": tally.attempted,
                       "failed": tally.failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}}}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(traced)], capture_output=True, text=True)
            out = proc.stdout.splitlines()
            if proc.returncode != 0 or not out:
                raise SystemExit(f"benchmark: {name} --trace {traced} "
                                 f"failed:\n{proc.stderr}")
            for line in out[:-1]:
                print(line)
            res = json.loads(out[-1])
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for key, metric in res["metrics"].items():
                merged["metrics"][f"{name}:{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
