"""Tests of the benchmark itself: run with
``python3 -m pytest bench/tests`` from the repository root."""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import docs  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from credalnet import conditioning, fileio, graph, queries  # noqa: E402


@pytest.mark.parametrize("key", ["dag/n6/s3", "cond/n5/s1", "chain/L100/s2",
                                 "planner/L50/s0", "hmm/H5/s4"])
def test_same_key_gives_byte_identical_documents(key):
    first = workloads.materialize(key)
    second = workloads.materialize(key)
    assert docs.dumps(first[0]) == docs.dumps(second[0])
    assert [docs.dumps(q.doc) for q in first[1]] == \
        [docs.dumps(q.doc) for q in second[1]]


def test_same_seed_gives_the_same_run_inputs():
    workload = workloads.WORKLOADS["dag-uncond"]
    pool = workloads.load_pool("dag-uncond")
    keys = workloads.network_set(workload, pool)
    a = run.Inputs(pool, workloads.sample(workload, pool, 3), keys)
    b = run.Inputs(pool, workloads.sample(workload, pool, 3), keys)
    c = run.Inputs(pool, workloads.sample(workload, pool, 4), keys)
    assert a.networks == b.networks == c.networks and a.queries == b.queries
    # another seed answers the same queries in another order
    assert a.queries != c.queries and sorted(a.queries) == sorted(c.queries)
    assert len(a.queries) >= 100


def test_allocation_splits_equally_and_passes_on_what_a_class_cannot_take():
    # lp/n6 can take 2 queries and auto/n5 is capped at 3 s of a pass
    by_class = {"lp/n4": [(10.0, "a")] * 90, "lp/n6": [(10.0, "b")] * 2,
                "auto/n4": [(10.0, "c")] * 90, "auto/n5": [(1000.0, "d")] * 90}
    assert workloads.allocate(by_class, 100, 3.0) == {
        "lp/n6": 2, "lp/n4": 48, "auto/n5": 3, "auto/n4": 47}


def test_a_stale_pool_stops_the_run():
    pool = workloads.load_pool("dag-uncond")
    pool["queries"][workloads.qid("dag/n4/s0", 1)]["digest"] = "0" * 16
    with pytest.raises(SystemExit, match="stale"):
        run.Inputs(pool, [("dag/n4/s0", 1)])


def _small_query():
    net_doc, specs = workloads.materialize("dag/n4/s0")
    net = fileio.load_network_document(net_doc)
    query = fileio.parse_query(net, specs[1].doc)
    pool = workloads.load_pool("dag-uncond")
    entry = pool["queries"][workloads.qid("dag/n4/s0", 1)]
    return net, query, (entry["lower"], entry["upper"])


def test_checker_accepts_the_reference_and_rejects_a_perturbed_bound():
    net, query, ref = _small_query()
    assert harness.execute(net, query, ref, 5.0)[0] == "ok"
    shift = 10 * harness.REL_TOL * max(1.0, abs(ref[1]))
    assert harness.execute(net, query, (ref[0], ref[1] + shift),
                           5.0)[0] == "wrong"
    shift = 10 * harness.REL_TOL * max(1.0, abs(ref[0]))
    assert harness.execute(net, query, (ref[0] - shift, ref[1]),
                           5.0)[0] == "wrong"


def test_sleeping_engine_is_a_timeout_charged_at_the_deadline(monkeypatch):
    net, query, ref = _small_query()

    def sleeping(*args, **kwargs):
        time.sleep(30)

    monkeypatch.setattr(queries, "run_query", sleeping)
    start = time.perf_counter()
    outcome, seconds, result = harness.execute(net, query, ref, 0.05)
    assert outcome == "timeout" and result is None
    assert time.perf_counter() - start < 5
    tally = run.Tally(0.05)
    tally.add("q", outcome, seconds)
    tally.add("q", "ok", 0.001)  # a later success does not hide it
    assert tally.failed == 1 and tally.attempted == 2
    assert tally.per_query_ms().tolist() == [50.0]


def test_repeats_go_to_the_queries_that_decide_the_percentiles(monkeypatch):
    # query i takes (i + 1) ms; of 11 queries, p50 is rank 5 and p90 rank 9
    monkeypatch.setattr(harness, "execute", lambda net, query, ref, d:
                        ("ok", (query + 1) * 1e-3, None))
    monkeypatch.setattr(hostspeed, "probe", lambda: hostspeed.NOMINAL_S)
    items = [(f"q{i}", None, i, None) for i in range(11)]
    tally = run.Tally(1.0)
    run.timed_loop(items, tally, 1.0, 0.05)
    runs = {qid: len(times) for qid, times in tally.latencies.items()}
    assert runs["q5"] > 1.5 * runs["q2"]
    assert runs["q9"] > 1.5 * runs["q10"] and runs["q9"] > 1.5 * runs["q7"]


def test_clock_scales_a_stretch_by_the_mean_of_the_probes_around_it(
        monkeypatch):
    probes = iter([2.0, 4.0, 1.0])  # kernel times, in units of NOMINAL_S
    monkeypatch.setattr(hostspeed, "probe",
                        lambda: next(probes) * hostspeed.NOMINAL_S)
    clock = hostspeed.Clock()
    assert clock.scale(0.3) == pytest.approx(0.1)    # host 3x slower
    assert clock.scale(0.25) == pytest.approx(0.1)   # host 2.5x slower


def test_percentile_is_a_weighted_mean_near_its_rank():
    values = np.arange(1.0, 102.0)  # 1 .. 101
    assert run.percentile(values, 0.5) == pytest.approx(51.0)
    assert run.percentile(values, 0.9) == pytest.approx(91.0, abs=0.5)
    assert run.percentile(np.full(7, 3.0), 0.9) == pytest.approx(3.0)


def test_engine_errors_are_counted_by_name(monkeypatch):
    net, query, ref = _small_query()

    def out_of_memory(*args, **kwargs):
        raise MemoryError("asked for too much")

    monkeypatch.setattr(queries, "run_query", out_of_memory)
    assert harness.execute(net, query, ref, 1.0)[0] == "error.MemoryError"


def test_self_times_on_a_hand_built_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 9.0, 3.0])
    assert tracing.self_times(parent, start, end).tolist() == \
        [3.0, 2.0, 4.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_them():
    original = graph.set_relations
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert conditioning.set_relations is graph.set_relations
        assert graph.set_relations is not original
        net, query, ref = _small_query()
        tracer.current_query = 0
        assert harness.execute(net, query, ref, 5.0)[0] == "ok"
    finally:
        tracer.uninstall()
    assert graph.set_relations is original
    assert conditioning.set_relations is original
    metrics = tracing.layer_metrics(tracer)
    assert metrics["queries.run_query_ms"] > 0
    # every span's self time is non-negative and no more than its duration
    a = tracer.arrays()
    selft = tracing.self_times(a["parent"], a["start"], a["end"])
    assert (selft >= -1e-9).all()
    assert (selft <= a["end"] - a["start"] + 1e-12).all()


def test_unvalidated_load_is_a_fileio_span():
    net_doc = docs.chain_network(np.random.default_rng(0),
                                 harness.MAX_VALIDATED_NODES + 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.load_network(net_doc)
    finally:
        tracer.uninstall()
    assert "fileio.load_unvalidated" in tracer.names
    assert tracing.layer_metrics(tracer)["fileio.load_ms"] > 0
