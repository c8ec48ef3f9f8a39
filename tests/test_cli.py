"""The command-line interface end to end on the files in tests/data: exit
codes, printed bounds, and the text form of the global program."""

import json
import os
import subprocess
import sys
import time

import pytest

from credalnet import cli, fileio, lp, queries

DATA = os.path.join(os.path.dirname(__file__), "data")

#: network file, query file, and the program dump committed for the pair
CASES = [("two_coins.json", "agreement_query.json", "two_coins.lp"),
         ("chain3.json", "chain3_query.json", "chain3.lp")]


def data(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    pairs = dict(line.split("=", 1) for line in out.splitlines())
    return code, pairs, err


@pytest.mark.parametrize("net", ["two_coins.json", "chain3.json"])
def test_validate_ok(capsys, net):
    code, pairs, _ = run(capsys, "validate", data(net))
    assert code == 0
    assert pairs == {"valid": "true", "issues": "0"}


def test_validate_reports_issues(capsys, tmp_path):
    with open(data("chain3.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["locals"][0]
    doc["edges"].append(["c", "c"])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    code, pairs, _ = run(capsys, "validate", str(broken))
    assert code == cli.EXIT_VALIDATION
    assert pairs["valid"] == "false" and pairs["issues"] == "2"
    assert pairs["issue0"] == "self-loop on node 'c'"
    assert pairs["issue1"].startswith("missing local model for node 'a'")


def test_validate_counts_the_local_models_of_a_wide_node(capsys):
    # 24 binary parents: the missing local models are counted, not listed
    start = time.perf_counter()
    code, pairs, _ = run(capsys, "validate", data("invalid/wide_parents.json"))
    assert time.perf_counter() - start < 5.0
    assert code == cli.EXIT_VALIDATION
    assert pairs["issues"] == "1"
    assert pairs["issue0"] == ("node 'c' needs 16777216 local models, the "
                               "document gives 0")


@pytest.mark.parametrize("field, value", [("edges", 5), ("locals", 3)])
def test_malformed_document_is_not_a_crash(capsys, tmp_path, field, value):
    with open(data("two_coins.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[field] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    code, pairs, _ = run(capsys, "validate", str(broken))
    assert code == cli.EXIT_VALIDATION
    assert pairs["issue0"] == f"{field!r} is not a list"
    code, _, err = run(capsys, "infer", str(broken), data(CASES[0][1]))
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error=invalid network document")


@pytest.mark.parametrize("net, query", [case[:2] for case in CASES])
def test_infer_prints_run_query(capsys, net, query):
    code, pairs, _ = run(capsys, "infer", data(net), data(query))
    assert code == 0
    network = fileio.load_network(data(net))
    expected = queries.run_query(network, fileio.load_query(network,
                                                            data(query)))
    assert float(pairs["lower"]) == expected["lower"]
    assert float(pairs["upper"]) == expected["upper"]
    assert pairs["kind"] == expected["kind"]


@pytest.mark.parametrize("net, query", [case[:2] for case in CASES])
def test_one_global_program_per_lp_query(capsys, monkeypatch, net, query):
    # the lower and the upper bound share one build
    built = []
    init = lp.GlobalPolytope.__init__
    monkeypatch.setattr(lp.GlobalPolytope, "__init__",
                        lambda gp, *a, **kw: built.append(gp) or
                        init(gp, *a, **kw))
    code, _, _ = run(capsys, "infer", data(net), data(query))
    assert code == 0
    assert len(built) == 1


def test_one_build_per_core_of_an_unconditional_auto_query(capsys,
                                                           monkeypatch):
    # the two unconnected coins are the planner's LP core: one pass for
    # the gamble and its negation builds it, and traces it, once
    built = []
    init = lp.GlobalPolytope.__init__
    monkeypatch.setattr(lp.GlobalPolytope, "__init__",
                        lambda gp, *a, **kw: built.append(gp) or
                        init(gp, *a, **kw))
    code, pairs, _ = run(capsys, "trace", data("two_coins.json"),
                         data("agreement_auto_query.json"))
    assert code == 0
    assert len(built) == 1 and built[0].net.dag.nodes == ("1", "2")
    assert pairs["lp nodes"] == "('1', '2')"


def test_one_global_program_per_reduced_auto_query(capsys, monkeypatch,
                                                   tmp_path):
    # the evidence on c is left inside K = {b, c}, which is smaller than
    # the network, and the gamble on (b, c) lies on no root of K: the
    # lower and the upper bound share its one program
    path = tmp_path / "query.json"
    query = {"target": {"scope": ["b", "c"], "table": [
                 {"states": ["0", "0"], "value": 2},
                 {"states": ["0", "1"], "value": "-1/2"},
                 {"states": ["1", "0"], "value": 1},
                 {"states": ["1", "1"], "value": "3/4"}]},
             "given": {"assignment": {"a": "0", "c": "1"}},
             "rule": "natural", "method": "auto"}
    path.write_text(json.dumps(query), encoding="utf-8")
    built = []
    init = lp.GlobalPolytope.__init__
    monkeypatch.setattr(lp.GlobalPolytope, "__init__",
                        lambda gp, *a, **kw: built.append(gp) or
                        init(gp, *a, **kw))
    code, pairs, _ = run(capsys, "trace", data("chain3.json"), str(path))
    assert code == 0
    assert len(built) == 1 and built[0].net.dag.nodes == ("b", "c")
    assert pairs["kind"] == pairs["upper_kind"] == "unique-root"
    path.write_text(json.dumps({**query, "method": "lp"}), encoding="utf-8")
    _, direct, _ = run(capsys, "infer", data("chain3.json"), str(path))
    for key in ("lower", "upper"):
        assert float(pairs[key]) == pytest.approx(float(direct[key]),
                                                  abs=1e-7)


def test_root_gamble_auto_query_builds_no_program(capsys, monkeypatch,
                                                  tmp_path):
    # b is the root of K = {b, c}, and the evidence on c descends from
    # it: both bounds come from the sign split of the planner's
    # envelopes at b, in lockstep, and no program is built
    path = tmp_path / "query.json"
    query = {"target": {"scope": ["b"], "table": {"0": 2, "1": "-1/2"}},
             "given": {"assignment": {"a": "0", "c": "1"}},
             "rule": "natural", "method": "auto"}
    path.write_text(json.dumps(query), encoding="utf-8")
    built = []
    init = lp.GlobalPolytope.__init__
    monkeypatch.setattr(lp.GlobalPolytope, "__init__",
                        lambda gp, *a, **kw: built.append(gp) or
                        init(gp, *a, **kw))
    code, pairs, _ = run(capsys, "infer", data("chain3.json"), str(path))
    assert code == 0 and not built
    assert pairs["kind"] == pairs["upper_kind"] == "unique-root"
    path.write_text(json.dumps({**query, "method": "lp"}), encoding="utf-8")
    _, direct, _ = run(capsys, "infer", data("chain3.json"), str(path))
    for key in ("lower", "upper"):
        assert float(pairs[key]) == pytest.approx(float(direct[key]),
                                                  abs=1e-12)


def test_regular_leaf_query_with_zero_upper_probability(capsys):
    # a -> q -> d with P(a = 0) = 0: given a = 0 and q = 0 no evidence is
    # left inside K = {d}, and the regular rule is vacuous, as on the
    # global program, not the local value of d given q = 0
    _, auto, _ = run(capsys, "infer", data("zero_gate.json"),
                     data("zero_gate_auto_query.json"))
    _, exact, _ = run(capsys, "infer", data("zero_gate.json"),
                      data("zero_gate_lp_query.json"))
    for key in ("lower", "upper", "kind"):
        assert auto[key] == exact[key]
    assert (auto["lower"], auto["kind"]) == ("0.0", "vacuous-fallback")


def test_trace_matches_committed_text(capsys):
    # an auto conditional query whose reduced gamble peels one node: the
    # whole audit log of both bounds, and the bounds, are pinned
    code = cli.main(["trace", data("chain3.json"),
                     data("chain3_auto_query.json")])
    out, _ = capsys.readouterr()
    assert code == 0
    with open(data("chain3_auto_query.trace"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_one_pass_trace_matches_committed_text(capsys):
    # an auto unconditional query on an LP core: one pass answers both
    # bounds, so the log shows the core once
    code = cli.main(["trace", data("two_coins.json"),
                     data("agreement_auto_query.json")])
    out, _ = capsys.readouterr()
    assert code == 0
    with open(data("agreement_auto_query.trace"), encoding="utf-8") as fh:
        assert out == fh.read()
    assert out.count("lp nodes=('1', '2')") == 1


@pytest.mark.parametrize("net, query", [
    ("chain3.json", "chain3_chain_query.json"),
    ("hmm3.json", "hmm3_query.json"),
    ("chain3.json", "chain3_query.json"),
    ("zero_gate.json", "zero_gate_lp_query.json")])
def test_sweep_output_matches_committed_text(capsys, net, query):
    # the bounds, kinds and iteration counts of both brackets of a sweep,
    # and of an lp query, whose brackets run one after the other over the
    # global program: a unique root and a vacuous fallback
    code = cli.main(["infer", data(net), data(query)])
    out, _ = capsys.readouterr()
    assert code == 0
    with open(data(query.replace(".json", ".out")), encoding="utf-8") as fh:
        assert out == fh.read()


def test_auto_reverse_chain_query_matches_chain_output(capsys):
    # auto reduces the reverse chain query to the whole chain, whose
    # first node is a root above the evidence: the same engine as
    # method=chain, and the same text but for the method line
    code = cli.main(["infer", data("chain3.json"),
                     data("chain3_auto_rev_query.json")])
    out, _ = capsys.readouterr()
    assert code == 0
    with open(data("chain3_chain_query.out"), encoding="utf-8") as fh:
        expect = fh.read()
    assert out.replace("method=auto", "method=chain") == expect


def test_auto_hmm_query_matches_hmm_output(capsys):
    # auto reduces the filtering query to the whole model, whose shape
    # the dispatcher recognises: the filtering sweep of method=hmm, and
    # the same text but for the method line
    code = cli.main(["infer", data("hmm3.json"),
                     data("hmm3_auto_query.json")])
    out, _ = capsys.readouterr()
    assert code == 0
    with open(data("hmm3_query.out"), encoding="utf-8") as fh:
        expect = fh.read()
    assert out.replace("method=auto", "method=hmm") == expect


@pytest.mark.parametrize("net, query, dump", CASES)
def test_lp_dump_matches_committed_text(capsys, tmp_path, net, query, dump):
    out = tmp_path / "program.lp"
    code, _, _ = run(capsys, "infer", data(net), data(query),
                     "--lp-dump", str(out))
    assert code == 0
    with open(data(dump), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("query", [
    {"target": 5},
    {"target": {"scope": ["1"], "table": [["h", 1.0], ["t", 0.0]]}},
    {"target": {"scope": ["1"], "table": {"h": 1.0, "t": 0.0}},
     "given": {"assignment": 3}, "rule": "natural"},
])
def test_malformed_query_is_not_a_crash(capsys, tmp_path, query):
    broken = tmp_path / "query.json"
    broken.write_text(json.dumps(query), encoding="utf-8")
    code, _, err = run(capsys, "infer", data("two_coins.json"), str(broken))
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error=")


#: a natural-rule conditional query on two_coins.json, by the global program
CONDITIONAL = {"target": {"scope": ["1"], "table": {"h": 1.0, "t": 0.0}},
               "given": {"assignment": {"2": "h"}},
               "rule": "natural", "method": "lp"}


@pytest.mark.parametrize("change", [
    {"tolerance": 0}, {"tolerance": -1}, {"tolerance": "nan"},
    {"target": {"scope": ["1"], "table": {"h": "nan", "t": 0.0}}},
    {"target": {"scope": ["1"], "table": {"h": "1e400", "t": 0.0}}},
])
def test_non_finite_or_non_positive_query_numbers(capsys, tmp_path, change):
    path = tmp_path / "query.json"
    path.write_text(json.dumps({**CONDITIONAL, **change}), encoding="utf-8")
    code, _, err = run(capsys, "infer", data("two_coins.json"), str(path))
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error=")


def test_repeated_key_in_query_file(capsys, tmp_path):
    path = tmp_path / "query.json"
    path.write_text('{"target": {"scope": ["1"], "table": {"h": 1, "h": 5, '
                    '"t": 0}}, "rule": "unconditional", "method": "lp"}',
                    encoding="utf-8")
    code, pairs, err = run(capsys, "infer", data("two_coins.json"), str(path))
    assert code == cli.EXIT_VALIDATION and not pairs
    assert "repeated key 'h'" in err


def test_repeated_key_in_network_file(capsys, tmp_path):
    with open(data("two_coins.json"), encoding="utf-8") as fh:
        text = fh.read()
    vertex = '{"h": "1/4", "t": "3/4"}'
    assert vertex in text
    path = tmp_path / "net.json"
    path.write_text(text.replace(vertex, '{"h": "1/4", "t": "3/4", '
                                         '"h": "3/4"}', 1), encoding="utf-8")
    for argv in (("validate", str(path)),
                 ("infer", str(path), data("agreement_query.json"))):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_VALIDATION
        assert "repeated key 'h'" in err


def test_unknown_conditioning_node(capsys, tmp_path):
    path = tmp_path / "query.json"
    path.write_text(json.dumps({**CONDITIONAL,
                                "given": {"assignment": {"zz": "h"}}}),
                    encoding="utf-8")
    code, _, err = run(capsys, "infer", data("two_coins.json"), str(path))
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error=") and "'zz'" in err


def test_unknown_state_in_a_vertex(capsys, tmp_path):
    with open(data("two_coins.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["locals"][0]["vertices"][0]["x"] = "5"
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, pairs, _ = run(capsys, "validate", str(path))
    assert code == cli.EXIT_VALIDATION and pairs["issues"] == "1"
    assert pairs["issue0"].startswith("invalid local model for ('1', ())")
    code, _, err = run(capsys, "infer", str(path),
                       data("agreement_query.json"))
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error=invalid network document")


def test_chain_query_matches_lp_in_few_steps(capsys):
    # the chain sweep reports P(B) at its attaining model, so the root
    # finder takes Dinkelbach steps, as on the global program
    code, chain, _ = run(capsys, "infer", data("chain3.json"),
                         data("chain3_chain_query.json"))
    assert code == 0 and chain["method"] == "chain"
    _, exact, _ = run(capsys, "infer", data("chain3.json"),
                      data("chain3_query.json"))
    for key in ("lower", "upper"):
        assert float(chain[key]) == pytest.approx(float(exact[key]),
                                                  abs=1e-9)
    assert int(chain["iterations"]) <= 3
    assert int(chain["upper_iterations"]) <= 3


def test_forward_chain_query_equals_auto(capsys, tmp_path):
    # an unconditional chain query runs the planner, as auto does
    code, chain, _ = run(capsys, "infer", data("chain3.json"),
                         data("chain3_forward_query.json"))
    assert code == 0
    with open(data("chain3_forward_query.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "query.json"
    path.write_text(json.dumps({**doc, "method": "auto"}), encoding="utf-8")
    _, auto, _ = run(capsys, "infer", data("chain3.json"), str(path))
    assert chain == {**auto, "method": "chain"}
    assert (chain["kind"], chain["rule"]) == ("exact", "unconditional")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_1_quietly(unbuffered):
    # the reader is gone before the first line: no error text, and not
    # the exit code of an invalid input
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "credalnet.cli", "adsep",
             data("chain3.json"), "a", "c", "b"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_unknown_query_key(capsys, tmp_path):
    path = tmp_path / "query.json"
    doc = {**CONDITIONAL, "methd": "chain"}
    del doc["method"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "infer", data("two_coins.json"), str(path))
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error=") and "unknown keys ['methd']" in err


def test_hmm_query_matches_lp(capsys, tmp_path):
    # the filtering sweep and the global program give the same bounds
    code, hmm, _ = run(capsys, "infer", data("hmm3.json"),
                       data("hmm3_query.json"))
    assert code == 0 and hmm["method"] == "hmm"
    with open(data("hmm3_query.json"), encoding="utf-8") as fh:
        query = json.load(fh)
    path = tmp_path / "query.json"
    path.write_text(json.dumps({**query, "method": "lp"}), encoding="utf-8")
    code, exact, _ = run(capsys, "infer", data("hmm3.json"), str(path))
    assert code == 0 and exact["method"] == "lp"
    for key in ("lower", "upper"):
        assert float(hmm[key]) == pytest.approx(float(exact[key]), abs=1e-9)


def test_adsep_shows_the_asymmetry(capsys):
    # on the chain a -> b -> c given b, AD-separation holds from a to c
    # and not back, where d-separation is symmetric
    code, pairs, _ = run(capsys, "adsep", data("chain3.json"), "a", "c", "b")
    assert code == 0
    assert pairs == {"AD(I,S|C)": "true", "AD(S,I|C)": "false",
                     "d(I,S|C)": "true", "d(S,I|C)": "true"}


def test_vertices_of_two_coins(capsys):
    code, pairs, _ = run(capsys, "vertices", data("two_coins.json"))
    assert code == 0
    assert pairs["states"] == "h,h h,t t,h t,t"
    assert pairs["count"] == "6"
    vertices = sorted(tuple(map(float, pairs[f"vertex{i}"].split()))
                      for i in range(6))
    assert vertices[0] == (0.0625, 0.1875, 0.1875, 0.5625)
    assert len(pairs) == 2 + 6
