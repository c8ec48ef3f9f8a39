"""The command-line interface end to end on the files in tests/data: exit
codes, printed bounds, and the text form of the global program."""

import json
import os

import pytest

from credalnet import cli, fileio, queries

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
