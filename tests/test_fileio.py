"""Network documents: the validation report, and loading in one pass."""

import copy
import json
import os
import time

import pytest

from credalnet import fileio
from credalnet.errors import InputError

DATA = os.path.join(os.path.dirname(__file__), "data")


def read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def chain3():
    """a -> b -> c, binary, with vertex and constraint local sets."""
    return read("chain3.json")


def chain_document(n):
    names = [str(i + 1) for i in range(n)]
    interval = [{"0": "1/5", "1": "4/5"}, {"0": "1/2", "1": "1/2"}]
    locals_ = [{"node": "1", "given": {}, "vertices": interval}]
    for a, b in zip(names, names[1:]):
        for x in ("0", "1"):
            locals_.append({"node": b, "given": {a: x}, "vertices": interval})
    return {"nodes": [{"name": s, "states": ["0", "1"]} for s in names],
            "edges": [[a, b] for a, b in zip(names, names[1:])],
            "locals": locals_}


def issues(doc):
    return fileio.validate_document(doc).issues


def only_issue(doc, text):
    """The report has exactly one issue, containing ``text``; loading
    raises InputError naming it."""
    found = issues(doc)
    assert len(found) == 1 and text in found[0], found
    with pytest.raises(InputError, match="invalid network document"):
        fileio.load_network_document(doc)


class TestValidateDocument:
    def test_well_formed(self, chain3):
        assert fileio.validate_document(chain3).ok
        assert fileio.validate_document(read("two_coins.json")).ok

    def test_not_an_object(self):
        only_issue(["nodes"], "document is not a JSON object")

    def test_missing_nodes(self):
        only_issue({"edges": [], "locals": []}, "missing or empty 'nodes'")
        only_issue({"nodes": [], "edges": [], "locals": []},
                   "missing or empty 'nodes'")

    def test_malformed_node_entry(self, chain3):
        chain3["nodes"].append({"name": "d"})
        only_issue(chain3, "malformed node entry")
        chain3["nodes"][-1] = {"name": "d", "states": 5}
        only_issue(chain3, "malformed node entry")

    def test_duplicate_node_is_not_a_cycle(self, chain3):
        chain3["nodes"].append({"name": "a", "states": ["0", "1"]})
        only_issue(chain3, "duplicate node 'a'")

    def test_bad_state_list(self, chain3):
        chain3["nodes"].append({"name": "d", "states": ["x", "x"]})
        found = issues(chain3)
        assert "bad state list for node 'd'" in found[0]
        assert any("missing local model for node 'd'" in x for x in found)

    def test_malformed_edge(self, chain3):
        chain3["edges"].append(["a"])
        only_issue(chain3, "malformed edge ['a']")

    def test_edge_to_undeclared_node(self, chain3):
        chain3["edges"].append(["c", "z"])
        only_issue(chain3, "references undeclared node")

    def test_self_loop(self, chain3):
        chain3["edges"].append(["b", "b"])
        only_issue(chain3, "self-loop on node 'b'")

    def test_duplicate_edge(self, chain3):
        chain3["edges"].append(["a", "b"])
        only_issue(chain3, "duplicate edge ('a', 'b')")

    def test_cycle(self, chain3):
        chain3["edges"].append(["c", "a"])
        only_issue(chain3, "acyclicity violated")

    def test_malformed_local_entry(self, chain3):
        chain3["locals"].append({"given": {}})
        only_issue(chain3, "malformed local entry")
        chain3["locals"][-1] = {"node": "a", "given": ["x"]}
        only_issue(chain3, "malformed local entry")

    def test_local_for_undeclared_node(self, chain3):
        chain3["locals"].append({"node": "z", "given": {}})
        only_issue(chain3, "local model for undeclared node 'z'")

    def test_local_misses_parent_value(self, chain3):
        chain3["locals"].append({"node": "b", "given": {}})
        only_issue(chain3, "local model for 'b' misses parent value 'a'")

    def test_duplicate_local(self, chain3):
        chain3["locals"].append(copy.deepcopy(chain3["locals"][0]))
        only_issue(chain3, "duplicate local model for ('a', ())")

    def test_impossible_configuration(self, chain3):
        extra = copy.deepcopy(chain3["locals"][1])
        extra["given"] = {"a": "7"}
        chain3["locals"].append(extra)
        only_issue(chain3, "impossible configuration ('b', ('7',))")

    def test_invalid_local(self, chain3):
        chain3["locals"][0]["vertices"] = [{"0": "1/5"}]
        only_issue(chain3, "invalid local model for ('a', ())")
        chain3["locals"][0]["vertices"] = []
        only_issue(chain3, "invalid local model for ('a', ())")
        chain3["locals"][0]["vertices"] = 5
        only_issue(chain3, "invalid local model for ('a', ())")
        chain3["locals"][1]["constraints"][0]["alpha"] = ["1", "0"]
        chain3["locals"][0]["vertices"] = [{"0": "1/5", "1": "4/5"}]
        only_issue(chain3, "invalid local model for ('b', ('0',))")

    @pytest.mark.parametrize("change, text", [
        (lambda doc: doc["locals"][0].update(given={"2": "h", "zz": "q"}),
         "local model for '1' is given non-parents ['2', 'zz']"),
        (lambda doc: doc["locals"][0]["vertices"][0].update(x="5"),
         "invalid local model for ('1', ())"),
        (lambda doc: doc["locals"][1].update(vertices=None, constraints=[
            {"alpha": {"h": "1", "t": "0", "q": "1"}, "beta": "1/4"}]),
         "invalid local model for ('2', ())"),
    ], ids=["given-non-parent", "vertex-extra-state", "alpha-extra-state"])
    def test_unknown_names_are_issues(self, change, text):
        doc = read("two_coins.json")
        change(doc)
        only_issue(doc, text)

    @pytest.mark.parametrize("change, text", [
        (lambda doc: doc.update(node=[]),
         "unknown keys ['node'] in the network document"),
        (lambda doc: doc["nodes"][0].update(state=["h"]),
         "unknown keys ['state'] in node '1'"),
        (lambda doc: doc["locals"][0].update(constraint=[
            {"alpha": {"h": "1", "t": "0"}, "beta": "9/10"}]),
         "unknown keys ['constraint'] in a local entry of node '1'"),
        (lambda doc: doc["locals"][1].update(vertices=None, constraints=[
            {"alpha": {"h": "1", "t": "0"}, "beta": "1/4", "q": "1"}]),
         "invalid local model for ('2', ()): unknown keys ['q'] in a "
         "constraint"),
    ], ids=["document", "node", "local", "constraint"])
    def test_unknown_keys_are_issues(self, change, text):
        doc = read("two_coins.json")
        change(doc)
        only_issue(doc, text)

    def test_missing_local_model(self, chain3):
        del chain3["locals"][3]
        only_issue(chain3, "missing local model for node 'c' given ('0',)")

    def test_edges_not_a_list(self, chain3):
        chain3["edges"] = 5
        only_issue(chain3, "'edges' is not a list")

    def test_locals_not_a_list(self, chain3):
        chain3["locals"] = 3
        only_issue(chain3, "'locals' is not a list")

    def test_every_issue_is_reported(self, chain3):
        chain3["edges"].append(["b", "b"])
        chain3["locals"].append({"node": "z", "given": {}})
        del chain3["locals"][0]
        found = issues(chain3)
        assert len(found) == 3
        assert "self-loop" in found[0]
        assert "undeclared node 'z'" in found[1]
        assert "missing local model for node 'a'" in found[2]

    def test_2000_node_chain_under_a_second(self):
        doc = chain_document(2000)
        start = time.perf_counter()
        assert fileio.validate_document(doc).ok
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n_parents", [40, 64])
    def test_wide_node_is_counted_not_enumerated(self, n_parents):
        doc = wide_document(n_parents)
        start = time.perf_counter()
        only_issue(doc, f"node 'c' needs {2 ** n_parents} local models, "
                        "the document gives 0")
        assert time.perf_counter() - start < 1.0

    def test_a_short_node_is_one_line(self, chain3):
        states = list("0123456789")
        chain3["nodes"].append({"name": "d", "states": states})
        chain3["edges"].append(["d", "c"])
        chain3["locals"].append({"node": "d", "given": {}, "vertices": [
            {x: "1" if x == "0" else "0" for x in states}]})
        # c has 20 configurations now, and its two entries miss d
        assert issues(chain3) == [
            "local model for 'c' misses parent value 'd'",
            "local model for 'c' misses parent value 'd'",
            "node 'c' needs 20 local models, the document gives 0"]


def wide_document(n_parents):
    """Node c with ``n_parents`` binary parents and no local entry."""
    parents = [f"p{i}" for i in range(n_parents)]
    interval = [{"0": "1/4", "1": "3/4"}, {"0": "1/2", "1": "1/2"}]
    return {"nodes": [{"name": s, "states": ["0", "1"]}
                      for s in parents + ["c"]],
            "edges": [[p, "c"] for p in parents],
            "locals": [{"node": p, "given": {}, "vertices": interval}
                       for p in parents]}


def three_state_document(vertices):
    return {"nodes": [{"name": "x", "states": ["a", "b", "c"]}],
            "edges": [], "locals": [{"node": "x", "given": {},
                                     "vertices": vertices}]}


class TestInvalidLocalSet:
    """Each defect of a local set is one issue, ``invalid local model for
    (node, configuration): <message>``, and loading raises on it."""

    @pytest.mark.parametrize("vertices, message", [
        ([{"h": "-1/4", "t": "5/4"}], "negative probability in (-0.25, 1.25)"),
        ([{"h": "1/4", "t": "1/2"}], "probabilities sum to 0.75, not 1"),
        ([{"h": "1/4", "t": "3/4"}, {"h": "1/4", "t": "3/4"}],
         "duplicate vertices in credal set"),
        ([{"h": "nan", "t": "1/2"}], "not a finite number: 'nan'"),
        ([{"h": float("nan"), "t": 0.5}], "not a finite number: nan"),
        ([{"h": float("inf"), "t": 0}], "not a finite number: inf"),
        ([{"h": "1/0", "t": "1"}], "cannot parse number '1/0'"),
        ([{"h": "1"}], "vertex {'h': '1'} does not name exactly the states "
                       "('h', 't')"),
        ([{"h": "1", "t": "0", "x": "0"}], "vertex {'h': '1', 't': '0', "
                                            "'x': '0'} does not name exactly "
                                            "the states ('h', 't')"),
        ([], "empty vertex list"),
    ], ids=["negative", "sum", "duplicate", "nan-text", "nan", "infinity",
            "zero-division", "missing-state", "extra-state", "empty"])
    def test_vertex_defect(self, vertices, message):
        doc = read("two_coins.json")
        doc["locals"][1]["vertices"] = vertices
        only_issue(doc, f"invalid local model for ('2', ()): {message}")

    def test_vertex_inside_the_hull(self):
        doc = three_state_document([
            {"a": "1", "b": "0", "c": "0"}, {"a": "0", "b": "1", "c": "0"},
            {"a": "1/2", "b": "1/2", "c": "0"}])
        only_issue(doc, "invalid local model for ('x', ()): vertex 2 lies in "
                        "the convex hull of the others")
        del doc["locals"][0]["vertices"][2]
        assert fileio.validate_document(doc).ok

    def test_vertices_conflict_with_constraints(self):
        doc = read("two_coins.json")
        doc["locals"][0]["constraints"] = [
            {"alpha": {"h": "1", "t": "0"}, "beta": "1/2"}]
        only_issue(doc, "invalid local model for ('1', ()): a vertex violates "
                        "the given constraints")

    def test_two_bad_sets_are_two_lines(self):
        doc = read("two_coins.json")
        doc["locals"][0]["vertices"][0]["h"] = "-1/4"
        doc["locals"][1]["vertices"] = []
        assert issues(doc) == [
            "invalid local model for ('1', ()): negative probability in "
            "(-0.25, 0.75)",
            "invalid local model for ('2', ()): empty vertex list"]


class TestLoadNetworkDocument:
    def test_parses_each_local_once(self, chain3, monkeypatch):
        parsed = []
        parse = fileio._parse_local

        def counting(entry, states):
            parsed.append(parse(entry, states))
            return parsed[-1]

        monkeypatch.setattr(fileio, "_parse_local", counting)
        net = fileio.load_network_document(chain3)
        assert len(parsed) == len(chain3["locals"]) == len(net.locals)
        # the network holds the very sets that were parsed
        assert {id(m) for m in parsed} == {id(m) for m in net.locals.values()}

    def test_network(self, chain3):
        net = fileio.load_network_document(chain3)
        assert net.dag.nodes == ("a", "b", "c")
        assert net.dag.parents("c") == ("b",)
        assert net.local("b", ("0",)).lower_probability({"0"}) == \
            pytest.approx(0.3, abs=1e-12)

    def test_round_trip(self, chain3):
        net = fileio.load_network_document(chain3)
        text = fileio.dump_network(net)
        again = fileio.load_network_document(json.loads(text))
        assert fileio.dump_network(again) == text


#: a well-formed conditional query on two_coins.json
QUERY = {"target": {"scope": ["1"],
                    "table": [{"states": ["h"], "value": 1.0},
                              {"states": ["t"], "value": 0.0}]},
         "given": {"assignment": {"2": "h"}},
         "rule": "natural", "method": "lp"}


def malformed(path, value):
    """QUERY with the entry at ``path`` (a key sequence) set to ``value``."""
    doc = copy.deepcopy(QUERY)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


class TestParseQuery:
    @pytest.fixture()
    def net(self):
        return fileio.load_network_document(read("two_coins.json"))

    def test_well_formed(self, net):
        q = fileio.parse_query(net, QUERY)
        assert q.target.scope == ("1",)
        assert q.target.values.tolist() == [1.0, 0.0]
        assert q.given.assignment() == {"2": "h"}

    @pytest.mark.parametrize("path, value", [
        (("target",), 5),
        (("target",), ["table"]),
        (("target", "scope"), 7),
        (("target", "table"), 3),
        (("target", "table", 0), ["h", 1.0]),
        (("target", "table", 1), "t"),
        (("target", "table", 0, "states"), "h"),
        (("target", "table", 0, "states"), ["h", "t"]),
        (("target", "table", 0, "value"), None),
        (("given",), 4),
        (("given", "assignment"), 3),
        (("given", "assignment"), ["2", "h"]),
        (("target",), {"indicator": 1}),
        (("target",), {"indicator": {"scope": 1, "states": [["h"]]}}),
    ])
    def test_malformed_raises_input_error(self, net, path, value):
        with pytest.raises(InputError):
            fileio.parse_query(net, malformed(path, value))

    @pytest.mark.parametrize("path, key", [
        ((), "methd"),
        ((), "tolerence"),
        (("target",), "scopes"),
        (("target", "table", 0), "val"),
        (("given",), "states"),
    ])
    def test_unknown_key_raises_input_error(self, net, path, key):
        doc = copy.deepcopy(QUERY)
        holder = doc
        for part in path:
            holder = holder[part]
        holder[key] = "x"
        with pytest.raises(InputError, match=f"unknown keys \\['{key}'\\]"):
            fileio.parse_query(net, doc)

    def test_unknown_key_of_an_event_raises_input_error(self, net):
        target = {"indicator": {"scope": ["1"], "states": [["h"]], "x": 1}}
        with pytest.raises(InputError, match=r"unknown keys \['x'\]"):
            fileio.parse_query(net, malformed(("target",), target))
        given = {"scope": ["2"], "states": [["h"]], "assignment": {}}
        doc = malformed(("given",), given)
        del doc["given"]["assignment"]
        doc["given"]["y"] = 1
        with pytest.raises(InputError, match=r"unknown keys \['y'\]"):
            fileio.parse_query(net, doc)

    def test_committed_documents_use_known_keys(self, net):
        for name in os.listdir(DATA):
            if name.endswith(".json") and "query" not in name:
                assert fileio.validate_document(read(name)).ok, name
        fileio.parse_query(net, read("agreement_query.json"))
        chain3 = fileio.load_network_document(read("chain3.json"))
        for name in os.listdir(DATA):
            if name.startswith("chain3_") and name.endswith(".json"):
                fileio.parse_query(chain3, read(name))

    def test_unknown_conditioning_node(self, net):
        with pytest.raises(InputError, match="unknown node 'zz'"):
            fileio.parse_query(net, malformed(("given", "assignment"),
                                              {"zz": "h"}))

    def test_repeated_key_in_a_file(self, net, tmp_path):
        path = tmp_path / "query.json"
        path.write_text('{"target": {"scope": ["1"], '
                        '"table": {"h": 1, "h": 5, "t": 0}}}',
                        encoding="utf-8")
        with pytest.raises(InputError, match="repeated key 'h'"):
            fileio.load_query(net, str(path))


class TestNumbers:
    @pytest.mark.parametrize("text", [
        "nan", "inf", "-inf", "1e400", float("nan"), float("inf"),
        pytest.param(10 ** 400, id="int-1e400"),
        pytest.param("1" + "0" * 400 + "/3", id="fraction-1e400")])
    def test_non_finite_is_rejected(self, text):
        with pytest.raises(InputError):
            fileio.parse_number(text)

    @pytest.mark.parametrize("text, value", [("1/4", 0.25), ("-2.5", -2.5),
                                             (3, 3.0), (1e300, 1e300)])
    def test_finite_is_read(self, text, value):
        assert fileio.parse_number(text) == value

    def test_nan_vertex_is_an_issue(self):
        doc = read("two_coins.json")
        doc["locals"][0]["vertices"][0] = {"h": "nan", "t": "nan"}
        only_issue(doc, "not a finite number")


class TestQueryNumbers:
    @pytest.fixture()
    def net(self):
        return fileio.load_network_document(read("two_coins.json"))

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_table_value(self, net, value):
        with pytest.raises(InputError, match="finite"):
            fileio.parse_query(
                net, malformed(("target", "table", 0, "value"), value))

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_mapping_table_value(self, net, value):
        doc = malformed(("target", "table"), {"h": value, "t": 0})
        with pytest.raises(InputError, match="finite"):
            fileio.parse_query(net, doc)

    @pytest.mark.parametrize("tolerance", [0, -1, "nan", 0.0])
    def test_tolerance_must_be_positive(self, net, tolerance):
        doc = dict(QUERY, tolerance=tolerance)
        with pytest.raises(InputError):
            fileio.parse_query(net, doc)

    def test_positive_tolerance_is_kept(self, net):
        assert fileio.parse_query(net, dict(QUERY, tolerance="1/1000")
                                  ).tolerance == 0.001


class TestTableStates:
    @pytest.fixture()
    def net(self):
        return fileio.load_network_document(read("two_coins.json"))

    def test_unknown_state_in_mapping_table(self, net):
        doc = malformed(("target", "table"), {"h": 1, "t": 0, "x": 5})
        with pytest.raises(InputError, match="outside"):
            fileio.parse_query(net, doc)

    def test_unknown_state_in_list_table(self, net):
        doc = malformed(("target", "table"),
                        [{"states": ["h"], "value": 1.0},
                         {"states": ["t"], "value": 0.0},
                         {"states": ["x"], "value": 5.0}])
        with pytest.raises(InputError, match="outside"):
            fileio.parse_query(net, doc)

    def test_repeated_state_in_list_table(self, net):
        doc = malformed(("target", "table"),
                        [{"states": ["h"], "value": 1.0},
                         {"states": ["h"], "value": 2.0},
                         {"states": ["t"], "value": 0.0}])
        with pytest.raises(InputError, match="repeats"):
            fileio.parse_query(net, doc)
