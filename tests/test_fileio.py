"""Network documents: the validation report, and loading in one pass."""

import copy
import json
import os
import time

import numpy as np
import pytest

from credalnet import fileio
from credalnet.credal import (CredalSet, binary_interval,
                              vertices_to_constraints)
from credalnet.errors import InputError
from credalnet.graph import Dag
from credalnet.lp import GlobalPolytope
from credalnet.network import CredalNetwork, lower_argmin

from helpers import (CUT_STATES, binary_net, constraint_twin,
                     interval_locals, random_dag, random_factor,
                     three_state_locals)

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

    def test_braces_in_a_node_name(self):
        # the name fills the message; it is not read as a format
        doc = {"nodes": [{"name": "{0}", "states": ["h", "t"], "x": 1}],
               "edges": [], "locals": [{"node": "{0}", "y": 1, "vertices": [
                   {"h": "1", "t": "0"}]}]}
        assert issues(doc) == [
            "unknown keys ['x'] in node '{0}'",
            "unknown keys ['y'] in a local entry of node '{0}'"]

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
            parsed.append((entry, parse(entry, states)))
            return parsed[-1][1]

        monkeypatch.setattr(fileio, "_parse_local", counting)
        net = fileio.load_network_document(chain3)
        assert len(parsed) == len(chain3["locals"]) == len(net.locals)
        # the network holds the very sets that were parsed, and the very
        # numbers of each vertex list
        assert {type(m) for _, m in parsed} == {tuple, CredalSet}
        for entry, m in parsed:
            local = net.local(entry["node"], tuple(entry["given"].values()))
            if type(m) is tuple:
                assert local._V.ravel().tolist() == list(m)
            else:
                assert local is m

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


def per_set_network(doc):
    """The network of a valid document built from one :class:`CredalSet`
    per entry, each checked on its own."""
    spaces = {e["name"]: tuple(e["states"]) for e in doc["nodes"]}
    dag = Dag(list(spaces), [tuple(e) for e in doc["edges"]])
    locals_ = {}
    for entry in doc["locals"]:
        s, states = entry["node"], spaces[entry["node"]]
        m = fileio._parse_local(entry, states)
        if type(m) is tuple:
            m = CredalSet(states, vertices=np.reshape(m, (-1, len(states))))
        locals_[(s, tuple(entry["given"][p] for p in dag.parents(s)))] = m
    return CredalNetwork(dag, spaces, locals_)


def benchmark_route(doc):
    """The network as the benchmark loads a long chain: ``_parse_local``
    per entry, then :class:`CredalNetwork`, with no validation report."""
    spaces = {e["name"]: tuple(e["states"]) for e in doc["nodes"]}
    dag = Dag(list(spaces), [tuple(e) for e in doc["edges"]])
    return CredalNetwork(dag, spaces, {
        (e["node"], tuple(e["given"][p] for p in dag.parents(e["node"]))):
        fileio._parse_local(e, spaces[e["node"]]) for e in doc["locals"]})


def assert_same_models(net, twin, rng):
    """``twin`` answers as ``net`` does, bit for bit: the same local sets
    and node arrays, local lower expectations with their minimisers, and
    global program."""
    for s in net.dag.nodes:
        for cfg in net.parent_configs(s):
            m, t = net.local(s, cfg), twin.local(s, cfg)
            assert m.states == t.states and m.constraints == t.constraints
            assert (m._V is None) == (t._V is None)
            if m._V is not None:
                assert m._V.shape == t._V.shape
                assert m._V.tobytes() == t._V.tobytes()
            assert m._H.tobytes() == t._H.tobytes()
        for a, b in zip(net.local_forms(s), twin.local_forms(s)):
            assert type(a) is type(b)
            assert a == b if type(a) is tuple else a.tobytes() == b.tobytes()
        for a, b in ((net.members(s), twin.members(s)),
                     *zip(net.local_rows(s), twin.local_rows(s))):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        stack, other = net.local_stack(s), twin.local_stack(s)
        assert stack.shape == other.shape
        assert stack.tobytes() == other.tobytes()
        parents = net.shape(net.dag.parents(s))
        g = rng.normal(size=(3, *parents, net.size(s)))
        assert np.array_equal(net.local_lower(s, g), twin.local_lower(s, g))
        for a, b in zip(lower_argmin(stack, g), lower_argmin(other, g)):
            assert np.array_equal(a, b)
    if net.joint_count() <= 2 ** 9:
        f = random_factor(rng, net, net.dag.nodes[-2:])
        assert GlobalPolytope(net).dump(f) == GlobalPolytope(twin).dump(f)


def random_set_network(rng, kind):
    """A seeded network built from :class:`CredalSet` objects: binary
    intervals, some collapsed to one vertex (``collapsed``); three-state
    three-vertex sets (``three``); every set of more than one vertex by
    its constraints (``constraints``); or each set in either form, so
    that some nodes mix them (``mixed``)."""
    dag = random_dag(rng, int(rng.integers(3, 6)), 0.5)
    if kind == "three":
        return CredalNetwork(dag, dict.fromkeys(dag.nodes, CUT_STATES),
                             three_state_locals(dag, rng))
    locals_ = interval_locals(dag, rng)
    for key in locals_:
        if kind == "collapsed" and rng.random() < 0.4:
            locals_[key] = binary_interval(("0", "1"), *[rng.random()] * 2)
        elif kind == "mixed" and rng.random() < 0.5:
            m = locals_[key]
            locals_[key] = CredalSet(m.states,
                                     constraints=vertices_to_constraints(m))
    net = binary_net(dag, locals_)
    return constraint_twin(net) if kind == "constraints" else net


class TestNodeArrays:
    """A loaded network keeps its local models in node arrays, and
    answers as the network built from one checked set per entry."""

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(DATA) if n.endswith(".json") and
        "nodes" in read(n)))
    def test_data_networks(self, name, rng):
        doc = read(name)
        net = per_set_network(doc)
        assert_same_models(net, fileio.load_network_document(doc), rng)
        assert_same_models(net, benchmark_route(doc), rng)

    @pytest.mark.parametrize("kind", ["collapsed", "three", "constraints",
                                      "mixed"])
    def test_random_networks(self, kind):
        rng = np.random.default_rng(["collapsed", "three", "constraints",
                                     "mixed"].index(kind))
        for _ in range(4):
            net = random_set_network(rng, kind)
            doc = json.loads(fileio.dump_network(net))
            assert_same_models(net, fileio.load_network_document(doc), rng)
            assert_same_models(net, benchmark_route(doc), rng)
            assert fileio.dump_network(benchmark_route(doc)) == \
                fileio.dump_network(net)

    def test_row_defects_in_entry_order(self, chain3):
        # a defect of the rows is listed at its entry's place among the
        # structural ones, which the document's one pass finds first
        chain3["locals"][0]["vertices"][0]["0"] = "1/4"
        chain3["locals"][1]["state"] = "0"
        chain3["locals"][2]["vertices"][1]["0"] = "-1/10"
        chain3["locals"][4]["given"]["a"] = "0"
        assert issues(chain3) == [
            "invalid local model for ('a', ()): probabilities sum to 1.05, "
            "not 1",
            "unknown keys ['state'] in a local entry of node 'b'",
            "invalid local model for ('b', ('1',)): negative probability in "
            "(-0.1, 0.1)",
            "local model for 'c' is given non-parents ['a']"]
        with pytest.raises(InputError, match="probabilities sum to 1.05"):
            benchmark_route(chain3)

    @pytest.mark.parametrize("bad", [False, True])
    def test_rows_are_checked_once(self, chain3, monkeypatch, bad):
        # one batch check of the binary rows per load, whether the
        # document is valid, or fails on its rows alone
        from credalnet import network
        checks, check = [], network.vertex_defects
        monkeypatch.setattr(network, "vertex_defects", lambda *a: (
            checks.append(len(a[1])) or check(*a)))
        lists = [e for e in chain3["locals"] if "constraints" not in e]
        if bad:
            lists[0]["vertices"][0]["0"] = "1/4"
        assert fileio.validate_document(chain3).ok != bad
        assert checks == [len(lists)]
        del checks[:]
        if bad:
            with pytest.raises(InputError, match="sum to 1.05"):
                fileio.load_network_document(chain3)
        else:
            fileio.load_network_document(chain3)
        assert checks == [len(lists)]


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
