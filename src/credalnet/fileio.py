"""Network and query files.

Both are restricted JSON documents with a canonical field order, so a
parse/serialize round trip is byte-stable.  Probabilities and bounds may
be written as JSON numbers, decimal strings, or exact fractions "a/b";
fixtures prefer fractions to avoid decimal-representation drift.  Every
number must be finite.

Network document::

    {"nodes": [{"name": "1", "states": ["h", "t"]}, ...],
     "edges": [["1", "2"], ...],
     "locals": [{"node": "1", "given": {},
                 "vertices": [{"h": "1/4", "t": "3/4"}, ...]},
                {"node": "2", "given": {"1": "h"},
                 "constraints": [{"alpha": {"h": "1", "t": "0"},
                                  "beta": "1/4"}, ...]}]}

Query document::

    {"target": {"scope": ["2"], "table": {"h": 1, "t": 0}},
     "given": {"assignment": {"1": "h"}},
     "rule": "natural", "method": "auto", "tolerance": 1e-9}

The target may also be {"indicator": {"scope": [...], "states": [[...]]}}
and the conditioning event an explicit joint-state list with the same
shape.  ``rule`` is natural, regular or unconditional, and the tolerance
must be positive.  A table names every joint state of its scope and no
other; a list-style table names each one once.

Network documents are read in a single pass that both records every
defect (:func:`validate_document`) and collects the parsed local sets
that :func:`load_network_document` hands to :class:`CredalNetwork`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Mapping

from .credal import CredalSet, LinearConstraint
from .errors import InputError, ModelError
from .graph import Dag
from .network import CredalNetwork, Event, Factor


def parse_number(v) -> float:
    """JSON number, decimal string, or exact fraction 'a/b'; it must be
    finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise InputError(f"not a number: {v!r}")
    try:
        x = float(Fraction(v)) if isinstance(v, str) and "/" in v else float(v)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise InputError(f"cannot parse number {v!r}: {e}") from None
    if not math.isfinite(x):
        raise InputError(f"not a finite number: {v!r}")
    return x


def _fmt(x: float) -> str:
    return repr(float(x))


# -- network documents -------------------------------------------------------

@dataclass
class ValidationReport:
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, msg: str) -> None:
        self.issues.append(msg)

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(self.issues)


def _read_network(doc) -> tuple[ValidationReport, tuple | None]:
    """One pass over a raw network document.  Returns every violation
    found (instead of stopping at the first) and, when there is none,
    the DAG, the state spaces and the parsed local sets of the network;
    each local set is parsed once."""
    report = ValidationReport()
    if not isinstance(doc, Mapping):
        report.add("document is not a JSON object")
        return report, None

    nodes = doc.get("nodes")
    spaces: dict[str, tuple] = {}
    if not isinstance(nodes, list) or not nodes:
        report.add("missing or empty 'nodes' list")
    else:
        for entry in nodes:
            if not isinstance(entry, Mapping) or "name" not in entry \
                    or not isinstance(entry.get("states"), (list, tuple)):
                report.add(f"malformed node entry {entry!r}")
                continue
            name = str(entry["name"])
            states = tuple(str(x) for x in entry["states"])
            if name in spaces:
                report.add(f"duplicate node {name!r}")
            if not states or len(set(states)) != len(states):
                report.add(f"bad state list for node {name!r}")
            spaces[name] = states

    edge_entries = doc.get("edges", [])
    if not isinstance(edge_entries, (list, tuple)):
        report.add("'edges' is not a list")
        return report, None
    edges: dict[tuple, None] = {}             # insertion-ordered set
    for e in edge_entries:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            report.add(f"malformed edge {e!r}")
            continue
        a, b = str(e[0]), str(e[1])
        if a not in spaces or b not in spaces:
            report.add(f"edge ({a!r}, {b!r}) references undeclared node")
            continue
        if a == b:
            report.add(f"self-loop on node {a!r}")
            continue
        if (a, b) in edges:
            report.add(f"duplicate edge ({a!r}, {b!r})")
            continue
        edges[(a, b)] = None
    try:
        # nodes and edges are clean by now: only a cycle can be left
        dag = Dag(spaces, edges)
    except InputError:
        report.add("acyclicity violated")
        return report, None

    # local models: coverage and parse
    local_entries = doc.get("locals", [])
    if not isinstance(local_entries, (list, tuple)):
        report.add("'locals' is not a list")
        return report, None
    needed = {(s, cfg) for s in dag.nodes
              for cfg in product(*(spaces[p] for p in dag.parents(s)))}
    seen = set()
    locals_ = {}
    for entry in local_entries:
        if not isinstance(entry, Mapping) or "node" not in entry \
                or not isinstance(entry.get("given", {}), Mapping):
            report.add(f"malformed local entry {entry!r}")
            continue
        s = str(entry["node"])
        if s not in spaces:
            report.add(f"local model for undeclared node {s!r}")
            continue
        given = entry.get("given", {})
        try:
            cfg = tuple(str(given[p]) for p in dag.parents(s))
        except KeyError as e:
            report.add(f"local model for {s!r} misses parent value {e}")
            continue
        key = (s, cfg)
        if key in seen:
            report.add(f"duplicate local model for {key!r}")
            continue
        seen.add(key)
        if key not in needed:
            report.add(f"local model for impossible configuration {key!r}")
            continue
        try:
            locals_[key] = _parse_local(entry, spaces[s])
        except (InputError, ModelError) as e:
            report.add(f"invalid local model for {key!r}: {e}")
    for key in sorted(needed - seen):
        report.add(f"missing local model for node {key[0]!r} given {key[1]!r}")
    return report, ((dag, spaces, locals_) if report.ok else None)


def validate_document(doc) -> ValidationReport:
    """Structural validation of a raw network document; reports every
    violation instead of stopping at the first."""
    return _read_network(doc)[0]


def _objects(entry: Mapping, key: str):
    """``entry[key]`` checked to be a list of JSON objects, or None."""
    value = entry.get(key)
    if value is not None and not (isinstance(value, (list, tuple)) and
                                  all(isinstance(v, Mapping) for v in value)):
        raise InputError(f"{key!r} must be a list of objects")
    return value


def _parse_local(entry: Mapping, states: tuple) -> CredalSet:
    vertices = _objects(entry, "vertices")
    constraints = _objects(entry, "constraints")
    verts = None
    if vertices is not None:
        verts = [{s: parse_number(v[s]) for s in states}
                 if all(s in v for s in states) else _bad_vertex(v, states)
                 for v in vertices]
    cons = None
    if constraints is not None:
        cons = []
        for c in constraints:
            if not isinstance(c.get("alpha"), Mapping) or "beta" not in c:
                raise InputError(f"constraint needs alpha and beta: {c!r}")
            alpha = {s: parse_number(c["alpha"][s]) for s in states
                     if s in c["alpha"]}
            if set(alpha) != set(states):
                raise InputError(f"constraint alpha must cover {states}")
            cons.append(LinearConstraint.from_mapping(states, alpha,
                                                      parse_number(c["beta"])))
    return CredalSet(states, vertices=verts, constraints=cons)


def _bad_vertex(v, states):
    raise InputError(f"vertex {v!r} does not cover states {states}")


def load_network_document(doc) -> CredalNetwork:
    """The network of a raw document, validated and built in one pass."""
    report, parts = _read_network(doc)
    if parts is None:
        raise InputError("invalid network document:\n" + str(report))
    return CredalNetwork(*parts)


def load_network(path: str) -> CredalNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"cannot parse {path}: {e}") from None
    return load_network_document(doc)


def network_document(net: CredalNetwork) -> dict:
    """Canonical document for a network (vertex representation when
    available, constraints otherwise)."""
    doc = {
        "nodes": [{"name": s, "states": list(net.states(s))}
                  for s in net.dag.nodes],
        "edges": sorted([list(e) for e in net.dag.edges],
                        key=lambda e: (net.dag.index(e[0]), net.dag.index(e[1]))),
        "locals": [],
    }
    for s in net.dag.nodes:
        for cfg in net.parent_configs(s):
            m = net.local(s, cfg)
            entry = {"node": s,
                     "given": {p: x for p, x in zip(net.dag.parents(s), cfg)}}
            if m.vertices is not None:
                entry["vertices"] = [
                    {x: _fmt(v[x]) for x in m.states} for v in m.vertices]
            else:
                entry["constraints"] = [
                    {"alpha": {x: _fmt(a) for x, a in zip(m.states, c.coeffs)},
                     "beta": _fmt(c.bound)} for c in m.constraints]
            doc["locals"].append(entry)
    return doc


def dump_network(net: CredalNetwork) -> str:
    return json.dumps(network_document(net), indent=1, sort_keys=False) + "\n"


# -- query documents ----------------------------------------------------------

RULES = ("natural", "regular", "unconditional")
METHODS = ("auto", "lp", "decompose", "chain", "hmm")


@dataclass
class Query:
    target: Factor
    given: Event | None
    rule: str
    method: str
    tolerance: float


def _json_object(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be an object, not {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, not {value!r}")
    return value


def _parse_scoped_states(net: CredalNetwork, obj, what: str):
    obj = _json_object(obj, what)
    scope = [str(s) for s in _json_list(obj.get("scope", []), f"{what} scope")]
    net.dag.check_subset(scope)
    scope_t = net.dag.sorted_nodes(scope)
    states = obj.get("states")
    if not isinstance(states, list) or not states:
        raise InputError(f"{what} needs a nonempty 'states' list")
    tuples = []
    for row in states:
        if not isinstance(row, list) or len(row) != len(scope):
            raise InputError(f"bad joint state {row!r} for scope {scope}")
        by_node = dict(zip(scope, map(str, row)))
        tuples.append(tuple(by_node[s] for s in scope_t))
    return scope_t, tuples


def parse_query(net: CredalNetwork, doc) -> Query:
    if not isinstance(doc, Mapping) or "target" not in doc:
        raise InputError("query document needs a 'target'")
    target = _json_object(doc["target"], "query 'target'")
    if "indicator" in target:
        scope_t, tuples = _parse_scoped_states(net, target["indicator"],
                                               "indicator target")
        factor = net.indicator(net.event(scope_t, tuples))
    elif "table" in target:
        scope = [str(s) for s in _json_list(target.get("scope", []),
                                            "target scope")]
        net.dag.check_subset(scope)
        scope_t = net.dag.sorted_nodes(scope)
        table = target["table"]
        if isinstance(table, Mapping):
            if len(scope_t) != 1:
                raise InputError("mapping-style tables need a single-node scope")
            entries = {(str(k),): parse_number(v) for k, v in table.items()}
        else:
            entries = {}
            for row in _json_list(table, "target table"):
                row = _json_object(row, "table row")
                states = row.get("states")
                if not isinstance(states, list) or len(states) != len(scope):
                    raise InputError(
                        f"bad joint state {states!r} for scope {scope}")
                by_node = dict(zip(scope, map(str, states)))
                key = tuple(by_node[s] for s in scope_t)
                if key in entries:
                    raise InputError(f"target table repeats state {states!r}")
                entries[key] = parse_number(row.get("value"))
        factor = net.factor(scope_t, entries)
    else:
        raise InputError("target needs 'table' or 'indicator'")

    rule = doc.get("rule", "unconditional")
    if rule not in RULES:
        raise InputError(f"unknown rule {rule!r}")
    method = doc.get("method", "auto")
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    tolerance = parse_number(doc.get("tolerance", 1e-9))
    if tolerance <= 0.0:
        raise InputError(f"tolerance must be positive, not {tolerance!r}")

    given_doc = doc.get("given")
    given = None
    if given_doc is not None:
        given_doc = _json_object(given_doc, "query 'given'")
        if "assignment" in given_doc:
            assignment = {str(k): str(v) for k, v in _json_object(
                given_doc["assignment"], "'assignment'").items()}
            if not assignment:
                raise InputError("empty conditioning assignment")
            given = net.cylinder(assignment)
        else:
            scope_t, tuples = _parse_scoped_states(net, given_doc,
                                                   "conditioning event")
            given = net.event(scope_t, tuples)
            if given.empty:
                raise InputError("conditioning event is empty")
    if rule == "unconditional" and given is not None:
        raise InputError("unconditional queries cannot carry a conditioning "
                         "event")
    if rule != "unconditional" and given is None:
        raise InputError(f"rule {rule!r} needs a conditioning event")
    return Query(factor, given, rule, method, tolerance)


def load_query(net: CredalNetwork, path: str) -> Query:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"cannot parse {path}: {e}") from None
    return parse_query(net, doc)
